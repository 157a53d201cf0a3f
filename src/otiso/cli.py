"""Command-line front end.

Exit codes: 0 YES/success, 1 NO/failed check, 2 cannot decide, 3 usage
error, 4 runtime error.  With --json every report is a single JSON document
on stdout, serialized canonically so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys

import numpy as np

from . import io as tio
from .decision import Decision, decide_isomorphism, decide_orbit_distance, verify_witness
from .errors import ConfigInvalid, DimensionMismatch, EpsOutOfRange, OtisoError, ScalarKindMismatch
from .gaps import BETA_EXPERIMENT, GapExperiment, emit_csv, run_gap_experiment, run_tensor_gram_experiment
from .hypergraph import decide_hypergraph_iso, read_hypergraph
from .tensor import RandomModel, sample_tensor

_VERDICT_EXIT = {"yes": 0, "no": 1, "cannot_decide": 2}


def _jsonable(obj):
    """Plain Python values for the report; a non-finite float (``min_gap`` of a size-1 mode is inf) becomes ``None``."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _emit(args, report: dict, text: str) -> None:
    if getattr(args, "json", False):
        sys.stdout.write(tio.dumps_canonical(_jsonable(report)))
    elif not getattr(args, "quiet", False):
        print(text)


@contextlib.contextmanager
def _usage_error(*kinds):
    """Re-raise ``kinds`` as :class:`ConfigInvalid`: input that was read fine but that the command cannot take."""
    try:
        yield
    except kinds as exc:
        raise ConfigInvalid(str(exc)) from exc


def _cmd_gen(args) -> int:
    dims = tuple(args.dims)
    model = RandomModel(distribution=args.model, scalar_kind=args.kind, seed=args.seed)
    with _usage_error(DimensionMismatch):
        t = sample_tensor(dims, model)
    if args.format == "t3b":
        tio.write_tensor(t, args.out)
    else:
        tio.write_tensor_json(t, args.out)
    _emit(
        args,
        {"command": "gen", "out": str(args.out), "dims": list(dims), "scalar_kind": args.kind,
         "model": args.model, "seed": args.seed, "frobenius_norm": t.frobenius_norm},
        f"wrote {args.out} ({args.kind} {dims[0]}x{dims[1]}x{dims[2]}, {args.model}, seed {args.seed})",
    )
    return 0


def _decision_report(command: str, dec: Decision) -> dict:
    return {
        "command": command,
        "verdict": dec.verdict,
        "residual": dec.residual,
        "gamma_bound": dec.gamma_bound,
        "diagnostics": dec.diagnostics,
    }


def _cmd_decide(args) -> int:
    """``iso`` runs the exact test, ``dist`` the gapped one at ``--eps``."""
    a = tio.read_tensor_any(args.a)
    b = tio.read_tensor_any(args.b)
    with _usage_error(DimensionMismatch, ScalarKindMismatch):
        dec = decide_isomorphism(a, b) if args.subcommand == "iso" else decide_orbit_distance(a, b, args.eps)
    if args.witness_out and dec.verdict == "yes":
        tio.write_witness_json(dec.witness, args.witness_out)
    detail = "" if dec.residual is None else f" (residual {dec.residual:.6e}, bound {dec.gamma_bound:.6e})"
    _emit(args, _decision_report(args.subcommand, dec), f"verdict: {dec.verdict}{detail}")
    return _VERDICT_EXIT[dec.verdict]


def _cmd_gaps(args) -> int:
    model = RandomModel(distribution=args.model, scalar_kind=args.kind, seed=args.seed)
    if args.tensor:
        report = run_tensor_gram_experiment(args.n, model, args.trials, eta=args.eta, beta=args.beta)
    else:
        cfg = GapExperiment(n=args.n, beta=args.beta, trials=args.trials, model=model,
                            zeta=args.zeta, p=args.p)
        report = run_gap_experiment(cfg)
    if args.csv:
        emit_csv(report, args.csv)
    gaps = [r.min_gap for r in report.records]
    summary = {
        "command": "gaps",
        "meta": report.meta,
        "trials": len(report.records),
        "target": report.target,
        "bound_prob": report.bound_prob,
        "prob_ge_target": report.prob_ge_target,
        "simple_freq": report.simple_freq,
        "degenerate": report.degenerate,
        "median_min_gap": float(np.median(gaps)) if gaps else None,
    }
    _emit(
        args,
        summary,
        f"trials {len(report.records)}: simple_freq {report.simple_freq:.4f}, "
        f"P[min_gap >= {report.target:.6e}] = {report.prob_ge_target:.4f} "
        f"(bound {report.bound_prob:.4f})",
    )
    return 0


def _cmd_hyper(args) -> int:
    g = read_hypergraph(args.g)
    h = read_hypergraph(args.h)
    with _usage_error(DimensionMismatch):
        dec = decide_hypergraph_iso(g, h)
    perms = None if dec.perms is None else [[v + 1 for v in p] for p in dec.perms.perms]
    _emit(
        args,
        {"command": "hyper", "verdict": dec.verdict, "perms": perms, "diagnostics": dec.diagnostics},
        f"verdict: {dec.verdict}",
    )
    return _VERDICT_EXIT[dec.verdict]


def _cmd_verify(args) -> int:
    if not (0.0 <= args.tol < math.inf):
        raise ConfigInvalid(f"--tol must be finite and >= 0, got {args.tol!r}")
    a = tio.read_tensor_any(args.a)
    b = tio.read_tensor_any(args.b)
    w = tio.read_witness_any(args.witness)
    with _usage_error(DimensionMismatch):
        report = verify_witness(a, b, w)
    gate = args.tol * max(a.frobenius_norm, 1e-300)
    ok = report.residual <= gate and report.unitary_ok
    _emit(
        args,
        {
            "command": "verify",
            "residual": report.residual,
            "gate": gate,
            "unitarity_defects": list(report.unitarity_defects),
            "unitary_ok": report.unitary_ok,
            "pass": ok,
        },
        f"residual {report.residual:.6e} vs gate {gate:.6e}: {'pass' if ok else 'fail'}",
    )
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; ``parse_args`` leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed (64-bit)")
    common.add_argument("--json", action="store_true", help="emit a single JSON report on stdout")
    common.add_argument("--quiet", action="store_true", help="suppress human-readable output")

    parser = argparse.ArgumentParser(prog="otiso", description="Orbit-equivalence toolkit for 3-tensors.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_gen = sub.add_parser("gen", parents=[common], help="sample a random tensor to a file")
    p_gen.add_argument("--dims", type=int, nargs=3, required=True, metavar=("L", "M", "N"))
    p_gen.add_argument("--model", choices=["gaussian", "rademacher", "uniform_pm"], default="gaussian")
    p_gen.add_argument("--kind", choices=["real", "complex"], default="real")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--format", choices=["t3b", "json"], default="t3b")
    p_gen.set_defaults(func=_cmd_gen)

    p_iso = sub.add_parser("iso", parents=[common], help="exact orbit-equivalence decision")
    p_iso.add_argument("--a", required=True)
    p_iso.add_argument("--b", required=True)
    p_iso.add_argument("--witness-out", default=None, help="write the verified witness as JSON on a YES verdict")
    p_iso.set_defaults(func=_cmd_decide)

    p_dist = sub.add_parser("dist", parents=[common], help="gap-certified orbit distance decision")
    p_dist.add_argument("--a", required=True)
    p_dist.add_argument("--b", required=True)
    p_dist.add_argument("--eps", type=float, required=True)
    p_dist.add_argument("--witness-out", default=None)
    p_dist.set_defaults(func=_cmd_decide)

    p_gaps = sub.add_parser("gaps", parents=[common], help="spectral-gap Monte-Carlo experiments")
    p_gaps.add_argument("--n", type=int, required=True)
    p_gaps.add_argument("--zeta", type=float, default=None)
    p_gaps.add_argument("--p", type=int, default=None)
    p_gaps.add_argument("--beta", type=float, default=BETA_EXPERIMENT)
    p_gaps.add_argument("--trials", type=int, required=True)
    p_gaps.add_argument("--model", choices=["gaussian", "rademacher", "uniform_pm"], default="gaussian")
    p_gaps.add_argument("--kind", choices=["real", "complex"], default="real")
    p_gaps.add_argument("--csv", default=None)
    p_gaps.add_argument("--tensor", action="store_true", help="run the tensor-Gram experiment instead")
    p_gaps.add_argument("--eta", type=float, default=None, help="perturbation size for the tensor experiment")
    p_gaps.set_defaults(func=_cmd_gaps)

    p_hyper = sub.add_parser("hyper", parents=[common], help="tripartite hypergraph isomorphism")
    p_hyper.add_argument("--g", required=True)
    p_hyper.add_argument("--h", required=True)
    p_hyper.set_defaults(func=_cmd_hyper)

    p_verify = sub.add_parser("verify", parents=[common], help="recompute a witness residual")
    p_verify.add_argument("--a", required=True)
    p_verify.add_argument("--b", required=True)
    p_verify.add_argument("--witness", required=True)
    p_verify.add_argument("--tol", type=float, default=1e-6, help="pass gate relative to the first tensor's norm")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 3
    try:
        return args.func(args)
    except (ConfigInvalid, EpsOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OtisoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
