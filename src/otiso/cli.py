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
from .tensor import DISTRIBUTIONS, SCALAR_KINDS, RandomModel, sample_tensor

_VERDICT_EXIT = {"yes": 0, "no": 1, "cannot_decide": 2}
_PLAIN = frozenset((str, int, bool, type(None)))


def _jsonable(obj):
    """Plain Python values for the report; a non-finite float (``min_gap`` of a size-1 mode is inf) becomes ``None``.

    A report is built of dicts, lists, tuples and the plain built-in types,
    told apart by their exact type; a numpy scalar is the one other leaf.
    """
    kind = type(obj)
    if kind is float:
        return obj if math.isfinite(obj) else None
    if kind is dict:
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if kind is list or kind is tuple:
        return [_jsonable(v) for v in obj]
    if kind in _PLAIN:
        return obj
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _jsonable(obj.item())
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
    a = tio.read_tensor(args.a)
    b = tio.read_tensor(args.b)
    with _usage_error(DimensionMismatch, ScalarKindMismatch):
        dec = decide_isomorphism(a, b) if args.subcommand == "iso" else decide_orbit_distance(a, b, args.eps)
    if args.witness_out and dec.verdict == "yes":
        tio.write_witness_json(dec.witness, args.witness_out)
    detail = "" if dec.residual is None else f" (residual {dec.residual:.6e}, bound {dec.gamma_bound:.6e})"
    _emit(args, _decision_report(args.subcommand, dec), f"verdict: {dec.verdict}{detail}")
    return _VERDICT_EXIT[dec.verdict]


def _cmd_gaps(args) -> int:
    if args.tensor and (args.zeta is not None or args.p is not None):
        raise ConfigInvalid("--zeta and --p set the matrix experiment, which --tensor replaces")
    if args.eta is not None and not args.tensor:
        raise ConfigInvalid("--eta sets the tensor experiment, which runs only with --tensor")
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
        "median_min_gap": float(np.median(gaps)),  # an experiment runs at least one trial
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
    a = tio.read_tensor(args.a)
    b = tio.read_tensor(args.b)
    w = tio.read_witness(args.witness)
    with _usage_error(DimensionMismatch):
        report = verify_witness(a, b, w)
    gate = args.tol * max(a.frobenius_norm, 1e-300)
    # a residual and a gate past the double range are both inf, and inf <= inf proves nothing
    ok = report.residual <= gate < math.inf and report.unitary_ok
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


_REQUIRED = dict(required=True)
_MODEL = dict(choices=DISTRIBUTIONS, default="gaussian")
_KIND = dict(choices=SCALAR_KINDS, default="real")
_SEED = dict(type=int, default=0, help="RNG seed (64-bit)")
_COMMON = {"--json": dict(action="store_true", default=False, help="emit a single JSON report on stdout"),
           "--quiet": dict(action="store_true", default=False, help="suppress human-readable output")}
# The command line, declared once: each subcommand's help, handler and
# options, each option's flag mapped to its ``add_argument`` keywords.  Every
# subcommand also takes the options of _COMMON, ahead of its own.  A
# store_true option names its default, False, for the plain path to fill in.
_COMMANDS = {
    "gen": ("sample a random tensor to a file", _cmd_gen, {
        "--seed": _SEED, "--dims": dict(type=int, nargs=3, required=True, metavar=("L", "M", "N")),
        "--model": _MODEL, "--kind": _KIND, "--out": _REQUIRED,
        "--format": dict(choices=["t3b", "json"], default="t3b")}),
    "iso": ("exact orbit-equivalence decision", _cmd_decide, {
        "--a": _REQUIRED, "--b": _REQUIRED,
        "--witness-out": dict(default=None, help="write the verified witness as JSON on a YES verdict")}),
    "dist": ("gap-certified orbit distance decision", _cmd_decide, {
        "--a": _REQUIRED, "--b": _REQUIRED, "--eps": dict(type=float, required=True), "--witness-out": dict(default=None)}),
    "gaps": ("spectral-gap Monte-Carlo experiments", _cmd_gaps, {
        "--seed": _SEED, "--n": dict(type=int, required=True), "--zeta": dict(type=float, default=None),
        "--p": dict(type=int, default=None), "--beta": dict(type=float, default=BETA_EXPERIMENT),
        "--trials": dict(type=int, required=True), "--model": _MODEL, "--kind": _KIND, "--csv": dict(default=None),
        "--tensor": dict(action="store_true", default=False, help="run the tensor-Gram experiment instead"),
        "--eta": dict(type=float, default=None, help="perturbation size for the tensor experiment")}),
    "hyper": ("tripartite hypergraph isomorphism", _cmd_hyper, {"--g": _REQUIRED, "--h": _REQUIRED}),
    "verify": ("recompute a witness residual", _cmd_verify, {
        "--a": _REQUIRED, "--b": _REQUIRED, "--witness": _REQUIRED,
        "--tol": dict(type=float, default=1e-6, help="pass gate relative to the first tensor's norm")}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built from :data:`_COMMANDS` on first use and kept; ``parse_args`` leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    for flag, keywords in _COMMON.items():
        common.add_argument(flag, **keywords)
    parser = argparse.ArgumentParser(prog="otiso", description="Orbit-equivalence toolkit for 3-tensors.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (text, func, options) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=text)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def _read_plain(argv) -> argparse.Namespace | None:
    """The Namespace of an argv made only of a subcommand and exact long options, else None.

    A flag's value is the next token unless that starts with ``-``; ``type``
    and ``choices`` apply as in argparse.  None is help, an abbreviation,
    ``--opt=value``, a repeated option, ``nargs``, a value that starts with
    ``-``, a bad value, a missing required option or an extra token.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = {**_COMMON, **command[2]}
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        keywords = options.get(flag)
        if keywords is None or flag in given or "nargs" in keywords:
            return None
        if keywords.get("action") == "store_true":
            given[flag] = True
            continue
        token = next(tokens, "-")
        if token.startswith("-"):
            return None
        try:
            given[flag] = keywords.get("type", str)(token)
        except ValueError:
            return None
        if "choices" in keywords and given[flag] not in keywords["choices"]:
            return None
    if any(keywords.get("required") and flag not in given for flag, keywords in options.items()):
        return None
    args = object.__new__(argparse.Namespace)  # argparse's own __init__ is Python code; the plain path calls none
    vars(args).update({"subcommand": argv[0], **{flag[2:].replace("-", "_"): given.get(flag, keywords.get("default"))
                                                 for flag, keywords in options.items()}, "func": command[1]})
    return args


def parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, whose tree is built only for an argv :func:`_read_plain` leaves to it."""
    args = _read_plain(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 3
    try:
        return args.func(args)
    except (ConfigInvalid, EpsOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OtisoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
