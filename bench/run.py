"""End-to-end benchmark of the otiso CLI.

    python3 bench/run.py --workload orbit-complex --seed 1 --seconds 20 --trace 0

Run from a source checkout: the package is imported from ``src/`` next to
this directory.  Inputs are generated from ``--seed`` before timing starts.
One client in one process, pinned to one CPU, calls ``otiso.cli.main(argv)``
in a closed loop: each op starts after the previous one returns.  A first
pass calls every op once; the cheap ops are then called again in later
passes while ``--seconds`` allows (at least MIN_REPEAT_PASSES times), and
each op's time is the median of its calls.  The gated op metric divides
each call's time by that of a fixed reference computation timed right after
it on the same core (see ``reference``).  Every output is checked
independently; a YES that fails its check makes the run exit non-zero.

With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer self times and work counts, measured on passes
that alternate with untraced ones so the tracing overhead is reported too.
Lines before it are ``#`` comments: environment, input digest, every metric
with its unit and the verdict tally.
"""

from __future__ import annotations

import os

# One process must not oversubscribe the host; set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import checks
import metrics
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 9
REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((48, 48))
# ops faster than this are called again in later passes (see run_passes)
REPEAT_BELOW_S = 0.25
MIN_REPEAT_PASSES = 4
EXIT_CODES = {"yes": 0, "no": 1, "cannot_decide": 2}

# name -> unit, as listed in BENCHMARK.json
END_TO_END = {"op_fast_half_ref": "ref", "setup_s": "s"}
# every end-to-end figure printed as a comment line; op_tail_s is null when it falls on a failed op
REPORTED = {"setup_s": "s", "op_fast_half_ref": "ref", "op_fast_half_s": "s", "op_p50_s": "s", "op_tail_s": "s",
            "ops_failed_frac": "1", "wrong_verdicts": "count", "trials_per_s": "1/s"}


def per_layer_names() -> dict:
    """Metric names and units of the traced run's last line.

    Self time goes there as a share of traced op time: a layer a workload
    never calls reads exactly 0 on every run, which is a count of nothing,
    not a time.  The ``.self_s`` seconds are printed as comment lines.
    """
    names = {}
    for span in spans.WRAP:
        names[f"{span}.self_frac"] = "1"
        names[f"{span}.calls"] = "count"
    names.update({c: "count" for c in spans.COUNTS if not c.startswith("decision.")})
    names["decision.witness_yield"] = "1"
    names["trace.overhead_frac"] = "1"
    return names


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "nproc": os.cpu_count(), "pinned_to": sorted(os.sched_getaffinity(0)), "cpu": cpu,
            "threads": os.environ["OPENBLAS_NUM_THREADS"]}


def setup_sample() -> float:
    """Wall time of a fresh interpreter importing the CLI, which every invocation pays."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import otiso.cli"], env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                   check=True)
    return time.perf_counter() - t0


def reference() -> float:
    """Seconds of a fixed computation that does not touch the package under test.

    It is timed on the same core right after every untraced call, and each
    call's time is divided by it.  This host's speed drifts by up to 2x over
    tens of seconds, which moved op times between runs far more than their
    spread within a run; the ratio cancels that drift.  Like the cheap ops it
    mixes interpreter work with small LAPACK calls.
    """
    t0 = time.perf_counter()
    acc = {}
    for i in range(3000):
        acc[i % 89] = acc.get(i % 89, 0) + i * 3
    for _ in range(4):
        np.linalg.eigvalsh(REFERENCE_MATRIX @ REFERENCE_MATRIX.T)
    return time.perf_counter() - t0


def call(cli, op):
    """Time one in-process CLI call; returns (seconds, exit code or None, stdout, exception)."""
    out, err = io.StringIO(), io.StringIO()
    # Start each call from the same collector state, as a fresh process would;
    # otherwise a full collection owed by earlier calls lands in a random op.
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
        exc = None
    except Exception as e:  # a raise is an op failure, recorded and reported below
        code, exc = None, e
    return time.perf_counter() - t0, code, out.getvalue(), exc


def judge(op, code, stdout, exc, broken: list) -> dict:
    """Classify one call.  A YES failing its independent check is appended to ``broken``."""
    if exc is not None or code not in (0, 1, 2):
        return {"failed": True, "wrong": False, "verdict": f"exit {code}" if exc is None else type(exc).__name__,
                "step": None}
    try:
        report = json.loads(stdout)
    except ValueError:
        return {"failed": True, "wrong": False, "verdict": "bad json", "step": None}
    if op.expect is None:
        ok = code == 0 and checks.check_gaps(op, report)
        return {"failed": not ok, "wrong": False, "verdict": "ok" if ok else "mismatch", "step": None}
    verdict = report.get("verdict")
    step = (report.get("diagnostics") or {}).get("step")
    if verdict == "yes":
        try:
            (checks.check_perms if op.argv[0] == "hyper" else checks.check_witness)(op, report)
        except checks.BrokenYes as e:
            broken.append(str(e))
            return {"failed": True, "wrong": True, "verdict": verdict, "step": step}
    if EXIT_CODES.get(verdict) != code:
        return {"failed": True, "wrong": False, "verdict": f"{verdict} exit {code}", "step": step}
    return {"failed": verdict != op.expect, "wrong": verdict in ("yes", "no") and verdict != op.expect,
            "verdict": verdict, "step": step}


def run_passes(cli, ops, seconds: float, tracer):
    """Closed loop: one client, each call starts after the previous one returns.

    Untraced, the first pass calls every op once; later passes call only the
    ops that took under REPEAT_BELOW_S, at least MIN_REPEAT_PASSES times and
    then while another pass fits in ``seconds``.  Cheap ops, which hold the
    median, thus get samples spread over the whole run, which damps slow host
    drift; each op's time is the median of its calls.  Traced, passes over
    every op alternate untraced and traced (at least one of each), so
    per-pass counts are exact and the overhead is their time ratio.

    The SETUP_REPS set-up samples are spread over the first ``seconds``
    between calls, so their median, like the op times, covers the whole run
    rather than the host's speed of one moment.

    Returns per-op results for untraced and traced calls, the set-up
    samples, the verdict tally of the first pass, the failed independent
    checks and the pass count.
    """
    plain = [{"seconds": [], "refs": [], "failed": False, "wrong": False} for _ in ops]
    traced = [{"seconds": [], "failed": False, "wrong": False} for _ in ops]
    setup, tally, broken = [], Counter(), []
    todo = range(len(ops))
    passes, start = 0, time.perf_counter()
    while True:
        with_trace = tracer is not None and passes % 2 == 1
        pass_start = time.perf_counter()
        if with_trace:
            tracer.install()
        try:
            for i in todo:
                op = ops[i]
                for path in (op.check.get("witness"), op.check.get("csv")):
                    if path is not None:
                        path.unlink(missing_ok=True)
                if len(setup) < SETUP_REPS and time.perf_counter() >= start + len(setup) * seconds / SETUP_REPS:
                    setup.append(setup_sample())
                if with_trace:
                    tracer.op = i
                sec, code, stdout, exc = call(cli, op)
                r = (traced if with_trace else plain)[i]
                if not with_trace:
                    r["refs"].append(reference())
                res = judge(op, code, stdout, exc, broken)
                r["seconds"].append(sec)
                r["failed"] |= res["failed"]
                r["wrong"] |= res["wrong"]
                if passes == 0:
                    tally[(op.expect or "-", res["verdict"], res["step"] or "-")] += 1
        finally:
            if with_trace:
                tracer.close()
        passes += 1
        now = time.perf_counter()
        if tracer is None:
            if passes == 1:
                todo = [i for i in todo if plain[i]["seconds"][0] < REPEAT_BELOW_S]
                continue
            if passes <= MIN_REPEAT_PASSES or now + (now - pass_start) <= start + seconds:
                continue
        elif passes < 2 or (now - start) * (passes + 1) / passes <= seconds:
            continue
        setup += [setup_sample() for _ in range(SETUP_REPS - len(setup))]
        return plain, traced, setup, tally, broken, passes


def layer_metrics(tracer, plain, traced) -> dict:
    """Per traced pass: self seconds, self share of op time and calls per span, work counts, yield, overhead."""
    npass = len(traced[0]["seconds"])
    op_seconds = sum(sum(r["seconds"]) for r in traced)
    out = {}
    for span, (self_s, calls) in tracer.self_times().items():
        out[f"{span}.self_s"] = self_s / npass
        out[f"{span}.self_frac"] = self_s / op_seconds
        out[f"{span}.calls"] = calls / npass
    c = tracer.counts
    for name in ("hosvd.phase_targets", "hosvd.reject_far", "phases.infeasible"):
        out[name] = c[name] / npass
    out["decision.witness_yield"] = c["decision.yes"] / c["decision.witnesses"] if c["decision.witnesses"] else 1.0
    per_pass = lambda rs: sum(sum(r["seconds"]) for r in rs) / len(rs[0]["seconds"])
    out["trace.overhead_frac"] = per_pass(traced) / per_pass(plain) - 1.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "otiso" / "cli.py").is_file():
        print(f"error: no otiso sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scipy.optimize  # noqa: F401  lazy import inside the LP fallback; load it before timing

    import otiso.cli as cli

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported otiso from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # Stay on one core: a migration between the host's two cores moved single
    # calls by up to 2x, and pinned runs spread a third as much as unpinned ones.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ops = workloads.generate(args.workload, args.seed, work)
        inputs = workloads.digest(ops, work)
        call(cli, min(ops, key=lambda op: op.size))  # warm-up, untimed
        tracer = spans.Tracer() if args.trace else None
        plain, traced, setup, tally, broken, passes = run_passes(cli, ops, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: {len(ops)} ops x {passes} passes, "
          "closed loop, 1 client")
    print("# env " + " ".join(f"{k}={v!r}" for k, v in environment().items()))
    print(f"# inputs sha256 {inputs}")
    for (expect, verdict, step), count in sorted(tally.items()):
        print(f"# verdicts expect={expect} got={verdict} step={step}: {count}")
    for msg in broken:
        print(f"# BROKEN YES: {msg}")

    if tracer is None:
        summary = metrics.summarize(plain, setup, workloads.gaplab_trials(ops) if args.workload == "gaplab" else None)
        for name, unit in REPORTED.items():
            if name not in summary:
                continue
            value, note = summary[name], ""
            if name == "op_tail_s":
                note = f" (p{summary['op_tail_pct']:g}, {summary['op_tail_beyond']} of {summary['ops']} ops beyond)"
                value = None if value == float("inf") else value
            print(f"# metric {name} = {value} {unit}{note}")
        refs = [ref for r in plain for ref in r["refs"]]
        print(f"# reference call: median {statistics.median(refs)} s over {len(refs)} calls, the unit ref")
        chosen = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END.items()}
        runs = [plain]
    else:
        layer = layer_metrics(tracer, plain, traced)
        names = per_layer_names()
        for name, value in layer.items():
            print(f"# layer {name} = {value} {names.get(name, 's')}")
        WORK.mkdir(exist_ok=True)
        tracer.dump(WORK / f"trace-{args.workload}-s{args.seed}.jsonl")
        chosen = {name: {"value": layer[name], "unit": unit} for name, unit in names.items()}
        runs = [plain, traced]
    attempted, failed = metrics.op_counts(*runs)
    print(json.dumps({"correct": not broken, "attempted": attempted, "failed": failed, "metrics": chosen}))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
