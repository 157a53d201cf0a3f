"""Cold A/B timing of two source trees on one benchmark workload, in one process.

    python3 tools/coldab.py PARENT CHANGE --workload orbit-real --seed 12 [--reps 9] [--limit K]

``PARENT`` and ``CHANGE`` are checkouts (or their ``src/`` directories).
Both are imported in this process, under the package names ``otiso_a`` and
``otiso_b``; the package imports itself relatively, so the two trees share
nothing but numpy.  The workload's ops are generated with
``bench/workloads.py`` exactly as the benchmark generates them (``--limit``
keeps the K smallest), and each op is passed to both trees' ``cli.main``.

Every call goes through ``bench/run.py``'s own ``call``, which starts it
right after ``gc.collect()``: the collection evicts the caches, so small
ops are timed in the same cold state the benchmark times them in, which is
far slower than a warm loop.
The two trees alternate which runs first, op by op and repetition by
repetition.  This host's speed drifts by up to 2x over tens of seconds;
interleaving calls in one process cancels that drift, where separate
benchmark runs only average over it.  Ops whose first call takes over
``bench/run.py``'s ``REPEAT_BELOW_S`` (0.25 s) are timed once per tree, as
the benchmark does.

Every call is judged by ``bench/run.py``'s ``judge``.  An op that fails
on a tree (a wrong or missing verdict, a YES whose witness fails its
check, an error) ranks ``inf`` there, as ``bench/metrics.py`` ranks it, so
it sorts above every completed op in the fast half.

Each op prints its verdict, its median seconds on both trees (``inf`` where
it failed), their ratio (change over parent) and, from one more untimed
call per tree, the number of calls into Python functions under numpy's
package directory, counted with ``sys.setprofile`` as
``tests/test_cli.py``'s wrapper budget counts them (cold, each such wrapper
costs about as much as a small op's arithmetic).  The last line gives each
tree's geometric mean over the fastest half of its ops (``bench/metrics.py``'s
``fast_half_gmean``) and the ratio of the two.  Exit code and stdout must
match byte for byte on every call; the script exits 1 when they do not, or
when a call raises.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, as the benchmark runs; set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import importlib.util
import math
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def load_tree(src: Path, name: str):
    """Import the ``otiso`` package under ``src`` as package ``name`` and return its ``cli`` module."""
    src = src.resolve()
    if (src / "src" / "otiso").is_dir():
        src = src / "src"
    init = src / "otiso" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no otiso sources under {src}")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def clear(op) -> None:
    """Remove the op's output files, as the benchmark does before every call."""
    for key in ("witness", "csv"):
        path = op.check.get(key)
        if path is not None:
            path.unlink(missing_ok=True)


def call(cli, op) -> tuple:
    """Seconds, outcome and judgement of one cold call."""
    clear(op)
    sec, code, stdout, exc = run.call(cli, op)
    # judged at once: a YES is checked against the witness file this call wrote
    return sec, (code, stdout, repr(exc) if exc is not None else None), run.judge(op, code, stdout, exc, [])


def time_op(clis, op, n: int, reps: int) -> tuple:
    """Both trees' seconds for ``op`` (the median of its calls, ``inf`` if any failed), its verdict, and whether every outcome matched.

    ``n`` is the op's position, which sets which tree runs first in each repetition.
    """
    seconds, outputs, failed, verdicts = ([], []), ([], []), [False, False], [set(), set()]
    for rep in range(reps):
        for side in ((0, 1) if (n + rep) % 2 == 0 else (1, 0)):
            sec, out, res = call(clis[side], op)
            seconds[side].append(sec)
            outputs[side].append(out)
            failed[side] |= res["failed"]
            verdicts[side].add(res["verdict"])
        if rep == 0 and min(seconds[0][0], seconds[1][0]) > run.REPEAT_BELOW_S:
            break
    same = len(set(outputs[0] + outputs[1])) == 1 and outputs[0][0][2] is None
    label = [",".join(sorted(v)) + (" (failed)" if f else "") for v, f in zip(verdicts, failed)]
    verdict = label[0] if label[0] == label[1] else " / ".join(label)
    times = tuple(math.inf if f else statistics.median(s) for s, f in zip(seconds, failed))
    return times, verdict, same


def wrapper_calls(cli, op) -> int:
    """Calls into Python functions under numpy's package directory during one untimed call."""
    root = os.path.dirname(np.__file__) + os.sep
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(root):
            count += 1

    clear(op)
    sys.setprofile(profile)
    try:
        run.call(cli, op)
    finally:
        sys.setprofile(None)
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reps", type=int, default=9, help="calls per op and tree (default 9)")
    parser.add_argument("--limit", type=int, help="time only the LIMIT smallest ops")
    args = parser.parse_args(argv)
    clis = (load_tree(args.parent, "otiso_a"), load_tree(args.change, "otiso_b"))
    # stay on one core, as the benchmark does
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    mismatched = 0
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        ops = workloads.generate(args.workload, args.seed, Path(tmp))
        if args.limit is not None:
            ops = sorted(ops, key=lambda op: op.size)[: args.limit]
        for n, op in enumerate(ops):
            (a, b), verdict, same = time_op(clis, op, n, args.reps)
            mismatched += not same
            rows.append((a, b))
            wa, wb = (wrapper_calls(cli, op) for cli in clis)
            print(f"{op.label:<24} {verdict:<22} parent {a * 1e3:9.3f} ms  change {b * 1e3:9.3f} ms  "
                  f"ratio {b / a:6.3f}  numpy calls {wa:4d} -> {wb:4d}" + ("" if same else "  OUTCOME DIFFERS"),
                  flush=True)
    a, b = (metrics.fast_half_gmean([r[side] for r in rows]) for side in (0, 1))
    print(f"fast half ({(len(rows) + 1) // 2} of {len(rows)} ops): parent {a * 1e3:.3f} ms  change {b * 1e3:.3f} ms  "
          f"ratio {b / a:.4f}; {mismatched} op(s) differing or raising")
    return int(mismatched > 0)


if __name__ == "__main__":
    sys.exit(main())
