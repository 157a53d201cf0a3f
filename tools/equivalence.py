"""Run every decision op of the benchmark workloads through one source tree's CLI.

    python3 tools/equivalence.py SRC SEED [SEED ...] > ops.jsonl

``SRC`` is a checkout (or its ``src/`` directory); ``otiso`` is imported
from there.  For each seed, the ``iso``, ``dist``, ``hyper`` and ``gaps`` ops of every
workload in ``bench/workloads.py`` are generated exactly as the benchmark
generates them and passed to ``otiso.cli.main`` in process, one at a time.
Each op prints one JSON line: workload, seed, label, exit code, stdout,
stderr and the sha256 of the witness or CSV file it wrote (null when none).
``witness_values_sha256`` hashes the witness factors' float64 values as
``json`` parses them, so two trees that write the same numbers as different
text differ in ``witness_sha256`` alone.  The work directory's path is
replaced by ``$WORK``, so runs of two source trees compare with ``diff``.

    python3 tools/equivalence.py --compare PARENT.jsonl CHANGE.jsonl

reads two such runs and prints, per workload, how many ops differ in exit
code, verdict, ``step``, the other diagnostics, stdout bytes, stderr text,
witness values and CSV bytes; then each diagnostics key that was added,
removed or changed, with the number of ops it happened on; then every
``step`` and every ``solver_path`` transition with the verdict it happened on
and the ops (seed and label) that made it.  It exits 1 when any op differs,
else 0.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, as the benchmark runs; set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import numpy as np  # noqa: E402
import workloads  # noqa: E402

COMMANDS = ("iso", "dist", "hyper", "gaps")


def witness_values_digest(path: Path) -> str:
    """sha256 of a JSON witness's three factors as float64 arrays (complex entries as re, im pairs)."""
    factors = json.loads(path.read_bytes())["factors"]
    return hashlib.sha256(b"".join(np.asarray(f, dtype=np.float64).tobytes() for f in factors)).hexdigest()


def run_op(cli, op, work: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(op.argv)
    digests = {}
    for key in ("witness", "csv"):
        path = op.check.get(key)
        digests[f"{key}_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest() if path and path.exists() else None
        if key == "witness":
            digests["witness_values_sha256"] = witness_values_digest(path) if digests["witness_sha256"] else None
    return {"label": op.label, "code": code, "stdout": out.getvalue().replace(str(work), "$WORK"),
            "stderr": err.getvalue().replace(str(work), "$WORK"), **digests}


# columns of the --compare table: what two runs of one op may differ in
FIELDS = ("code", "verdict", "step", "diagnostics", "stdout", "stderr", "witness_values", "csv")
# diagnostics whose every change --compare lists, with the ops it happened on
TRANSITIONS = ("step", "solver_path")


def _report(rec: dict) -> dict:
    """The op's JSON report, or {} for output that is not one JSON object."""
    try:
        out = json.loads(rec["stdout"])
    except ValueError:
        return {}
    return out if isinstance(out, dict) else {}


def _op_fields(rec: dict) -> dict:
    """The values of one op that ``FIELDS`` and ``TRANSITIONS`` compare."""
    report = _report(rec)
    diag = dict(report.get("diagnostics") or {})
    return {"code": rec["code"], "verdict": report.get("verdict"), "step": diag.pop("step", None),
            "diagnostics": diag, "stdout": rec["stdout"], "stderr": rec["stderr"],
            "witness_values": rec["witness_values_sha256"], "csv": rec["csv_sha256"],
            "solver_path": diag.get("solver_path")}


def _key_changes(was: dict, now: dict):
    """``(key, how)`` for each diagnostics key that ``now`` added, removed or changed against ``was``."""
    for key in sorted(was.keys() | now.keys()):
        if key not in now:
            yield key, "removed"
        elif key not in was:
            yield key, "added"
        elif was[key] != now[key]:
            yield key, "changed"


def _read_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def compare(parent_path: Path, change_path: Path) -> int:
    parent, change = _read_jsonl(parent_path), _read_jsonl(change_path)
    keys = [[(r["workload"], r["seed"], r["label"]) for r in recs] for recs in (parent, change)]
    if keys[0] != keys[1]:
        print("error: the two runs hold different ops (workload, seed, label)", file=sys.stderr)
        return 2
    counts: dict = {}
    keyed: dict = {}
    moves: dict = {}
    for p, c in zip(parent, change):
        fp, fc = _op_fields(p), _op_fields(c)
        row = counts.setdefault(p["workload"], Counter())
        row["ops"] += 1
        row.update(f for f in FIELDS if fp[f] != fc[f])
        keyed.setdefault(p["workload"], Counter()).update(_key_changes(fp["diagnostics"], fc["diagnostics"]))
        for key in TRANSITIONS:
            if fp[key] != fc[key]:
                move = (key, fp[key], fc[key], fp["verdict"], fc["verdict"])
                moves.setdefault(p["workload"], {}).setdefault(move, []).append(f"seed {p['seed']} {p['label']}")
    width = max(map(len, counts), default=8)
    print(f"{'workload':<{width}} {'ops':>5} " + " ".join(f"{f:>14}" for f in FIELDS))
    for name, row in counts.items():
        print(f"{name:<{width}} {row['ops']:>5} " + " ".join(f"{row[f]:>14}" for f in FIELDS))
    for name, by_key in keyed.items():
        for (key, how), n in sorted(by_key.items()):
            print(f"{name}: {n} op(s) diagnostics key {key} {how}")
    for name, by_move in moves.items():
        for (key, was, now, vp, vc), ops in sorted(by_move.items(), key=str):
            print(f"{name}: {len(ops)} op(s) {key} {was} -> {now} (verdict {vp} -> {vc}): {'; '.join(ops)}")
    return int(any(row[f] for row in counts.values() for f in FIELDS))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, nargs="?")
    parser.add_argument("seeds", type=int, nargs="*", metavar="seed")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("PARENT.jsonl", "CHANGE.jsonl"),
                        help="compare two runs per workload instead of running ops")
    args = parser.parse_args(argv)
    if args.compare:
        if args.src is not None:
            parser.error("--compare takes no SRC or seeds")
        return compare(*args.compare)
    if args.src is None or not args.seeds:
        parser.error("SRC and at least one seed are required")
    src = args.src.resolve()
    if (src / "src" / "otiso").is_dir():
        src = src / "src"
    if not (src / "otiso" / "cli.py").is_file():
        print(f"error: no otiso sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    cli = importlib.import_module("otiso.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: imported otiso from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    for seed in args.seeds:
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                work = Path(tmp)
                for op in workloads.generate(name, seed, work):
                    if op.argv[0] in COMMANDS:
                        print(json.dumps({"workload": name, "seed": seed, **run_op(cli, op, work)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
