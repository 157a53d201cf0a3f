"""Tests of ``tools/coldab.py``: one source tree timed against itself, and the ranking of failed ops."""

import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_coldab():
    spec = importlib.util.spec_from_file_location("coldab", ROOT / "tools" / "coldab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class FakeTree:
    """A ``cli`` module stand-in that answers every op with one verdict."""

    def __init__(self, verdict, code):
        self.verdict, self.code = verdict, code

    def main(self, argv):
        print(json.dumps({"command": argv[0], "verdict": self.verdict, "diagnostics": {"step": "s"}}))
        return self.code


def test_a_tree_against_itself_matches_on_every_op():
    # a subprocess, since the tool pins its process to one CPU
    argv = [sys.executable, str(ROOT / "tools" / "coldab.py"), str(ROOT), str(ROOT),
            "--workload", "orbit-real", "--seed", "1", "--reps", "2", "--limit", "2"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 3 and all("ratio" in line and "DIFFERS" not in line for line in lines)
    for line in lines[:2]:
        # each op's judged verdict, and its numpy wrapper calls on both trees: the same tree counts the same calls
        assert re.search(r" (yes|no) +parent ", line) and "failed" not in line
        parent, change = line.split("numpy calls")[1].split("->")
        assert int(parent) == int(change) > 0
    assert lines[-1].startswith("fast half (1 of 2 ops)") and lines[-1].endswith("; 0 op(s) differing or raising")


def test_a_failed_op_ranks_inf_on_its_tree():
    # judged as bench/run.py judges it: an orbit pair that is not YES fails
    coldab = load_coldab()
    op = coldab.workloads.Op(argv=["iso"], expect="yes", label="pair", size=1)
    refused = FakeTree("cannot_decide", 2)
    times, verdict, same = coldab.time_op((refused, refused), op, 0, 3)
    assert times == (math.inf, math.inf) and verdict == "cannot_decide (failed)" and same
    far = coldab.workloads.Op(argv=["iso"], expect="no", label="far", size=1)
    times, verdict, same = coldab.time_op((FakeTree("no", 1), refused), far, 1, 3)
    assert 0.0 < times[0] < math.inf and times[1] == math.inf and not same
    assert verdict == "no / cannot_decide (failed)"
    # the failure sorts above every completed op in the fast half
    assert coldab.metrics.fast_half_gmean([times[1], times[1], 1.0]) == math.inf
    assert coldab.metrics.fast_half_gmean([times[1], 1.0, 4.0, 9.0]) == 2.0
