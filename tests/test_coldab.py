"""Smoke test of ``tools/coldab.py``: one source tree timed against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_tree_against_itself_matches_on_every_op():
    # a subprocess, since the tool pins its process to one CPU
    argv = [sys.executable, str(ROOT / "tools" / "coldab.py"), str(ROOT), str(ROOT),
            "--workload", "orbit-real", "--seed", "1", "--reps", "2", "--limit", "2"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 3 and all("ratio" in line and "DIFFERS" not in line for line in lines)
    for line in lines[:2]:
        # each op's numpy wrapper calls on both trees: the same tree counts the same calls
        parent, change = line.split("numpy calls")[1].split("->")
        assert int(parent) == int(change) > 0
    assert lines[-1].startswith("fast half (1 of 2 ops)") and lines[-1].endswith("; 0 op(s) differing or raising")
