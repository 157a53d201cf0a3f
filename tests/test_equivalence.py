"""The ``--compare`` report of ``tools/equivalence.py``."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "equivalence.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("equivalence", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(label, verdict, step, solver_path):
    diagnostics = {"step": step, "solver_path": solver_path}
    return {"workload": "orbit-complex", "seed": 11, "label": label, "code": 2,
            "stdout": json.dumps({"verdict": verdict, "diagnostics": diagnostics}), "stderr": "",
            "witness_sha256": None, "witness_values_sha256": None, "csv_sha256": None}


def test_compare_lists_solver_path_transitions_with_their_ops(tmp_path, capsys):
    ops = [("orbit n=26 k=-6", "lstsq", "synchronization"), ("orbit n=44 k=-1", "lstsq", "synchronization"),
           ("orbit n=8 k=0", "anchored", "anchored")]
    paths = []
    for side, column in (("parent", 1), ("change", 2)):
        path = tmp_path / f"{side}.jsonl"
        path.write_text("".join(json.dumps(record(op[0], "cannot_decide", "underdetermined", op[column])) + "\n"
                                for op in ops))
        paths.append(path)
    assert load_tool().compare(*paths) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == ("orbit-complex: 2 op(s) solver_path lstsq -> synchronization "
                       "(verdict cannot_decide -> cannot_decide): seed 11 orbit n=26 k=-6; seed 11 orbit n=44 k=-1")
    assert not any("op(s) step" in line for line in out)


def test_compare_names_the_diagnostics_keys_added_removed_or_changed(tmp_path, capsys):
    parent = [{"step": "modulus", "reject_threshold": 0.5, "support_ok": True},
              {"step": "norm", "norm_gap": 1.0},
              {"step": "yes", "gamma_bound_spectral_form": 2.0, "residual_recomputed": 1.0}]
    change = [{"step": "modulus", "threshold_modulus": 0.5},
              {"step": "norm", "norm_gap": 1.0},
              {"step": "yes", "residual_gate": 2.0, "residual_recomputed": 3.0}]
    paths = []
    for side, diags in (("parent", parent), ("change", change)):
        path = tmp_path / f"{side}.jsonl"
        path.write_text("".join(json.dumps({**record(f"op {i}", "no", None, None),
                                            "stdout": json.dumps({"verdict": "no", "diagnostics": diag})}) + "\n"
                                for i, diag in enumerate(diags)))
        paths.append(path)
    assert load_tool().compare(*paths) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].split()[:5] == ["workload", "ops", "code", "verdict", "step"]
    assert out[1].split()[:5] == ["orbit-complex", "3", "0", "0", "0"]
    assert out[2:] == [
        "orbit-complex: 1 op(s) diagnostics key gamma_bound_spectral_form removed",
        "orbit-complex: 1 op(s) diagnostics key reject_threshold removed",
        "orbit-complex: 1 op(s) diagnostics key residual_gate added",
        "orbit-complex: 1 op(s) diagnostics key residual_recomputed changed",
        "orbit-complex: 1 op(s) diagnostics key support_ok removed",
        "orbit-complex: 1 op(s) diagnostics key threshold_modulus added",
    ]


def test_compare_counts_an_op_whose_stderr_alone_differs(tmp_path, capsys):
    ops = [record(f"op {i}", "no", "norm", None) for i in range(3)]
    paths = []
    for side, message in (("parent", "error: edge (1, 1, 3) out of range\n"), ("change", "error: edge out of range\n")):
        path = tmp_path / f"{side}.jsonl"
        path.write_text("".join(json.dumps({**op, "stderr": message if i == 1 else ""}) + "\n"
                                for i, op in enumerate(ops)))
        paths.append(path)
    tool = load_tool()
    assert tool.compare(*paths) == 1
    header, row = capsys.readouterr().out.splitlines()
    assert dict(zip(header.split(), row.split())) == {"workload": "orbit-complex", "ops": "3",
                                                      **{field: "1" if field == "stderr" else "0"
                                                         for field in tool.FIELDS}}
