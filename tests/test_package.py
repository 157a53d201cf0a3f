"""The package namespace: ``__all__`` matches what ``otiso`` exports, and every other module name has a program use."""

import ast
import re
from pathlib import Path

import otiso

ROOT = Path(__file__).resolve().parents[1]

# The documented public API (README, "Python API"); the pipeline stages and
# helpers are imported from their own modules.
PUBLIC = [
    "ConfigInvalid", "ConvergenceFailure", "DimensionMismatch", "EpsOutOfRange", "FormatError", "Infeasible",
    "NonFiniteEntries", "NonHermitianInput", "NotUnitary", "OtisoError", "ScalarKindMismatch",
    "Tensor3", "TransformTriple", "RandomModel", "apply_action", "sample_tensor", "sample_haar_triple",
    "Decision", "decide_isomorphism", "decide_orbit_distance", "verify_witness",
    "GapExperiment", "GapReport", "run_gap_experiment", "run_tensor_gram_experiment", "emit_csv", "read_csv",
    "TripartiteHypergraph", "PermTriple", "HypergraphDecision", "decide_hypergraph_iso",
    "read_hypergraph", "write_hypergraph", "relabel",
    "read_tensor", "read_witness", "write_tensor", "write_tensor_json", "write_witness", "write_witness_json",
]


def test_all_is_the_documented_public_api():
    assert len(PUBLIC) == 40
    assert sorted(otiso.__all__) == sorted(PUBLIC)


def test_all_names_resolve_once():
    assert len(otiso.__all__) == len(set(otiso.__all__))
    assert [name for name in otiso.__all__ if not hasattr(otiso, name)] == []


def test_star_import_binds_all():
    namespace = {}
    exec("from otiso import *", namespace)
    assert set(otiso.__all__) <= set(namespace)


def module_names(path):
    """The names a module binds at top level by ``def``, ``class`` or assignment, once per binding."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))


def code_text(path):
    """The source of ``path`` as ``ast`` unparses it, with its comments and docstrings gone."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                node.body = node.body[1:] or [ast.Pass()]
    return ast.unparse(tree)


def test_every_module_name_has_a_program_use():
    # a name only the tests read belongs in tests/helpers.py: each one must
    # appear, as a whole word, in the code of the package, tools/ or bench/
    # beyond its bindings; a mention in a docstring or a comment is no use
    texts = [code_text(p) for d in ("src", "tools", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    unused = []
    for path in sorted((ROOT / "src" / "otiso").glob("*.py")):
        names = list(module_names(path))
        for name in sorted(set(names) - set(otiso.__all__)):
            if name.startswith("__") and name.endswith("__"):
                continue
            if sum(len(re.findall(rf"\b{name}\b", text)) for text in texts) <= names.count(name):
                unused.append(f"{path.stem}.{name}")
    assert unused == []
