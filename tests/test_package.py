"""The package namespace: ``__all__`` matches what ``otiso`` exports."""

import otiso

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
