"""otiso: orbit-equivalence testing for 3-tensors under orthogonal/unitary actions.

The package decides whether two real or complex 3-tensors lie on (or near)
the same orbit of the natural triple-matrix action, using mode-Gram
eigendecompositions, core-tensor comparison, and sign/phase recovery, with
every YES backed by an explicitly verified witness triple.  A Monte-Carlo
lab for spectral-gap statistics and a spectral hypergraph-isomorphism tester
round out the toolkit.
"""

from .errors import (
    ConfigInvalid,
    ConvergenceFailure,
    DimensionMismatch,
    EpsOutOfRange,
    FormatError,
    Infeasible,
    NonFiniteEntries,
    NonHermitianInput,
    NotUnitary,
    OtisoError,
    ScalarKindMismatch,
)
from .tensor import (
    RandomModel,
    Tensor3,
    TransformTriple,
    apply_action,
    flatten,
    generator,
    gram,
    haar_factor,
    identity_triple,
    sample_entries,
    sample_haar_triple,
    sample_tensor,
    unflatten,
    unitarity_defect,
)
from .spectral import SpectralData, eig_hermitian, spectra_close
from .hosvd import CoreComparison, CoreTensor, PhaseTargets, RejectFar, compare_cores, comparison_threshold, core_of
from .phases import PhaseAssignment, SignAssignment, assemble_witness, solve_phases, solve_signs, wrap_angle
from .decision import (
    Decision,
    WitnessReport,
    decide_isomorphism,
    decide_orbit_distance,
    required_bits,
    truncate_bits,
    truncate_tensor,
    verify_witness,
)
from .gaps import (
    GapExperiment,
    GapReport,
    TrialRecord,
    bound_probability,
    emit_csv,
    gap_target,
    log_slope,
    read_csv,
    run_gap_experiment,
    run_tensor_gram_experiment,
    survival_curve,
    tensor_gap_target,
)
from .hypergraph import (
    HypergraphDecision,
    PermTriple,
    TripartiteHypergraph,
    adjacency_tensor,
    decide_hypergraph_iso,
    format_hypergraph,
    parse_hypergraph,
    random_hypergraph,
    random_perm_triple,
    read_hypergraph,
    relabel,
    write_hypergraph,
)
from .io import (
    dumps_canonical,
    read_tensor,
    read_witness,
    tensor_from_bytes,
    tensor_from_json_obj,
    tensor_to_bytes,
    tensor_to_json_obj,
    witness_from_bytes,
    witness_from_json_obj,
    witness_to_bytes,
    witness_to_json_obj,
    write_tensor,
    write_tensor_json,
    write_witness,
    write_witness_json,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigInvalid", "ConvergenceFailure", "DimensionMismatch",
    "EpsOutOfRange", "FormatError", "Infeasible", "NonFiniteEntries",
    "NonHermitianInput", "NotUnitary", "OtisoError", "ScalarKindMismatch",
    "RandomModel", "Tensor3", "TransformTriple", "apply_action", "flatten",
    "generator", "gram", "haar_factor", "identity_triple", "sample_entries", "sample_haar_triple",
    "sample_tensor", "unflatten", "unitarity_defect",
    "SpectralData", "eig_hermitian", "spectra_close",
    "CoreComparison", "CoreTensor", "PhaseTargets", "RejectFar", "compare_cores",
    "comparison_threshold", "core_of",
    "PhaseAssignment", "SignAssignment", "assemble_witness", "solve_phases",
    "solve_signs", "wrap_angle",
    "Decision", "WitnessReport", "decide_isomorphism",
    "decide_orbit_distance", "required_bits", "truncate_bits", "truncate_tensor",
    "verify_witness",
    "GapExperiment", "GapReport", "TrialRecord", "bound_probability", "emit_csv",
    "gap_target", "log_slope", "read_csv", "run_gap_experiment",
    "run_tensor_gram_experiment", "survival_curve", "tensor_gap_target",
    "HypergraphDecision", "PermTriple", "TripartiteHypergraph",
    "adjacency_tensor", "decide_hypergraph_iso", "format_hypergraph",
    "parse_hypergraph", "random_hypergraph", "random_perm_triple",
    "read_hypergraph", "relabel", "write_hypergraph",
    "dumps_canonical",
    "read_tensor", "read_witness",
    "tensor_from_bytes", "tensor_from_json_obj", "tensor_to_bytes",
    "tensor_to_json_obj", "witness_from_bytes", "witness_from_json_obj",
    "witness_to_bytes", "witness_to_json_obj", "write_tensor",
    "write_tensor_json", "write_witness", "write_witness_json",
]
