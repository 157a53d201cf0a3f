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
from .tensor import RandomModel, Tensor3, TransformTriple, apply_action, sample_haar_triple, sample_tensor
from .decision import Decision, decide_isomorphism, decide_orbit_distance, verify_witness
from .gaps import GapExperiment, GapReport, emit_csv, read_csv, run_gap_experiment, run_tensor_gram_experiment
from .hypergraph import (
    HypergraphDecision,
    PermTriple,
    TripartiteHypergraph,
    decide_hypergraph_iso,
    read_hypergraph,
    relabel,
    write_hypergraph,
)
from .io import read_tensor, read_witness, write_tensor, write_tensor_json, write_witness, write_witness_json

__version__ = "0.1.0"

# The public API.  The pipeline's stages (``otiso.hosvd``, ``otiso.phases``,
# ``otiso.spectral``) and the lower-level helpers stay in their own modules.
__all__ = [
    "ConfigInvalid", "ConvergenceFailure", "DimensionMismatch",
    "EpsOutOfRange", "FormatError", "Infeasible", "NonFiniteEntries",
    "NonHermitianInput", "NotUnitary", "OtisoError", "ScalarKindMismatch",
    "Tensor3", "TransformTriple", "RandomModel", "apply_action", "sample_tensor", "sample_haar_triple",
    "Decision", "decide_isomorphism", "decide_orbit_distance", "verify_witness",
    "GapExperiment", "GapReport", "run_gap_experiment", "run_tensor_gram_experiment", "emit_csv", "read_csv",
    "TripartiteHypergraph", "PermTriple", "HypergraphDecision", "decide_hypergraph_iso",
    "read_hypergraph", "write_hypergraph", "relabel",
    "read_tensor", "read_witness", "write_tensor", "write_tensor_json", "write_witness", "write_witness_json",
]
