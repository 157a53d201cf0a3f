"""Orbit decision procedures: exact isomorphism testing and gapped orbit distance.

Both modes run one shared spine (``_decide``): eigendecompose the six mode
Grams, bail out when a spectrum is too degenerate to pin its eigenbasis,
compare cores entrywise, recover per-mode signs/phases, assemble a candidate
transform, and re-verify it directly against the input tensors.  The entry
point picks the mode and takes only the paper's inputs: the two tensors,
plus ``eps`` in gapped mode.  A YES is never returned on the pipeline's
say-so alone; the recomputed residual must clear the certified bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    EpsOutOfRange,
    Infeasible,
    ScalarKindMismatch,
)
from .hosvd import CoreComparison, CoreTensor, RejectFar, compare_cores, core_of
from .phases import PhaseAssignment, SignAssignment, assemble_witness, solve_phases, solve_signs
from .spectral import spectra_close
from .tensor import TAU_UNITARY_REL, Tensor3, TransformTriple, apply_action

# Not called here: bench/spans.py wraps these names on this module.
from .spectral import eig_hermitian  # noqa: F401
from .tensor import gram  # noqa: F401

# Multiplier in the certified residual bound gamma * eps.
C_GAMMA = 8.0

# Exact-mode YES gate: residual <= 1e-8 * ||A||_F, which absorbs eigensolver
# noise at double precision.
EXACT_RESIDUAL_REL_FLOOR = 1e-8

# Relative tolerance for declaring two Gram spectra equal in exact mode.
TAU_SPECTRA_REL = 1e-8

_TINY = 1e-300


@dataclass(frozen=True)
class Decision:
    """Pipeline verdict with the evidence that backs it."""

    verdict: str  # "yes" | "no" | "cannot_decide"
    witness: TransformTriple | None
    residual: float | None
    gamma_bound: float | None
    diagnostics: dict


@dataclass(frozen=True)
class WitnessReport:
    """Direct recomputation of a candidate witness."""

    residual: float
    unitarity_defects: tuple[float, float, float]
    unitary_ok: bool


def required_bits(n: int, eps: float) -> int:
    """Working precision for gapped mode: ceil(log2(1000 n^7 / eps))."""
    return max(1, math.ceil(math.log2(1000.0 * (n ** 7) / eps)))


def truncate_bits(x: np.ndarray, bits: int) -> np.ndarray:
    """Round every entry (componentwise for complex) to the nearest multiple of 2^-bits.

    Beyond ~512 bits the grid is finer than float64 resolution for any
    representable magnitude, so the array is returned unchanged.
    """
    if bits > 512:
        return np.array(x)
    scale = math.ldexp(1.0, int(bits))
    return np.round(np.asarray(x) * scale) / scale


def truncate_tensor(a: Tensor3, bits: int) -> Tensor3:
    return Tensor3(truncate_bits(a.data, bits), a.scalar_kind)


def verify_witness(a: Tensor3, b: Tensor3, witness) -> WitnessReport:
    """Recompute ``||witness . A - B||_F`` from scratch and audit unitarity.

    ``witness`` may be a :class:`TransformTriple` or a sequence of three
    matrices (no unitarity requirement; defects are reported, not enforced).
    """
    triple = witness if isinstance(witness, TransformTriple) else TransformTriple(witness, check=False)
    if triple.dims != a.dims:
        raise DimensionMismatch(f"witness dims {triple.dims} do not match tensor dims {a.dims}")
    if a.dims != b.dims:
        raise DimensionMismatch(f"tensor dims differ: {a.dims} vs {b.dims}")
    kind = "complex" if "complex" in (a.scalar_kind, triple.scalar_kind) else "real"
    if triple.scalar_kind != kind:
        triple = TransformTriple(triple.factors, kind, check=False)
    acted = apply_action(triple, a.astype_kind(kind))
    residual = float(np.linalg.norm(acted.data - b.astype_kind(kind).data))
    defects = triple.unitarity_defects()
    return WitnessReport(
        residual=residual,
        unitarity_defects=defects,
        unitary_ok=all(d <= TAU_UNITARY_REL * n for d, n in zip(defects, triple.dims)),
    )


def _spectra_digest(core: CoreTensor) -> list[dict]:
    return [
        {"min_gap": float(s.min_gap), "backward_error": float(s.backward_error)}
        for s in core.spectra
    ]


def _identity_assignment(dims, kind):
    if kind == "complex":
        return PhaseAssignment(
            alpha=np.zeros(dims[0]), beta=np.zeros(dims[1]), gamma=np.zeros(dims[2]), max_residual=0.0,
            solver_path="identity",
        )
    return SignAssignment(s1=np.ones(dims[0]), s2=np.ones(dims[1]), s3=np.ones(dims[2]), solver_path="identity")


def _solve_assignment(cmp: CoreComparison):
    """Dispatch on scalar kind: sign system for real cores, phase LP for complex."""
    if not cmp.phase_targets:
        return _identity_assignment(cmp.dims, cmp.scalar_kind)
    solve = solve_phases if cmp.scalar_kind == "complex" else solve_signs
    return solve(cmp.phase_targets, cmp.dims)


def _validate_pair(a: Tensor3, b: Tensor3):
    if a.dims != b.dims:
        raise DimensionMismatch(f"tensor dims differ: {a.dims} vs {b.dims}")
    if a.scalar_kind != b.scalar_kind:
        raise ScalarKindMismatch(f"tensor kinds differ: {a.scalar_kind} vs {b.scalar_kind}")


def _tied_mode(core: CoreTensor):
    """``(mode, min_gap)`` of the first spectrum that is not simple (its eigenbasis is not pinned), else None."""
    return next(((d + 1, float(s.min_gap)) for d, s in enumerate(core.spectra) if not s.simple), None)


def _decide(a: Tensor3, b: Tensor3, eps: float | None) -> Decision:
    """The decision spine shared by both modes; ``eps is None`` selects exact mode.

    cores -> spectrum check -> compare cores -> solve -> verify, always at the
    measured gap ``delta``.  Exact mode works on the tensors as given at
    ``eps = 1e-8 (||A|| + ||B||)`` and needs all six spectra simple and equal;
    gapped mode truncates both to ``required_bits(n, eps)`` and needs A's
    spectra simple and B's gaps at least ``delta/2``.  A spectrum that is not
    simple gives cannot_decide at ``gap_policy``.
    """
    _validate_pair(a, b)
    exact = eps is None
    n = max(a.dims)
    if exact:
        at, bt = a, b
    else:
        if not (a.dims[0] == a.dims[1] == a.dims[2]):
            raise DimensionMismatch(f"gapped mode requires cubic tensors, got dims {a.dims}")
        bits = required_bits(n, eps)
        at = truncate_tensor(a, bits)
        bt = truncate_tensor(b, bits)
    norm_a = at.frobenius_norm
    norm_b = bt.frobenius_norm
    k_norm = norm_a + norm_b
    if exact:
        eps = 1e-8 * max(k_norm, _TINY)
    diag: dict = {
        "mode": "exact_iso" if exact else "gapped_distance",
        "n": n,
        "scalar_kind": a.scalar_kind,
        "eps": eps,
        "norm_a": norm_a,
        "norm_b": norm_b,
    }
    gate = None
    if exact:
        diag["dims"] = list(a.dims)
        gate = EXACT_RESIDUAL_REL_FLOOR * max(norm_a, _TINY)
        diag["residual_gate"] = gate
    else:
        diag["precision_bits"] = bits
        if abs(norm_a - norm_b) >= 2.0 * eps:
            diag["step"] = "norm"
            return Decision("no", None, None, None, diag)

    ca = core_of(at)
    tied = _tied_mode(ca)
    if exact and tied is None:
        cb = core_of(bt)
        tied = _tied_mode(cb)
    if tied is not None:
        diag["step"] = "gap_policy"
        diag["failed_mode"], diag["failed_gap"] = tied
        return Decision("cannot_decide", None, None, gate, diag)
    diag["spectra_a"] = _spectra_digest(ca)

    if exact:
        diag["spectra_b"] = _spectra_digest(cb)
        # the inputs are compared as given, so only eigensolver noise,
        # relative to the larger spectrum, separates equal spectra
        for d, (ga, gb) in enumerate(zip(ca.spectra, cb.spectra)):
            scale = max(float(np.max(np.abs(ga.eigenvalues))), float(np.max(np.abs(gb.eigenvalues))), _TINY)
            tol = TAU_SPECTRA_REL * scale
            if not spectra_close(ga, gb, tol):
                diag["step"] = "spectra"
                diag["failed_mode"] = d + 1
                diag["spectra_tolerance"] = tol
                return Decision("no", None, None, gate, diag)
        delta = min(ca.min_gap, cb.min_gap)
        diag["delta"] = delta
    else:
        delta = ca.min_gap
        diag["delta"] = delta
        if not (eps < delta / (4.0 * max(k_norm, _TINY))):
            raise EpsOutOfRange(f"eps={eps} not below delta/(4(|A|+|B|))={delta / (4.0 * max(k_norm, _TINY)):.3e}")
        gate = C_GAMMA * (n ** 3.5) * (norm_a ** 2) * eps / delta
        diag["gamma_bound_spectral_form"] = gate
        diag["gamma_bound_dimension_form"] = C_GAMMA * (n ** 8) * eps
        # B's spectra are screened against delta/2, not for strict simplicity.
        cb = core_of(bt)
        diag["spectra_b"] = _spectra_digest(cb)
        for d, s in enumerate(cb.spectra):
            if s.min_gap < delta / 2.0:
                diag["step"] = "gap_b"
                diag["failed_mode"] = d + 1
                diag["failed_gap"] = float(s.min_gap)
                return Decision("no", None, None, gate, diag)

    cmp = compare_cores(ca, cb, eps, delta)
    if isinstance(cmp, RejectFar):
        diag["step"] = "modulus"
        diag["reject_entry"] = list(cmp.entry)
        diag["reject_threshold"] = cmp.threshold
        return Decision("no", None, None, gate, diag)
    diag["phase_targets"] = len(cmp.phase_targets)
    diag["threshold_modulus"] = cmp.threshold_used
    diag["support_ok"] = cmp.support_ok

    try:
        assignment = _solve_assignment(cmp)
    except Infeasible as exc:
        diag["solver_path"] = exc.solver_path
        diag["step"] = "phase_system"
        diag["certificate_size"] = len(exc.certificate)
        return Decision("no", None, None, gate, diag)
    diag["solver_path"] = assignment.solver_path

    witness = assemble_witness(ca, cb, assignment)
    report = verify_witness(a, b, witness)
    diag["residual_recomputed"] = report.residual
    diag["unitarity_defects"] = list(report.unitarity_defects)
    if report.residual <= gate and report.unitary_ok:
        return Decision("yes", witness, report.residual, gate, diag)
    # A feasible assignment whose witness fails verification means the
    # numerics left the certified regime; refusing to answer is the only
    # sound option.  With no phase targets at all, nothing pinned the
    # per-mode gauge, so the identity guess was never evidence.
    diag["step"] = "underdetermined" if not cmp.phase_targets else "witness_verification"
    return Decision("cannot_decide", witness, report.residual, gate, diag)


def decide_isomorphism(a: Tensor3, b: Tensor3) -> Decision:
    """Decide whether some orthogonal/unitary triple carries ``a`` onto ``b``.

    Pipeline: eigendecompose all six Grams of the tensors as given
    (cannot_decide on any spectrum that is not simple), reject on mismatched
    spectra, compare cores, solve the sign/phase system, and verify the
    assembled witness directly.  The tolerance and the gap are derived from
    the inputs.  YES verdicts always carry a witness whose recomputed
    residual clears the reported gate.
    """
    return _decide(a, b, None)


def decide_orbit_distance(a: Tensor3, b: Tensor3, eps: float) -> Decision:
    """Gap-certified orbit distance decision at tolerance ``eps``.

    Requires cubic tensors and a positive, finite ``eps`` satisfying
    ``eps < delta / (4 (||A~|| + ||B~||))`` for the gap ``delta`` measured on
    A's spectra.  YES means some triple carries ``a`` within
    ``gamma_bound = C_GAMMA n^{7/2} ||A~||^2 eps / delta`` of ``b``, witnessed
    and re-verified; NO certifies the orbits stay ``eps`` apart.
    """
    # an infinite eps makes the thresholds derived from it infinite or zero
    if not (0.0 < eps < math.inf):
        raise ConfigInvalid(f"eps must be positive and finite, got {eps!r}")
    return _decide(a, b, float(eps))
