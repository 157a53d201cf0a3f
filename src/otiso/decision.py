"""Orbit decision procedures: exact isomorphism testing and gapped orbit distance.

Both modes run one shared spine (``_decide``): reject on mismatched Frobenius
norms, eigendecompose the six mode Grams in one stacked pass, bail out when a
spectrum is too degenerate to pin its eigenbasis, compare cores entrywise,
recover per-mode signs/phases, assemble a candidate transform, and re-verify
it directly against the input tensors, which both modes decide as given, at
any dims.  The entry point takes only the paper's inputs: the two tensors,
plus ``eps`` in gapped mode.  A YES is never returned on the pipeline's
say-so alone; the recomputed residual must clear the certified bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigInvalid,
    ConvergenceFailure,
    DimensionMismatch,
    EpsOutOfRange,
    Infeasible,
    NonFiniteEntries,
    ScalarKindMismatch,
)
from .hosvd import CoreTensor, RejectFar, compare_cores, core_of
from .phases import Assignment, assemble_witness, incidence_rank, solve_phases, solve_signs
from .spectral import spectra_close
from .tensor import TAU_UNITARY_REL, Tensor3, TransformTriple, _act, _fro

# Not called here: bench/spans.py wraps these names on this module.
from .spectral import eig_hermitian  # noqa: F401
from .tensor import apply_action, gram  # noqa: F401
truncate_tensor = None  # a span with nothing behind it: its calls read 0

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


def verify_witness(a: Tensor3, b: Tensor3, witness) -> WitnessReport:
    """Recompute ``||witness . A - B||_F`` from scratch and audit unitarity.

    ``witness`` may be a :class:`TransformTriple` or a sequence of three
    matrices (no unitarity requirement; defects are reported, not enforced).
    Kinds mix by numpy's type promotion, so the residual is symmetric in them.
    A product ``witness . A`` with an entry that is not finite raises
    :class:`NonFiniteEntries`; only a residual that is not finite is scanned
    for one, and the products and norms run with overflow and invalid
    operations ignored: ``_fro`` prescales a sum of squares that overflows.
    """
    triple = witness if isinstance(witness, TransformTriple) else TransformTriple(witness, check=False)
    if triple.dims != a.dims:
        raise DimensionMismatch(f"witness dims {triple.dims} do not match tensor dims {a.dims}")
    if a.dims != b.dims:
        raise DimensionMismatch(f"tensor dims differ: {a.dims} vs {b.dims}")
    with np.errstate(over="ignore", invalid="ignore"):
        moved = _act(triple.factors, a.data)
        residual = _fro(moved - b.data)
        defects = triple.unitarity_defects()
    if not math.isfinite(residual) and not np.isfinite(moved).all():
        raise NonFiniteEntries("tensor entries must be finite")
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


def _validate_pair(a: Tensor3, b: Tensor3):
    if a.dims != b.dims:
        raise DimensionMismatch(f"tensor dims differ: {a.dims} vs {b.dims}")
    if a.scalar_kind != b.scalar_kind:
        raise ScalarKindMismatch(f"tensor kinds differ: {a.scalar_kind} vs {b.scalar_kind}")


def _tied_mode(core: CoreTensor) -> dict | None:
    """``failed_mode`` and ``failed_gap`` of the first spectrum that is not simple (its eigenbasis is not pinned), else None."""
    return next(({"failed_mode": d + 1, "failed_gap": float(s.min_gap)}
                 for d, s in enumerate(core.spectra) if not s.simple), None)


def _gap(core: CoreTensor) -> float:
    """The core's smallest spectral gap, capped at its largest Gram eigenvalue.

    No adjacent gap of a PSD spectrum exceeds its top eigenvalue, so the cap
    only acts when every mode has size 1 and there is no gap at all.
    """
    top = max(s.eigenvalues.item(0) for s in core.spectra)  # the sorted spectrum's first value is its largest
    return min(core.min_gap, max(top, _TINY))


def _decide(a: Tensor3, b: Tensor3, eps: float | None) -> Decision:
    """The decision spine shared by both modes; ``eps is None`` selects exact mode.

    norm -> cores -> spectrum check -> compare cores -> solve -> verify, always
    at the measured gap ``delta`` and on the tensors as given, with
    ``n = max(dims)``.  Exact mode works at ``eps = 1e-8 (||A|| + ||B||)`` and
    needs all six spectra simple and equal; gapped mode needs A's spectra
    simple and B's gaps at least ``delta/2``.  A spectrum that is not
    simple gives cannot_decide at ``gap_policy``; in exact mode only once the
    spectra match, since a mismatch is already a sound NO.  Every verdict but
    YES leaves through ``stop``, which records its ``step`` and the
    quantities that decided it.
    """
    _validate_pair(a, b)
    exact = eps is None
    # n = max(dims) is a conservative stand-in for non-cubic dims
    n = max(a.dims)
    norm_a = a.frobenius_norm
    norm_b = b.frobenius_norm
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
        diag["residual_gate"] = gate = EXACT_RESIDUAL_REL_FLOOR * max(norm_a, _TINY)

    def stop(verdict, step, witness=None, residual=None, **found) -> Decision:
        diag["step"] = step
        diag.update(found)
        return Decision(verdict, witness, residual, gate, diag)

    # The action preserves the Frobenius norm, so a gap of 2 eps beyond the
    # norms' rounding is a sound NO in both modes; in exact mode that is about
    # 4x the YES gate.  A norm of N squares (two per complex entry), with its
    # square root, is within gamma_{N+1} = (N+1)u/(1-(N+1)u) of the exact one
    # (Higham 2002, section 3.1).
    norm_gap = abs(norm_a - norm_b)
    nu = (a.data.nbytes // 8 + 1) * 2.0 ** -53
    rounding = nu / (1.0 - nu) * k_norm
    if norm_gap - rounding >= 2.0 * eps:
        return stop("no", "norm", norm_gap=norm_gap, norm_threshold=2.0 * eps, norm_rounding=rounding)

    # one stacked pass for both tensors; gapped mode screens B's gaps below
    ca, cb = core_of(a, b)
    diag["spectra_a"], diag["spectra_b"] = _spectra_digest(ca), _spectra_digest(cb)
    if exact:
        # Gram spectra are orbit invariants, simple or not, so they are
        # compared before a tie is refused.  The inputs are compared as given,
        # so only eigensolver noise, relative to the larger spectrum,
        # separates equal spectra.
        for d, (ga, gb) in enumerate(zip(ca.spectra, cb.spectra)):
            scale = max(ga.top, gb.top, _TINY)
            tol = TAU_SPECTRA_REL * scale
            if not spectra_close(ga, gb, tol):
                return stop("no", "spectra", failed_mode=d + 1, spectra_tolerance=tol)
    tied = _tied_mode(ca) or (_tied_mode(cb) if exact else None)
    if tied:
        return stop("cannot_decide", "gap_policy", **tied)

    delta = min(_gap(ca), _gap(cb)) if exact else _gap(ca)
    diag["delta"] = delta
    if not exact:
        if not (eps < delta / (4.0 * max(k_norm, _TINY))):
            raise EpsOutOfRange(f"eps={eps} not below delta/(4(|A|+|B|))={delta / (4.0 * max(k_norm, _TINY)):.3e}")
        diag["residual_gate"] = gate = C_GAMMA * (n ** 3.5) * (norm_a ** 2) * eps / delta
        # B's spectra are screened against delta/2, not for strict simplicity.
        for d, s in enumerate(cb.spectra):
            if s.min_gap < delta / 2.0:
                return stop("no", "gap_b", failed_mode=d + 1, failed_gap=float(s.min_gap))

    diag["threshold_modulus"] = thr = 2.0 * eps * (n ** 2) * k_norm / delta
    cmp = compare_cores(ca, cb, thr)
    if isinstance(cmp, RejectFar):
        return stop("no", "modulus", reject_entry=list(cmp.entry))
    targets = cmp.phase_targets
    diag["phase_targets"] = count = len(targets)

    try:
        if not count:
            assignment = Assignment(tuple(np.ones(d) for d in a.dims), "identity")
        else:
            assignment = (solve_phases if a.scalar_kind == "complex" else solve_signs)(targets)
    except Infeasible as exc:
        return stop("no", "phase_system", solver_path=exc.solver_path,
                    certificate=[list(key) for key in exc.certificate])
    except ConvergenceFailure:
        # the synchronization missed a target and no 4-cycle is violated:
        # neither a witness nor a certificate, so no answer
        return stop("cannot_decide", "phase_uncertified", solver_path="synchronization")
    diag["solver_path"] = assignment.solver_path

    witness = assemble_witness(ca, cb, assignment)
    report = verify_witness(a, b, witness)
    diag["residual_recomputed"] = report.residual
    diag["unitarity_defects"] = list(report.unitarity_defects)
    if report.residual <= gate and report.unitary_ok:
        return Decision("yes", witness, report.residual, gate, diag)
    # A feasible assignment whose witness fails verification means the
    # numerics left the certified regime; refusing to answer is the only
    # sound option.  Targets whose incidence has rank below n1+n2+n3-2 leave
    # some per-mode angle unpinned beyond the gauge, so the solver's guess
    # there was never evidence.
    unpinned = incidence_rank(targets) < sum(a.dims) - 2
    return stop("cannot_decide", "underdetermined" if unpinned else "witness_verification", witness, report.residual)


def decide_isomorphism(a: Tensor3, b: Tensor3) -> Decision:
    """Decide whether some orthogonal/unitary triple carries ``a`` onto ``b``.

    Pipeline: reject on mismatched norms, eigendecompose all six Grams of
    the tensors as given, reject on mismatched spectra (cannot_decide when
    equal spectra are not simple), compare cores, solve the sign/phase
    system, and verify the assembled witness directly.  The tolerance and the gap are derived from
    the inputs.  YES verdicts always carry a witness whose recomputed
    residual clears the reported gate.
    """
    return _decide(a, b, None)


def decide_orbit_distance(a: Tensor3, b: Tensor3, eps: float) -> Decision:
    """Gap-certified orbit distance decision at tolerance ``eps``.

    Takes any common dims, ``n = max(dims)``, and a positive, finite ``eps <
    delta / (4 (||A|| + ||B||))`` for the gap ``delta`` measured on A's
    spectra.  YES means some triple carries ``a`` within ``gamma_bound =
    C_GAMMA n^{7/2} ||A||^2 eps / delta`` of ``b``, witnessed and
    re-verified; NO certifies the orbits stay ``eps`` apart.
    """
    # an infinite eps makes the thresholds derived from it infinite or zero
    if not (0.0 < eps < math.inf):
        raise ConfigInvalid(f"eps must be positive and finite, got {eps!r}")
    return _decide(a, b, float(eps))
