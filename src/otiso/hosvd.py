"""Spectral core tensors and the thresholded core comparison.

The core of a tensor ``A`` is ``(U1*, U2*, U3*) . A`` where ``U_d`` is the
eigenvector matrix of the mode-``d`` Gram.  Two tensors on the same group
orbit have cores that agree up to per-mode diagonal phases (signs in the
real case) whenever all six Gram spectra are simple, which reduces the orbit
question to a phase-consistency question on the cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ScalarKindMismatch
from .spectral import SpectralData, eig_hermitian
from .tensor import Tensor3, TransformTriple, apply_action, gram


@dataclass(frozen=True)
class CoreTensor:
    """Core plus everything needed to rebuild transforms from it."""

    core: Tensor3
    bases: tuple[np.ndarray, np.ndarray, np.ndarray]  # eigenvector matrices U1, U2, U3
    spectra: tuple[SpectralData, SpectralData, SpectralData]
    source_norm: float

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.core.dims

    @property
    def min_gap(self) -> float:
        return min(s.min_gap for s in self.spectra)


@dataclass(frozen=True)
class PhaseTarget:
    """One per-entry phase constraint: |phi - (alpha_i + beta_j + gamma_k)| < slack."""

    phi: float    # argument of core_b / core_a at the entry, in (-pi, pi]
    slack: float  # admissible angular deviation, in [0, pi]
    weight: float  # |core_a| + |core_b| at the entry; used to prioritize anchors


@dataclass(frozen=True)
class PhaseTargets:
    """A system of :class:`PhaseTarget` constraints as parallel arrays.

    Row ``r`` constrains entry ``idx[r]``; rows are in sorted-key order.
    """

    idx: np.ndarray     # (m, 3) int64 index triples
    phi: np.ndarray     # (m,) float64
    slack: np.ndarray   # (m,) float64
    weight: np.ndarray  # (m,) float64

    def __len__(self) -> int:
        return len(self.phi)

    def keys(self, rows=None) -> list:
        """Index triples (as int tuples) of the selected rows, all rows by default."""
        return [tuple(k) for k in (self.idx if rows is None else self.idx[rows]).tolist()]

    @classmethod
    def from_mapping(cls, targets) -> "PhaseTargets":
        """Arrays from a ``{(i, j, k): PhaseTarget}`` mapping."""
        keys = sorted(targets)
        cols = np.array([(targets[k].phi, targets[k].slack, targets[k].weight) for k in keys]).reshape(-1, 3)
        return cls(np.array(keys, dtype=np.int64).reshape(-1, 3), cols[:, 0], cols[:, 1], cols[:, 2])


@dataclass(frozen=True)
class CoreComparison:
    """Outcome of the entrywise modulus/support screen on two cores."""

    dims: tuple[int, int, int]
    scalar_kind: str
    support_ok: bool
    phase_targets: PhaseTargets
    threshold_used: float


@dataclass(frozen=True)
class RejectFar:
    """Moduli differ beyond the threshold: the pair is certifiably far."""

    entry: tuple[int, int, int]
    threshold: float


def core_of(a: Tensor3) -> CoreTensor:
    """Compute the spectral core and the three mode spectra it was built from.

    The core is returned even when a spectrum is not simple; callers read
    ``SpectralData.simple`` or ``min_gap`` on ``spectra`` and judge whether
    the eigenbases pin it down.
    """
    spectra = [eig_hermitian(gram(a, mode)) for mode in (1, 2, 3)]
    bases = [s.vectors for s in spectra]
    inv = TransformTriple([U.conj().T for U in bases], a.scalar_kind, check=False)
    core = apply_action(inv, a)
    return CoreTensor(core=core, bases=tuple(bases), spectra=tuple(spectra), source_norm=a.frobenius_norm)


def comparison_threshold(eps: float, n: int, delta: float, k_norm: float) -> float:
    """Modulus threshold 2*eps*n^2*K/delta used by both the screen and targeting."""
    return 2.0 * eps * (n ** 2) * k_norm / delta


def compare_cores(sa: CoreTensor, sb: CoreTensor, eps: float, delta: float):
    """Entrywise screen of two cores; returns a :class:`CoreComparison` or :class:`RejectFar`.

    ``eps`` is the working tolerance and ``delta`` the certified spectral
    gap.  Entries whose moduli differ by more than the threshold certify the
    pair far apart.  Entries whose combined modulus clears the threshold get
    a phase target whose slack is the largest angle that keeps the entry
    within the budget ``thr^2/2``; a slack of zero marks a constraint
    nothing can satisfy.

    For non-cubic dims the threshold uses ``n = max(dims)``, a conservative
    stand-in recorded as such in the comparison.
    """
    if sa.dims != sb.dims:
        raise DimensionMismatch(f"core dims differ: {sa.dims} vs {sb.dims}")
    if sa.core.scalar_kind != sb.core.scalar_kind:
        raise ScalarKindMismatch("cores have different scalar kinds")
    if not (eps > 0.0) or not (delta > 0.0):
        raise ValueError("eps and delta must be positive")
    n = max(sa.dims)
    k_norm = sa.source_norm + sb.source_norm
    thr = comparison_threshold(eps, n, delta, k_norm)

    A = sa.core.data
    B = sb.core.data
    mod_a = np.abs(A)
    mod_b = np.abs(B)

    diff = np.abs(mod_a - mod_b)
    worst = np.unravel_index(int(np.argmax(diff)), diff.shape)
    if diff[worst] > thr:
        return RejectFar(entry=tuple(int(x) for x in worst), threshold=thr)

    mask = mod_a + mod_b > thr
    ma, mb = mod_a[mask], mod_b[mask]
    # Law of cosines in half-angle form: the slack is the largest angular
    # deviation s with (ma - mb)^2 + 4 ma mb sin^2(s/2) <= budget = thr^2/2.
    # Unlike arccos of the cosine ratio it keeps slacks far below 1e-8.  With
    # h = thr/sqrt(2) and d = |ma - mb|, budget - d^2 = (h - d)(h + d), so
    # nothing overflows before the ratio; an infinite thr gives the widest
    # slack.  A zero modulus (which the screen above rules out while the sum
    # clears the threshold) keeps a dead constraint.
    h = thr / math.sqrt(2.0)
    d = np.abs(ma - mb)
    den = 2.0 * np.sqrt(ma) * np.sqrt(mb)
    with np.errstate(divide="ignore", invalid="ignore"):
        sin_half = np.sqrt(np.maximum(h - d, 0.0)) * np.sqrt(h + d) / den
    slack = np.where(den > 0.0, 2.0 * np.arcsin(np.minimum(sin_half, 1.0)), 0.0)
    # arg(b * conj(a)) == arg(b/a) but exact when b == a; numpy may form a
    # complex product's imaginary part with a fused multiply-add, which
    # leaves a rounding residue where a == b, so it is formed explicitly
    a, b = A[mask], B[mask]
    prod = b * np.conj(a)
    if np.iscomplexobj(prod):
        prod.imag = b.imag * a.real - b.real * a.imag
    phi = np.where(ma > 0.0, np.angle(prod), 0.0)
    return CoreComparison(
        dims=sa.dims,
        scalar_kind=sa.core.scalar_kind,
        support_ok=bool(np.array_equal(mod_a > thr, mod_b > thr)),
        phase_targets=PhaseTargets(np.argwhere(mask), phi, slack, ma + mb),
        threshold_used=thr,
    )
