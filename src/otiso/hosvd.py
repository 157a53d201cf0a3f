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

from .errors import CannotDecide, DimensionMismatch, ScalarKindMismatch
from .spectral import GapPolicy, SpectralData, eig_hermitian, min_gap_check
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
class CoreComparison:
    """Outcome of the entrywise modulus/support screen on two cores."""

    dims: tuple[int, int, int]
    scalar_kind: str
    support_ok: bool
    phase_targets: dict  # (i, j, k) -> PhaseTarget
    threshold_used: float


@dataclass(frozen=True)
class RejectFar:
    """Moduli differ beyond the threshold: the pair is certifiably far."""

    entry: tuple[int, int, int]
    modulus_a: float
    modulus_b: float
    threshold: float


def core_of(a: Tensor3, policy: GapPolicy | None = None) -> CoreTensor:
    """Compute the spectral core; raises :class:`CannotDecide` on a failed gap policy.

    The default policy is strict simplicity with the scale-aware degeneracy
    floor, since a genuinely repeated eigenvalue leaves the eigenbasis (and
    hence the core) underdetermined.
    """
    policy = policy or GapPolicy()
    bases = []
    spectra = []
    for mode in (1, 2, 3):
        s = eig_hermitian(gram(a, mode))
        ok, gap = min_gap_check(s, policy)
        if not ok:
            raise CannotDecide(mode, gap)
        bases.append(s.vectors)
        spectra.append(s)
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
    a phase target with slack ``arccos`` of the comparison ratio, clamped to
    [-1, 1]; a slack of zero marks a constraint nothing can satisfy.

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
        return RejectFar(
            entry=tuple(int(x) for x in worst),
            modulus_a=float(mod_a[worst]),
            modulus_b=float(mod_b[worst]),
            threshold=thr,
        )

    combined = mod_a + mod_b
    mask = combined > thr
    support_a = mod_a > thr
    support_b = mod_b > thr
    targets = {}
    idx = np.argwhere(mask)
    # Law of cosines: the slack is the largest angular deviation that keeps
    # the per-entry distance within sqrt(2) * thr/2-scaled budget.
    budget = 2.0 * (eps ** 2) * (n ** 4) * (k_norm ** 2) / (delta ** 2)
    for i, j, k in idx:
        ma = float(mod_a[i, j, k])
        mb = float(mod_b[i, j, k])
        denom = 2.0 * ma * mb
        if denom > 0.0:
            carg = (ma * ma + mb * mb - budget) / denom
        else:
            # one modulus is exactly zero while the sum clears the threshold,
            # which the modulus screen above already ruled out; keep a dead
            # constraint for safety.
            carg = 2.0
        carg = min(1.0, max(-1.0, carg))
        # arg(b * conj(a)) == arg(b/a) but exact when b == a
        phi = float(np.angle(B[i, j, k] * np.conj(A[i, j, k]))) if ma > 0.0 else 0.0
        targets[(int(i), int(j), int(k))] = PhaseTarget(
            phi=phi, slack=float(math.acos(carg)), weight=float(ma + mb)
        )
    return CoreComparison(
        dims=sa.dims,
        scalar_kind=sa.core.scalar_kind,
        support_ok=bool(np.array_equal(support_a, support_b)),
        phase_targets=targets,
        threshold_used=thr,
    )
