"""Spectral core tensors and the thresholded core comparison.

The core of a tensor ``A`` is ``(U1*, U2*, U3*) . A`` where ``U_d`` is the
eigenvector matrix of the mode-``d`` Gram.  Two tensors on the same group
orbit have cores that agree up to per-mode diagonal phases (signs in the
real case) whenever all six Gram spectra are simple, which reduces the orbit
question to a phase-consistency question on the cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, ScalarKindMismatch
from .spectral import SpectralData, eig_hermitian_stack
from .tensor import Tensor3, _act, gram

# Not called here: bench/spans.py wraps these names on this module.
from .spectral import eig_hermitian  # noqa: F401
from .tensor import apply_action  # noqa: F401


@dataclass(frozen=True)
class CoreTensor:
    """Core plus everything needed to rebuild transforms from it.

    The core is the bare read-only array the package built from a checked
    :class:`Tensor3`.  No core entry exceeds the tensor's norm, whose square
    each Gram's trace holds, so the entries are finite when the Grams are.
    """

    core: np.ndarray
    bases: tuple[np.ndarray, np.ndarray, np.ndarray]  # eigenvector matrices U1, U2, U3
    spectra: tuple[SpectralData, SpectralData, SpectralData]

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.core.shape  # type: ignore[return-value]

    @property
    def min_gap(self) -> float:
        return min(s.min_gap for s in self.spectra)


@dataclass(frozen=True)
class PhaseTargets:
    """Per-entry phase constraints ``|phi - (alpha_i + beta_j + gamma_k)| < slack`` on the core grid.

    All three arrays have the cores' shape.  The targets are the entries of
    positive weight; ``phi`` and ``slack`` are read only there.  This is the
    one input form of ``solve_signs`` and ``solve_phases``, which read the
    targets' mask ``on`` as it was computed once, at construction.
    """

    phi: np.ndarray     # float64 argument of core_b / core_a, in (-pi, pi]
    slack: np.ndarray   # float64 admissible angular deviation, in [0, pi]
    weight: np.ndarray  # float64 |core_a| + |core_b| at a target, else 0; picks the anchors, weighs the slice sums
    on: np.ndarray = field(init=False, repr=False, compare=False)  # weight > 0: the targets

    def __post_init__(self):
        object.__setattr__(self, "on", self.weight > 0)

    def __len__(self) -> int:
        return np.count_nonzero(self.on)

    def keys(self, where) -> list:
        """Index triples (as int tuples) of the true entries of the boolean grid ``where``, in sorted order."""
        return [tuple(k) for k in np.argwhere(where).tolist()]


@dataclass(frozen=True)
class CoreComparison:
    """Outcome of the entrywise modulus screen on two cores: the phase targets it leaves."""

    phase_targets: PhaseTargets


@dataclass(frozen=True)
class RejectFar:
    """Moduli differ beyond the threshold at ``entry``: the pair is certifiably far."""

    entry: tuple[int, int, int]


def mode_spectra(tensors, *, vectors: bool = True) -> list[tuple[SpectralData, SpectralData, SpectralData]]:
    """The three mode-Gram spectra of each tensor, from one stacked eigendecomposition per Gram shape and dtype.

    The Grams of a cubic pair all share one :func:`eig_hermitian_stack`
    call; every spectrum equals ``eig_hermitian(gram(a, mode))`` bit for
    bit.  ``vectors=False`` is the values-only path.
    """
    grams = [gram(a, mode) for a in tensors for mode in (1, 2, 3)]
    groups: dict = {}
    for pos, G in enumerate(grams):
        groups.setdefault((G.shape, G.dtype), []).append(pos)
    flat = [None] * len(grams)
    for rows in groups.values():
        for pos, s in zip(rows, eig_hermitian_stack(np.array([grams[p] for p in rows]), vectors=vectors)):
            flat[pos] = s
    return [tuple(flat[3 * t:3 * t + 3]) for t in range(len(tensors))]


def core_of(*tensors: Tensor3) -> tuple[CoreTensor, ...]:
    """The spectral core of each tensor, with the three mode spectra it was built from.

    All the tensors' Grams are eigendecomposed in one :func:`mode_spectra`
    pass.  A core is returned even when a spectrum is not simple; callers
    read ``SpectralData.simple`` or ``min_gap`` on ``spectra`` and judge
    whether the eigenbases pin it down.
    """
    cores = []
    for a, spectra in zip(tensors, mode_spectra(tensors)):
        bases = tuple(s.vectors for s in spectra)
        # C-ordered, as a copied factor is: a transposed view changes the products' last bits
        core = _act([np.conjugate(U.T, order="C") for U in bases], a.data)
        core.flags.writeable = False
        cores.append(CoreTensor(core=core, bases=bases, spectra=spectra))
    return tuple(cores)


def compare_cores(sa: CoreTensor, sb: CoreTensor, thr: float):
    """Entrywise screen of two cores at modulus threshold ``thr``: :class:`CoreComparison` or :class:`RejectFar`.

    The caller sets ``thr`` (the decision spine derives it from its
    tolerance and the certified spectral gap); it may be zero or infinite.
    Entries whose moduli differ by more than ``thr`` certify the pair far
    apart.  Entries whose combined modulus clears ``thr`` get a phase target
    whose slack is the largest angle that keeps the entry within the budget
    ``thr^2/2``; a slack of zero marks a constraint nothing can satisfy.
    A :class:`CoreComparison` carries these targets and nothing else.
    """
    if sa.dims != sb.dims:
        raise DimensionMismatch(f"core dims differ: {sa.dims} vs {sb.dims}")
    if sa.core.dtype != sb.core.dtype:
        raise ScalarKindMismatch("cores have different scalar kinds")
    if not (thr >= 0.0):
        raise ValueError(f"thr must be non-negative, got {thr!r}")

    A = sa.core
    B = sb.core
    mod_a = np.abs(A)
    mod_b = np.abs(B)

    diff = np.abs(mod_a - mod_b)
    worst = np.unravel_index(diff.argmax(), diff.shape)
    if diff[worst] > thr:
        return RejectFar(entry=tuple(int(x) for x in worst))
    total = mod_a + mod_b
    on = total > thr
    if not on.any():
        # No target: phi and slack would never be read.
        return CoreComparison(PhaseTargets(*(np.zeros(A.shape) for _ in range(3))))

    # Law of cosines in half-angle form: the slack is the largest angular
    # deviation s with (ma - mb)^2 + 4 ma mb sin^2(s/2) <= budget = thr^2/2.
    # Unlike arccos of the cosine ratio it keeps slacks far below 1e-8.  With
    # h = thr/sqrt(2) and d = |ma - mb|, budget - d^2 = (h - d)(h + d), so
    # nothing overflows before the ratio.  A zero modulus (which the screen
    # above rules out while the sum clears the threshold) keeps a dead
    # constraint.
    h = thr / math.sqrt(2.0)
    den = 2.0 * np.sqrt(mod_a) * np.sqrt(mod_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        sin_half = np.sqrt(np.maximum(h - diff, 0.0)) * np.sqrt(h + diff) / den
    slack = np.where(den > 0.0, 2.0 * np.arcsin(np.minimum(sin_half, 1.0)), 0.0)
    # arg(b * conj(a)) == arg(b/a) but exact when b == a; numpy may form a
    # complex product's imaginary part with a fused multiply-add, which
    # leaves a rounding residue where a == b, so it is formed explicitly
    prod = B * np.conj(A)
    if prod.dtype.kind == "c":
        prod.imag = B.imag * A.real - B.real * A.imag
        phi = np.where(mod_a > 0.0, np.arctan2(prod.imag, prod.real), 0.0)  # np.angle(prod), bit for bit
    else:
        # arctan2(+0, x) is pi where x's sign bit is set (x = -0.0 included) and 0 elsewhere
        phi = np.where(np.signbit(prod) & (mod_a > 0.0), math.pi, 0.0)
    return CoreComparison(PhaseTargets(phi, slack, np.where(on, total, 0.0)))
