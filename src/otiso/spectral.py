"""Hermitian eigendecomposition with deterministic conventions.

Everything downstream (cores, phase recovery, decisions) consumes
:class:`SpectralData` produced here, so the conventions are pinned hard:

* eigenvalues are returned in non-increasing order;
* eigenvector columns are paired with the eigenvalues and each column is
  normalized so that its largest-modulus entry is real and positive (ties
  broken by the lowest row index), all columns in one vectorized pass;
* the same input matrix yields bit-identical output on repeated calls, and
  the same output whether it is factored alone or in a stack
  (``eig_hermitian_stack``, one batched LAPACK pass for many matrices).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NonHermitianInput
from .tensor import _fro

# Relative Hermiticity tolerance: inputs beyond this are rejected, inputs
# within it are symmetrized to (G + G*)/2 before factoring.
TAU_HERMITIAN_REL = 1e-10

# Adjacent eigenvalues closer than this (relative to the largest modulus
# eigenvalue) are treated as a degenerate pair; exact floating-point ties are
# rare even for genuinely repeated eigenvalues, so simplicity needs a
# scale-aware floor.
DEGENERACY_REL = 1e-8


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of a Hermitian PSD matrix with fixed conventions.

    ``top`` and ``simple`` are computed once, at construction, since the
    decision spine reads them many times per spectrum.
    """

    eigenvalues: np.ndarray        # non-increasing, real
    vectors: np.ndarray | None     # column j pairs with eigenvalues[j]; None on the values-only path
    min_gap: float                 # min adjacent difference; +inf for 1x1
    backward_error: float | None   # ||G V - V diag(lam)||_F; None on the values-only path
    # largest eigenvalue modulus, read from the sorted spectrum's two ends
    top: float = field(init=False, repr=False, compare=False)
    # every adjacent gap clears the degeneracy floor, so the eigenbasis is pinned
    simple: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = self.eigenvalues
        object.__setattr__(self, "top", max(abs(lam.item(0)), abs(lam.item(-1))) if lam.size else 0.0)
        object.__setattr__(self, "simple", self.min_gap > self.degeneracy_floor())

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])

    def degeneracy_floor(self) -> float:
        """Scale-aware gap below which adjacent eigenvalues count as tied."""
        return DEGENERACY_REL * max(self.top, 1e-300)


def _fix_column_phases(V: np.ndarray) -> np.ndarray:
    """Largest-modulus entry per column made real and positive (ties: lowest row).

    ``V`` is one matrix or a stack of them (columns along the last axis).
    One ``argmax(|V|)`` over the rows picks each column's pivot; ``np.argmax``
    returns the first occurrence of the maximum, which is the tie-break the
    convention asks for.  Each column is then multiplied by its unit
    ``conj(pivot) / |pivot|`` (the pivot's sign in the real case) in one
    broadcast product.  The units are formed as ``conj(pivot) * (1/hypot)``,
    the operations numpy's scalar complex-by-real division performs, so the
    result matches scaling column by column bit for bit (checked on numpy
    2.4; the tests allow 2 ulps per complex entry).  A column without a
    nonzero entry is left as it is.
    """
    if not V.size:
        return V
    lead = (np.arange(len(V))[:, np.newaxis],) if V.ndim == 3 else ()
    piv = V[(*lead, np.abs(V).argmax(axis=-2), np.arange(V.shape[-1]))][..., np.newaxis, :]
    if V.dtype.kind != "c":
        return V * np.where(piv < 0.0, -1.0, 1.0)
    mag = np.hypot(piv.real, piv.imag)
    keep = mag > 0.0
    units = piv.conj() * (1.0 / np.where(keep, mag, 1.0))
    return np.multiply(V, units, out=V.copy(), where=keep)


def eig_hermitian(G: np.ndarray, *, vectors: bool = True) -> SpectralData:
    """Eigendecomposition of one matrix under the package conventions.

    Raises :class:`NonHermitianInput` when ``||G - G*||_F`` exceeds
    ``TAU_HERMITIAN_REL * ||G||_F`` and :class:`ConvergenceFailure` when the
    underlying LAPACK driver fails.  Inputs within the Hermiticity tolerance
    are symmetrized before factoring, so tiny asymmetries from floating-point
    products do not leak into the output.  With ``vectors=False`` only the
    eigenvalues are computed (LAPACK's values-only driver, which may differ
    from the vectors path in the last ulp); ``vectors`` and
    ``backward_error`` are then ``None``.  This is a stack of one for
    :func:`eig_hermitian_stack`.
    """
    G = np.asarray(G)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {G.shape}")
    return eig_hermitian_stack(G[np.newaxis], vectors=vectors)[0]


def eig_hermitian_stack(G: np.ndarray, *, vectors: bool = True) -> list[SpectralData]:
    """:func:`eig_hermitian` of every matrix of a ``(k, n, n)`` stack, in one batched pass.

    The Hermiticity gate, the symmetrization, one batched ``eigh`` (or
    ``eigvalsh``), the column phase convention and the residual product all
    run on the whole stack; LAPACK factors each matrix on its own, so every
    field equals the one-matrix result bit for bit.  Every norm, the gate's
    and the backward error's, is taken per matrix by ``tensor._fro``: it runs
    ``np.linalg.norm``'s own dot products, and so keeps its summation order,
    and prescales a sum of squares that overflows or underflows (Blue, ACM
    TOMS 4(1), 1978).  A gate failure names the first offending matrix.
    """
    G = np.asarray(G)
    if G.ndim != 3 or G.shape[1] != G.shape[2]:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {G.shape}")
    Gh = G.conj().swapaxes(1, 2)
    # squares of entries past about 2^511 overflow, and _fro then prescales their sum
    with np.errstate(over="ignore"):
        for g, d in zip(G, G - Gh):
            normG, defect = _fro(g), _fro(d)
            if defect > TAU_HERMITIAN_REL * max(normG, 1e-300):
                raise NonHermitianInput(f"Hermiticity defect {defect:.3e} exceeds tolerance for norm {normG:.3e}")
        H = (G + Gh) / 2.0
        try:
            lam, V = np.linalg.eigh(H) if vectors else (np.linalg.eigvalsh(H), None)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure is environment-dependent
            raise ConvergenceFailure(str(exc)) from exc
        lam = lam[:, ::-1].copy()
        # eigh guarantees ordering, so gaps are nonnegative up to roundoff; a 1x1 matrix has none
        gaps = [max(g, 0.0) for g in (lam[:, :-1] - lam[:, 1:]).min(axis=1, initial=np.inf).tolist()]
        if V is None:
            return [SpectralData(vals, None, g, None) for vals, g in zip(lam, gaps)]
        V = _fix_column_phases(V[:, :, ::-1])
        R = H @ V - V * lam[:, np.newaxis, :]
        errors = [_fro(r) for r in R]
    return [SpectralData(vals, v, g, e) for vals, v, g, e in zip(lam, V, gaps, errors)]


def spectra_close(s1: SpectralData, s2: SpectralData, tol: float) -> bool:
    """True iff the sorted eigenvalue sequences deviate by at most ``tol`` in sup norm."""
    if s1.dim != s2.dim:
        raise DimensionMismatch(f"spectra have different sizes {s1.dim} and {s2.dim}")
    return bool(abs(s1.eigenvalues - s2.eigenvalues).max() <= tol)

