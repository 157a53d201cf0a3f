"""Hermitian eigendecomposition with deterministic conventions.

Everything downstream (cores, phase recovery, decisions) consumes
:class:`SpectralData` produced here, so the conventions are pinned hard:

* eigenvalues are returned in non-increasing order;
* eigenvector columns are paired with the eigenvalues and each column is
  normalized so that its largest-modulus entry is real and positive (ties
  broken by the lowest row index), all columns in one vectorized pass;
* the same input matrix yields bit-identical output on repeated calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NonHermitianInput

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
    """Eigendecomposition of a Hermitian PSD matrix with fixed conventions."""

    eigenvalues: np.ndarray        # non-increasing, real
    vectors: np.ndarray | None     # column j pairs with eigenvalues[j]; None on the values-only path
    min_gap: float                 # min adjacent difference; +inf for 1x1
    backward_error: float | None   # ||G V - V diag(lam)||_F; None on the values-only path

    @property
    def simple(self) -> bool:
        """Every adjacent gap clears the degeneracy floor, so the eigenbasis is pinned."""
        return self.min_gap > self.degeneracy_floor()

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])

    def degeneracy_floor(self) -> float:
        """Scale-aware gap below which adjacent eigenvalues count as tied."""
        scale = float(np.max(np.abs(self.eigenvalues))) if self.dim else 0.0
        return DEGENERACY_REL * max(scale, 1e-300)


def _fix_column_phases(V: np.ndarray) -> np.ndarray:
    """Largest-modulus entry per column made real and positive (ties: lowest row).

    One ``argmax(|V|, axis=0)`` picks each column's pivot; ``np.argmax``
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
    piv = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    if not np.iscomplexobj(V):
        return V * np.where(piv < 0.0, -1.0, 1.0)
    mag = np.hypot(piv.real, piv.imag)
    keep = mag > 0.0
    units = piv.conj() * (1.0 / np.where(keep, mag, 1.0))
    return np.multiply(V, units, out=V.copy(), where=keep)


def eig_hermitian(G: np.ndarray, *, vectors: bool = True) -> SpectralData:
    """Eigendecomposition under the package conventions.

    Raises :class:`NonHermitianInput` when ``||G - G*||_F`` exceeds
    ``TAU_HERMITIAN_REL * ||G||_F`` and :class:`ConvergenceFailure` when the
    underlying LAPACK driver fails.  Inputs within the Hermiticity tolerance
    are symmetrized before factoring, so tiny asymmetries from floating-point
    products do not leak into the output.  With ``vectors=False`` only the
    eigenvalues are computed (LAPACK's values-only driver, which may differ
    from the vectors path in the last ulp); ``vectors`` and
    ``backward_error`` are then ``None``.
    """
    G = np.asarray(G)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {G.shape}")
    Gh = G.conj().T
    normG = float(np.linalg.norm(G))
    defect = float(np.linalg.norm(G - Gh))
    if defect > TAU_HERMITIAN_REL * max(normG, 1e-300):
        raise NonHermitianInput(f"Hermiticity defect {defect:.3e} exceeds tolerance for norm {normG:.3e}")
    H = (G + Gh) / 2.0
    try:
        lam, V = np.linalg.eigh(H) if vectors else (np.linalg.eigvalsh(H), None)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure is environment-dependent
        raise ConvergenceFailure(str(exc)) from exc
    lam = lam[::-1].copy()
    if lam.shape[0] > 1:
        min_gap = float(np.min(lam[:-1] - lam[1:]))
        # eigh guarantees ordering, so gaps are nonnegative up to roundoff
        min_gap = max(min_gap, 0.0)
    else:
        min_gap = float("inf")
    if V is None:
        return SpectralData(eigenvalues=lam, vectors=None, min_gap=min_gap, backward_error=None)
    V = _fix_column_phases(V[:, ::-1])
    backward = float(np.linalg.norm(H @ V - V * lam[np.newaxis, :]))
    return SpectralData(eigenvalues=lam, vectors=V, min_gap=min_gap, backward_error=backward)


def spectra_close(s1: SpectralData, s2: SpectralData, tol: float) -> bool:
    """True iff the sorted eigenvalue sequences deviate by at most ``tol`` in sup norm."""
    if s1.dim != s2.dim:
        raise DimensionMismatch(f"spectra have different sizes {s1.dim} and {s2.dim}")
    return bool(np.max(np.abs(s1.eigenvalues - s2.eigenvalues)) <= tol)

