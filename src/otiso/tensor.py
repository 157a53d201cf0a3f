"""Dense order-3 tensors, mode flattenings, Gram matrices, and group actions.

The objects here are deliberately small: a :class:`Tensor3` wraps a dense
``numpy`` array of shape ``(l, m, n)`` holding float64 or complex128 entries,
and a :class:`TransformTriple` wraps three square unitary (orthogonal in the
real case) factors, one per mode.  The triple acts on a tensor by

    B[i, j, k] = sum_{p,q,r} L[i, p] * R[j, q] * T[k, r] * A[p, q, r]

where ``L``, ``R``, ``T`` are the mode-1, mode-2, mode-3 factors.  All
entry indexing is 0-based in code; serialized formats that use 1-based
conventions convert at the boundary.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, NonFiniteEntries, NotUnitary

SCALAR_KINDS = ("real", "complex")

# Unitarity defect tolerance is per-dimension: ||X*X - I||_F <= TAU_UNITARY_REL * dim.
TAU_UNITARY_REL = 1e-10

_SEED_MASK = (1 << 64) - 1

_DTYPES = {"real": np.float64, "complex": np.complex128}


def _kind_of(arr: np.ndarray) -> str:
    return "complex" if arr.dtype.kind == "c" else "real"


def _sum_of_squares(x: np.ndarray) -> float:
    """The plain sum of squares of a flat array, by ``np.linalg.norm``'s dot products."""
    if x.dtype.kind != "c":
        return float(x.dot(x))
    return float(x.real.dot(x.real) + x.imag.dot(x.imag))


def _fro(x: np.ndarray) -> float:
    """The Frobenius norm of a float or complex array, safe from the squares' overflow and underflow.

    Where the sum of squares is a normal number this is ``np.linalg.norm(x)``
    bit for bit: the same dot products, without the wrapper.  A sum that is
    0, subnormal or ``inf`` over finite entries, not all zero, is taken again
    after an exact power-of-two prescale by the largest real or imaginary
    part (Blue, ACM TOMS 4(1), 1978; Anderson, ACM TOMS 44(1), 2017).
    """
    x = x.ravel(order="K")
    ss = _sum_of_squares(x)
    if not sys.float_info.min <= ss < math.inf:
        top = float(np.maximum.reduce(np.abs(x.view(x.real.dtype)), initial=0.0))
        if 0.0 < top < math.inf:  # not all zero, and no infinite or NaN entry
            scale = math.ldexp(1.0, min(-math.frexp(top)[1], 1023))  # the cap, 2^1023, lifts any subnormal past 2^-52
            return math.sqrt(_sum_of_squares(x * scale)) / scale
    return math.sqrt(ss)


class Tensor3:
    """Dense order-3 tensor over the reals or the complex numbers.

    Parameters
    ----------
    values : array_like
        Shape ``(l, m, n)`` with ``l, m, n >= 1``.  Entries must be finite.
        The array is always copied, as complex128 when ``values`` is complex
        and as float64 otherwise, so later writes to ``values`` never reach
        the tensor.

    Notes
    -----
    The kind is the dtype; operations that mix kinds follow numpy's promotion.

    The wrapped array is C-ordered and marked read-only, so the entry at
    ``(i, j, k)`` sits at flat offset ``k + n*j + n*m*i``: the left index is
    the slowest.  That lexicographic layout is also the on-disk entry order.

    The Frobenius norm is computed once, at construction, and finiteness
    follows from it: a finite norm has no infinite or NaN term, so only a
    norm that is not finite (past the double range, or a bad entry) pays for
    the entrywise scan.  Arrays the package has just built, and holds no
    other reference to, are adopted by :meth:`_adopt` without a copy.
    """

    __slots__ = ("data", "_norm")

    def __init__(self, values):
        arr = np.asarray(values)
        self._own(np.array(arr, _DTYPES[_kind_of(arr)], order="C"))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "Tensor3":
        """Wrap ``arr`` itself, its kind read from its dtype: only for a C-ordered float64 or complex128 array that nothing else references."""
        assert arr.dtype in _DTYPES.values() and arr.flags.c_contiguous, arr.dtype
        t = cls.__new__(cls)
        t._own(arr)
        return t

    def _own(self, arr: np.ndarray) -> None:
        if arr.ndim != 3:
            raise DimensionMismatch(f"expected 3 axes, got {arr.ndim}")
        if min(arr.shape) < 1:
            raise DimensionMismatch(f"all dimensions must be >= 1, got {arr.shape}")
        # entries past about 2^511 overflow the plain sum of squares, which _fro then prescales; the
        # scan below settles a norm that is still not finite (past the double range, or a bad entry)
        with np.errstate(over="ignore"):
            norm = _fro(arr)
        if not math.isfinite(norm) and not np.all(np.isfinite(arr)):
            raise NonFiniteEntries("tensor entries must be finite")
        arr.flags.writeable = False
        self.data = arr
        self._norm = norm

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def scalar_kind(self) -> str:
        return _kind_of(self.data)

    @property
    def frobenius_norm(self) -> float:
        return self._norm

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor3):
            return NotImplemented
        return (
            self.scalar_kind == other.scalar_kind
            and self.dims == other.dims
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):
        # + 0.0 turns -0.0 into +0.0 in both parts, so entries that compare equal hash equal
        return hash((self.dims, self.scalar_kind, (self.data + 0.0).tobytes()))

    def __repr__(self) -> str:
        return f"Tensor3(dims={self.dims}, kind={self.scalar_kind}, norm={self.frobenius_norm:.6g})"


def _unitarity_defect(X: np.ndarray) -> float:
    """``||X* X - I||_F`` of a square float64 or complex128 matrix, unchecked."""
    G = X.conj().T @ X
    G.reshape(-1)[:: X.shape[0] + 1] -= 1.0  # minus the identity, entry for entry as ``- np.eye(n)``
    return _fro(G)


class TransformTriple:
    """Three square unitary factors, one per tensor mode.

    Parameters
    ----------
    factors : sequence of three array_like
        Square matrices of sizes ``(l, l)``, ``(m, m)``, ``(n, n)``, copied
        as complex128 when any of them is complex and as float64 otherwise.
    check : bool, keyword-only
        When True (default), each factor must satisfy
        ``||X*X - I||_F <= TAU_UNITARY_REL * dim``.  Pass ``check=False``
        for raw witness material whose unitarity is reported separately.
    """

    __slots__ = ("factors",)

    def __init__(self, factors, *, check: bool = True):
        if len(factors) != 3:
            raise DimensionMismatch("a transform triple needs exactly 3 factors")
        arrs = [np.asarray(f) for f in factors]
        dtype = np.complex128 if any(f.dtype.kind == "c" for f in arrs) else np.float64
        mats = []
        for f in arrs:
            M = np.array(f, dtype, order="C")
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise DimensionMismatch(f"factor must be square, got shape {M.shape}")
            if not np.all(np.isfinite(M)):
                raise NonFiniteEntries("transform factors must be finite")
            if check:
                defect = _unitarity_defect(M)
                if defect > TAU_UNITARY_REL * M.shape[0]:
                    raise NotUnitary(f"factor of size {M.shape[0]} has unitarity defect {defect:.3e}")
            M.flags.writeable = False
            mats.append(M)
        self.factors = tuple(mats)

    @classmethod
    def _adopt(cls, factors) -> "TransformTriple":
        """Wrap ``factors`` themselves, made read-only: only square matrices of one dtype the package just built."""
        assert len({f.dtype for f in factors}) == 1, [f.dtype for f in factors]
        t = cls.__new__(cls)
        for f in factors:
            f.flags.writeable = False
        t.factors = tuple(factors)
        return t

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(f.shape[0] for f in self.factors)  # type: ignore[return-value]

    @property
    def scalar_kind(self) -> str:
        return _kind_of(self.factors[0])  # every factor has the triple's dtype

    def __getitem__(self, d: int) -> np.ndarray:
        return self.factors[d]

    def unitarity_defects(self) -> tuple[float, float, float]:
        return tuple(_unitarity_defect(f) for f in self.factors)  # type: ignore[return-value]

    def compose(self, other: "TransformTriple") -> "TransformTriple":
        """Group product: ``(self . other)`` acts as self after other."""
        if self.dims != other.dims:
            raise DimensionMismatch(f"cannot compose triples with dims {self.dims} and {other.dims}")
        return TransformTriple._adopt([a @ b for a, b in zip(self.factors, other.factors)])

    def inverse(self) -> "TransformTriple":
        """Inverse triple; conjugate transpose of each factor."""
        return TransformTriple._adopt([np.conjugate(f.T, order="C") for f in self.factors])

    def __repr__(self) -> str:
        return f"TransformTriple(dims={self.dims}, kind={self.scalar_kind})"


@dataclass(frozen=True)
class RandomModel:
    """Entry distribution for random tensors and matrices.

    ``distribution`` is one of ``"gaussian"`` (standard normal),
    ``"rademacher"`` (uniform on {-1, +1}), or ``"uniform_pm"`` (uniform on
    [-sqrt(3), sqrt(3)]); each has mean zero and variance one per real
    coordinate.  For ``scalar_kind == "complex"`` the real and imaginary
    parts are drawn independently from the named law.

    ``seed`` is a 64-bit integer.  Sampling uses the Philox counter-based
    generator keyed by the seed; independent streams (one per trial, per
    factor, ...) are derived by spawn keys, so every draw is reproducible
    bit-for-bit from ``(seed, stream indices)``.
    """

    distribution: str = "gaussian"
    scalar_kind: str = "real"
    seed: int = 0

    def __post_init__(self):
        if self.distribution not in ("gaussian", "rademacher", "uniform_pm"):
            raise ConfigInvalid(f"unknown distribution {self.distribution!r}")
        if self.scalar_kind not in SCALAR_KINDS:
            raise ConfigInvalid(f"unknown scalar kind {self.scalar_kind!r}")
        object.__setattr__(self, "seed", int(self.seed) & _SEED_MASK)


def generator(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic Philox generator for ``seed`` and a stream-splitting key."""
    ss = np.random.SeedSequence(entropy=int(seed) & _SEED_MASK, spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def _draw_real(rng: np.random.Generator, distribution: str, shape) -> np.ndarray:
    if distribution == "gaussian":
        return rng.standard_normal(shape)
    if distribution == "rademacher":
        return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
    # uniform_pm: symmetric interval scaled to unit variance
    s = math.sqrt(3.0)
    return rng.uniform(-s, s, size=shape)


def sample_entries(rng: np.random.Generator, model: RandomModel, shape) -> np.ndarray:
    """Array of i.i.d. entries per the model; complex draws re then im."""
    x = _draw_real(rng, model.distribution, shape)
    if model.scalar_kind == "complex":
        x = x + 1j * _draw_real(rng, model.distribution, shape)
    return x


def sample_tensor(dims, model: RandomModel, *, stream: tuple[int, ...] = ()) -> Tensor3:
    """Sample a random tensor; identical ``(model, stream)`` gives identical entries.

    Parameters
    ----------
    dims : tuple of 3 ints
    model : RandomModel
    stream : tuple of ints, optional
        Extra stream-splitting indices mixed into the seed stream, used by
        experiment harnesses to give each trial its own substream.
    """
    if len(dims) != 3 or min(dims) < 1:
        raise DimensionMismatch(f"dims must be three positive integers, got {dims}")
    rng = generator(model.seed, *stream)
    return Tensor3._adopt(sample_entries(rng, model, tuple(int(d) for d in dims)))


def haar_factor(n: int, rng: np.random.Generator, scalar_kind: str = "real") -> np.ndarray:
    """One Haar-distributed orthogonal/unitary matrix.

    QR of a Ginibre sample, with the R diagonal's phases (signs in the real
    case) pushed into Q so the distribution is exactly Haar rather than the
    raw QR output.
    """
    z = rng.standard_normal((n, n))
    if scalar_kind == "complex":
        z = (z + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    ph = d / np.abs(d)
    return q * ph


def sample_haar_triple(dims, seed: int, scalar_kind: str = "real") -> TransformTriple:
    """Haar-random transform triple for the given tensor dims.

    Each factor gets its own derived stream, so triples for nested dims
    share no draws.
    """
    if scalar_kind not in SCALAR_KINDS:
        raise ConfigInvalid(f"unknown scalar kind {scalar_kind!r}")
    factors = [haar_factor(int(d), generator(seed, i), scalar_kind) for i, d in enumerate(dims)]
    return TransformTriple(factors)


def flatten(a: Tensor3, mode: int) -> np.ndarray:
    """Mode-``mode`` flattening (matricization).

    Row ``i`` of the mode-1 flattening collects ``A[i, :, :]`` with the
    remaining indices ordered lexicographically, the smaller remaining mode
    number varying slower.  So for mode 1 the columns run ``(j, k)`` with
    ``j`` slow, for mode 2 ``(i, k)`` with ``i`` slow, for mode 3 ``(i, j)``
    with ``i`` slow.
    """
    if mode not in (1, 2, 3):
        raise DimensionMismatch(f"mode must be 1, 2, or 3, got {mode}")
    ax = mode - 1
    arr = a.data
    return arr.transpose((ax, *(d for d in range(3) if d != ax))).reshape(arr.shape[ax], -1)


def gram(a: Tensor3, mode: int) -> np.ndarray:
    """Mode Gram matrix ``M M*`` of the mode flattening ``M``.

    Hermitian positive semidefinite by construction; its eigenvalues are
    invariant under the triple action, which is what the whole spectral
    pipeline rests on.
    """
    M = flatten(a, mode)
    return M @ M.conj().T


def _act(factors, arr: np.ndarray) -> np.ndarray:
    """The three mode products of :func:`apply_action` on a bare array of matching dims, unchecked."""
    L, R, T = factors
    l, m, n = arr.shape
    out = np.matmul(R, (L @ arr.reshape(l, m * n)).reshape(l, m, n))
    return (out.reshape(l * m, n) @ T.T).reshape(l, m, n)


def apply_action(g: TransformTriple, a: Tensor3) -> Tensor3:
    """Act on ``a`` by the triple ``g``.

    Three successive mode products, each one matrix product on a reshaped
    view of the C-ordered array, so no axis is moved and nothing is copied;
    the tensor returned adopts the last product's array: mode 1 is
    ``L @ A.reshape(l, m*n)``, mode 2 is ``R @ X[i]`` for every ``i`` (one
    broadcast ``matmul``), mode 3 is ``X.reshape(l*m, n) @ T.T``.  The
    contraction order is fixed (mode 1, 2, 3), so results are bitwise
    reproducible for identical inputs.  As O(n) sits inside U(n), a real and
    a complex operand mix by numpy's type promotion into a complex result.
    """
    if g.dims != a.dims:
        raise DimensionMismatch(f"triple dims {g.dims} do not match tensor dims {a.dims}")
    return Tensor3._adopt(_act(g.factors, a.data))
