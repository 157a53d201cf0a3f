"""Tensor core: action, flattenings, Gram matrices, sampling, Haar factors."""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import event, given, strategies as st

import otiso
from otiso import (
    DimensionMismatch,
    FormatError,
    NonFiniteEntries,
    NotUnitary,
    RandomModel,
    Tensor3,
    TransformTriple,
    apply_action,
    read_tensor,
    sample_haar_triple,
    sample_tensor,
)
from otiso.hosvd import core_of
from otiso.phases import Assignment, assemble_witness
from otiso.tensor import _fro, flatten, gram

from helpers import identity_triple, unflatten, unitarity_defect


def naive_action(L, R, T, a):
    """Definitional triple sum, evaluated entry by entry. Oracle for apply_action."""
    l, m, n = a.shape
    out = np.zeros((l, m, n), dtype=np.result_type(L, a))
    for i in range(l):
        for j in range(m):
            for k in range(n):
                acc = 0.0
                for p in range(l):
                    for q in range(m):
                        for r in range(n):
                            acc = acc + L[i, p] * R[j, q] * T[k, r] * a[p, q, r]
                out[i, j, k] = acc
    return out


def test_identity_action_is_exact():
    a = sample_tensor((3, 4, 2), RandomModel("gaussian", "real", 1))
    b = apply_action(identity_triple(a.dims), a)
    assert np.array_equal(b.data, a.data)


def test_zero_tensor_maps_to_zero():
    g = sample_haar_triple((3, 3, 3), 2, "complex")
    z = Tensor3(np.zeros((3, 3, 3), dtype=np.complex128))
    assert apply_action(g, z).frobenius_norm == 0.0


def test_permutation_action_matches_naive_oracle():
    a = sample_tensor((3, 2, 2), RandomModel("gaussian", "real", 3))
    P = np.eye(3)[[2, 0, 1]]  # sigma: 0->row2 position etc.
    g = TransformTriple([P, np.eye(2), np.eye(2)])
    got = apply_action(g, a).data
    want = naive_action(P, np.eye(2), np.eye(2), a.data)
    assert np.allclose(got, want, rtol=0, atol=1e-13)
    # permuting the first index directly gives the same tensor
    assert np.allclose(got, a.data[np.argmax(P, axis=1)], rtol=0, atol=0)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_action_matches_naive_oracle_random(kind):
    a = sample_tensor((3, 4, 2), RandomModel("gaussian", kind, 4))
    g = sample_haar_triple((3, 4, 2), 5, kind)
    got = apply_action(g, a).data
    want = naive_action(g[0], g[1], g[2], a.data)
    assert np.allclose(got, want, rtol=0, atol=1e-12 * a.frobenius_norm)


@given(dims=st.tuples(*[st.integers(1, 6)] * 3), kind=st.sampled_from(["real", "complex"]),
       seed=st.integers(0, 2**32 - 1))
def test_action_matches_naive_oracle_property(dims, kind, seed):
    event(f"kind={kind}")
    a = sample_tensor(dims, RandomModel("gaussian", kind, seed))
    g = sample_haar_triple(dims, seed + 1, kind)
    got = apply_action(g, a)
    assert got.dims == a.dims and got.scalar_kind == kind
    assert got.data.flags["C_CONTIGUOUS"] and not got.data.flags["WRITEABLE"]
    want = naive_action(g[0], g[1], g[2], a.data)
    assert np.max(np.abs(got.data - want)) <= 1e-12 * a.frobenius_norm


@given(dims=st.tuples(*[st.integers(1, 6)] * 3), tensor_kind=st.sampled_from(["real", "complex"]),
       seed=st.integers(0, 2**32 - 1))
def test_action_validates_dims_and_kind(dims, tensor_kind, seed):
    event(f"tensor_kind={tensor_kind}")
    a = sample_tensor(dims, RandomModel("gaussian", tensor_kind, seed))
    with pytest.raises(DimensionMismatch):
        apply_action(sample_haar_triple(dims[:2] + (dims[2] + 1,), seed + 1, "real"), a)
    # the other kind's triple mixes with the tensor by numpy's promotion:
    # complex, within a few ulps of the action with both cast to complex first
    g = sample_haar_triple(dims, seed + 1, "complex" if tensor_kind == "real" else "real")
    got = apply_action(g, a)
    want = apply_action(TransformTriple([f.astype(complex) for f in g.factors], check=False), Tensor3(a.data.astype(complex)))
    assert got.scalar_kind == "complex"
    assert got.data.flags["C_CONTIGUOUS"] and not got.data.flags["WRITEABLE"]
    assert np.max(np.abs(got.data - want.data)) <= 8 * np.finfo(float).eps * a.frobenius_norm


def test_frobenius_invariance_under_action():
    for seed in range(20):
        kind = "complex" if seed % 2 else "real"
        a = sample_tensor((4, 3, 5), RandomModel("gaussian", kind, seed))
        b = apply_action(sample_haar_triple((4, 3, 5), 100 + seed, kind), a)
        assert abs(b.frobenius_norm - a.frobenius_norm) <= 1e-12 * a.frobenius_norm


def test_action_composition_law():
    a = sample_tensor((4, 4, 4), RandomModel("gaussian", "complex", 8))
    g = sample_haar_triple((4, 4, 4), 9, "complex")
    h = sample_haar_triple((4, 4, 4), 10, "complex")
    lhs = apply_action(g, apply_action(h, a))
    rhs = apply_action(g.compose(h), a)
    assert np.linalg.norm(lhs.data - rhs.data) <= 1e-10 * a.frobenius_norm


def test_flatten_frozen_2x2x2_rows():
    # a[i,j,k] = 4(i-1) + 2(j-1) + k with 1-based indices
    arr = np.zeros((2, 2, 2))
    for i, j, k in itertools.product(range(2), repeat=3):
        arr[i, j, k] = 4 * i + 2 * j + (k + 1)
    m1 = flatten(Tensor3(arr), 1)
    assert m1.shape == (2, 4)
    assert list(m1[0]) == [1.0, 2.0, 3.0, 4.0]
    assert list(m1[1]) == [5.0, 6.0, 7.0, 8.0]


def test_flatten_column_order_all_modes():
    # slower column index is the smaller remaining mode number
    dims = (2, 3, 4)
    a = Tensor3(np.arange(24, dtype=np.float64).reshape(dims))
    m1, m2, m3 = (flatten(a, mode) for mode in (1, 2, 3))
    for i, j, k in itertools.product(*(range(d) for d in dims)):
        assert m1[i, j * dims[2] + k] == a.data[i, j, k]
        assert m2[j, i * dims[2] + k] == a.data[i, j, k]
        assert m3[k, i * dims[1] + j] == a.data[i, j, k]


def test_flatten_diagonal_rows_single_nonzero():
    arr = np.zeros((3, 3, 3))
    for i, d in enumerate((5.0, -2.0, 1.0)):
        arr[i, i, i] = d
    m1 = flatten(Tensor3(arr), 1)
    for i in range(3):
        nz = np.flatnonzero(m1[i])
        assert len(nz) == 1 and m1[i, nz[0]] == arr[i, i, i]


def test_flatten_intertwines_left_factor():
    a = sample_tensor((3, 3, 3), RandomModel("gaussian", "real", 11))
    L = sample_haar_triple((3, 3, 3), 12, "real")[0]
    g = TransformTriple([L, np.eye(3), np.eye(3)])
    lhs = flatten(apply_action(g, a), 1)
    rhs = L @ flatten(a, 1)
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12 * a.frobenius_norm)


def test_flatten_unflatten_roundtrip_exhaustive():
    for dims in itertools.product(range(1, 7), range(1, 6), range(1, 5)):
        a = Tensor3(np.arange(np.prod(dims), dtype=np.float64).reshape(dims) + 1.0)
        for mode in (1, 2, 3):
            back = unflatten(flatten(a, mode), mode, dims)
            assert np.array_equal(back.data, a.data)


def test_flatten_rejects_bad_mode():
    a = Tensor3(np.ones((2, 2, 2)))
    with pytest.raises(DimensionMismatch):
        flatten(a, 0)
    with pytest.raises(DimensionMismatch):
        flatten(a, 4)


def test_gram_of_diagonal_tensor():
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 0] = 3.0
    arr[1, 1, 1] = 2.0
    g1 = gram(Tensor3(arr), 1)
    assert np.array_equal(g1, np.diag([9.0, 4.0]))


def test_gram_of_zero_tensor():
    assert np.array_equal(gram(Tensor3(np.zeros((2, 3, 4))), 2), np.zeros((3, 3)))


def test_gram_hermitian_psd():
    a = sample_tensor((4, 5, 3), RandomModel("gaussian", "complex", 13))
    for mode in (1, 2, 3):
        G = gram(a, mode)
        assert np.linalg.norm(G - G.conj().T) <= 1e-12 * np.linalg.norm(G)
        assert np.linalg.eigvalsh(G).min() >= -1e-10 * np.linalg.norm(G)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_gram_covariance_under_action(kind):
    a = sample_tensor((4, 4, 4), RandomModel("gaussian", kind, 14))
    g = sample_haar_triple((4, 4, 4), 15, kind)
    b = apply_action(g, a)
    for mode in (1, 2, 3):
        X = g[mode - 1]
        lhs = gram(b, mode)
        rhs = X @ gram(a, mode) @ X.conj().T
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1.0)


def test_sample_rademacher_support():
    t = sample_tensor((5, 5, 5), RandomModel("rademacher", "real", 16))
    assert set(np.unique(t.data)) <= {-1.0, 1.0}
    tc = sample_tensor((4, 4, 4), RandomModel("rademacher", "complex", 17))
    assert set(np.unique(tc.data.real)) <= {-1.0, 1.0}
    assert set(np.unique(tc.data.imag)) <= {-1.0, 1.0}


def test_sample_uniform_pm_support_and_moments():
    t = sample_tensor((12, 12, 12), RandomModel("uniform_pm", "real", 18))
    s = math.sqrt(3.0)
    assert t.data.min() >= -s and t.data.max() <= s
    assert abs(t.data.mean()) < 0.05
    assert abs(t.data.var() - 1.0) < 0.05


def test_sample_gaussian_entry_mean_clt():
    # |sample mean| <= 1.5 * 4 / sqrt(20^3) over repeated seeds
    bound = 1.5 * 4.0 / math.sqrt(20 ** 3)
    for seed in range(10):
        t = sample_tensor((20, 20, 20), RandomModel("gaussian", "real", seed))
        assert abs(float(t.data.mean())) <= bound


def test_sample_determinism_and_stream_split():
    model = RandomModel("gaussian", "complex", 19)
    t1 = sample_tensor((3, 4, 5), model)
    t2 = sample_tensor((3, 4, 5), model)
    assert np.array_equal(t1.data, t2.data)
    t3 = sample_tensor((3, 4, 5), model, stream=(1,))
    assert not np.array_equal(t1.data, t3.data)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_haar_triple_unitarity(kind):
    for seed in range(5):
        g = sample_haar_triple((6, 5, 4), seed, kind)
        for d, n in enumerate(g.dims):
            assert unitarity_defect(g[d]) <= 1e-10 * n


def test_haar_dims_one_gives_unit_scalars():
    g = sample_haar_triple((1, 1, 1), 20, "complex")
    for d in range(3):
        assert abs(abs(complex(g[d][0, 0])) - 1.0) <= 1e-12


def test_haar_first_column_unit_norm_over_seeds():
    # norm of L e_1 equals 1 up to a couple of ulps
    for seed in range(100):
        for kind in ("real", "complex"):
            g = sample_haar_triple((6, 5, 4), seed, kind)
            for d in range(3):
                assert abs(float(np.linalg.norm(g[d][:, 0])) - 1.0) <= 1e-15


def test_haar_determinism():
    g1 = sample_haar_triple((4, 4, 4), 21, "real")
    g2 = sample_haar_triple((4, 4, 4), 21, "real")
    assert all(np.array_equal(g1[d], g2[d]) for d in range(3))


def test_tensor3_validation():
    with pytest.raises(NonFiniteEntries):
        Tensor3(np.array([[[np.nan]]]))
    with pytest.raises(DimensionMismatch):
        Tensor3(np.zeros((2, 2)))


def safe_norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)``, taken after an exact power-of-two prescale where its sum of squares is 0, subnormal or inf.

    The sum is normal exactly when the plain norm is at least 2^-511 and finite.
    The prescale comes from the largest real or imaginary part, and needs it
    finite and nonzero.
    """
    with np.errstate(over="ignore"):
        plain = float(np.linalg.norm(x))
    top = max(float(np.abs(x.real).max(initial=0.0)), float(np.abs(x.imag).max(initial=0.0)))
    if 2.0 ** -511 <= plain < math.inf or not 0.0 < top < math.inf:
        return plain
    scale = 2.0 ** min(-math.frexp(top)[1], 1023)
    return float(np.linalg.norm(x * scale)) / scale


@given(
    dims=st.tuples(*(st.integers(1, 4) for _ in range(3))),
    kind=st.sampled_from(["real", "complex"]),
    magnitude=st.one_of(st.just(1e308), st.floats(0.0, 1e308)),
    bad=st.lists(st.tuples(st.integers(0, 127), st.sampled_from([math.inf, -math.inf, math.nan])), max_size=3),
    seed=st.integers(0, 2 ** 32),
)
def test_finiteness_and_norm_follow_the_entries(tmp_path_factory, dims, kind, magnitude, bad, seed):
    event(f"kind={kind}")
    event("magnitude=1e308" if magnitude == 1e308 else "magnitude<1e308")
    # magnitudes up to 1e308 overflow the plain sum of squares while every
    # entry is finite, and tiny ones underflow it; bad values land in real or
    # imaginary parts alike
    rng = np.random.default_rng(seed)
    parts = rng.uniform(-1.0, 1.0, dims + ((2,) if kind == "complex" else ())) * magnitude
    flat = parts.reshape(-1)
    for pos, value in bad:
        flat[pos % flat.size] = value
    x = parts.view(np.complex128)[..., 0] if kind == "complex" else parts
    finite = bool(np.all(np.isfinite(x)))
    norm = safe_norm(x)
    path = tmp_path_factory.getbasetemp() / "property.t3b"
    path.write_bytes(b"T3B1" + struct.pack("<BIII", int(kind == "complex"), *dims) + x.tobytes())
    if not finite:
        with pytest.raises(NonFiniteEntries):
            Tensor3(x)
        with pytest.raises(NonFiniteEntries):
            Tensor3._adopt(x.copy())
        with pytest.raises(FormatError):
            read_tensor(path)
        return
    adopted = x.copy()
    public, own, read = Tensor3(x), Tensor3._adopt(adopted), read_tensor(path)
    assert not np.shares_memory(public.data, x) and own.data is adopted and read.data.flags["OWNDATA"]
    for t in (public, own, read):
        assert t.frobenius_norm == norm
        assert t.data.tobytes() == x.tobytes()
        assert t.data.flags["C_CONTIGUOUS"] and not t.data.flags["WRITEABLE"]
    assert x.flags["WRITEABLE"]


def test_tensor3_data_read_only():
    t = Tensor3(np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        t.data[0, 0, 0] = 5.0


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_tensors_that_compare_equal_hash_equal(kind):
    # -0.0 == 0.0, so a signed zero in any part must not change the hash
    zero = np.zeros((1, 1, 2), dtype=np.float64 if kind == "real" else np.complex128)
    signed = [[[0.0, -0.0]]] if kind == "real" else [[[complex(-0.0, 0.0), complex(0.0, -0.0)]]]
    a, b = Tensor3(signed), Tensor3(zero)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_transform_triple_validation():
    with pytest.raises(NotUnitary):
        TransformTriple([np.eye(2) * 2.0, np.eye(2), np.eye(2)])
    with pytest.raises(DimensionMismatch):
        TransformTriple([np.ones((2, 3)), np.eye(3), np.eye(3)])
    with pytest.raises(DimensionMismatch):
        TransformTriple([np.eye(2), np.eye(2)])


def test_triple_inverse_is_group_inverse():
    g = sample_haar_triple((3, 4, 5), 22, "complex")
    a = sample_tensor((3, 4, 5), RandomModel("gaussian", "complex", 23))
    back = apply_action(g.inverse(), apply_action(g, a))
    assert np.linalg.norm(back.data - a.data) <= 1e-12 * a.frobenius_norm


@given(
    dims=st.tuples(*(st.integers(1, 6) for _ in range(3))),
    kind=st.sampled_from(["real", "complex"]),
    exponent=st.one_of(st.integers(-1074, -1022), st.integers(-300, 300), st.integers(590, 610)),
    seed=st.integers(0, 2 ** 32),
)
def test_fro_is_numpys_norm_bit_for_bit(dims, kind, exponent, seed):
    event(f"kind={kind}")
    event("subnormal" if exponent <= -1022 else "overflow" if exponent >= 590 else "ordinary")
    # subnormal entries, whose squares underflow, ordinary ones, and entries
    # near 2^600, whose squares overflow; views that are not C-ordered too.
    # Where numpy's sum of squares is normal _fro is its norm bit for bit,
    # elsewhere numpy's norm of the prescaled entries.
    rng = np.random.default_rng(seed)
    parts = np.ldexp(rng.uniform(-1.0, 1.0, dims + ((2,) if kind == "complex" else ())), exponent)
    x = parts.view(np.complex128)[..., 0] if kind == "complex" else parts
    with np.errstate(over="ignore"):
        for view in (x, x.transpose(2, 0, 1), x[:, ::2], x[0]):
            assert _fro(view) == safe_norm(view)


def test_transform_triple_copies_and_checks_its_input():
    factors = [np.eye(2), np.eye(3), np.eye(4)]
    g = TransformTriple(factors)
    assert not any(np.shares_memory(f, h) for f, h in zip(factors, g.factors))
    factors[0][0, 0] = 5.0
    assert g[0][0, 0] == 1.0 and not any(h.flags["WRITEABLE"] for h in g.factors)
    for check in (True, False):
        with pytest.raises(NonFiniteEntries):
            TransformTriple([np.eye(2), np.full((3, 3), np.nan), np.eye(4)], check=check)
    with pytest.raises(NotUnitary):
        TransformTriple([np.eye(2), 2.0 * np.eye(3), np.eye(4)], check=True)
    assert TransformTriple([np.eye(2), 2.0 * np.eye(3), np.eye(4)], check=False)[1][0, 0] == 2.0


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_package_built_triples_adopt_their_matrices(monkeypatch, kind):
    # assemble_witness's products are wrapped as built: no copy, made
    # read-only, with the values the copying constructor would hold; core_of
    # acts by its inverse bases without a triple, with the same result
    adopted = []
    adopt = TransformTriple._adopt.__func__

    def spy(cls, factors):
        adopted.append((list(factors), adopt(cls, factors)))
        return adopted[-1][1]

    monkeypatch.setattr(TransformTriple, "_adopt", classmethod(spy))
    dims = (3, 4, 5)
    a = sample_tensor(dims, RandomModel("gaussian", kind, 41))
    b = apply_action(sample_haar_triple(dims, 42, kind), a)
    ca, cb = core_of(a, b)
    diagonals = tuple(np.exp(1j * np.arange(d)) if kind == "complex" else np.ones(d) for d in dims)
    witness = assemble_witness(ca, cb, Assignment(diagonals, "anchored"))
    assert len(adopted) == 1 and adopted[-1][1] is witness
    for factors, triple in adopted:
        assert triple.scalar_kind == kind
        for f, h in zip(factors, triple.factors):
            assert h is f and h.flags["C_CONTIGUOUS"] and not h.flags["WRITEABLE"]
    for core, source in zip((ca, cb), (a, b)):
        inverse = TransformTriple([U.conj().T for U in core.bases], check=False)
        assert core.core.tobytes() == apply_action(inverse, source).data.tobytes() and not core.core.flags["WRITEABLE"]
    for U, V, d, h in zip(ca.bases, cb.bases, diagonals, witness.factors):
        assert np.array_equal(h, (V * d) @ U.conj().T)
