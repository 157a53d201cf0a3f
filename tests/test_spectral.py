"""Hermitian eigendecomposition conventions, the simple-spectrum predicate, perturbation bounds."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from otiso import (
    DimensionMismatch,
    NonHermitianInput,
    RandomModel,
    apply_action,
    sample_haar_triple,
    sample_tensor,
)
from otiso.hosvd import mode_spectra
from otiso.spectral import eig_hermitian, eig_hermitian_stack, spectra_close
from otiso.tensor import gram
from otiso.spectral import DEGENERACY_REL, TAU_HERMITIAN_REL, SpectralData, _fix_column_phases


def random_hermitian(n, seed, kind="real"):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n))
    if kind == "complex":
        x = x + 1j * rng.standard_normal((n, n))
    return (x + x.conj().T) / 2.0


def test_diagonal_matrix_frozen():
    s = eig_hermitian(np.diag([4.0, 1.0]))
    assert np.array_equal(s.eigenvalues, [4.0, 1.0])
    assert s.min_gap == 3.0
    assert np.array_equal(s.vectors, np.eye(2))


def test_two_by_two_closed_form():
    s = eig_hermitian(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(s.eigenvalues, [3.0, 1.0], rtol=0, atol=1e-14)
    r = 1.0 / np.sqrt(2.0)
    # sign convention: largest-modulus entry positive, ties broken by lowest row
    assert np.allclose(s.vectors[:, 0], [r, r], rtol=0, atol=1e-14)
    assert np.allclose(s.vectors[:, 1], [r, -r], rtol=0, atol=1e-14)


def test_trace_identity_against_tensor_norm():
    a = sample_tensor((5, 5, 5), RandomModel("gaussian", "real", 31))
    s = eig_hermitian(gram(a, 1))
    assert abs(s.eigenvalues.sum() - a.frobenius_norm ** 2) <= 1e-10 * a.frobenius_norm ** 2


def test_eigenvalues_nonincreasing_and_reconstruction():
    for seed in range(10):
        kind = "complex" if seed % 2 else "real"
        G = random_hermitian(7, seed, kind)
        s = eig_hermitian(G)
        assert np.all(np.diff(s.eigenvalues) <= 0)
        gn = max(np.linalg.norm(G), 1e-300)
        assert np.linalg.norm(s.vectors @ np.diag(s.eigenvalues) @ s.vectors.conj().T - G) <= 1e-10 * gn
        assert np.linalg.norm(s.vectors.conj().T @ s.vectors - np.eye(7)) <= 1e-10 * 7
        assert s.backward_error <= 1e-10 * gn


def test_column_phase_convention_complex():
    G = random_hermitian(6, 77, "complex")
    s = eig_hermitian(G)
    for c in range(6):
        col = s.vectors[:, c]
        piv = int(np.argmax(np.abs(col)))
        assert abs(col[piv].imag) <= 1e-12
        assert col[piv].real > 0


def reference_fix_column_phases(vectors):
    """The column-by-column loop the vectorized convention replaced; returns the pivot rows too."""
    V = vectors.copy()
    pivots = []
    for j in range(V.shape[1]):
        i = int(np.argmax(np.abs(V[:, j])))
        pivots.append(i)
        pivot = V[i, j]
        if np.iscomplexobj(V):
            mag = abs(pivot)
            if mag > 0.0:
                V[:, j] = V[:, j] * (pivot.conjugate() / mag)
        elif pivot < 0.0:
            V[:, j] = -V[:, j]
    return V, pivots


def convention_cases():
    """Eigenvector-like inputs plus modulus ties, an exactly zero column and 1x1, real and complex."""
    rng = np.random.default_rng(404)
    for n in (1, 2, 3, 5, 8, 13, 24):
        for kind in ("real", "complex"):
            yield np.linalg.eigh(random_hermitian(n, 1000 + n, kind))[1][:, ::-1]
    # ties: equal |re| and |im| in several rows, so the lowest of them must win
    z = 0.3 - 0.4j
    yield np.array([[z, 0.0, 1.0], [-z, 0.5j, 0.0], [z.conjugate(), -0.5j, 0.0], [-0.1, 0.5, 0.0]])
    yield np.array([[0.5, -0.5, 0.0], [-0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.25, -0.5, 0.0]])
    # an exactly zero column (both zero signs) among random ones
    for kind in ("real", "complex"):
        V = rng.standard_normal((6, 4))
        if kind == "complex":
            V = V + 1j * rng.standard_normal((6, 4))
        V[:, 2] = 0.0
        V[1, 2] = complex(-0.0, -0.0) if kind == "complex" else -0.0
        yield V
    yield np.array([[-2.5]])
    yield np.array([[-1.5 + 2.0j]])
    yield np.array([[0.0j]])
    yield np.zeros((0, 0))


def test_column_phases_match_reference_loop():
    for V in convention_cases():
        got = _fix_column_phases(V)
        ref, pivots = reference_fix_column_phases(V)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        cols = np.arange(V.shape[1])
        # same pivot rows: each comes out real and positive, unless its column is zero
        nonzero = np.abs(V).max(axis=0, initial=0.0) > 0
        piv = got[pivots, cols][nonzero]
        assert np.all(piv.real > 0.0) and np.all(np.abs(piv.imag) <= 4 * np.spacing(piv.real))
        assert np.array_equal(got[:, ~nonzero].view(np.uint64), V[:, ~nonzero].view(np.uint64))  # zero signs kept
        if np.iscomplexobj(V):
            assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref)))
        else:
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_tied_pivots_take_the_lowest_row():
    z = 0.3 - 0.4j
    V = np.array([[0.1, z], [-0.5, -z], [0.5, z.conjugate()]])
    got = _fix_column_phases(V)
    assert np.array_equal(got[:, 0], [-0.1, 0.5, -0.5])  # row 1 wins over row 2
    # row 0 wins over rows 1 and 2: its entry is made real and positive
    assert got[0, 1].real > 0.0 and abs(got[0, 1].imag) <= 4 * np.spacing(got[0, 1].real)
    assert got[1, 1].real < 0.0 and got[2, 1].imag != 0.0


def test_eig_hermitian_vectors_follow_reference_loop():
    for seed in range(30):
        n = 1 + seed % 17
        kind = "complex" if seed % 2 else "real"
        G = random_hermitian(n, 500 + seed, kind)
        ref, _ = reference_fix_column_phases(np.linalg.eigh(G)[1][:, ::-1])
        got = eig_hermitian(G).vectors
        assert got.flags["C_CONTIGUOUS"]
        if kind == "real":
            assert np.array_equal(got, ref)
        else:
            assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref)))


def reference_eig_hermitian(G, *, vectors=True):
    """One matrix at a time: eig_hermitian as it was before the stacked pass."""
    Gh = G.conj().T
    normG = float(np.linalg.norm(G))
    if float(np.linalg.norm(G - Gh)) > TAU_HERMITIAN_REL * max(normG, 1e-300):
        raise NonHermitianInput("reference")
    H = (G + Gh) / 2.0
    lam, V = np.linalg.eigh(H) if vectors else (np.linalg.eigvalsh(H), None)
    lam = lam[::-1].copy()
    min_gap = max(float(np.min(lam[:-1] - lam[1:])), 0.0) if lam.shape[0] > 1 else float("inf")
    if V is None:
        return SpectralData(lam, None, min_gap, None)
    V = _fix_column_phases(V[:, ::-1])
    return SpectralData(lam, V, min_gap, float(np.linalg.norm(H @ V - V * lam[np.newaxis, :])))


def assert_same_spectrum(got, want):
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert (got.vectors is None) == (want.vectors is None)
    if want.vectors is not None:
        assert np.array_equal(got.vectors, want.vectors)
    assert got.min_gap == want.min_gap and got.backward_error == want.backward_error


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("dims", [(6, 6, 6), (5, 3, 4), (2, 8, 16), (1, 1, 1)])
def test_stacked_pass_equals_one_matrix_at_a_time(dims, kind):
    # a pair's six Grams go through one stack per Gram size (one for cubic
    # dims, three for (5, 3, 4)), yet every field is the one-matrix result
    a = sample_tensor(dims, RandomModel("gaussian", kind, 90))
    b = apply_action(sample_haar_triple(dims, 91, kind), a)
    for vectors in (True, False):
        stacked = mode_spectra([a, b], vectors=vectors)
        for t, spectra in zip((a, b), stacked):
            for mode, s in zip((1, 2, 3), spectra):
                G = gram(t, mode)
                assert_same_spectrum(s, eig_hermitian(G, vectors=vectors))
                assert_same_spectrum(s, reference_eig_hermitian(G, vectors=vectors))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_stack_prescales_only_the_matrices_that_overflow(kind):
    # entries near 2^600 square past the double range; the tiny matrix next
    # to them is not scaled with them, so it stays the one-matrix result
    huge = random_hermitian(5, 7, kind) * 2.0 ** 600
    tiny = random_hermitian(5, 8, kind) * 2.0 ** -200
    with np.errstate(over="raise"):
        stacked = eig_hermitian_stack(np.stack([huge, tiny]))
    assert_same_spectrum(stacked[1], reference_eig_hermitian(tiny))
    small = reference_eig_hermitian(huge * 2.0 ** -600)
    assert np.allclose(stacked[0].eigenvalues * 2.0 ** -600, small.eigenvalues, rtol=1e-13, atol=0)
    assert 0.0 < stacked[0].backward_error <= 1e-13 * np.abs(huge).max()


def test_stack_gate_names_the_first_non_hermitian_matrix():
    G = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 2.0], [0.0, 0.0]])])
    with pytest.raises(NonHermitianInput, match=r"defect 1\.414e\+00 .* norm 1\.000e\+00"):
        eig_hermitian_stack(G)
    with pytest.raises(DimensionMismatch):
        eig_hermitian_stack(np.eye(2))


def test_determinism_bitwise():
    G = random_hermitian(9, 5, "complex")
    s1 = eig_hermitian(G)
    s2 = eig_hermitian(G)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.vectors, s2.vectors)


def test_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        eig_hermitian(np.ones((2, 3)))


def test_values_only_is_reversed_eigvalsh_of_symmetrized_input():
    for seed in range(12):
        kind = "complex" if seed % 2 else "real"
        n = 1 + seed
        G = random_hermitian(n, seed, kind)
        G = G + 1e-14 * np.triu(np.ones((n, n)), 1)  # asymmetry inside the tolerance
        s = eig_hermitian(G, vectors=False)
        assert np.array_equal(s.eigenvalues, np.linalg.eigvalsh((G + G.conj().T) / 2.0)[::-1])


def test_values_only_agrees_with_vectors_path():
    for seed in range(40):
        kind = "complex" if seed % 2 else "real"
        n = 1 + seed % 13
        x = random_hermitian(n, 300 + seed, kind)
        G = x @ x.conj().T  # PSD, like the Grams the gap lab factors
        full, vals = eig_hermitian(G), eig_hermitian(G, vectors=False)
        tol = 1e-12 * np.linalg.norm(G)
        assert np.max(np.abs(full.eigenvalues - vals.eigenvalues)) <= tol
        assert vals.dim == full.dim == n
        if n == 1:
            assert vals.min_gap == full.min_gap == float("inf")
        else:
            assert abs(full.min_gap - vals.min_gap) <= 2 * tol
        assert abs(full.degeneracy_floor() - vals.degeneracy_floor()) <= 1e-8 * tol


def test_values_only_checks_and_empty_fields():
    with pytest.raises(NonHermitianInput):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), vectors=False)
    with pytest.raises(DimensionMismatch):
        eig_hermitian(np.ones((2, 3)), vectors=False)
    with pytest.raises(TypeError):
        eig_hermitian(np.eye(2), False)  # keyword-only
    s = eig_hermitian(np.diag([2.0, 1.0]), vectors=False)
    assert s.vectors is None and s.backward_error is None


def test_spectra_close_frozen_cases():
    sa = eig_hermitian(np.diag([4.0, 1.0]))
    sb = eig_hermitian(np.diag([4.2, 1.0]))
    assert spectra_close(sa, sa, 0.0)
    assert not spectra_close(sa, sb, 0.1)
    assert spectra_close(sa, sb, 0.3)
    with pytest.raises(DimensionMismatch):
        spectra_close(sa, eig_hermitian(np.eye(3)), 1.0)


def test_spectra_close_under_action():
    a = sample_tensor((4, 4, 4), RandomModel("gaussian", "complex", 32))
    b = apply_action(sample_haar_triple((4, 4, 4), 33, "complex"), a)
    tol = 1e-8 * a.frobenius_norm ** 2
    for mode in (1, 2, 3):
        assert spectra_close(eig_hermitian(gram(a, mode)), eig_hermitian(gram(b, mode)), tol)


def test_simple_needs_gap_above_degeneracy_floor():
    clear = eig_hermitian(np.diag([5.0, 3.0, 1.0]))
    assert clear.min_gap == 2.0 and clear.simple
    tie = eig_hermitian(np.diag([5.0, 5.0, 1.0]))
    assert tie.min_gap == 0.0 and not tie.simple
    # a positive gap 1e-12 below the floor 1e-8 * 5 still counts as a tie
    floor = DEGENERACY_REL * 5.0
    near = eig_hermitian(np.diag([5.0, 5.0 - (floor - 1e-12), 1.0]))
    assert near.degeneracy_floor() == floor
    assert abs(near.min_gap - (floor - 1e-12)) < 1e-14
    assert not near.simple
    assert eig_hermitian(np.array([[2.0]])).simple  # 1x1: min_gap is +inf


def test_min_gap_simple_frequency_rademacher():
    # mode-1 Gram of a 12x12x12 Rademacher tensor is simple nearly always
    passes = 0
    for seed in range(100):
        a = sample_tensor((12, 12, 12), RandomModel("rademacher", "real", seed))
        passes += eig_hermitian(gram(a, 1)).simple
    assert passes >= 99


def test_weyl_bound_random_small_perturbation():
    for seed in range(20):
        G = random_hermitian(8, seed)
        E = random_hermitian(8, 1000 + seed)
        E = E * (1e-6 / np.linalg.norm(E))
        sa = np.sort(np.linalg.eigvalsh(G))
        sb = np.sort(np.linalg.eigvalsh(G + E))
        assert np.max(np.abs(sa - sb)) <= 1e-6 * (1 + 1e-9)


def test_hoffman_wielandt_l2_bound():
    for seed in range(50):
        n = 5 + seed % 10
        G = random_hermitian(n, seed, "complex" if seed % 3 == 0 else "real")
        E = random_hermitian(n, 2000 + seed, "complex" if seed % 3 == 0 else "real")
        sa = np.sort(np.linalg.eigvalsh(G))
        sb = np.sort(np.linalg.eigvalsh(G + E))
        assert np.linalg.norm(sa - sb) <= np.linalg.norm(E) * (1 + 1e-12)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_top_is_the_largest_eigenvalue_modulus(n):
    # indefinite and negative definite matrices put the largest modulus at
    # either end of the sorted spectrum; both eigh paths, 1x1 included
    psd = [G @ G.conj().T for G in (random_hermitian(n, 11), random_hermitian(n, 12, "complex"))]
    for stack in ([random_hermitian(n, s) for s in range(4)] + [psd[0], -psd[0]],
                  [random_hermitian(n, s, "complex") for s in range(4)] + [psd[1], -psd[1]]):
        for vectors in (True, False):
            for s in eig_hermitian_stack(np.stack(stack), vectors=vectors):
                assert s.top == float(np.max(np.abs(s.eigenvalues)))


@given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=6),
       st.one_of(st.floats(0.0, 1e300), st.just(np.inf)))
def test_top_and_simple_are_computed_once_by_their_formulas(values, min_gap):
    lam = np.sort(np.array(values))[::-1]
    s = SpectralData(lam, None, min_gap, None)
    assert s.top == float(max(abs(lam[0]), abs(lam[-1])))
    assert s.simple == (min_gap > DEGENERACY_REL * max(s.top, 1e-300)) == (min_gap > s.degeneracy_floor())

