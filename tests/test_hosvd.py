"""Core extraction and core comparison against modulus/phase thresholds."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from otiso import (
    DimensionMismatch,
    RandomModel,
    Tensor3,
    apply_action,
    decide_isomorphism,
    sample_haar_triple,
    sample_tensor,
)
from otiso.hosvd import CoreComparison, CoreTensor, PhaseTargets, RejectFar, compare_cores, core_of
from otiso.spectral import eig_hermitian
from otiso.tensor import gram


def offdiag_norm(M):
    return float(np.linalg.norm(M - np.diag(np.diag(M))))


def spine_threshold(eps, n, k_norm, delta):
    """The modulus threshold ``2 eps n^2 K / delta`` the decision spine hands ``compare_cores``."""
    return 2.0 * eps * (n ** 2) * k_norm / delta


def test_core_norm_preserved_and_all_orthogonal():
    for seed, kind in [(40, "real"), (41, "complex")]:
        a = sample_tensor((5, 4, 6), RandomModel("gaussian", kind, seed))
        ct = core_of(a)[0]
        assert abs(Tensor3(ct.core).frobenius_norm - a.frobenius_norm) <= 1e-10 * a.frobenius_norm
        tol = 1e-8 * a.frobenius_norm ** 2
        for mode in (1, 2, 3):
            assert offdiag_norm(gram(Tensor3(ct.core), mode)) <= tol


def test_core_of_diagonal_tensor_is_diagonal_up_to_phase():
    arr = np.zeros((3, 3, 3))
    for i, d in enumerate((4.0, -2.0, 1.0)):  # distinct moduli, descending
        arr[i, i, i] = d
    ct = core_of(Tensor3(arr))[0]
    assert np.allclose(np.abs(ct.core), np.abs(arr), rtol=0, atol=1e-12)


def test_core_spectra_match_across_orbit():
    a = sample_tensor((4, 4, 4), RandomModel("gaussian", "complex", 42))
    b = apply_action(sample_haar_triple((4, 4, 4), 43, "complex"), a)
    ea = eig_hermitian(gram(Tensor3(core_of(a)[0].core), 1)).eigenvalues
    eb = eig_hermitian(gram(Tensor3(core_of(b)[0].core), 1)).eigenvalues
    assert np.max(np.abs(ea - eb)) <= 1e-8 * max(np.abs(ea).max(), 1.0)


def test_comparison_threshold_formula():
    # the spine's threshold is 2 eps n^2 K / delta with n = max(dims), and
    # compare_cores at that threshold yields the targets the decision counted
    a = sample_tensor((5, 3, 4), RandomModel("gaussian", "real", 44))
    b = apply_action(sample_haar_triple((5, 3, 4), 45, "real"), a)
    d = decide_isomorphism(a, b)
    g = d.diagnostics
    assert d.verdict == "yes"
    k_norm = a.frobenius_norm + b.frobenius_norm
    assert g["eps"] == 1e-8 * k_norm
    assert g["threshold_modulus"] == 2 * g["eps"] * 5 ** 2 * k_norm / g["delta"]
    cmp = compare_cores(*core_of(a, b), g["threshold_modulus"])
    assert len(cmp.phase_targets) == g["phase_targets"] > 0


def test_compare_identical_cores():
    a = sample_tensor((4, 4, 4), RandomModel("gaussian", "complex", 45))
    ct = core_of(a)[0]
    thr = spine_threshold(1e-8, 4, 2 * a.frobenius_norm, ct.min_gap)
    cmp = compare_cores(ct, ct, thr)
    assert isinstance(cmp, CoreComparison)
    assert len(cmp.phase_targets) > 0
    pt = cmp.phase_targets
    on = pt.weight > 0
    assert np.all(pt.phi[on] == 0.0)
    assert np.all((0.0 < pt.slack[on]) & (pt.slack[on] <= np.pi))
    # targets exist exactly where |Sa| + |Sb| clears the threshold, in sorted-key order
    assert pt.keys(on) == sorted(map(tuple, np.argwhere(2 * np.abs(ct.core) > thr).tolist()))


def test_compare_scaled_entry_rejects_far():
    a = sample_tensor((3, 3, 3), RandomModel("gaussian", "real", 46))
    ct = core_of(a)[0]
    scaled = np.array(ct.core)
    assert abs(scaled[0, 0, 0]) > 1e-8
    scaled[0, 0, 0] *= 10.0
    other = CoreTensor(core=scaled, bases=ct.bases, spectra=ct.spectra)
    thr = spine_threshold(1e-8, 3, a.frobenius_norm + float(np.linalg.norm(scaled)), ct.min_gap)
    out = compare_cores(ct, other, thr)
    assert isinstance(out, RejectFar)
    assert out.entry == (0, 0, 0)
    mod_a, mod_b = abs(ct.core[out.entry]), abs(other.core[out.entry])
    assert abs(mod_a - mod_b) > thr


def test_forward_phase_recovery():
    a = sample_tensor((4, 3, 5), RandomModel("gaussian", "complex", 47))
    ct = core_of(a)[0]
    rng = np.random.default_rng(48)
    al, be, ga = (rng.uniform(-np.pi, np.pi, d) for d in ct.dims)
    phase = np.exp(1j * (al[:, None, None] + be[None, :, None] + ga[None, None, :]))
    other = CoreTensor(core=ct.core * phase, bases=ct.bases, spectra=ct.spectra)
    cmp = compare_cores(ct, other, spine_threshold(1e-6, 5, 2 * a.frobenius_norm, ct.min_gap))
    assert isinstance(cmp, CoreComparison)
    assert len(cmp.phase_targets) > 0
    i, j, k = np.nonzero(cmp.phase_targets.weight > 0)
    want = np.angle(np.exp(1j * (al[i] + be[j] + ga[k])))
    dev = np.angle(np.exp(1j * (cmp.phase_targets.phi[i, j, k] - want)))
    assert np.max(np.abs(dev)) <= 1e-10


def test_isomorphy_transfer_moduli_agree():
    a = sample_tensor((4, 4, 4), RandomModel("gaussian", "complex", 49))
    b = apply_action(sample_haar_triple((4, 4, 4), 50, "complex"), a)
    ca, cb = core_of(a, b)
    thr = spine_threshold(1e-7, 4, a.frobenius_norm + b.frobenius_norm, min(ca.min_gap, cb.min_gap))
    cmp = compare_cores(ca, cb, thr)
    assert isinstance(cmp, CoreComparison)
    # weight is |Sa| + |Sb| exactly at the entries where it clears thr, and 0 everywhere else
    total = np.abs(ca.core) + np.abs(cb.core)
    pt = cmp.phase_targets
    assert np.array_equal(pt.weight, np.where(total > thr, total, 0.0))
    assert len(pt) == np.count_nonzero(total > thr) > 0
    for key in pt.keys(total > thr):
        ma, mb = abs(ca.core[key]), abs(cb.core[key])
        assert abs(ma - mb) <= 1e-8 * max(ma, 1.0)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_no_target_comparison_matches_the_full_screen(kind):
    # at a threshold no combined modulus clears, compare_cores returns before
    # phi and slack; its all-zero weight is the full screen's
    a = sample_tensor((5, 4, 3), RandomModel("gaussian", kind, 57))
    ca, cb = core_of(a, apply_action(sample_haar_triple((5, 4, 3), 58, kind), a))
    mod_a, mod_b = np.abs(ca.core), np.abs(cb.core)
    total = mod_a + mod_b
    for thr in (float(np.max(total)), 2.0 * float(np.max(total)), np.inf):
        cmp = compare_cores(ca, cb, thr)
        assert isinstance(cmp, CoreComparison) and len(cmp.phase_targets) == 0
        assert np.array_equal(cmp.phase_targets.weight, np.where(total > thr, total, 0.0))
        assert all(g.shape == ca.dims for g in (cmp.phase_targets.phi, cmp.phase_targets.slack))


def test_compare_cores_validates():
    a = core_of(sample_tensor((3, 3, 3), RandomModel("gaussian", "real", 51)))[0]
    b = core_of(sample_tensor((3, 3, 4), RandomModel("gaussian", "real", 52)))[0]
    with pytest.raises(DimensionMismatch):
        compare_cores(a, b, 1.0)
    # a zero or infinite threshold is a valid screen; a negative or NaN one is not
    for thr in (0.0, np.inf):
        assert isinstance(compare_cores(a, a, thr), CoreComparison)
    for thr in (-1.0, np.nan):
        with pytest.raises(ValueError, match="non-negative"):
            compare_cores(a, a, thr)


def test_compare_cores_overflowing_budget_is_infinite():
    # at scale 1e80, the spine's threshold at eps = 1e156 stays finite (about
    # 5e78, as does the budget thr^2/2) though eps ** 2 would overflow, and
    # eps = 1e90 over a delta of 1e-170 overflows it to inf.  Neither may
    # raise, and each slack must solve the law of cosines for the finite budget
    a = Tensor3(sample_tensor((4, 4, 4), RandomModel("gaussian", "real", 53)).data * 1e80)
    b = apply_action(sample_haar_triple((4, 4, 4), 54, "real"), a)
    with np.errstate(over="ignore"):  # the Gram norms of the backward errors overflow
        ca, cb = core_of(a, b)
    k_norm = a.frobenius_norm + b.frobenius_norm
    thr = spine_threshold(1e156, 4, k_norm, min(ca.min_gap, cb.min_gap))
    cmp = compare_cores(ca, cb, thr)
    assert isinstance(cmp, CoreComparison) and len(cmp.phase_targets) > 0
    t = cmp.phase_targets
    on = t.weight > 0
    ma, mb = (np.abs(c.core[on]) for c in (ca, cb))
    budget = thr ** 2 / 2.0
    assert np.all((t.slack[on] > 0.0) & (t.slack[on] < np.pi))
    np.testing.assert_allclose((ma - mb) ** 2 + 4.0 * ma * mb * np.sin(t.slack[on] / 2.0) ** 2, budget, rtol=1e-12)
    huge = spine_threshold(1e90, 4, k_norm, 1e-170)
    assert huge == np.inf and isinstance(compare_cores(ca, cb, huge), CoreComparison)


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(parts=st.lists(st.tuples(finite, finite), max_size=20))
def test_arctan2_of_the_parts_is_numpys_angle(parts):
    # compare_cores and the phase solvers take np.angle's arctan2 directly;
    # signed zeros and real arrays (whose imaginary part reads +0) included
    parts += [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (-1.0, 0.0), (-1.0, -0.0)]
    z = np.array([complex(re, im) for re, im in parts])
    for x in (z, z.real.copy()):
        assert np.arctan2(x.imag, x.real).tobytes() == np.angle(x).tobytes()


@given(st.lists(st.sampled_from([0.0, 0.0, 1e-300, 0.5, 3.0]), min_size=6, max_size=6))
def test_phase_targets_mask_is_the_positive_weights(weights):
    weight = np.array(weights).reshape(1, 2, 3)
    pt = PhaseTargets(np.zeros(weight.shape), np.ones(weight.shape), weight)
    assert np.array_equal(pt.on, weight > 0) and len(pt) == np.count_nonzero(weight)

