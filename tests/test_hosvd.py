"""Core extraction and core comparison against modulus/phase thresholds."""

import numpy as np
import pytest

from otiso import (
    CoreComparison,
    CoreTensor,
    DimensionMismatch,
    RandomModel,
    RejectFar,
    Tensor3,
    apply_action,
    compare_cores,
    comparison_threshold,
    core_of,
    eig_hermitian,
    gram,
    sample_haar_triple,
    sample_tensor,
)


def offdiag_norm(M):
    return float(np.linalg.norm(M - np.diag(np.diag(M))))


def test_core_norm_preserved_and_all_orthogonal():
    for seed, kind in [(40, "real"), (41, "complex")]:
        a = sample_tensor((5, 4, 6), RandomModel("gaussian", kind, seed))
        ct = core_of(a)
        assert abs(ct.core.frobenius_norm - a.frobenius_norm) <= 1e-10 * a.frobenius_norm
        assert ct.source_norm == a.frobenius_norm
        tol = 1e-8 * a.frobenius_norm ** 2
        for mode in (1, 2, 3):
            assert offdiag_norm(gram(ct.core, mode)) <= tol


def test_core_of_diagonal_tensor_is_diagonal_up_to_phase():
    arr = np.zeros((3, 3, 3))
    for i, d in enumerate((4.0, -2.0, 1.0)):  # distinct moduli, descending
        arr[i, i, i] = d
    ct = core_of(Tensor3(arr))
    assert np.allclose(np.abs(ct.core.data), np.abs(arr), rtol=0, atol=1e-12)


def test_core_spectra_match_across_orbit():
    a = sample_tensor((4, 4, 4), RandomModel("gaussian", "complex", 42))
    b = apply_action(sample_haar_triple((4, 4, 4), 43, "complex"), a)
    ea = eig_hermitian(gram(core_of(a).core, 1)).eigenvalues
    eb = eig_hermitian(gram(core_of(b).core, 1)).eigenvalues
    assert np.max(np.abs(ea - eb)) <= 1e-8 * max(np.abs(ea).max(), 1.0)


def test_comparison_threshold_formula():
    # 2 eps n^2 K / delta
    assert comparison_threshold(0.5, 2, 4.0, 3.0) == 2 * 0.5 * 4 * 3.0 / 4.0


def test_compare_identical_cores():
    a = sample_tensor((4, 4, 4), RandomModel("gaussian", "complex", 45))
    ct = core_of(a)
    cmp = compare_cores(ct, ct, eps=1e-8, delta=ct.min_gap)
    assert isinstance(cmp, CoreComparison)
    assert cmp.support_ok
    assert len(cmp.phase_targets) > 0
    pt = cmp.phase_targets
    assert pt.idx.shape == (len(pt), 3)
    assert np.all(pt.phi == 0.0)
    assert np.all((0.0 < pt.slack) & (pt.slack <= np.pi))
    # targets exist exactly where |Sa| + |Sb| clears the threshold, in sorted-key order
    assert pt.keys() == sorted(map(tuple, np.argwhere(2 * np.abs(ct.core.data) > cmp.threshold_used).tolist()))


def test_compare_scaled_entry_rejects_far():
    a = sample_tensor((3, 3, 3), RandomModel("gaussian", "real", 46))
    ct = core_of(a)
    scaled = np.array(ct.core.data)
    assert abs(scaled[0, 0, 0]) > 1e-8
    scaled[0, 0, 0] *= 10.0
    other = CoreTensor(core=Tensor3(scaled), bases=ct.bases, spectra=ct.spectra,
                       source_norm=float(np.linalg.norm(scaled)))
    out = compare_cores(ct, other, eps=1e-8, delta=ct.min_gap)
    assert isinstance(out, RejectFar)
    assert out.entry == (0, 0, 0)
    mod_a, mod_b = abs(ct.core.data[out.entry]), abs(other.core.data[out.entry])
    assert abs(mod_a - mod_b) > out.threshold


def test_forward_phase_recovery():
    a = sample_tensor((4, 3, 5), RandomModel("gaussian", "complex", 47))
    ct = core_of(a)
    rng = np.random.default_rng(48)
    al, be, ga = (rng.uniform(-np.pi, np.pi, d) for d in ct.dims)
    phase = np.exp(1j * (al[:, None, None] + be[None, :, None] + ga[None, None, :]))
    other = CoreTensor(core=Tensor3(ct.core.data * phase), bases=ct.bases,
                       spectra=ct.spectra, source_norm=ct.source_norm)
    cmp = compare_cores(ct, other, eps=1e-6, delta=ct.min_gap)
    assert isinstance(cmp, CoreComparison)
    assert len(cmp.phase_targets) > 0
    i, j, k = cmp.phase_targets.idx.T
    want = np.angle(np.exp(1j * (al[i] + be[j] + ga[k])))
    dev = np.angle(np.exp(1j * (cmp.phase_targets.phi - want)))
    assert np.max(np.abs(dev)) <= 1e-10


def test_isomorphy_transfer_moduli_agree():
    a = sample_tensor((4, 4, 4), RandomModel("gaussian", "complex", 49))
    b = apply_action(sample_haar_triple((4, 4, 4), 50, "complex"), a)
    ca, cb = core_of(a), core_of(b)
    cmp = compare_cores(ca, cb, eps=1e-7, delta=min(ca.min_gap, cb.min_gap))
    assert isinstance(cmp, CoreComparison)
    for key in cmp.phase_targets.keys():
        ma, mb = abs(ca.core.data[key]), abs(cb.core.data[key])
        assert abs(ma - mb) <= 1e-8 * max(ma, 1.0)


def test_compare_cores_validates():
    a = core_of(sample_tensor((3, 3, 3), RandomModel("gaussian", "real", 51)))
    b = core_of(sample_tensor((3, 3, 4), RandomModel("gaussian", "real", 52)))
    with pytest.raises(DimensionMismatch):
        compare_cores(a, b, eps=1e-6, delta=1.0)


def test_compare_cores_overflowing_budget_is_infinite():
    # at scale 1e80, eps = 1e156 overflows eps ** 2 while the modulus
    # threshold, and with it the budget thr^2/2, stays finite; a delta of
    # 1e-170 underflows delta ** 2 to zero.  Neither may raise, and each
    # slack must solve the law of cosines for the finite budget
    a = Tensor3(sample_tensor((4, 4, 4), RandomModel("gaussian", "real", 53)).data * 1e80, "real")
    b = apply_action(sample_haar_triple((4, 4, 4), 54, "real"), a)
    with np.errstate(over="ignore"):  # the Gram norms of the backward errors overflow
        ca, cb = core_of(a), core_of(b)
    cmp = compare_cores(ca, cb, eps=1e156, delta=min(ca.min_gap, cb.min_gap))
    assert isinstance(cmp, CoreComparison) and len(cmp.phase_targets) > 0
    t = cmp.phase_targets
    ma, mb = (np.abs(c.core.data[tuple(t.idx.T)]) for c in (ca, cb))
    budget = cmp.threshold_used ** 2 / 2.0
    assert np.all((t.slack > 0.0) & (t.slack < np.pi))
    np.testing.assert_allclose((ma - mb) ** 2 + 4.0 * ma * mb * np.sin(t.slack / 2.0) ** 2, budget, rtol=1e-12)
    assert isinstance(compare_cores(ca, cb, eps=1e90, delta=1e-170), CoreComparison)
