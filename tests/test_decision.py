"""End-to-end decision procedures: exact orbit membership and gapped distance."""

import dataclasses
import math

import numpy as np
import pytest

from otiso import (
    ConfigInvalid,
    DimensionMismatch,
    EpsOutOfRange,
    PhaseTargets,
    RandomModel,
    ScalarKindMismatch,
    Tensor3,
    TransformTriple,
    apply_action,
    core_of,
    decide_isomorphism,
    decide_orbit_distance,
    required_bits,
    sample_haar_triple,
    sample_tensor,
    truncate_bits,
    truncate_tensor,
    verify_witness,
)
from otiso.tensor import TAU_UNITARY_REL


def naive_action(L, R, T, a):
    n1, n2, n3 = a.shape
    out = np.zeros((n1, n2, n3), dtype=np.result_type(L, a))
    for i in range(n1):
        for j in range(n2):
            for k in range(n3):
                acc = 0.0
                for p in range(n1):
                    for q in range(n2):
                        for r in range(n3):
                            acc = acc + L[i, p] * R[j, q] * T[k, r] * a[p, q, r]
                out[i, j, k] = acc
    return out


def orbit_pair(dims, seed, kind):
    a = sample_tensor(dims, RandomModel("gaussian", kind, seed))
    g = sample_haar_triple(dims, seed + 1000, kind)
    return a, apply_action(g, a), g


def test_exact_iso_yes():
    for dims, seed, kind in [((4, 4, 4), 70, "real"), ((5, 3, 4), 71, "real"),
                             ((4, 4, 4), 72, "complex"), ((3, 5, 4), 73, "complex")]:
        a, b, _ = orbit_pair(dims, seed, kind)
        d = decide_isomorphism(a, b)
        assert d.verdict == "yes"
        assert d.witness is not None
        assert d.residual <= d.diagnostics["residual_gate"]
        rep = verify_witness(a, b, d.witness)
        assert rep.residual == d.diagnostics["residual_recomputed"]
        assert rep.unitary_ok


def test_exact_iso_no_independent_and_scaled():
    a = sample_tensor((4, 4, 4), RandomModel("gaussian", "real", 74))
    b = sample_tensor((4, 4, 4), RandomModel("gaussian", "real", 75))
    d = decide_isomorphism(a, b)
    assert d.verdict == "no"
    assert d.witness is None

    d2 = decide_isomorphism(a, Tensor3(2.0 * a.data))
    assert d2.verdict == "no"
    assert d2.diagnostics["step"] == "spectra"


def test_exact_iso_cannot_decide_on_degeneracy():
    ones = Tensor3(np.ones((3, 3, 3)))
    d = decide_isomorphism(ones, ones)
    assert d.verdict == "cannot_decide"
    assert d.diagnostics["step"] == "gap_policy"
    assert d.diagnostics["failed_mode"] in (1, 2, 3)


def test_exact_iso_deterministic():
    a, b, _ = orbit_pair((4, 4, 4), 76, "complex")
    d1 = decide_isomorphism(a, b)
    d2 = decide_isomorphism(a, b)
    assert d1.verdict == d2.verdict == "yes"
    assert d1.residual == d2.residual
    for m1, m2 in zip(d1.witness.factors, d2.witness.factors):
        assert np.array_equal(m1, m2)


def test_config_validation():
    a, b, _ = orbit_pair((3, 3, 3), 77, "real")
    for eps in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ConfigInvalid, match="positive and finite"):
            decide_orbit_distance(a, b, eps)
    with pytest.raises(TypeError):
        decide_orbit_distance(a, b)  # eps required
    with pytest.raises(TypeError):
        decide_isomorphism(a, b, 1e-6)  # exact mode takes no tolerance


def test_tied_spectrum_is_cannot_decide_at_gap_policy():
    # two pairs of identical mode-1 slices force a repeated zero eigenvalue;
    # the core is still built, and the spine refuses to decide on it
    base = np.random.default_rng(44).standard_normal((2, 3, 3))
    tied = Tensor3(np.stack([base[0], base[0], base[1], base[1]]))
    assert not core_of(tied).spectra[0].simple
    other = sample_tensor((4, 3, 3), RandomModel("gaussian", "real", 44))
    for a, b in ((tied, other), (other, tied)):  # A tied, then only B tied
        d = decide_isomorphism(a, b)
        assert d.verdict == "cannot_decide" and d.witness is None
        assert d.diagnostics["step"] == "gap_policy"
        assert d.diagnostics["failed_mode"] == 1
        assert d.diagnostics["failed_gap"] >= 0.0
        assert "spectra_a" not in d.diagnostics and "spectra_b" not in d.diagnostics


def test_pair_validation():
    a = sample_tensor((3, 3, 3), RandomModel("gaussian", "real", 78))
    c = sample_tensor((3, 3, 4), RandomModel("gaussian", "real", 78))
    z = sample_tensor((3, 3, 3), RandomModel("gaussian", "complex", 78))
    with pytest.raises(DimensionMismatch):
        decide_isomorphism(a, c)
    with pytest.raises(ScalarKindMismatch):
        decide_isomorphism(a, z)


def test_verify_witness_matches_naive_oracle():
    a, b, g = orbit_pair((3, 4, 2), 79, "complex")
    rep = verify_witness(a, b, g)
    oracle = np.linalg.norm(naive_action(g[0], g[1], g[2], a.data) - b.data)
    assert abs(rep.residual - oracle) <= 1e-12 * max(oracle, 1.0)
    assert rep.unitary_ok
    # raw matrices accepted; non-unitary factors are reported, not rejected
    rep2 = verify_witness(a, b, tuple(np.array(g[d]) for d in range(3)))
    assert rep2.residual == rep.residual
    bad = tuple(2.0 * np.eye(d) for d in (3, 4, 2))
    rep3 = verify_witness(a, b, bad)
    assert not rep3.unitary_ok


def test_truncate_bits_frozen():
    out = truncate_bits(np.array([0.1, -0.3]), 3)
    assert np.array_equal(out, np.array([0.125, -0.25]))
    z = truncate_bits(np.array([0.1 + 0.3j]), 3)
    assert z[0] == 0.125 + 0.25j
    x = np.array([0.1, -0.3])
    assert np.array_equal(truncate_bits(x, 600), x)
    t = truncate_tensor(Tensor3(np.full((2, 2, 2), 0.1)), 3)
    assert t.scalar_kind == "real"
    assert np.all(t.data == 0.125)


def test_required_bits_formula():
    assert required_bits(4, 0.5) == math.ceil(math.log2(1000.0 * 4 ** 7 / 0.5))
    assert required_bits(1, 8000.0) == max(1, math.ceil(math.log2(1000.0 / 8000.0)))


def test_gapped_yes_on_small_perturbation():
    n = 6
    a, b0, _ = orbit_pair((n, n, n), 80, "real")
    probe = decide_isomorphism(a, b0)
    delta = probe.diagnostics["delta"]
    eps = delta / (8.0 * (a.frobenius_norm + b0.frobenius_norm))
    e = sample_tensor((n, n, n), RandomModel("gaussian", "real", 81))
    b = Tensor3(b0.data + (0.5 * eps / e.frobenius_norm) * e.data)
    d = decide_orbit_distance(a, b, eps)
    assert d.verdict == "yes"
    assert d.witness is not None
    assert d.residual <= d.gamma_bound
    assert d.diagnostics["precision_bits"] == required_bits(n, eps)
    assert d.diagnostics["gamma_bound_spectral_form"] == d.gamma_bound
    assert d.diagnostics["gamma_bound_dimension_form"] == 8.0 * n ** 8 * eps


def test_gapped_no_on_norm_mismatch():
    n = 5
    a, b0, _ = orbit_pair((n, n, n), 82, "real")
    probe = decide_isomorphism(a, b0)
    eps = probe.diagnostics["delta"] / (8.0 * (a.frobenius_norm + b0.frobenius_norm))
    far = Tensor3(3.0 * b0.data)
    d = decide_orbit_distance(a, far, eps)
    assert d.verdict == "no"
    assert d.diagnostics["step"] == "norm"


def test_gapped_eps_out_of_range():
    a, b, _ = orbit_pair((4, 4, 4), 83, "real")
    with pytest.raises(EpsOutOfRange):
        decide_orbit_distance(a, b, 10.0)


def test_gapped_requires_cubic():
    a = sample_tensor((3, 4, 5), RandomModel("gaussian", "real", 85))
    with pytest.raises(DimensionMismatch):
        decide_orbit_distance(a, a, 1e-8)


def test_zero_targets_are_underdetermined(monkeypatch):
    # with no phase target nothing pins the per-mode gauge, so the identity
    # guess is no evidence: a pair it does not carry is cannot_decide, not NO
    import otiso.decision as decision

    real_compare = decision.compare_cores

    def no_targets(sa, sb, eps, delta):
        empty = PhaseTargets(np.zeros((0, 3), dtype=np.int64), np.zeros(0), np.zeros(0), np.zeros(0))
        return dataclasses.replace(real_compare(sa, sb, eps, delta), phase_targets=empty)

    monkeypatch.setattr(decision, "compare_cores", no_targets)
    a, b, _ = orbit_pair((6, 6, 6), 87, "real")
    d = decide_isomorphism(a, b)
    assert d.verdict == "cannot_decide"
    assert d.diagnostics["phase_targets"] == 0
    assert d.diagnostics["step"] == "underdetermined"
    assert d.diagnostics["solver_path"] == "identity"
    assert decide_isomorphism(a, a).verdict == "yes"


def test_gapped_no_on_small_gap_b():
    # a diagonal B of A's norm whose Gram spectra (the same in all three
    # modes) are simple, but with a top gap of delta_A/4, below delta_A/2
    n = 6
    a = sample_tensor((n, n, n), RandomModel("gaussian", "real", 88))
    delta = core_of(a).min_gap
    lam = np.linspace(1.0, 2.0, n)
    lam[-1] = lam[-2]
    lam *= (a.frobenius_norm ** 2 - delta / 4.0) / lam.sum()
    lam[-1] += delta / 4.0
    b = np.zeros((n, n, n))
    b[np.arange(n), np.arange(n), np.arange(n)] = np.sqrt(lam)
    eps = delta / (16.0 * a.frobenius_norm)
    d = decide_orbit_distance(a, Tensor3(b), eps)
    assert d.verdict == "no"
    assert d.diagnostics["step"] == "gap_b"
    assert d.diagnostics["failed_mode"] == 1
    assert 0.0 < d.diagnostics["failed_gap"] < d.diagnostics["delta"] / 2.0
    assert d.gamma_bound is not None


def test_gapped_tied_b_spectrum_is_no_at_gap_b():
    # B's spectra are screened against delta/2 only, so a fully tied B is a
    # NO at gap_b rather than a cannot_decide from the simplicity check
    n = 4
    a = sample_tensor((n, n, n), RandomModel("gaussian", "real", 89))
    tied = np.zeros((n, n, n))
    tied[np.arange(n), np.arange(n), np.arange(n)] = a.frobenius_norm / math.sqrt(n)
    delta = core_of(a).min_gap
    eps = delta / (16.0 * a.frobenius_norm)
    d = decide_orbit_distance(a, Tensor3(tied), eps)
    assert d.verdict == "no"
    assert d.diagnostics["step"] == "gap_b"
    assert d.diagnostics["failed_mode"] == 1
    assert d.diagnostics["failed_gap"] == 0.0


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("k", [-60, -250])
def test_small_common_scale_is_decided_on_the_inputs(kind, k):
    # exact mode compares the tensors as given, so spectra that differ at a
    # tiny common scale still reject; an absolute grid would zero them
    s = math.ldexp(1.0, k)
    a, b, _ = orbit_pair((8, 8, 8), 90, kind)
    c = sample_tensor((8, 8, 8), RandomModel("gaussian", kind, 91))
    a, b, c = (Tensor3(s * t.data, kind) for t in (a, b, c))
    d = decide_isomorphism(a, c)
    assert d.verdict == "no"
    assert d.diagnostics["step"] == "spectra"
    # the scale-free threshold leaves no phase target; never a NO
    d = decide_isomorphism(a, b)
    assert d.verdict == "cannot_decide"
    assert d.diagnostics["step"] == "underdetermined"


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [8, 13])
@pytest.mark.parametrize("k", [16, 20, 24])
def test_large_common_scale_orbit_pair_is_yes(kind, n, k):
    # the slack budget is far below ma*mb here: the slacks must stay
    # positive, or every target is dead and the pair an unsound NO
    s = math.ldexp(1.0, k)
    a, b, _ = orbit_pair((n, n, n), 92, kind)
    a, b = Tensor3(s * a.data, kind), Tensor3(s * b.data, kind)
    d = decide_isomorphism(a, b)
    assert d.verdict == "yes"
    rep = verify_witness(a, b, d.witness)
    assert rep.unitary_ok and rep.residual <= d.diagnostics["residual_gate"]


def test_only_gapped_mode_truncates(monkeypatch):
    import otiso.decision as decision

    calls = []
    real_truncate = decision.truncate_tensor

    def spy(t, bits):
        calls.append(bits)
        return real_truncate(t, bits)

    monkeypatch.setattr(decision, "truncate_tensor", spy)
    a, b, _ = orbit_pair((5, 5, 5), 93, "real")
    d = decide_isomorphism(a, b)
    assert d.verdict == "yes" and calls == []
    assert "precision_bits" not in d.diagnostics
    eps = d.diagnostics["delta"] / (8.0 * (a.frobenius_norm + b.frobenius_norm))
    g = decide_orbit_distance(a, b, eps)
    assert g.verdict == "yes"
    assert g.diagnostics["precision_bits"] == required_bits(5, eps)
    assert calls == [required_bits(5, eps)] * 2


def test_non_unitary_candidate_is_cannot_decide(monkeypatch):
    # the witness triple is audited once, by verify_witness: a candidate
    # that is not unitary is refused, not raised as NotUnitary
    import dataclasses

    import otiso.decision as decision

    real_assemble = decision.assemble_witness

    def skewed(sa, sb, assignment):
        return real_assemble(dataclasses.replace(sa, bases=(1.01 * sa.bases[0], *sa.bases[1:])), sb, assignment)

    monkeypatch.setattr(decision, "assemble_witness", skewed)
    a, b, _ = orbit_pair((5, 5, 5), 94, "complex")
    d = decide_isomorphism(a, b)
    assert d.verdict == "cannot_decide"
    assert d.diagnostics["step"] == "witness_verification"
    assert d.diagnostics["unitarity_defects"][0] > TAU_UNITARY_REL * 5
