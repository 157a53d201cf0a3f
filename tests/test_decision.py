"""End-to-end decision procedures: exact orbit membership and gapped distance."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from otiso import (
    ConfigInvalid,
    ConvergenceFailure,
    DimensionMismatch,
    EpsOutOfRange,
    Infeasible,
    RandomModel,
    ScalarKindMismatch,
    Tensor3,
    TransformTriple,
    apply_action,
    decide_isomorphism,
    decide_orbit_distance,
    sample_haar_triple,
    sample_tensor,
    verify_witness,
)
from otiso.cli import main
from otiso.decision import _gap
from otiso.hosvd import PhaseTargets, RejectFar, core_of
from otiso.io import write_tensor
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


def at_norm_of(a, t):
    """``t`` rescaled to ``a``'s Frobenius norm, so that a pair with ``a`` passes the norm step."""
    return Tensor3((a.frobenius_norm / t.frobenius_norm) * t.data)


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
    assert d.diagnostics["step"] == "norm"
    # at A's norm the independent partner still differs in its spectra
    d1 = decide_isomorphism(a, at_norm_of(a, b))
    assert d1.verdict == "no" and d1.diagnostics["step"] == "spectra"

    d2 = decide_isomorphism(a, Tensor3(2.0 * a.data))
    assert d2.verdict == "no" and d2.gamma_bound == d2.diagnostics["residual_gate"]
    assert d2.diagnostics["step"] == "norm"
    assert d2.diagnostics["norm_gap"] == a.frobenius_norm
    assert d2.diagnostics["norm_threshold"] == 2.0 * d2.diagnostics["eps"]
    assert d2.diagnostics["norm_threshold"] == pytest.approx(6e-8 * a.frobenius_norm)  # 2e-8 (|a| + |2a|)


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
    # the core is still built.  Spectra are orbit invariants, tied or not, so
    # an independent partner of the same norm is NO at spectra, and only a
    # partner with equal spectra reaches the refusal
    base = np.random.default_rng(44).standard_normal((2, 3, 3))
    tied = Tensor3(np.stack([base[0], base[0], base[1], base[1]]))
    assert not core_of(tied)[0].spectra[0].simple
    other = sample_tensor((4, 3, 3), RandomModel("gaussian", "real", 44))
    image = apply_action(sample_haar_triple((4, 3, 3), 45, "real"), tied)
    for partner, step in ((other, "norm"), (at_norm_of(tied, other), "spectra")):
        for a, b in ((tied, partner), (partner, tied)):  # A tied, then only B tied
            d = decide_isomorphism(a, b)
            assert d.verdict == "no" and d.witness is None
            assert d.diagnostics["step"] == step
    for a, b in ((tied, image), (image, tied)):
        d = decide_isomorphism(a, b)
        assert d.verdict == "cannot_decide" and d.witness is None
        assert d.diagnostics["step"] == "gap_policy"
        assert d.diagnostics["failed_mode"] == 1
        assert d.diagnostics["failed_gap"] >= 0.0


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


def test_verify_witness_warns_nothing_where_the_squares_overflow():
    # a 5^3 orbit pair near 2^520 and a witness with a factor turned by
    # 1e-3 rad: the residual's squares overflow and are taken again after a
    # prescale, without a warning
    a, b, g = orbit_pair((5, 5, 5), 915, "real")
    a, b = (Tensor3(np.ldexp(t.data, 520)) for t in (a, b))
    turn = np.eye(5)
    turn[:2, :2] = [[np.cos(1e-3), -np.sin(1e-3)], [np.sin(1e-3), np.cos(1e-3)]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_witness(a, b, TransformTriple([turn @ g[0], g[1], g[2]]))
    assert 1e-4 * a.frobenius_norm < rep.residual < 1e-2 * a.frobenius_norm and rep.unitary_ok


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
    assert d.diagnostics["residual_gate"] == d.gamma_bound


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


def test_gapped_decides_non_cubic_dims():
    # n = max(dims) in the thresholds and the gamma bound, as in exact mode
    a, b0, _ = orbit_pair((3, 4, 5), 85, "real")
    eps = decide_isomorphism(a, b0).diagnostics["delta"] / (8.0 * (a.frobenius_norm + b0.frobenius_norm))
    e = sample_tensor((3, 4, 5), RandomModel("gaussian", "real", 86))
    d = decide_orbit_distance(a, Tensor3(b0.data + (0.5 * eps / e.frobenius_norm) * e.data), eps)
    assert d.verdict == "yes" and d.residual <= d.gamma_bound
    assert d.diagnostics["n"] == 5
    far = Tensor3(b0.data + (2.0 * d.gamma_bound / e.frobenius_norm) * e.data)
    d = decide_orbit_distance(a, far, eps)
    assert d.verdict == "no", (d.verdict, d.diagnostics)


@given(
    dims=st.tuples(*(st.integers(1, 8) for _ in range(3))),
    kind=st.sampled_from(["real", "complex"]),
    seed=st.integers(0, 2 ** 32),
    f=st.floats(0.01, 0.99),
)
@example(dims=(3, 4, 5), kind="complex", seed=0, f=0.99)
def test_gapped_orbit_pairs_within_half_eps_are_never_no(dims, kind, seed, f):
    # B moves off A's orbit by eps/2, less than the eps a NO certifies; the
    # move also shifts |B|, so eps may fall outside its range, and a delta
    # of exactly 0 makes eps 0, which is no tolerance at all
    a, b0, _ = orbit_pair(dims, seed, kind)
    (ca,) = core_of(a)
    e = sample_tensor(dims, RandomModel("gaussian", kind, seed + 1))
    eps = f * _gap(ca) / (4.0 * (a.frobenius_norm + b0.frobenius_norm))
    b = Tensor3(b0.data + (0.5 * eps / e.frobenius_norm) * e.data)
    try:
        d = decide_orbit_distance(a, b, eps)
    except (EpsOutOfRange, ConfigInvalid):
        return
    assert d.verdict != "no", (d.verdict, d.diagnostics)


def test_norm_gap_within_the_norms_rounding_is_not_no():
    # A's tied mode-3 spectrum leaves delta a rounding residue, so eps = 8.7e-18
    # sits below the one-ulp norm gap of the orbit pair: that gap is rounding,
    # not a certificate, and the tie is refused at gap_policy
    a, b0, _ = orbit_pair((1, 1, 3), 2, "real")
    (ca,) = core_of(a)
    e = sample_tensor((1, 1, 3), RandomModel("gaussian", "real", 3))
    eps = 0.5 * _gap(ca) / (4.0 * (a.frobenius_norm + b0.frobenius_norm))
    b = Tensor3(b0.data + (0.5 * eps / e.frobenius_norm) * e.data)
    assert 0.0 < eps < 1e-17 and abs(a.frobenius_norm - b.frobenius_norm) >= 2.0 * eps
    d = decide_orbit_distance(a, b, eps)
    assert (d.verdict, d.diagnostics["step"]) == ("cannot_decide", "gap_policy")
    # a norm gap beyond the rounding is still a NO, and reports the margin
    far = decide_orbit_distance(a, Tensor3(2.0 * b.data), eps)
    assert (far.verdict, far.diagnostics["step"]) == ("no", "norm")
    assert far.diagnostics["norm_gap"] - far.diagnostics["norm_rounding"] >= far.diagnostics["norm_threshold"]
    assert 0.0 < far.diagnostics["norm_rounding"] < 1e-14


def near_diagonal_pair():
    """A complex n = 12 diagonal tensor plus noise of 1e-4, and an orbit image: 19 sparse phase targets."""
    n = 12
    rng = np.random.default_rng(0)
    diag = np.zeros((n, n, n), dtype=complex)
    diag[np.arange(n), np.arange(n), np.arange(n)] = np.arange(1, n + 1) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    a = Tensor3(diag + 1e-4 * (rng.standard_normal(diag.shape) + 1j * rng.standard_normal(diag.shape)))
    return a, apply_action(sample_haar_triple((n, n, n), 50, "complex"), a)


def test_zero_targets_are_underdetermined(monkeypatch):
    # with no phase target nothing pins the per-mode gauge, so the identity
    # guess is no evidence: a pair it does not carry is cannot_decide, not NO
    import otiso.decision as decision

    real_compare = decision.compare_cores

    def no_targets(sa, sb, thr):
        empty = PhaseTargets(*(np.zeros(sa.dims) for _ in range(3)))  # weight 0 everywhere: no target
        return dataclasses.replace(real_compare(sa, sb, thr), phase_targets=empty)

    monkeypatch.setattr(decision, "compare_cores", no_targets)
    a, b, _ = orbit_pair((6, 6, 6), 87, "real")
    d = decide_isomorphism(a, b)
    assert d.verdict == "cannot_decide"
    assert d.diagnostics["phase_targets"] == 0
    assert d.diagnostics["step"] == "underdetermined"
    assert d.diagnostics["solver_path"] == "identity"
    assert decide_isomorphism(a, a).verdict == "yes"

    # a near-diagonal pair leaves 19 targets at n = 12; they touch every
    # variable, but their incidence has rank 16 of the 34 the gauge allows,
    # so the unpinned angles, not the numerics, make the witness miss
    monkeypatch.undo()
    d = decide_isomorphism(*near_diagonal_pair())
    assert d.verdict == "cannot_decide"
    assert d.diagnostics["phase_targets"] == 19
    assert d.diagnostics["step"] == "underdetermined"
    assert d.diagnostics["solver_path"] == "synchronization"


def test_uncertified_phase_miss_is_cannot_decide(monkeypatch, tmp_path):
    # with no sweep, the synchronization keeps its closed-form starts, which
    # miss the near-diagonal pair's sparse targets; no 4-cycle is violated,
    # so the miss is no answer (exit 2), not a NO
    import otiso.phases as phases

    monkeypatch.setattr(phases, "SYNC_SWEEPS", 0)
    a, b = near_diagonal_pair()
    d = decide_isomorphism(a, b)
    assert (d.verdict, d.witness) == ("cannot_decide", None)
    assert (d.diagnostics["step"], d.diagnostics["solver_path"]) == ("phase_uncertified", "synchronization")
    pa, pb = tmp_path / "a.t3b", tmp_path / "b.t3b"
    write_tensor(a, pa)
    write_tensor(b, pb)
    assert main(["iso", "--a", str(pa), "--b", str(pb), "--quiet"]) == 2


def test_gapped_no_on_small_gap_b():
    # a diagonal B of A's norm whose Gram spectra (the same in all three
    # modes) are simple, but with a top gap of delta_A/4, below delta_A/2
    n = 6
    a = sample_tensor((n, n, n), RandomModel("gaussian", "real", 88))
    delta = core_of(a)[0].min_gap
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
    delta = core_of(a)[0].min_gap
    eps = delta / (16.0 * a.frobenius_norm)
    d = decide_orbit_distance(a, Tensor3(tied), eps)
    assert d.verdict == "no"
    assert d.diagnostics["step"] == "gap_b"
    assert d.diagnostics["failed_mode"] == 1
    assert d.diagnostics["failed_gap"] == 0.0


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_one_by_one_by_one_pairs_are_decided(kind):
    # every mode has size 1, so no spectrum has a gap; the gap is capped at
    # the top Gram eigenvalue rather than left infinite, which would zero the
    # threshold, every slack and the gapped bound, and make every pair a NO
    def t(x):
        return Tensor3(np.full((1, 1, 1), x, dtype=complex if kind == "complex" else float))

    for seed in range(10):
        a, b, _ = orbit_pair((1, 1, 1), 95 + seed, kind)
        d = decide_isomorphism(a, b)
        assert d.verdict == "yes", d.diagnostics
        assert d.diagnostics["delta"] == pytest.approx(a.frobenius_norm ** 2)
        g = decide_orbit_distance(a, b, 1e-3 * a.frobenius_norm)
        assert g.verdict == "yes" and g.residual <= g.gamma_bound
    assert decide_isomorphism(t(2.0), t(2.0)).verdict == "yes"
    assert decide_isomorphism(t(0.0), t(0.0)).verdict == "yes"
    # one entry of each: equal norms make an orbit pair, so a NO is at norm
    d = decide_isomorphism(t(3.0), t(1.0))
    assert d.verdict == "no" and d.diagnostics["step"] == "norm"
    g = decide_orbit_distance(t(2.0), t(-2.0), 1e-3)
    assert g.verdict == "yes" and g.gamma_bound == pytest.approx(8e-3)
    g = decide_orbit_distance(t(2.0), t(-2.5), 1e-3)
    assert g.verdict == "no" and g.diagnostics["step"] == "norm"


@given(
    dims=st.tuples(*(st.integers(1, 8) for _ in range(3))),
    kind=st.sampled_from(["real", "complex"]),
    distribution=st.sampled_from(["gaussian", "rademacher", "uniform_pm"]),
    seed=st.integers(0, 2 ** 32),
)
@example(dims=(1, 1, 1), kind="real", distribution="gaussian", seed=0)
@example(dims=(1, 1, 1), kind="complex", distribution="gaussian", seed=0)
def test_orbit_pairs_are_never_no_and_independent_pairs_never_yes(dims, kind, distribution, seed):
    # the README contract on any dims the types accept, in either order
    a = sample_tensor(dims, RandomModel(distribution, kind, seed))
    orbit = apply_action(sample_haar_triple(dims, seed + 1, kind), a)
    independent = sample_tensor(dims, RandomModel("gaussian", kind, seed + 2))
    for b, never in ((orbit, "no"), (independent, "yes")):
        d = decide_isomorphism(a, b)
        assert d.verdict != never, (d.verdict, d.diagnostics)
        assert decide_isomorphism(b, a).verdict == d.verdict
    # a tensor whose mode-1 Gram is 3·I has a fully tied spectrum; against an
    # independent tensor the norms differ, and at equal norms the spectra do,
    # which is a NO before any refusal
    n1, rest = dims[0], dims[1] * dims[2]
    if n1 <= rest:
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((rest, n1))
        if kind == "complex":
            m = m + 1j * rng.standard_normal((rest, n1))
        rows = math.sqrt(3.0) * np.linalg.qr(m)[0].T  # orthonormal rows scaled: rows @ rows^H = 3·I
        tied = Tensor3(rows.reshape(dims))
        assert n1 == 1 or not core_of(tied)[0].spectra[0].simple
        partners = [(independent, "norm")]
        if sorted(dims)[1] > 1:  # two vectors of one norm are an orbit pair
            partners.append((at_norm_of(tied, independent), "spectra"))
        for partner, step in partners:
            for x, y in ((tied, partner), (partner, tied)):
                d = decide_isomorphism(x, y)
                assert d.verdict == "no" and d.diagnostics["step"] == step, (d.verdict, d.diagnostics)


@given(
    dims=st.tuples(*(st.integers(1, 8) for _ in range(3))),
    kind=st.sampled_from(["real", "complex"]),
    distribution=st.sampled_from(["gaussian", "rademacher", "uniform_pm"]),
    seed=st.integers(0, 2 ** 32),
    k=st.integers(-300, 300),
)
@example(dims=(8, 8, 8), kind="complex", distribution="gaussian", seed=0, k=300)
@example(dims=(8, 8, 8), kind="real", distribution="uniform_pm", seed=0, k=-300)
def test_orbit_pairs_are_never_no_at_norm(dims, kind, distribution, seed, k):
    # the action keeps the Frobenius norm up to rounding, far below 2 eps,
    # at any common scale
    s = math.ldexp(1.0, k)
    a = sample_tensor(dims, RandomModel(distribution, kind, seed))
    b = apply_action(sample_haar_triple(dims, seed + 1, kind), a)
    a, b = Tensor3(s * a.data), Tensor3(s * b.data)
    for x, y in ((a, b), (b, a)):
        with np.errstate(over="raise"):
            d = decide_isomorphism(x, y)
        assert d.diagnostics.get("step") != "norm", (d.verdict, d.diagnostics)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("k", [-60, -250])
def test_small_common_scale_is_decided_on_the_inputs(kind, k):
    # exact mode compares the tensors as given, so norms and spectra that
    # differ at a tiny common scale still reject; an absolute grid would zero them
    s = math.ldexp(1.0, k)
    a, b, _ = orbit_pair((8, 8, 8), 90, kind)
    c = sample_tensor((8, 8, 8), RandomModel("gaussian", kind, 91))
    a, b, c = (Tensor3(s * t.data) for t in (a, b, c))
    d = decide_isomorphism(a, c)
    assert d.verdict == "no"
    assert d.diagnostics["step"] == "norm"
    d = decide_isomorphism(a, at_norm_of(a, c))
    assert d.verdict == "no"
    assert d.diagnostics["step"] == "spectra"
    # the scale-free threshold leaves no phase target; never a NO
    d = decide_isomorphism(a, b)
    assert d.verdict == "cannot_decide"
    assert d.diagnostics["step"] == "underdetermined"


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [8, 13])
@pytest.mark.parametrize("k", [16, 20, 24, 28, 30, 32])
def test_large_common_scale_orbit_pair_is_yes(kind, n, k):
    # the slack budget is far below ma*mb here: the slacks must stay
    # positive, or every target is dead and the pair an unsound NO
    s = math.ldexp(1.0, k)
    a, b, _ = orbit_pair((n, n, n), 92, kind)
    a, b = Tensor3(s * a.data), Tensor3(s * b.data)
    d = decide_isomorphism(a, b)
    assert d.verdict == "yes"
    rep = verify_witness(a, b, d.witness)
    assert rep.unitary_ok and rep.residual <= d.diagnostics["residual_gate"]


def test_backward_errors_stay_finite_at_huge_scale():
    # Gram entries near 2^600 square past the double range unless the
    # eigensolver's norms are prescaled
    s = math.ldexp(1.0, 300)
    a, b, _ = orbit_pair((8, 8, 8), 93, "real")
    a, b = Tensor3(s * a.data), Tensor3(s * b.data)
    with np.errstate(over="raise"):
        d = decide_isomorphism(a, b)
    errors = [sp["backward_error"] for key in ("spectra_a", "spectra_b") for sp in d.diagnostics[key]]
    assert len(errors) == 6
    assert all(0.0 <= e <= 1e-12 * a.frobenius_norm ** 2 for e in errors), errors


# The Grams of these pairs leave the double range: without a power-of-two
# prescale of the inputs the first is NO at spectra, every spectrum field NaN,
# and the second raises from the eigensolver.
BEYOND_THE_GRAMS = pytest.mark.xfail(strict=True, raises=(AssertionError, ConvergenceFailure),
                                     reason="the mode Grams overflow: the inputs are not prescaled")


@pytest.mark.parametrize("case", [pytest.param("entries_1.7e308", marks=BEYOND_THE_GRAMS),
                                  pytest.param("gaussian_2^520", marks=BEYOND_THE_GRAMS)])
def test_negated_pair_beyond_the_gram_range_is_never_no(case):
    if case == "entries_1.7e308":
        a = Tensor3(np.where(np.arange(8).reshape(2, 2, 2) % 3, 1.7e308, -1.7e308))
    else:
        a = Tensor3(math.ldexp(1.0, 520) * sample_tensor((3, 3, 3), RandomModel("gaussian", "real", 94)).data)
    b = Tensor3(-a.data)  # the image of A under (-I, I, I)
    for x, y in ((a, b), (b, a)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            d = decide_isomorphism(x, y)
        assert d.verdict != "no", d.diagnostics


def test_gapped_mode_decides_the_tensors_as_given():
    a, b, _ = orbit_pair((5, 5, 5), 93, "real")
    d = decide_isomorphism(a, b)
    eps = d.diagnostics["delta"] / (8.0 * (a.frobenius_norm + b.frobenius_norm))
    g = decide_orbit_distance(a, b, eps)
    assert g.verdict == "yes"
    assert g.diagnostics["norm_a"] == a.frobenius_norm
    assert g.diagnostics["norm_b"] == b.frobenius_norm
    assert "precision_bits" not in g.diagnostics


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


# The diagnostics each exit of the spine reports.  Exact mode adds "dims"
# and "residual_gate" to every exit; every exit but YES adds "step".
SHARED_KEYS = {"mode", "n", "scalar_kind", "eps", "norm_a", "norm_b"}
CORE_KEYS = {"spectra_a", "spectra_b"}
COMPARED_KEYS = CORE_KEYS | {"delta", "residual_gate", "threshold_modulus"}
SOLVED_KEYS = COMPARED_KEYS | {"phase_targets", "solver_path"}
VERIFIED_KEYS = SOLVED_KEYS | {"residual_recomputed", "unitarity_defects"}
EXIT_KEYS = {
    "yes": VERIFIED_KEYS,
    "norm": {"norm_gap", "norm_threshold", "norm_rounding"},
    "spectra": CORE_KEYS | {"failed_mode", "spectra_tolerance"},
    "gap_policy": CORE_KEYS | {"failed_mode", "failed_gap"},
    "gap_b": CORE_KEYS | {"delta", "residual_gate", "failed_mode", "failed_gap"},
    "modulus": COMPARED_KEYS | {"reject_entry"},
    "phase_system": SOLVED_KEYS | {"certificate"},
    "phase_uncertified": SOLVED_KEYS,
    "underdetermined": VERIFIED_KEYS,
    "witness_verification": VERIFIED_KEYS,
}
EXIT_VERDICT = {"yes": "yes", "gap_policy": "cannot_decide", "phase_uncertified": "cannot_decide",
                "underdetermined": "cannot_decide", "witness_verification": "cannot_decide"}


def _raise(exc):
    def solver(targets):
        raise exc
    return solver


def _exit_pair(step, monkeypatch):
    """A pair that leaves the spine at ``step`` (``yes`` for YES), with the eps to decide it at in gapped mode."""
    import otiso.decision as decision

    a, b, _ = orbit_pair((5, 5, 5), 95, "real")
    # far inside the certified range, so that a wrong witness misses the gate
    eps = 1e-6 * decide_isomorphism(a, b).diagnostics["delta"] / (8.0 * (a.frobenius_norm + b.frobenius_norm))
    if step == "norm":
        b = Tensor3(2.0 * a.data)
    elif step == "spectra":
        b = at_norm_of(a, sample_tensor((5, 5, 5), RandomModel("gaussian", "real", 96)))
    elif step == "gap_policy":
        a = b = Tensor3(np.ones((3, 3, 3)))
    elif step == "gap_b":
        b = Tensor3(np.diag(np.full(5, a.frobenius_norm / math.sqrt(5)))[:, :, None] * np.eye(5))
    elif step == "modulus":
        monkeypatch.setattr(decision, "compare_cores", lambda sa, sb, thr: RejectFar((0, 0, 0)))
    elif step == "phase_system":
        monkeypatch.setattr(decision, "solve_signs", _raise(Infeasible([(0, 0, 0)] * 4, None, "cycle")))
    elif step == "phase_uncertified":
        monkeypatch.setattr(decision, "solve_signs", _raise(ConvergenceFailure("missed a target")))
    elif step == "underdetermined":
        real_compare = decision.compare_cores

        def no_targets(sa, sb, thr):
            empty = PhaseTargets(*(np.zeros(sa.dims) for _ in range(3)))
            return dataclasses.replace(real_compare(sa, sb, thr), phase_targets=empty)

        monkeypatch.setattr(decision, "compare_cores", no_targets)
    elif step == "witness_verification":
        real_assemble = decision.assemble_witness

        def skewed(sa, sb, assignment):
            return real_assemble(dataclasses.replace(sa, bases=(1.01 * sa.bases[0], *sa.bases[1:])), sb, assignment)

        monkeypatch.setattr(decision, "assemble_witness", skewed)
    return a, b, eps


# exact mode alone compares spectra, gapped mode alone screens B's gaps
EXITS = [(step, gapped) for step in sorted(EXIT_KEYS) for gapped in (False, True)
         if (step, gapped) not in {("spectra", True), ("gap_b", False)}]


@pytest.mark.parametrize("step, gapped", EXITS, ids=[f"{s}-{'gapped' if g else 'exact'}" for s, g in EXITS])
def test_each_exit_reports_its_exact_diagnostics_keys(step, gapped, monkeypatch):
    # every exit names its step and the quantities that decided it, and no
    # more; a key dropped or renamed on the way out fails here
    a, b, eps = _exit_pair(step, monkeypatch)
    d = decide_orbit_distance(a, b, eps) if gapped else decide_isomorphism(a, b)
    want = SHARED_KEYS | EXIT_KEYS[step] | (set() if gapped else {"dims", "residual_gate"})
    if step != "yes":
        want |= {"step"}
        assert d.diagnostics["step"] == step
    assert d.verdict == EXIT_VERDICT.get(step, "no")
    assert set(d.diagnostics) == want
