"""Sign and phase constraint solvers plus witness assembly."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from otiso import (
    ConfigInvalid,
    DimensionMismatch,
    Infeasible,
    PhaseAssignment,
    PhaseTarget,
    RandomModel,
    SignAssignment,
    apply_action,
    assemble_witness,
    compare_cores,
    core_of,
    decide_isomorphism,
    identity_triple,
    sample_haar_triple,
    sample_tensor,
    solve_phases,
    solve_signs,
    wrap_angle,
)


def all_keys(dims):
    return list(itertools.product(*(range(d) for d in dims)))


def circ_resid(assign, key, phi):
    i, j, k = key
    s = assign.alpha[i] + assign.beta[j] + assign.gamma[k]
    return abs(float(wrap_angle(s - phi)))


def test_wrap_angle_frozen():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi  # range is (-pi, pi]
    assert abs(wrap_angle(3 * math.pi / 2) - (-math.pi / 2)) < 1e-15
    assert abs(wrap_angle(-3 * math.pi / 2) - (math.pi / 2)) < 1e-15


def test_solve_signs_all_positive():
    dims = (2, 2, 2)
    out = solve_signs({k: 1 for k in all_keys(dims)}, dims)
    for v in (out.s1, out.s2, out.s3):
        assert np.array_equal(v, np.ones(2))


def test_solve_signs_product_form_vs_bruteforce():
    dims = (2, 2, 2)
    s1, s2, s3 = (1, -1), (1, 1), (1, -1)
    targets = {(i, j, k): s1[i] * s2[j] * s3[k] for (i, j, k) in all_keys(dims)}
    out = solve_signs(targets, dims)
    for (i, j, k), t in targets.items():
        assert out.s1[i] * out.s2[j] * out.s3[k] == t
    # exhaustive check: every satisfying assignment realizes the same products
    sols = 0
    for bits in itertools.product((1, -1), repeat=6):
        a, b, c = bits[0:2], bits[2:4], bits[4:6]
        if all(a[i] * b[j] * c[k] == t for (i, j, k), t in targets.items()):
            sols += 1
    assert sols == 4  # gauge group: two independent sign transfers


def test_solve_signs_partial_random_systems():
    rng = np.random.default_rng(60)
    dims = (4, 3, 5)
    for _ in range(25):
        g1, g2, g3 = (rng.choice([-1, 1], size=d) for d in dims)
        keys = [k for k in all_keys(dims) if rng.random() < 0.4]
        targets = {(i, j, k): int(g1[i] * g2[j] * g3[k]) for (i, j, k) in keys}
        out = solve_signs(targets, dims)
        for (i, j, k), t in targets.items():
            assert out.s1[i] * out.s2[j] * out.s3[k] == t


def reference_solve_signs(targets, dims):
    """Per-row big-int GF(2) elimination with provenance tracking: the oracle.

    Returns ``(s1, s2, s3)`` or raises :class:`Infeasible` with the parity
    certificate, exactly as the row-at-a-time solver it replaced did.
    """
    n1, n2, n3 = dims
    keys = sorted(targets)
    pivots = {}
    for row_id, (i, j, k) in enumerate(keys):
        coef = (1 << i) | (1 << (n1 + j)) | (1 << (n1 + n2 + k))
        rhs = 1 if targets[(i, j, k)] == -1 else 0
        prov = 1 << row_id
        while coef:
            col = (coef & (-coef)).bit_length() - 1
            if col in pivots:
                pc, pr, pp = pivots[col]
                coef ^= pc
                rhs ^= pr
                prov ^= pp
            else:
                pivots[col] = (coef, rhs, prov)
                break
        else:
            if rhs:
                raise Infeasible([keys[b] for b in range(len(keys)) if (prov >> b) & 1])
    assign = 0
    for col in sorted(pivots, reverse=True):
        coef, rhs, _ = pivots[col]
        if rhs ^ (int.bit_count(coef & ~(1 << col) & assign) & 1):
            assign |= 1 << col
    signs = np.array([-1.0 if (assign >> v) & 1 else 1.0 for v in range(n1 + n2 + n3)])
    return signs[:n1], signs[n1:n1 + n2], signs[n1 + n2:]


@st.composite
def sign_systems(draw):
    """Partial sign systems on dims up to 6x5x7, consistent or with a few targets flipped."""
    dims = (draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 7)))
    g = [draw(st.lists(st.sampled_from((-1, 1)), min_size=d, max_size=d)) for d in dims]
    keys = draw(st.sets(st.tuples(*(st.integers(0, d - 1) for d in dims)), max_size=dims[0] * dims[1] * dims[2]))
    targets = {(i, j, k): g[0][i] * g[1][j] * g[2][k] for (i, j, k) in keys}
    if keys:
        for key in draw(st.sets(st.sampled_from(sorted(keys)), max_size=3)):
            targets[key] = -targets[key]
    return targets, dims


@given(sign_systems())
def test_solve_signs_matches_reference_oracle(system):
    targets, dims = system
    try:
        want = reference_solve_signs(targets, dims)
    except Infeasible as exc:
        with pytest.raises(Infeasible) as info:
            solve_signs(targets, dims)
        cert = info.value.certificate
        assert cert == exc.certificate
        # a parity certificate: every variable an even number of times, targets multiply to -1
        for mode in range(3):
            counts = np.bincount([key[mode] for key in cert], minlength=dims[mode])
            assert np.all(counts % 2 == 0)
        assert math.prod(targets[key] for key in cert) == -1
        assert info.value.solver_path == "gf2"
        return
    out = solve_signs(targets, dims)
    for got, ref in zip((out.s1, out.s2, out.s3), want):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_solve_signs_infeasible_four_cycle():
    targets = {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (1, 1, 0): -1}
    with pytest.raises(Infeasible) as info:
        solve_signs(targets, (2, 2, 2))
    assert sorted(info.value.certificate) == sorted(targets.keys())


def test_solve_signs_validation():
    with pytest.raises(ConfigInvalid):
        solve_signs({(0, 0, 0): 2}, (1, 1, 1))
    with pytest.raises(DimensionMismatch):
        solve_signs({(0, 0, 3): 1}, (2, 2, 2))


def test_solve_phases_zero_targets_give_zero_angles():
    dims = (3, 3, 3)
    targets = {k: PhaseTarget(phi=0.0, slack=0.1, weight=1.0) for k in all_keys(dims)}
    out = solve_phases(targets, dims)
    assert out.max_residual == 0.0
    for v in (out.alpha, out.beta, out.gamma):
        assert np.array_equal(v, np.zeros(3))


def test_solve_phases_forward_recovery():
    rng = np.random.default_rng(61)
    dims = (3, 4, 5)
    for _ in range(20):
        al, be, ga = (rng.uniform(-np.pi, np.pi, d) for d in dims)
        targets = {
            (i, j, k): PhaseTarget(
                phi=float(wrap_angle(al[i] + be[j] + ga[k])), slack=1e-3, weight=1.0
            )
            for (i, j, k) in all_keys(dims)
        }
        out = solve_phases(targets, dims)
        worst = max(circ_resid(out, key, t.phi) for key, t in targets.items())
        assert worst <= 1e-8
        assert out.max_residual < 1e-3


def test_solve_phases_corrupted_constraint_infeasible():
    rng = np.random.default_rng(62)
    dims = (3, 3, 3)
    for _ in range(10):
        al, be, ga = (rng.uniform(-np.pi, np.pi, d) for d in dims)
        targets = {
            (i, j, k): PhaseTarget(
                phi=float(wrap_angle(al[i] + be[j] + ga[k])), slack=0.1, weight=1.0
            )
            for (i, j, k) in all_keys(dims)
        }
        bad = tuple(int(rng.integers(0, 3)) for _ in range(3))
        t = targets[bad]
        targets[bad] = PhaseTarget(phi=float(wrap_angle(t.phi + np.pi)), slack=t.slack, weight=t.weight)
        with pytest.raises(Infeasible) as info:
            solve_phases(targets, dims)
        assert bad in info.value.certificate
        assert info.value.solver_path == "lp"


def test_solve_phases_gauge_invariant_residuals():
    rng = np.random.default_rng(63)
    dims = (3, 3, 4)
    al, be, ga = (rng.uniform(-np.pi, np.pi, d) for d in dims)
    targets = {
        (i, j, k): PhaseTarget(
            phi=float(wrap_angle(al[i] + be[j] + ga[k])), slack=0.05, weight=1.0
        )
        for (i, j, k) in all_keys(dims)
    }
    out = solve_phases(targets, dims)
    theta = 0.7318
    shifted = PhaseAssignment(
        alpha=out.alpha + theta, beta=out.beta - theta, gamma=out.gamma,
        max_residual=out.max_residual,
    )
    for key, t in targets.items():
        assert abs(circ_resid(out, key, t.phi) - circ_resid(shifted, key, t.phi)) <= 1e-12


def noisy_targets(rng, keys, angles, slack, noise):
    al, be, ga = angles
    return {
        (i, j, k): PhaseTarget(phi=float(wrap_angle(al[i] + be[j] + ga[k] + rng.uniform(-noise, noise))),
                               slack=slack, weight=float(rng.uniform(0.1, 10.0)))
        for (i, j, k) in keys
    }


def assert_within_slack(out, targets):
    for key, t in targets.items():
        assert circ_resid(out, key, t.phi) < t.slack


def test_solve_phases_sparse_masks_reseed():
    # two blocks with no shared variable, a pair of targets joined to the
    # first block only through alpha_2, and a lone target: propagation stalls
    # on each and must reseed at the heaviest target touching an unassigned
    # variable.  alpha_5 is touched by no target and stays at angle zero.
    rng = np.random.default_rng(64)
    dims = (7, 7, 8)
    for _ in range(10):
        angles = [rng.uniform(-np.pi, np.pi, d) for d in dims]
        blocks = itertools.chain(itertools.product(range(3), repeat=3), itertools.product(range(3, 5), repeat=3))
        keys = {k for k in blocks if rng.random() < 0.8} | {(0, 0, 0), (3, 3, 3), (2, 5, 5), (2, 5, 6), (6, 6, 7)}
        targets = noisy_targets(rng, keys, angles, slack=0.2, noise=0.02)
        out = solve_phases(targets, dims)
        assert out.solver_path == "lstsq"
        assert_within_slack(out, targets)
        assert abs(float(wrap_angle(out.alpha[5]))) <= 1e-12


def test_solve_phases_dense_noisy_within_slack():
    rng = np.random.default_rng(68)
    for dims in [(4, 5, 3), (6, 6, 6), (9, 7, 8)]:
        angles = [rng.uniform(-np.pi, np.pi, d) for d in dims]
        targets = noisy_targets(rng, all_keys(dims), angles, slack=0.1, noise=0.05)
        out = solve_phases(targets, dims)
        assert out.solver_path == "lstsq"
        assert_within_slack(out, targets)


def test_solve_phases_equivariant_under_gauge():
    # relabelling the targets by per-variable angles u_i + v_j + w_k moves the
    # fitted sums by exactly that amount: the fit does not depend on the gauge
    rng = np.random.default_rng(69)
    dims = (4, 5, 3)
    angles = [rng.uniform(-np.pi, np.pi, d) for d in dims]
    targets = noisy_targets(rng, all_keys(dims), angles, slack=0.1, noise=0.05)
    u, v, w = (rng.uniform(-np.pi, np.pi, d) for d in dims)
    moved = {(i, j, k): PhaseTarget(phi=float(wrap_angle(t.phi + u[i] + v[j] + w[k])), slack=t.slack, weight=t.weight)
             for (i, j, k), t in targets.items()}
    out, out_moved = solve_phases(targets, dims), solve_phases(moved, dims)
    assert_within_slack(out_moved, moved)
    for (i, j, k) in targets:
        fit = out.alpha[i] + out.beta[j] + out.gamma[k]
        fit_moved = out_moved.alpha[i] + out_moved.beta[j] + out_moved.gamma[k]
        assert abs(float(wrap_angle(fit_moved - fit - u[i] - v[j] - w[k]))) <= 1e-9


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_decide_isomorphism_yes_on_haar_pairs(kind):
    for n in (8, 16, 24):
        a = sample_tensor((n, n, n), RandomModel("gaussian", kind, 300 + n))
        b = apply_action(sample_haar_triple((n, n, n), 400 + n, kind), a)
        d = decide_isomorphism(a, b)
        assert d.verdict == "yes", (n, d.diagnostics)
        assert d.residual <= d.diagnostics["residual_gate"]
        assert d.diagnostics["solver_path"] == ("gf2" if kind == "real" else "lstsq")


def test_solve_phases_validation():
    with pytest.raises(ConfigInvalid):
        solve_phases({}, (2, 2, 2))
    with pytest.raises(ConfigInvalid):
        solve_phases({(0, 0, 0): PhaseTarget(phi=0.0, slack=0.1, weight=1.0)})
    dead = {(0, 0, 0): PhaseTarget(phi=0.0, slack=0.0, weight=1.0)}
    with pytest.raises(Infeasible) as info:
        solve_phases(dead, (1, 1, 1))
    assert (0, 0, 0) in info.value.certificate


def test_assemble_witness_identity_and_signs():
    a = sample_tensor((2, 2, 2), RandomModel("gaussian", "real", 64))
    ct = core_of(a)
    eye_ct = type(ct)(core=a, bases=tuple(np.eye(2) for _ in range(3)),
                      spectra=ct.spectra, source_norm=a.frobenius_norm)
    zero_phase = PhaseAssignment(alpha=np.zeros(2), beta=np.zeros(2), gamma=np.zeros(2), max_residual=0.0)
    w = assemble_witness(eye_ct, eye_ct, zero_phase)
    for d in range(3):
        assert np.allclose(w[d], np.eye(2), atol=1e-15)
    assert w.scalar_kind == "complex"

    flip = SignAssignment(s1=-np.ones(2), s2=-np.ones(2), s3=-np.ones(2))
    w2 = assemble_witness(eye_ct, eye_ct, flip)
    for d in range(3):
        assert np.array_equal(w2[d], -np.eye(2))
    acted = apply_action(w2, a)
    assert np.array_equal(acted.data, -a.data)


def test_assemble_witness_end_to_end():
    for seed, kind in [(65, "real"), (66, "complex")]:
        a = sample_tensor((4, 4, 4), RandomModel("gaussian", kind, seed))
        g = sample_haar_triple((4, 4, 4), seed + 100, kind)
        b = apply_action(g, a)
        ca, cb = core_of(a), core_of(b)
        cmp = compare_cores(ca, cb, eps=1e-8, delta=min(ca.min_gap, cb.min_gap))
        if kind == "real":
            assignment = solve_signs(cmp.phase_targets, ca.dims)
        else:
            assignment = solve_phases(cmp)
        w = assemble_witness(ca, cb, assignment)
        res = np.linalg.norm(apply_action(w, a.astype_kind(w.scalar_kind)).data - b.astype_kind(w.scalar_kind).data)
        assert res <= 1e-6 * a.frobenius_norm


def test_assemble_witness_validation():
    a = core_of(sample_tensor((2, 2, 2), RandomModel("gaussian", "real", 67)))
    with pytest.raises(ConfigInvalid):
        assemble_witness(a, a, identity_triple((2, 2, 2), "real"))
    short = PhaseAssignment(alpha=np.zeros(3), beta=np.zeros(2), gamma=np.zeros(2), max_residual=0.0)
    with pytest.raises(DimensionMismatch):
        assemble_witness(a, a, short)
