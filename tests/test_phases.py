"""Sign and phase constraint solvers plus witness assembly."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from otiso import (
    ConfigInvalid,
    ConvergenceFailure,
    DimensionMismatch,
    Infeasible,
    RandomModel,
    Tensor3,
    apply_action,
    decide_isomorphism,
    sample_haar_triple,
    sample_tensor,
)
from otiso import phases
from otiso.cli import main
from otiso.hosvd import PhaseTargets, compare_cores, core_of
from otiso.io import write_tensor
from otiso.phases import (
    Assignment,
    _anchored_signs,
    assemble_witness,
    solve_phases,
    solve_signs,
    wrap_angle,
)


def all_keys(dims):
    return list(itertools.product(*(range(d) for d in dims)))


def grid_targets(idx, phi, slack, weight, dims):
    """PhaseTargets on the ``dims`` grid from rows: each row's phi, slack and weight at its key, weight 0 elsewhere."""
    grids = np.zeros((3, *dims))
    grids[(slice(None), *np.asarray(idx, dtype=np.int64).reshape(-1, 3).T)] = [phi, slack, weight]
    return PhaseTargets(*grids)


def phase_targets(rows, dims):
    """PhaseTargets from ``{(i, j, k): (phi, slack, weight)}`` on the ``dims`` grid."""
    keys = sorted(rows)
    return grid_targets(keys, *np.array([rows[k] for k in keys], dtype=np.float64).reshape(-1, 3).T, dims)


def sign_targets(signs, dims):
    """A ``{(i, j, k): +-1}`` sign system as PhaseTargets: phi 0 for +1 and pi for -1."""
    return phase_targets({k: (0.0 if t == 1 else math.pi, 1.0, 1.0) for k, t in signs.items()}, dims)


def diagonal_angles(assign):
    """The per-mode angles of an assignment's unit diagonals."""
    return tuple(np.angle(d) for d in assign.diagonals)


def circ_resid(assign, key, phi):
    (i, j, k), (alpha, beta, gamma) = key, diagonal_angles(assign)
    return abs(float(wrap_angle(alpha[i] + beta[j] + gamma[k] - phi)))


def max_residual(assign, targets):
    """Worst circular residual over ``targets`` (PhaseTargets), from the diagonals' angles."""
    (i, j, k), (alpha, beta, gamma) = np.nonzero(targets.weight > 0), diagonal_angles(assign)
    return float(np.max(np.abs(wrap_angle(alpha[i] + beta[j] + gamma[k] - targets.phi[i, j, k]))))


def test_wrap_angle_frozen():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi  # range is (-pi, pi]
    assert abs(wrap_angle(3 * math.pi / 2) - (-math.pi / 2)) < 1e-15
    assert abs(wrap_angle(-3 * math.pi / 2) - (math.pi / 2)) < 1e-15


def test_solve_signs_all_positive():
    dims = (2, 2, 2)
    out = solve_signs(sign_targets({k: 1 for k in all_keys(dims)}, dims))
    assert out.solver_path == "gf2"
    for v in out.diagonals:
        assert np.array_equal(v, np.ones(2))


def test_solve_signs_product_form_vs_bruteforce():
    dims = (2, 2, 2)
    s1, s2, s3 = (1, -1), (1, 1), (1, -1)
    targets = {(i, j, k): s1[i] * s2[j] * s3[k] for (i, j, k) in all_keys(dims)}
    o1, o2, o3 = solve_signs(sign_targets(targets, dims)).diagonals
    for (i, j, k), t in targets.items():
        assert o1[i] * o2[j] * o3[k] == t
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
        o1, o2, o3 = solve_signs(sign_targets(targets, dims)).diagonals
        for (i, j, k), t in targets.items():
            assert o1[i] * o2[j] * o3[k] == t


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
def sign_systems(draw, flipped):
    """Partial sign systems on dims up to 6x5x7: consistent, or with one to three targets flipped."""
    dims = (draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 7)))
    g = [draw(st.lists(st.sampled_from((-1, 1)), min_size=d, max_size=d)) for d in dims]
    keys = draw(st.sets(st.tuples(*(st.integers(0, d - 1) for d in dims)), min_size=int(flipped),
                        max_size=dims[0] * dims[1] * dims[2]))
    targets = {(i, j, k): g[0][i] * g[1][j] * g[2][k] for (i, j, k) in keys}
    if flipped:
        for key in draw(st.sets(st.sampled_from(sorted(keys)), min_size=1, max_size=3)):
            targets[key] = -targets[key]
    event("targets" if keys else "no targets")
    return targets, dims


# Each flip case gets its own examples: drawn once per example, the choice
# gave consistent systems fewer than one example in ten.
@pytest.mark.parametrize("flipped", [False, True], ids=["unflipped", "flipped"])
@given(data=st.data())
def test_solve_signs_matches_reference_oracle(flipped, data):
    targets, dims = data.draw(sign_systems(flipped))
    try:
        want = reference_solve_signs(targets, dims)
    except Infeasible as exc:
        event("infeasible")
        with pytest.raises(Infeasible) as info:
            solve_signs(sign_targets(targets, dims))
        cert = info.value.certificate
        assert cert == exc.certificate
        # a parity certificate: every variable an even number of times, targets multiply to -1
        for mode in range(3):
            counts = np.bincount([key[mode] for key in cert], minlength=dims[mode])
            assert np.all(counts % 2 == 0)
        assert math.prod(targets[key] for key in cert) == -1
        assert info.value.solver_path == "gf2"
        return
    out = solve_signs(sign_targets(targets, dims))
    for got, ref in zip(out.diagonals, want):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_solve_signs_infeasible_four_cycle():
    targets = {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (1, 1, 0): -1}
    with pytest.raises(Infeasible) as info:
        solve_signs(sign_targets(targets, (2, 2, 2)))
    assert sorted(info.value.certificate) == sorted(targets.keys())


def test_solve_phases_zero_targets_give_zero_angles():
    dims = (3, 3, 3)
    targets = phase_targets({k: (0.0, 0.1, 1.0) for k in all_keys(dims)}, dims)
    out = solve_phases(targets)
    assert out.solver_path == "anchored"
    assert max_residual(out, targets) == 0.0
    for v in out.diagonals:
        assert np.array_equal(v, np.ones(3)) and np.iscomplexobj(v)


def test_solve_phases_forward_recovery():
    rng = np.random.default_rng(61)
    dims = (3, 4, 5)
    for _ in range(20):
        al, be, ga = (rng.uniform(-np.pi, np.pi, d) for d in dims)
        targets = {
            (i, j, k): (float(wrap_angle(al[i] + be[j] + ga[k])), 1e-3, 1.0)
            for (i, j, k) in all_keys(dims)
        }
        out = solve_phases(phase_targets(targets, dims))
        worst = max(circ_resid(out, key, t[0]) for key, t in targets.items())
        assert worst <= 1e-8
        assert max_residual(out, phase_targets(targets, dims)) < 1e-3


def test_solve_phases_corrupted_constraint_infeasible():
    rng = np.random.default_rng(62)
    dims = (3, 3, 3)
    for _ in range(10):
        al, be, ga = (rng.uniform(-np.pi, np.pi, d) for d in dims)
        targets = {
            (i, j, k): (float(wrap_angle(al[i] + be[j] + ga[k])), 0.1, 1.0)
            for (i, j, k) in all_keys(dims)
        }
        bad = tuple(int(rng.integers(0, 3)) for _ in range(3))
        phi, slack, weight = targets[bad]
        targets[bad] = (float(wrap_angle(phi + np.pi)), slack, weight)
        with pytest.raises(Infeasible) as info:
            solve_phases(phase_targets(targets, dims))
        # every other 4-cycle is consistent, so the violated one runs through the flipped target
        assert bad in info.value.certificate and len(info.value.certificate) == 4
        assert info.value.solver_path == "cycle"


def test_solve_phases_gauge_invariant_residuals():
    rng = np.random.default_rng(63)
    dims = (3, 3, 4)
    al, be, ga = (rng.uniform(-np.pi, np.pi, d) for d in dims)
    targets = {
        (i, j, k): (float(wrap_angle(al[i] + be[j] + ga[k])), 0.05, 1.0)
        for (i, j, k) in all_keys(dims)
    }
    out = solve_phases(phase_targets(targets, dims))
    theta = 0.7318
    d1, d2, d3 = out.diagonals
    shifted = Assignment((d1 * np.exp(1j * theta), d2 * np.exp(-1j * theta), d3), out.solver_path)
    for key, t in targets.items():
        assert abs(circ_resid(out, key, t[0]) - circ_resid(shifted, key, t[0])) <= 1e-12


def noisy_targets(rng, keys, angles, slack, noise):
    al, be, ga = angles
    return {
        (i, j, k): (float(wrap_angle(al[i] + be[j] + ga[k] + rng.uniform(-noise, noise))), slack,
                    float(rng.uniform(0.1, 10.0)))
        for (i, j, k) in keys
    }


def assert_within_slack(out, targets):
    for key, (phi, slack, _) in targets.items():
        assert circ_resid(out, key, phi) < slack


def test_solve_phases_sparse_masks_reseed():
    # two blocks with no shared variable, a pair of targets joined to the
    # first block only through alpha_2, and a lone target: the anchor's
    # slices miss most of them, so the closed form misses and the
    # synchronization answers.  alpha_5 is touched by no target and stays at
    # angle zero.
    rng = np.random.default_rng(64)
    dims = (7, 7, 8)
    for _ in range(10):
        angles = [rng.uniform(-np.pi, np.pi, d) for d in dims]
        blocks = itertools.chain(itertools.product(range(3), repeat=3), itertools.product(range(3, 5), repeat=3))
        keys = {k for k in blocks if rng.random() < 0.8} | {(0, 0, 0), (3, 3, 3), (2, 5, 5), (2, 5, 6), (6, 6, 7)}
        targets = noisy_targets(rng, keys, angles, slack=0.2, noise=0.02)
        out = solve_phases(phase_targets(targets, dims))
        assert out.solver_path == "synchronization"
        assert_within_slack(out, targets)
        assert abs(float(diagonal_angles(out)[0][5])) <= 1e-12


def test_solve_phases_dense_noisy_within_slack():
    rng = np.random.default_rng(68)
    for dims in [(4, 5, 3), (6, 6, 6), (9, 7, 8)]:
        angles = [rng.uniform(-np.pi, np.pi, d) for d in dims]
        targets = noisy_targets(rng, all_keys(dims), angles, slack=0.1, noise=0.05)
        out = solve_phases(phase_targets(targets, dims))
        assert out.solver_path == "anchored"
        assert_within_slack(out, targets)


def test_solve_phases_equivariant_under_gauge():
    # relabelling the targets by per-variable angles u_i + v_j + w_k moves the
    # fitted sums by exactly that amount: the fit does not depend on the gauge
    rng = np.random.default_rng(69)
    dims = (4, 5, 3)
    angles = [rng.uniform(-np.pi, np.pi, d) for d in dims]
    targets = noisy_targets(rng, all_keys(dims), angles, slack=0.1, noise=0.05)
    u, v, w = (rng.uniform(-np.pi, np.pi, d) for d in dims)
    moved = {(i, j, k): (float(wrap_angle(phi + u[i] + v[j] + w[k])), slack, weight)
             for (i, j, k), (phi, slack, weight) in targets.items()}
    out, out_moved = solve_phases(phase_targets(targets, dims)), solve_phases(phase_targets(moved, dims))
    assert_within_slack(out_moved, moved)
    (a1, b1, g1), (a2, b2, g2) = diagonal_angles(out), diagonal_angles(out_moved)
    for (i, j, k) in targets:
        fit = a1[i] + b1[j] + g1[k]
        fit_moved = a2[i] + b2[j] + g2[k]
        assert abs(float(wrap_angle(fit_moved - fit - u[i] - v[j] - w[k]))) <= 1e-9


def sparse_phase_system(rng):
    """A consistent system on dims in [3, 11]^3 at density 0.10-0.20, slack 0.3 and noise up to slack/3."""
    dims = tuple(int(d) for d in rng.integers(3, 12, 3))
    keep = rng.random(dims) < rng.uniform(0.10, 0.20)
    keep.flat[rng.integers(keep.size)] = True
    al, be, ga = (rng.uniform(-np.pi, np.pi, d) for d in dims)
    noise = rng.uniform(0.0, 0.1)
    phi = wrap_angle(al[:, None, None] + be[:, None] + ga + rng.uniform(-noise, noise, dims))
    weight = 10.0 ** rng.uniform(-1.0, 1.0, dims)
    return PhaseTargets(np.where(keep, phi, 0.0), np.where(keep, 0.3, 0.0), np.where(keep, weight, 0.0))


def test_sparse_consistent_systems_are_never_rejected():
    # most slices share no target with the anchor's, so the closed form
    # misses almost every system; a consistent system has no violated
    # cycle, so it is never Infeasible, and the synchronization meets every
    # target on all but a few
    rng = np.random.default_rng(74)
    paths = []
    for _ in range(300):
        targets = sparse_phase_system(rng)
        try:
            out = solve_phases(targets)
        except ConvergenceFailure:
            paths.append("uncertified")
            continue
        assert max_residual(out, targets) < 0.3
        paths.append(out.solver_path)
    assert paths.count("uncertified") <= 3
    assert paths.count("synchronization") >= 250


def reference_reject_cycle(targets, anchor):
    """The cycle pass as first written: every plane's cycle angles on the whole grid, then one argmax."""
    on = targets.weight > 0

    def corners(grid, p, q):
        at_q = np.take(grid, [anchor[q]], axis=q)
        return grid, at_q, np.take(grid, [anchor[p]], axis=p), np.take(at_q, [anchor[p]], axis=p)

    excess = []
    planes = ((0, 1), (0, 2), (1, 2))
    for p, q in planes:
        (f, fq, fp, fpq), (s, sq, sp, spq), (o, oq, op, opq) = (
            corners(grid, p, q) for grid in (targets.phi, targets.slack, on)
        )
        angle = np.abs(wrap_angle((f - fq) - (fp - fpq)))
        excess.append(np.where(o & oq & op & opq, angle - (s + sq + sp + spq), 0.0))
    plane, *key = np.unravel_index(np.argmax(excess), (len(planes), *on.shape))
    worst = excess[plane][tuple(key)]
    if worst > 0.0:
        p, q = planes[plane]
        cycle = [tuple(int(anchor[m] if m in moved else key[m]) for m in range(3)) for moved in ((), (q,), (p,), (p, q))]
        raise Infeasible(cycle, f"a 4-cycle's angle exceeds its four slacks by {worst:.3g} rad", "cycle")


def cycle_outcome(reject, targets):
    """None, or the certificate, message and solver path that ``reject`` raises at the solver's anchor."""
    _, anchor = phases._on_grid(targets, targets.weight * np.exp(1j * targets.phi))
    try:
        reject(targets, anchor)
    except Infeasible as exc:
        return exc.certificate, str(exc), exc.solver_path
    return None


def test_cycle_pass_matches_the_full_grid_version():
    # the seeded sparse probe (consistent), the same systems with their
    # angles scrambled, dense systems with flipped targets, and a system
    # whose violated cycles tie across all three planes
    rng = np.random.default_rng(74)
    systems = []
    for _ in range(300):
        t = sparse_phase_system(rng)
        systems.append(t)
        systems.append(PhaseTargets(np.where(t.weight > 0, rng.uniform(-np.pi, np.pi, t.phi.shape), 0.0),
                                    t.slack, t.weight))
    for _ in range(40):
        dims = tuple(int(d) for d in rng.integers(2, 7, 3))
        phi = wrap_angle(sum(np.expand_dims(rng.uniform(-np.pi, np.pi, d), [a for a in range(3) if a != m])
                             for m, d in enumerate(dims)))
        flip = rng.random(dims) < 0.05
        systems.append(PhaseTargets(wrap_angle(phi + np.pi * flip), np.full(dims, 0.2), rng.uniform(0.1, 1.0, dims)))
    tied = np.zeros((3, 3, 3))
    tied[1, 1, 1] = np.pi
    weight = np.ones((3, 3, 3))
    weight[0, 0, 0] = 2.0
    systems.append(PhaseTargets(tied, np.full((3, 3, 3), 0.1), weight))
    outcomes = [cycle_outcome(phases._reject_cycle, t) for t in systems]
    assert outcomes == [cycle_outcome(reference_reject_cycle, t) for t in systems]
    assert sum(o is not None for o in outcomes) >= 100
    # the first plane wins the tie
    assert outcomes[-1][0] == [(1, 1, 1), (1, 0, 1), (0, 1, 1), (0, 0, 1)]


@settings(max_examples=40)
@given(n=st.integers(3, 16), seed=st.integers(0, 2 ** 32 - 1))
def test_conjugate_pairs_are_no_with_a_violated_four_cycle(n, seed):
    # a complex tensor and its conjugate share spectra and core moduli, but
    # their phases are inconsistent: the decision names one 4-cycle through
    # the anchor whose angle exceeds the sum of its four slacks
    a = sample_tensor((n, n, n), RandomModel("gaussian", "complex", seed))
    b = Tensor3(a.data.conj())
    diag = decide_isomorphism(a, b).diagnostics
    assert (diag["step"], diag["solver_path"], len(diag["certificate"])) == ("phase_system", "cycle", 4)
    keys = [tuple(key) for key in diag["certificate"]]
    signs = np.array([1, -1, -1, 1])
    # the signed keys of M = z0 conj(z1) conj(z2) z3 cancel every variable
    for mode in range(3):
        assert not np.any(np.bincount([key[mode] for key in keys], signs, n))
    targets = compare_cores(*core_of(a, b), diag["threshold_modulus"]).phase_targets
    assert all(targets.weight[key] > 0 for key in keys)
    angle = abs(float(wrap_angle(np.dot(signs, [targets.phi[key] for key in keys]))))
    assert angle > sum(targets.slack[key] for key in keys)


@st.composite
def dense_phase_systems(draw):
    """Consistent complex systems on dims in [2, 8]^3 with at least 90% of the entries as targets.

    Each target's phi is off the planted angles by at most ``noise``, a
    third of the common slack at most, and zero in about half the draws.
    """
    dims = tuple(draw(st.integers(2, 8)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = math.prod(dims)
    keep = np.ones(size, dtype=bool)
    keep[rng.choice(size, draw(st.integers(0, size // 10)), replace=False)] = False
    idx = np.argwhere(keep.reshape(dims))
    slack = draw(st.floats(1e-6, 0.5))
    noise = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0 / 3.0))) * slack
    al, be, ga = (rng.uniform(-np.pi, np.pi, d) for d in dims)
    phi = wrap_angle(al[idx[:, 0]] + be[idx[:, 1]] + ga[idx[:, 2]] + rng.uniform(-noise, noise, len(idx)))
    weight = 10.0 ** rng.uniform(-1.0, 1.0, len(idx))
    return grid_targets(idx, phi, np.full(len(idx), slack), weight, dims), noise


@given(dense_phase_systems())
def test_dense_consistent_systems_meet_every_target(system):
    targets, noise = system
    event(f"noise == 0: {noise == 0.0}")
    out = solve_phases(targets)
    assert max_residual(out, targets) < targets.slack.max()
    if noise == 0.0:
        # every slice shares a target with the anchor's, so the closed form answers
        assert out.solver_path == "anchored"


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_decide_isomorphism_yes_on_haar_pairs(kind):
    for n in (8, 16, 24):
        a = sample_tensor((n, n, n), RandomModel("gaussian", kind, 300 + n))
        b = apply_action(sample_haar_triple((n, n, n), 400 + n, kind), a)
        d = decide_isomorphism(a, b)
        assert d.verdict == "yes", (n, d.diagnostics)
        assert d.residual <= d.diagnostics["residual_gate"]
        assert d.diagnostics["solver_path"] == ("gf2" if kind == "real" else "anchored")


def test_solve_phases_validation():
    with pytest.raises(ConfigInvalid):
        solve_phases(phase_targets({}, (2, 2, 2)))
    with pytest.raises(TypeError):  # the dims are the grid's shape, not an argument
        solve_phases(phase_targets({(0, 0, 0): (0.0, 0.1, 1.0)}, (1, 1, 1)), (1, 1, 1))
    # a residual strictly below the slack meets the target, however thin the slack
    thin = phase_targets({(0, 0, 0): (0.5, 1e-13, 1.0)}, (1, 1, 1))
    assert max_residual(solve_phases(thin), thin) < 1e-13
    dead = phase_targets({(0, 0, 0): (0.0, 0.0, 1.0)}, (1, 1, 1))
    with pytest.raises(Infeasible) as info:
        solve_phases(dead)
    assert (0, 0, 0) in info.value.certificate


def test_assemble_witness_identity_and_signs():
    a = sample_tensor((2, 2, 2), RandomModel("gaussian", "real", 64))
    ct = core_of(a)[0]
    eye_ct = type(ct)(core=a.data, bases=tuple(np.eye(2) for _ in range(3)), spectra=ct.spectra)
    zero_phase = Assignment(tuple(np.exp(1j * np.zeros(2)) for _ in range(3)), "synchronization")
    w = assemble_witness(eye_ct, eye_ct, zero_phase)
    for d in range(3):
        assert np.allclose(w[d], np.eye(2), atol=1e-15)
    assert w.scalar_kind == "complex"

    flip = Assignment(tuple(-np.ones(2) for _ in range(3)), "gf2")
    w2 = assemble_witness(eye_ct, eye_ct, flip)
    assert w2.scalar_kind == "real"
    for d in range(3):
        assert np.array_equal(w2[d], -np.eye(2))
    acted = apply_action(w2, a)
    assert np.array_equal(acted.data, -a.data)


def test_assemble_witness_end_to_end():
    for seed, kind in [(65, "real"), (66, "complex")]:
        a = sample_tensor((4, 4, 4), RandomModel("gaussian", kind, seed))
        g = sample_haar_triple((4, 4, 4), seed + 100, kind)
        b = apply_action(g, a)
        ca, cb = core_of(a, b)
        eps, k_norm = 1e-8, a.frobenius_norm + b.frobenius_norm
        cmp = compare_cores(ca, cb, 2.0 * eps * 4 ** 2 * k_norm / min(ca.min_gap, cb.min_gap))
        assignment = (solve_signs if kind == "real" else solve_phases)(cmp.phase_targets)
        w = assemble_witness(ca, cb, assignment)
        res = np.linalg.norm(apply_action(w, a).data - b.data)
        assert res <= 1e-6 * a.frobenius_norm


def test_assemble_witness_validation():
    a = core_of(sample_tensor((2, 2, 2), RandomModel("gaussian", "real", 67)))[0]
    short = Assignment((np.ones(3), np.ones(2), np.ones(2)), "identity")
    with pytest.raises(DimensionMismatch, match="mode-1"):
        assemble_witness(a, a, short)


@st.composite
def covering_sign_systems(draw):
    """Consistent sign systems on real dims 1-9 whose every slice shares a target with row 0's slices.

    Dense systems take every key.  Sparse ones take the three axis lines
    through a random centre plus random keys after it in sorted order, so
    the centre is row 0, the anchor among equal weights, and each slice
    meets one of its lines.
    """
    dims = tuple(draw(st.integers(1, 9)) for _ in range(3))
    g = [np.array(draw(st.lists(st.sampled_from((-1, 1)), min_size=d, max_size=d))) for d in dims]
    if draw(st.booleans()):
        keys = set(all_keys(dims))
    else:
        a, b, c = (draw(st.integers(0, d - 1)) for d in dims)
        keys = {(i, b, c) for i in range(dims[0])} | {(a, j, c) for j in range(dims[1])}
        keys |= {(a, b, k) for k in range(dims[2])}
        extra = draw(st.sets(st.tuples(*(st.integers(0, d - 1) for d in dims)), max_size=2 * sum(dims)))
        keys |= {k for k in extra if k > (a, b, c)}
    return {(i, j, k): int(g[0][i] * g[1][j] * g[2][k]) for (i, j, k) in keys}, dims


def _rhs(targets, dims):
    """The ``{key: +-1}`` system's -1 entries as a boolean grid."""
    rhs = np.zeros(dims, dtype=bool)
    for key, t in targets.items():
        rhs[key] = t < 0
    return rhs


@given(covering_sign_systems())
def test_propagated_signs_match_reference_oracle(system):
    # every slice sum is nonzero, so the anchored form answers on its own,
    # with the elimination's own answer: the last beta and gamma signs +1
    targets, dims = system
    fast = _anchored_signs(sign_targets(targets, dims), _rhs(targets, dims))
    assert fast is not None
    out = solve_signs(sign_targets(targets, dims))
    for got, part, ref in zip(out.diagonals, np.split(fast, np.cumsum(dims[:2])),
                              reference_solve_signs(targets, dims)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref) and np.array_equal(part, ref)


@st.composite
def weighted_sign_systems(draw):
    """Sign systems on dims in [1, 8]^3 with random weights, so any row can be the anchor.

    Entries are kept at any density from 5% to all.  Optionally only two
    diagonal blocks that share no variable are kept, one slice of a mode of
    size 2 or more is left untouched, and one target is flipped.  Returns
    the ``{key: +-1}`` dict for the oracle and the same system as
    PhaseTargets.
    """
    dims = tuple(draw(st.integers(1, 8)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = [rng.choice([-1, 1], d) for d in dims]
    keep = rng.random(dims) < draw(st.floats(0.05, 1.0))
    if draw(st.booleans()):
        c0, c1, c2 = (int(rng.integers(0, d + 1)) for d in dims)
        blocks = np.zeros(dims, dtype=bool)
        blocks[:c0, :c1, :c2] = blocks[c0:, c1:, c2:] = True
        keep &= blocks
    wide = [mode for mode in range(3) if dims[mode] > 1]
    if wide and draw(st.booleans()):
        mode = draw(st.sampled_from(wide))
        np.moveaxis(keep, mode, 0)[rng.integers(dims[mode])] = False
    idx = np.argwhere(keep)
    t = g[0][idx[:, 0]] * g[1][idx[:, 1]] * g[2][idx[:, 2]]
    if len(idx) and draw(st.booleans()):
        t[rng.integers(len(idx))] *= -1
    targets = {tuple(key): int(v) for key, v in zip(idx.tolist(), t)}
    phi = np.where(t < 0, math.pi, 0.0)
    return targets, dims, grid_targets(idx, phi, np.ones(len(idx)), rng.uniform(0.5, 2.0, len(idx)), dims)


@given(weighted_sign_systems())
def test_anchored_signs_equal_the_elimination_or_raise_its_certificate(system):
    # nonzero slice sums and every row met imply full rank, so whichever
    # target anchors the closed form, its answer is the elimination's
    targets, dims, weighted = system
    try:
        want = reference_solve_signs(targets, dims)
    except Infeasible as exc:
        with pytest.raises(Infeasible) as info:
            solve_signs(weighted)
        assert info.value.certificate == exc.certificate
        return
    out = solve_signs(weighted)
    for got, ref in zip(out.diagonals, want):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_elimination_runs_only_where_the_anchored_form_cannot_answer(monkeypatch):
    calls = []
    eliminate = phases._eliminate_signs

    def spy(*args):
        calls.append(len(args[0]))
        return eliminate(*args)

    monkeypatch.setattr(phases, "_eliminate_signs", spy)
    rng = np.random.default_rng(73)
    dims = (4, 3, 5)
    g = [rng.choice([-1, 1], d) for d in dims]

    def system(keys):
        return {(i, j, k): int(g[0][i] * g[1][j] * g[2][k]) for (i, j, k) in keys}

    def check(targets, eliminated):
        calls.clear()
        out = solve_signs(sign_targets(targets, dims))
        assert len(calls) == eliminated
        for got, ref in zip(out.diagonals, reference_solve_signs(targets, dims)):
            assert np.array_equal(got, ref)

    check(system(all_keys(dims)), eliminated=0)
    # two blocks with no shared variable: the second block's slice sums are zero
    check(system(list(itertools.product(range(2), range(2), range(3)))
                 + list(itertools.product(range(2, 4), range(2, 3), range(3, 5)))), eliminated=1)
    # gamma_4 is touched by no target
    check(system([k for k in all_keys(dims) if k[2] != 4]), eliminated=1)
    # one flipped target: the slice sums stay nonzero, but the full check fails
    bad = system(all_keys(dims))
    bad[(2, 1, 3)] = -bad[(2, 1, 3)]
    calls.clear()
    with pytest.raises(Infeasible) as info:
        solve_signs(sign_targets(bad, dims))
    assert len(calls) == 1
    with pytest.raises(Infeasible) as want:
        reference_solve_signs(bad, dims)
    assert info.value.certificate == want.value.certificate
    assert info.value.solver_path == "gf2"


@pytest.mark.parametrize("n", [8, 12, 16])
def test_real_orbit_witness_bytes_do_not_depend_on_the_fast_path(tmp_path, monkeypatch, capsys, n):
    a = sample_tensor((n, n, n), RandomModel("gaussian", "real", 500 + n))
    b = apply_action(sample_haar_triple((n, n, n), 600 + n, "real"), a)
    pa, pb = tmp_path / "a.t3b", tmp_path / "b.t3b"
    write_tensor(a, pa)
    write_tensor(b, pb)
    anchored = phases._anchored_signs
    answered = []

    def spy(*args):
        out = anchored(*args)
        answered.append(out is not None)
        return out

    runs = []
    for fast in (spy, lambda *args: None):
        monkeypatch.setattr(phases, "_anchored_signs", fast)
        w = tmp_path / "w.json"
        code = main(["iso", "--a", str(pa), "--b", str(pb), "--witness-out", str(w), "--json"])
        runs.append((code, capsys.readouterr().out, w.read_bytes()))
    assert answered == [True]
    assert runs[0][0] == 0 and runs[0] == runs[1]
