"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Every criterion prints a single ``[criterion N] PASS/FAIL`` summary before
asserting, so the full scorecard is visible in one pytest run.
"""

import itertools
import json
import time

import numpy as np

from otiso import (
    GapExperiment,
    Infeasible,
    RandomModel,
    Tensor3,
    TripartiteHypergraph,
    apply_action,
    decide_hypergraph_iso,
    decide_isomorphism,
    decide_orbit_distance,
    relabel,
    run_gap_experiment,
    sample_haar_triple,
    sample_tensor,
    verify_witness,
    write_hypergraph,
    write_tensor,
)
from otiso.gaps import gap_target
from otiso.hosvd import PhaseTargets
from otiso.phases import solve_phases, solve_signs, wrap_angle
from otiso.spectral import eig_hermitian
from otiso.tensor import flatten, gram
from otiso.cli import main

from helpers import BETA_CALIBRATED, PILOT_MEDIANS, log_slope, random_hypergraph, random_perm_triple, unflatten

VERIFY_TOL = 1e-6


def report(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_orbit_completeness():
    counts = {}
    worst_t = 0.0
    for n in (8, 12, 16):
        yes = cd = 0
        for seed in range(100):
            a = sample_tensor((n, n, n), RandomModel("gaussian", "real", 1000 + seed))
            g = sample_haar_triple((n, n, n), 20000 + seed, "real")
            b = apply_action(g, a)
            t0 = time.perf_counter()
            d = decide_isomorphism(a, b)
            if n == 16:
                worst_t = max(worst_t, time.perf_counter() - t0)
            if d.verdict == "yes":
                rep = verify_witness(a, b, d.witness)
                assert rep.residual <= VERIFY_TOL * a.frobenius_norm
                yes += 1
            elif d.verdict == "cannot_decide":
                cd += 1
        counts[n] = (yes, cd)
    ok = all(yes >= 98 and yes + cd == 100 for yes, cd in counts.values()) and worst_t <= 5.0
    report(1, ok, f"YES per n {counts} (need >=98, rest cannot_decide); "
                  f"every YES re-verified at {VERIFY_TOL}*|A|; worst n=16 time {worst_t:.3f}s <= 5s")


def test_criterion_02_soundness():
    no = cd = yes_unverified = 0
    for seed in range(100):
        a = sample_tensor((12, 12, 12), RandomModel("gaussian", "real", 3000 + seed))
        b = sample_tensor((12, 12, 12), RandomModel("gaussian", "real", 30000 + seed))
        d = decide_isomorphism(a, b)
        if d.verdict == "no":
            no += 1
        elif d.verdict == "yes":
            if d.witness is None or verify_witness(a, b, d.witness).residual > VERIFY_TOL * a.frobenius_norm:
                yes_unverified += 1
        else:
            cd += 1
    ok = no >= 99 and yes_unverified == 0
    report(2, ok, f"independent pairs: NO {no}/100 (need >=99), cannot_decide {cd}, "
                  f"unverified YES {yes_unverified} (hard zero)")


def test_criterion_03_gapped_decision():
    n = 10
    yes = no = 0
    for seed in range(100):
        a = sample_tensor((n, n, n), RandomModel("gaussian", "real", 5000 + seed))
        g = sample_haar_triple((n, n, n), 50000 + seed, "real")
        b0 = apply_action(g, a)
        delta = min(eig_hermitian(gram(a, m)).min_gap for m in (1, 2, 3))
        eps = delta / (8.0 * (a.frobenius_norm + b0.frobenius_norm))
        gamma = 8.0 * n ** 3.5 * a.frobenius_norm ** 2 * eps / delta
        e = sample_tensor((n, n, n), RandomModel("gaussian", "real", 55000 + seed))

        near = Tensor3(b0.data + (0.5 * eps / e.frobenius_norm) * e.data)
        d1 = decide_orbit_distance(a, near, eps)
        if d1.verdict == "yes" and d1.residual <= gamma:
            yes += 1

        far = Tensor3(b0.data + (2.0 * d1.gamma_bound / e.frobenius_norm) * e.data)
        if decide_orbit_distance(a, far, eps).verdict == "no":
            no += 1
    ok = yes >= 95 and no >= 95
    report(3, ok, f"perturbation |E|=eps/2: YES with residual <= 8 n^3.5 |A|^2 eps/delta "
                  f"in {yes}/100; |E|=2*gamma: NO in {no}/100 (need >=95 each)")


def test_criterion_04_simplicity_frequency():
    freqs = {}
    for n in (10, 14, 18):
        for dist in ("rademacher", "gaussian"):
            simple = 0
            for trial in range(100):
                a = sample_tensor((n, n, n), RandomModel(dist, "real", 4000 + trial))
                if all(
                    (s := eig_hermitian(gram(a, mode))).min_gap > s.degeneracy_floor()
                    for mode in (1, 2, 3)
                ):
                    simple += 1
            freqs[(n, dist)] = simple
    ok = all(v >= 99 for v in freqs.values())
    detail = ", ".join(f"n={n} {d}: {v}%" for (n, d), v in freqs.items())
    report(4, ok, f"all-mode simple spectra (need >=99%): {detail}")


def test_criterion_05_gap_scaling():
    t0 = time.perf_counter()
    ns = [100, 200, 400, 800]
    medians = []
    for n in ns:
        cfg = GapExperiment(n, 0.6, 100, RandomModel("gaussian", "real", 0), zeta=0.5)
        r = run_gap_experiment(cfg)
        medians.append(float(np.median([rec.min_gap for rec in r.records])))
    elapsed = time.perf_counter() - t0
    slope = log_slope(ns, medians)
    pred = log_slope(ns, [gap_target(n, 0.5, BETA_CALIBRATED) for n in ns])
    diff = abs(slope - pred)
    pilot_match = all(abs(medians[i] - PILOT_MEDIANS[n]) <= 1e-9 for i, n in enumerate(ns))
    ok = diff <= 0.25 and elapsed <= 600.0 and pilot_match
    report(5, ok, f"median gaps {[round(m, 4) for m in medians]} reproduce recorded pilot; "
                  f"slope {slope:.4f} vs predicted {pred:.4f} at beta={BETA_CALIBRATED} "
                  f"(|diff| {diff:.4f} <= 0.25); sweep {elapsed:.1f}s <= 600s")


def test_criterion_06_perturbation_bounds():
    rng = np.random.default_rng(606)
    hw_ok = trunc_ok = 0
    trials = 1000
    for _ in range(trials):
        n = int(rng.integers(2, 31))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g = (m + m.conj().T) / 2.0
        e0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        e = (e0 + e0.conj().T) / 2.0 * 10.0 ** rng.uniform(-8, 0)
        lam = eig_hermitian(g).eigenvalues
        lam_p = eig_hermitian(g + e).eigenvalues
        if np.linalg.norm(lam - lam_p) <= np.linalg.norm(e) + 1e-12 * np.linalg.norm(g):
            hw_ok += 1
        bits = int(rng.integers(10, 40))
        gt = np.round(g * 2.0 ** bits) / 2.0 ** bits
        de = gt - g
        dev = float(np.max(np.abs(lam - eig_hermitian(gt).eigenvalues)))
        if dev <= n * float(np.max(np.abs(de))) + 1e-15:
            trunc_ok += 1
    ok = hw_ok == trials and trunc_ok == trials
    report(6, ok, f"sorted-spectrum l2 deviation <= |E|_F in {hw_ok}/{trials}; "
                  f"entrywise truncation deviation <= n*max|dE| in {trunc_ok}/{trials}")


def test_criterion_07_action_invariance():
    rng = np.random.default_rng(707)
    passed = 0
    trials = 500
    for trial in range(trials):
        dims = tuple(int(rng.integers(2, 7)) for _ in range(3))
        kind = "complex" if trial % 2 else "real"
        a = sample_tensor(dims, RandomModel("gaussian", kind, 7000 + trial))
        g = sample_haar_triple(dims, 70000 + trial, kind)
        h = sample_haar_triple(dims, 77000 + trial, kind)
        b = apply_action(g, a)
        ok = abs(b.frobenius_norm - a.frobenius_norm) <= 1e-12 * a.frobenius_norm
        for mode in (1, 2, 3):
            x = g[mode - 1]
            cov = x @ gram(a, mode) @ x.conj().T
            ok = ok and np.linalg.norm(gram(b, mode) - cov) <= 1e-10 * a.frobenius_norm ** 2
        lhs = apply_action(g, apply_action(h, a))
        rhs = apply_action(g.compose(h), a)
        ok = ok and np.linalg.norm(lhs.data - rhs.data) <= 1e-10 * a.frobenius_norm
        for mode in (1, 2, 3):
            ok = ok and np.array_equal(unflatten(flatten(a, mode), mode, dims).data, a.data)
        passed += ok
    ok = passed == trials
    report(7, ok, f"Frobenius invariance, Gram covariance, composition, "
                  f"flatten round trip all held in {passed}/{trials} instances")


def test_criterion_08_solver_oracle_equivalence():
    rng = np.random.default_rng(808)
    agree = 0
    for _ in range(200):
        keys = [k for k in itertools.product(range(2), repeat=3) if rng.random() < 0.7]
        targets = {k: int(rng.choice([-1, 1])) for k in keys}
        brute = any(
            all(bits[i] * bits[2 + j] * bits[4 + k] == t for (i, j, k), t in targets.items())
            for bits in itertools.product((1, -1), repeat=6)
        )
        # sign -1 is the angle pi; the targets are the entries of weight 1
        phi, weight = np.zeros((2, 2, 2)), np.zeros((2, 2, 2))
        for k in keys:
            phi[k], weight[k] = (0.0 if targets[k] == 1 else np.pi), 1.0
        signs = PhaseTargets(phi, np.ones((2, 2, 2)), weight)
        try:
            s1, s2, s3 = solve_signs(signs).diagonals
            mine = all(s1[i] * s2[j] * s3[k] == t for (i, j, k), t in targets.items())
        except Infeasible:
            mine = False
        agree += (mine == brute)

    worst = 0.0
    for _ in range(200):
        dims = tuple(int(rng.integers(2, 5)) for _ in range(3))
        al, be, ga = (rng.uniform(-np.pi, np.pi, d) for d in dims)
        idx = np.array(list(itertools.product(*(range(d) for d in dims))))
        i, j, k = idx.T
        phi = wrap_angle(al[i] + be[j] + ga[k])
        # idx enumerates the grid in C order, so the rows reshape onto it
        out = solve_phases(PhaseTargets(phi.reshape(dims), np.full(dims, 1e-3), np.ones(dims)))
        alpha, beta, gamma = (np.angle(d) for d in out.diagonals)
        s = alpha[i] + beta[j] + gamma[k]
        worst = max(worst, float(np.max(np.abs(wrap_angle(s - phi)))))
    ok = agree == 200 and worst <= 1e-8
    report(8, ok, f"sign feasibility matches exhaustive enumeration 200/200 "
                  f"(got {agree}); forward phase products recovered to {worst:.2e} (<=1e-8)")


def test_criterion_09_hypergraph_relabeling():
    yes = cd = wrong = 0
    for seed in range(50):
        g = random_hypergraph((10, 10, 10), seed=9000 + seed)
        pt = random_perm_triple((10, 10, 10), seed=9500 + seed)
        h = relabel(g, pt)
        d = decide_hypergraph_iso(g, h)
        if d.verdict == "yes":
            if relabel(g, d.perms).edges == h.edges:
                yes += 1
            else:
                wrong += 1
        elif d.verdict == "cannot_decide":
            cd += 1
        else:
            wrong += 1
    toggled_no = 0
    for seed in range(50):
        g = random_hypergraph((10, 10, 10), seed=9000 + seed)
        edges = set(g.edges)
        edges.symmetric_difference_update({(0, 0, 0)})
        if decide_hypergraph_iso(g, TripartiteHypergraph((10, 10, 10), edges)).verdict == "no":
            toggled_no += 1
    ok = wrong == 0 and cd <= 1 and toggled_no == 50
    report(9, ok, f"relabeled: YES with exact permutations {yes}/50, cannot_decide {cd} (<=1), "
                  f"failures {wrong} (must be 0); one-edge toggles: NO {toggled_no}/50")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    checks = []

    pa1, pa2 = tmp_path / "a1.t3b", tmp_path / "a2.t3b"
    for p in (pa1, pa2):
        assert run(["gen", "--dims", "8", "8", "8", "--model", "gaussian",
                    "--seed", "7", "--out", str(p), "--quiet"])[0] == 0
    checks.append(("gen t3b", pa1.read_bytes() == pa2.read_bytes()))

    a = sample_tensor((5, 5, 5), RandomModel("gaussian", "real", 10000))
    b = apply_action(sample_haar_triple((5, 5, 5), 10001, "real"), a)
    pa, pb = tmp_path / "a.t3b", tmp_path / "b.t3b"
    write_tensor(a, pa)
    write_tensor(b, pb)
    wout = tmp_path / "w.json"
    iso_argv = ["iso", "--a", str(pa), "--b", str(pb), "--witness-out", str(wout), "--json"]
    c1, o1 = run(iso_argv)
    w1 = wout.read_bytes()
    c2, o2 = run(iso_argv)
    checks.append(("iso json+witness", c1 == c2 == 0 and o1 == o2 and w1 == wout.read_bytes()))
    report_doc = json.loads(o1)
    eps = report_doc["diagnostics"]["delta"] / (8.0 * (a.frobenius_norm + b.frobenius_norm))
    dist_argv = ["dist", "--a", str(pa), "--b", str(pb), "--eps", repr(eps), "--json"]
    d1, do1 = run(dist_argv)
    d2, do2 = run(dist_argv)
    checks.append(("dist json", d1 == d2 == 0 and do1 == do2))

    csv_path = tmp_path / "g.csv"
    gaps_argv = ["gaps", "--n", "60", "--zeta", "0.5", "--trials", "25",
                 "--seed", "5", "--csv", str(csv_path), "--json"]
    g1, go1 = run(gaps_argv)
    b1 = csv_path.read_bytes()
    g2, go2 = run(gaps_argv)
    checks.append(("gaps json+csv", g1 == g2 == 0 and go1 == go2 and b1 == csv_path.read_bytes()))

    hg = random_hypergraph((6, 6, 6), seed=10002)
    hh = relabel(hg, random_perm_triple((6, 6, 6), seed=10003))
    pg, ph = tmp_path / "g.txt", tmp_path / "h.txt"
    write_hypergraph(hg, pg)
    write_hypergraph(hh, ph)
    hyper_argv = ["hyper", "--g", str(pg), "--h", str(ph), "--json"]
    h1, ho1 = run(hyper_argv)
    h2, ho2 = run(hyper_argv)
    checks.append(("hyper json", h1 == h2 and ho1 == ho2))

    verify_argv = ["verify", "--a", str(pa), "--b", str(pb), "--witness", str(wout), "--json"]
    v1, vo1 = run(verify_argv)
    v2, vo2 = run(verify_argv)
    checks.append(("verify json", v1 == v2 == 0 and vo1 == vo2))

    ok = all(flag for _, flag in checks)
    detail = "; ".join(f"{name} {'ok' if flag else 'DIFFERS'}" for name, flag in checks)
    print()
    report(10, ok, f"byte-identical reruns: {detail}")
