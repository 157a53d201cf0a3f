"""Random Gram spectra experiments: targets, bounds, CSV round trips."""

import math

import numpy as np
import pytest

from otiso import (
    ConfigInvalid,
    FormatError,
    GapExperiment,
    GapReport,
    RandomModel,
    Tensor3,
    emit_csv,
    read_csv,
    run_gap_experiment,
    run_tensor_gram_experiment,
    sample_tensor,
)
from otiso.gaps import (
    TrialRecord,
    bound_probability,
    gap_target,
    tensor_gap_target,
)
from otiso.spectral import eig_hermitian
from otiso.tensor import generator, gram, sample_entries
from otiso.gaps import BETA_EXPERIMENT, _spectrum_record

from helpers import BETA_CALIBRATED, log_slope, survival_curve

GAUSS = RandomModel("gaussian", "real", 2024)


def test_target_and_bound_formulas():
    assert gap_target(100, 0.5, 0.6) == (100 ** 0.25 - 1.0) * 100 ** -0.6
    assert bound_probability(10, 0.5, 0.6) == 1.0 - 10 ** -0.1
    assert bound_probability(10, 0.5, 0.4) == 0.0  # clamped
    assert bound_probability(10, 0.5, 50.0) == 1.0 - 10 ** -49.5
    assert tensor_gap_target(5, 0.6) == 4.0 * 5 ** (-3.0 * 0.6)


def test_log_slope_exact_power_law():
    xs = np.array([100.0, 200.0, 400.0, 800.0])
    assert abs(log_slope(xs, 3.0 * xs ** 0.7) - 0.7) <= 1e-12
    with pytest.raises(ConfigInvalid):
        log_slope([10.0], [1.0])


def test_experiment_config_validation():
    with pytest.raises(ConfigInvalid):
        GapExperiment(4, 0.6, 10, GAUSS)  # neither zeta nor p
    with pytest.raises(ConfigInvalid):
        GapExperiment(4, 0.6, 10, GAUSS, zeta=0.5, p=2)  # both
    with pytest.raises(ConfigInvalid):
        GapExperiment(4, 0.6, 10, GAUSS, zeta=1.5)
    with pytest.raises(ConfigInvalid):
        GapExperiment(4, 0.6, 10, GAUSS, zeta=0.1)  # floor(4^0.1) = 1 < 2
    with pytest.raises(ConfigInvalid):
        GapExperiment(100, 0.3, 10, GAUSS, zeta=0.5)  # beta <= zeta
    with pytest.raises(ConfigInvalid):
        run_gap_experiment(GapExperiment(4, 0.6, 0, GAUSS, p=2))
    cfg = GapExperiment(100, 0.6, 10, GAUSS, p=10)
    assert cfg.resolved_p == 10
    assert abs(cfg.effective_zeta - 0.5) <= 1e-12
    assert GapExperiment(100, 0.6, 10, GAUSS, zeta=0.5).resolved_p == 10


def test_spectrum_record_frozen_singular_values():
    mat = np.zeros((4, 2))
    mat[0, 0] = 3.0
    mat[1, 1] = 1.0
    rec = _spectrum_record(7, 99, [eig_hermitian(mat.T @ mat, vectors=False)])
    assert rec.trial == 7 and rec.seed == 99
    assert rec.min_gap == 8.0  # eigenvalues of Gram are exactly (9, 1)
    assert rec.smin == 1.0 and rec.smax == 3.0
    assert rec.simple
    # several spectra (the tensor modes): min gap and extremes over all, simple only if every one is
    modes = [eig_hermitian(np.diag(d), vectors=False) for d in ([9.0, 1.0], [16.0, 4.0, 4.0], [2.0, 0.25])]
    rec = _spectrum_record(0, 1, modes)
    assert rec.min_gap == 0.0 and not rec.simple
    assert rec.smin == 0.5 and rec.smax == 4.0


def _assert_matches_vectors_replay(records, grams_of_trial):
    # replay every trial through the default (vectors) path and the seed's record rules
    for rec in records:
        spectra = [eig_hermitian(g) for g in grams_of_trial(rec.trial)]
        lam_max = max(float(s.eigenvalues[0]) for s in spectra)
        smin = min(math.sqrt(max(float(s.eigenvalues[-1]), 0.0)) for s in spectra)
        smax = math.sqrt(max(lam_max, 0.0))
        min_gap = min(s.min_gap for s in spectra)
        # values-only eigenvalues may differ in the last ulp, which is 1e-16 of the
        # largest eigenvalue but can exceed 1e-12 of a small gap, so the gap is
        # compared on the spectrum's scale
        assert abs(rec.min_gap - min_gap) <= 1e-12 * lam_max
        assert math.isclose(rec.smin, smin, rel_tol=1e-12)
        assert math.isclose(rec.smax, smax, rel_tol=1e-12)
        assert rec.simple == all(s.min_gap > s.degeneracy_floor() for s in spectra)


def test_matrix_records_match_vectors_path():
    for model in (GAUSS, RandomModel("rademacher", "complex", 77)):
        cfg = GapExperiment(200, 0.6, 6, model, zeta=0.5)
        report = run_gap_experiment(cfg)

        def grams(trial):
            m = sample_entries(generator(model.seed, trial), model, (cfg.n, cfg.resolved_p))
            return [m.conj().T @ m]

        _assert_matches_vectors_replay(report.records, grams)


def test_tensor_records_match_vectors_path():
    for model, eta in ((RandomModel("gaussian", "real", 8), None),
                       (RandomModel("gaussian", "complex", 9), None),
                       (RandomModel("gaussian", "real", 10), 0.5)):
        n = 7
        report = run_tensor_gram_experiment(n, model, 5, eta=eta)

        def grams(trial):
            a = sample_tensor((n, n, n), model, stream=(trial,))
            if eta is not None:
                a = Tensor3(np.ones((n, n, n)) + eta * a.data)
            return [gram(a, mode) for mode in (1, 2, 3)]

        _assert_matches_vectors_replay(report.records, grams)


def test_single_column_is_degenerate_but_simple():
    report = run_gap_experiment(GapExperiment(4, 0.6, 5, GAUSS, p=1))
    assert report.degenerate
    for r in report.records:
        assert r.simple
        assert math.isinf(r.min_gap)


def test_matrix_experiment_medium_n():
    cfg = GapExperiment(400, BETA_EXPERIMENT, 200, GAUSS, zeta=0.5)
    report = run_gap_experiment(cfg)
    assert report.simple_freq == 1.0
    assert report.prob_ge_target >= report.bound_prob
    assert report.bound_prob == bound_probability(400, 0.5, BETA_EXPERIMENT)
    med = float(np.median([r.min_gap for r in report.records]))
    target = gap_target(400, 0.5, BETA_CALIBRATED)
    ratio = med / target
    assert 0.1 <= ratio <= 10.0
    assert report.meta["n"] == 400 and report.meta["p"] == 20


def test_rademacher_simplicity():
    # discrete entries: collisions die out once the Gram is moderately sized
    model = RandomModel("rademacher", "real", 11)
    report = run_gap_experiment(GapExperiment(100, 0.9, 100, model, zeta=0.5))
    assert report.simple_freq >= 0.99


def test_trial_rng_reproducible_and_trace_identity():
    cfg = GapExperiment(30, 0.6, 8, GAUSS, zeta=0.5)
    report = run_gap_experiment(cfg)
    p = cfg.resolved_p
    for rec in report.records:
        rng = generator(GAUSS.seed, rec.trial)
        m = sample_entries(rng, GAUSS, (30, p))
        g = m.conj().T @ m
        lam = np.linalg.eigvalsh(g)
        # spectrum of the re-derived matrix matches the recorded extremes
        assert abs(math.sqrt(lam[-1]) - rec.smax) <= 1e-10 * max(rec.smax, 1.0)
        assert abs(math.sqrt(max(lam[0], 0.0)) - rec.smin) <= 1e-10 * max(rec.smax, 1.0)
        assert abs(np.trace(g) - np.linalg.norm(m) ** 2) <= 1e-10 * np.linalg.norm(m) ** 2


def test_singular_value_window():
    report = run_gap_experiment(GapExperiment(100, 0.6, 100, GAUSS, p=10))
    root_n, root_p, c = math.sqrt(100), math.sqrt(10), 6.0
    inside = [abs(r.smax - root_n) <= c * root_p and abs(r.smin - root_n) <= c * root_p
              for r in report.records]
    assert np.mean(inside) == 1.0


def test_experiment_deterministic():
    cfg = GapExperiment(50, 0.6, 10, GAUSS, zeta=0.5)
    assert run_gap_experiment(cfg) == run_gap_experiment(cfg)


def test_tensor_experiment_eta_sweep():
    model = RandomModel("gaussian", "real", 5)
    flat = run_tensor_gram_experiment(6, model, 20, eta=0.0)
    assert flat.simple_freq == 0.0
    rough = run_tensor_gram_experiment(6, model, 20, eta=5.0)
    assert rough.simple_freq == 1.0
    assert rough.bound_prob == bound_probability(36, 0.5, BETA_EXPERIMENT)
    assert rough.meta["kind"] == "tensor"
    with pytest.raises(ConfigInvalid):
        run_tensor_gram_experiment(2, model, 5, eta=1.0)
    with pytest.raises(ConfigInvalid):
        run_tensor_gram_experiment(6, model, 5, eta=-1.0)


def test_survival_curve_monotone():
    report = run_gap_experiment(GapExperiment(40, 0.6, 30, GAUSS, zeta=0.5))
    ts = [0.0, 0.01, 0.1, 1.0, 10.0, 1e6]
    curve = survival_curve(report.records, ts)
    assert curve[0] == 1.0
    assert all(a >= b for a, b in zip(curve, curve[1:]))
    assert survival_curve([], ts) == [0.0] * len(ts)


def test_csv_round_trip(tmp_path):
    cfg = GapExperiment(25, 0.6, 3, GAUSS, zeta=0.5)
    report = run_gap_experiment(cfg)
    path = tmp_path / "gaps.csv"
    emit_csv(report, path)
    back = read_csv(path)
    assert back.records == report.records  # repr() floats round-trip exactly
    assert back.target == report.target
    assert back.prob_ge_target == report.prob_ge_target
    assert back.simple_freq == report.simple_freq
    assert back.simple_freq == float(np.mean([r.simple for r in report.records]))
    assert back.degenerate == report.degenerate


def test_csv_empty_report(tmp_path):
    empty = GapReport(records=(), target=1.0, bound_prob=0.5, prob_ge_target=0.0,
                      simple_freq=0.0, degenerate=False)
    path = tmp_path / "empty.csv"
    emit_csv(empty, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2  # header + aggregate footer
    assert lines[0] == "trial,seed,min_gap,simple,smin,smax"
    back = read_csv(path)
    assert back.records == ()
    assert back.target == 1.0


def test_csv_format_errors(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("nope,nope\n")
    with pytest.raises(FormatError):
        read_csv(bad_header)
    no_footer = tmp_path / "b.csv"
    no_footer.write_text("trial,seed,min_gap,simple,smin,smax\n0,1,0.5,true,1.0,2.0\n")
    with pytest.raises(FormatError):
        read_csv(no_footer)
    bad_row = tmp_path / "c.csv"
    bad_row.write_text(
        "trial,seed,min_gap,simple,smin,smax\n"
        "0,1,oops,true,1.0,2.0\n"
        '#aggregate,target=1.0,bound_prob=0.5,prob_ge_target=1.0,simple_freq=1.0,degenerate=false\n'
    )
    with pytest.raises(FormatError):
        read_csv(bad_row)


def test_csv_non_ascii_byte_is_format_error(tmp_path):
    # "tru\xe9" decodes under latin-1 and would parse as simple=false, so only
    # an ASCII read rejects it, whatever the locale
    path = tmp_path / "latin1.csv"
    path.write_bytes(
        b"trial,seed,min_gap,simple,smin,smax\n"
        b"0,1,0.5,tru\xe9,1.0,2.0\n"
        b"#aggregate,target=1.0,bound_prob=0.5,prob_ge_target=1.0,simple_freq=1.0,degenerate=false\n"
    )
    with pytest.raises(FormatError):
        read_csv(path)
