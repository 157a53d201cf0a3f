"""Self-tests of the benchmark's arithmetic and bookkeeping.

    python3 -m pytest bench
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import metrics
import run
import spans
import workloads
from workloads import Op

INF = math.inf
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def results(seconds, failed=(), wrong=()):
    return [{"seconds": [s], "refs": [0.5], "failed": i in failed, "wrong": i in wrong} for i, s in enumerate(seconds)]


def test_failed_ops_sort_above_completed_ops_in_the_median():
    # two failures among five ops push the median from the 3rd fastest to the 4th
    times = metrics.op_times(results([0.1, 0.5, 0.2, 0.4, 0.3], failed=(0, 2)))
    assert times[0] == INF and times[2] == INF
    assert metrics.rank_value(times, 50.0) == 0.5
    assert metrics.rank_value(metrics.op_times(results([0.1, 0.2, 0.3], failed=(0, 1))), 50.0) == INF


def test_fast_half_mean_ranks_failed_ops_slowest():
    assert metrics.fast_half_gmean([4.0, 1.0, 100.0, 9.0]) == pytest.approx(2.0)
    # a failure among the fast ops pushes the next slower op into the fast half
    assert metrics.fast_half_gmean([4.0, INF, 100.0, 9.0]) == pytest.approx(6.0)
    assert metrics.fast_half_gmean([INF, 1.0, INF, 9.0]) == pytest.approx(3.0)
    assert metrics.fast_half_gmean([INF, 1.0, INF, INF]) == INF


def test_failed_ops_sort_above_completed_ops_in_the_tail():
    secs = [float(i) for i in range(40)]
    assert metrics.tail(metrics.op_times(results(secs))) == (75.0, 29.0, 10)
    # eleven failures: the p75 rank lands on a failed op and the tail is infinite
    assert metrics.tail(metrics.op_times(results(secs, failed=range(11))))[1] == INF
    # ten failures, even of the fastest ops, leave the p75 rank on the slowest completed op
    assert metrics.tail(metrics.op_times(results(secs, failed=range(10)))) == (75.0, 39.0, 10)


@pytest.mark.parametrize("n, pct, beyond", [(19, 50.0, 9), (20, 50.0, 10), (40, 75.0, 10), (100, 90.0, 10),
                                            (199, 90.0, 19), (200, 95.0, 10), (1000, 99.0, 10)])
def test_tail_is_the_highest_percentile_with_ten_ops_beyond(n, pct, beyond):
    got_pct, value, got_beyond = metrics.tail([float(i) for i in range(n)])
    assert (got_pct, got_beyond) == (pct, beyond)
    assert value == float(n - 1 - beyond)


def test_per_op_time_is_the_median_over_passes():
    r = [{"seconds": [3.0, 1.0, 2.0], "failed": False, "wrong": False}]
    assert metrics.op_times(r) == [2.0]


def test_op_ratio_is_the_median_of_each_call_over_its_own_reference():
    r = [{"seconds": [2.0, 1.0, 3.0], "refs": [1.0, 0.25, 1.0], "failed": False, "wrong": False},
         {"seconds": [1.0], "refs": [1.0], "failed": True, "wrong": False}]
    # the host ran the second call twice as fast and its reference too: ratios 2, 4, 3
    assert metrics.op_ratios(r) == [3.0, INF]


def test_summary_counts_failures_and_wrong_verdicts_separately():
    s = metrics.summarize(results([1.0, 2.0, 3.0, 4.0], failed=(1, 2), wrong=(2,)), [0.3, 0.1, 0.2])
    assert s["ops_failed_frac"] == 0.5
    assert s["wrong_verdicts"] == 1
    assert s["setup_s"] == 0.2
    assert s["op_p50_s"] == 4.0
    assert s["op_fast_half_ref"] == pytest.approx(math.sqrt(2.0 * 8.0))
    assert "trials_per_s" not in s
    g = metrics.summarize([{"seconds": [1.0, 3.0], "refs": [1.0, 1.0], "failed": False, "wrong": False},
                           {"seconds": [2.0], "refs": [1.0], "failed": False, "wrong": False}], [0.1],
                          gaplab_trials=[10, 4])
    assert g["trials_per_s"] == 4.0


def test_result_line_counts_each_op_once_however_often_it_was_called():
    plain = [{"seconds": [1.0] * 5, "failed": True, "wrong": False},
             {"seconds": [1.0], "failed": False, "wrong": False},
             {"seconds": [1.0] * 3, "failed": False, "wrong": False}]
    assert metrics.op_counts(plain) == (3, 1)
    traced = [{"seconds": [1.0], "failed": False, "wrong": False},
              {"seconds": [1.0], "failed": True, "wrong": False},
              {"seconds": [1.0], "failed": False, "wrong": False}]
    assert metrics.op_counts(plain, traced) == (3, 2)


def decision_op(expect, **check):
    return Op(["iso"], expect, "test op", 2, check)


def report(verdict, step=None, **extra):
    return json.dumps({"verdict": verdict, "diagnostics": {"step": step}, **extra})


@pytest.mark.parametrize("expect, verdict, code, failed, wrong", [
    ("yes", "cannot_decide", 2, True, False),
    ("no", "cannot_decide", 2, True, False),
    ("yes", "no", 1, True, True),
    ("no", "no", 1, False, False),
    ("yes", "no", 0, True, False),  # the exit code contradicts the verdict
])
def test_judge_accounting(expect, verdict, code, failed, wrong):
    broken = []
    res = run.judge(decision_op(expect), code, report(verdict), None, broken)
    assert (res["failed"], res["wrong"]) == (failed, wrong)
    assert broken == []


@pytest.mark.parametrize("code, exc", [(3, None), (4, None), (None, RuntimeError("boom"))])
def test_judge_counts_errors_and_raises_as_failures(code, exc):
    res = run.judge(decision_op("yes"), code, "", exc, [])
    assert res["failed"] and not res["wrong"]


def write_witness(path, factors):
    doc = {"factors": [[[[float(x.real), float(x.imag)] for x in row] for row in f] for f in factors]}
    path.write_text(json.dumps(doc), encoding="ascii")


def test_yes_is_checked_against_the_witness_file(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3, 3)) + 0j
    q = [workloads.haar(rng, 3, "complex") for _ in range(3)]
    b = workloads.act(q, a)
    op = decision_op("yes", a=a, b=b, witness=tmp_path / "w.json")
    write_witness(op.check["witness"], q)
    broken = []
    res = run.judge(op, 0, report("yes", gamma_bound=1e-8 * np.linalg.norm(a)), None, broken)
    assert (res["failed"], broken) == (False, [])

    write_witness(op.check["witness"], [np.eye(3)] * 3)
    res = run.judge(op, 0, report("yes", gamma_bound=1e-8 * np.linalg.norm(a)), None, broken)
    assert res["failed"] and len(broken) == 1 and "residual" in broken[0]

    write_witness(op.check["witness"], [2 * m for m in q])
    with pytest.raises(checks.BrokenYes, match="residual|unitarity"):
        checks.check_witness(op, {"gamma_bound": 1e3})


def test_hypergraph_yes_must_map_edges_exactly():
    g = np.array([[0, 0, 0], [1, 1, 0]])
    op = Op(["hyper"], "yes", "test op", 2, {"g": g, "h": np.array([[1, 1, 1], [0, 0, 1]])})
    checks.check_perms(op, {"perms": [[2, 1], [2, 1], [2, 1]]})
    with pytest.raises(checks.BrokenYes):
        checks.check_perms(op, {"perms": [[1, 2], [1, 2], [1, 2]]})


def test_self_time_subtracts_direct_children():
    t = spans.Tracer()
    t.spans = [["cli.main", 0.0, 10.0, None, 0], ["hosvd.core_of", 1.0, 4.0, 0, 0],
               ["spectral.eig_hermitian", 2.0, 3.0, 1, 0], ["phases.solve_phases", 5.0, 9.0, 0, 0]]
    st = t.self_times()
    assert st["cli.main"] == [3.0, 1]
    assert st["hosvd.core_of"] == [2.0, 1]
    assert st["spectral.eig_hermitian"] == [1.0, 1]
    assert st["phases.solve_signs"] == [0.0, 0]


def test_tracer_restores_every_wrapped_function():
    import otiso.decision

    original = otiso.decision.core_of
    t = spans.Tracer()
    t.install()
    assert otiso.decision.core_of is not original
    t.close()
    assert otiso.decision.core_of is original


def test_inputs_depend_only_on_seed_and_workload(tmp_path):
    digests = []
    for name, seed in [("gaplab", 1), ("gaplab", 1), ("gaplab", 2)]:
        work = tmp_path / f"{name}-{seed}-{len(digests)}"
        work.mkdir()
        digests.append(workloads.digest(workloads.generate(name, seed, work), work))
    assert digests[0] == digests[1] != digests[2]
    assert workloads.workload_rng(1, "hyper").random() != workloads.workload_rng(1, "gaplab").random()


def test_lattice_puts_one_point_at_each_stratum_centre():
    u, v = workloads.lattice(16)
    for x in (u, v):
        assert sorted(np.floor(x * 16).astype(int)) == list(range(16))
        assert np.allclose(np.sort(x) * 16 % 1, 0.5)


def test_printed_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.END_TO_END) <= set(run.REPORTED)
