"""Metric arithmetic over per-op results, kept free of I/O so it can be tested alone.

A failed op sorts above every completed op: its time is ``inf``.  A fix
that turns a cheap refusal into a slower correct answer therefore lowers
the percentiles, and the reverse raises them.
"""

from __future__ import annotations

import math
import statistics

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def rank_value(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``pct`` % of values at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct * len(ordered) / 100.0)) - 1]


def fast_half_gmean(values) -> float:
    """Geometric mean of the fastest half (rounded up); ``inf`` once a failure ranks in that half.

    Like the median it ignores how slow the slow half is, but it averages
    over half the ops instead of resting on one, so it moves far less when a
    single op changes rank.
    """
    ordered = sorted(values)[: math.ceil(len(values) / 2)]
    if math.inf in ordered:
        return math.inf
    return math.exp(statistics.fmean(math.log(v) for v in ordered))


def op_times(results) -> list:
    """Per-op seconds (median over its calls), ``inf`` for an op that failed in any call."""
    return [math.inf if r["failed"] else statistics.median(r["seconds"]) for r in results]


def op_counts(*runs) -> tuple:
    """(attempted, failed), counting each op once, failed if any of its calls failed.

    ``runs`` are per-op result lists over the same ops (untraced, traced).
    How often an op is called depends on how fast the host runs it; which
    ops there are and which of them fail depends only on the seed.
    """
    return len(runs[0]), sum(any(run[i]["failed"] for run in runs) for i in range(len(runs[0])))


def op_ratios(results) -> list:
    """Per-op median over its calls of call seconds / reference seconds, ``inf`` for an op that failed."""
    return [math.inf if r["failed"] else statistics.median(s / ref for s, ref in zip(r["seconds"], r["refs"]))
            for r in results]


def tail(times) -> tuple:
    """(percentile, value, ops beyond): the highest percentile with >= TAIL_BEYOND ops above its rank.

    With fewer than 2 * TAIL_BEYOND ops no percentile qualifies and the
    median is reported with the count actually beyond it.
    """
    n = len(times)
    beyond = lambda pct: n - math.ceil(pct * n / 100.0)
    pct = next((p for p in TAIL_PERCENTILES if beyond(p) >= TAIL_BEYOND), TAIL_PERCENTILES[-1])
    return pct, rank_value(times, pct), beyond(pct)


def summarize(results, setup_samples, gaplab_trials=None) -> dict:
    """Every end-to-end figure for one untraced run.

    ``results`` holds one dict per op: ``seconds`` and ``refs`` (one entry
    per call: its time and the reference timed after it), ``failed`` and
    ``wrong`` (booleans).  ``gaplab_trials`` lists the
    Monte Carlo trials of each op's single call.
    """
    times = op_times(results)
    pct, tail_value, beyond = tail(times)
    out = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_s": rank_value(times, 50.0),
        "op_fast_half_s": fast_half_gmean(times),
        "op_fast_half_ref": fast_half_gmean(op_ratios(results)),
        "op_tail_s": tail_value,
        "op_tail_pct": pct,
        "op_tail_beyond": beyond,
        "ops": len(results),
        "ops_failed_frac": sum(r["failed"] for r in results) / len(results),
        "wrong_verdicts": sum(r["wrong"] for r in results),
    }
    if gaplab_trials is not None:
        out["trials_per_s"] = sum(gaplab_trials[i] * len(r["seconds"]) for i, r in enumerate(results)) / sum(
            sum(r["seconds"]) for r in results)
    return out
