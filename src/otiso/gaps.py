"""Monte-Carlo lab for spectral-gap behaviour of tall Gram matrices and tensor Grams."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigInvalid, FormatError
from .hosvd import mode_spectra
from .spectral import eig_hermitian
from .tensor import RandomModel, Tensor3, generator, sample_entries, sample_tensor

# Not called here: bench/spans.py wraps this name on this module.
from .tensor import gram  # noqa: F401

# In-regime exponent used for probability bookkeeping at zeta = 0.5
# (requires beta > zeta).
BETA_EXPERIMENT = 0.6


@dataclass(frozen=True)
class GapExperiment:
    """Config for the tall-matrix Gram experiment: p = floor(n^zeta) columns, n rows."""

    n: int
    beta: float
    trials: int
    model: RandomModel
    zeta: float | None = None
    p: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ConfigInvalid("n must be >= 1")
        if not math.isfinite(self.beta):
            raise ConfigInvalid(f"beta must be finite, got {self.beta}")
        if self.trials < 1:
            raise ConfigInvalid("trials must be >= 1")
        if (self.zeta is None) == (self.p is None):
            raise ConfigInvalid("give exactly one of zeta or p")
        if self.zeta is not None:
            if not (0.0 < self.zeta < 1.0):
                raise ConfigInvalid("zeta must lie in (0, 1)")
            if self.resolved_p < 2:
                raise ConfigInvalid(f"p = floor(n^zeta) = {self.resolved_p} < 2")
        elif self.p < 1:
            raise ConfigInvalid("p must be >= 1")
        if self.beta <= self.effective_zeta and self.zeta is not None:
            raise ConfigInvalid(f"beta={self.beta} must exceed zeta={self.zeta}")

    @property
    def resolved_p(self) -> int:
        return self.p if self.p is not None else int(math.floor(self.n ** self.zeta))

    @property
    def effective_zeta(self) -> float:
        if self.zeta is not None:
            return self.zeta
        if self.n <= 1:
            return 0.0
        return math.log(max(self.p, 1)) / math.log(self.n)


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    min_gap: float
    simple: bool
    smin: float
    smax: float


@dataclass(frozen=True)
class GapReport:
    records: tuple[TrialRecord, ...]
    target: float
    bound_prob: float
    prob_ge_target: float
    simple_freq: float
    degenerate: bool
    meta: dict = field(default_factory=dict)


# The Wishart eigenvalue-repulsion bounds behind the three formulas below
# (Christoffersen-Luh-O'Rourke-Shearer; Han) are asymptotic, with unspecified
# absolute constants, so those constants are taken as 1 and the harness
# checks scaling, frequencies, and survival monotonicity instead of absolute
# levels.


def gap_target(n: int, zeta: float, beta: float) -> float:
    """Predicted lambda-scale gap level (n^{(1-zeta)/2} - 1) n^{-beta}, its absolute constant taken as 1."""
    return (n ** ((1.0 - zeta) / 2.0) - 1.0) * n ** (-beta)


def bound_probability(n: int, zeta: float, beta: float) -> float:
    """Guaranteed success probability 1 - n^{zeta-beta}, its absolute constant taken as 1, clamped to [0, 1]."""
    return min(1.0, max(0.0, 1.0 - n ** (zeta - beta)))


def tensor_gap_target(n: int, beta: float) -> float:
    """3-tensor flattening form of :func:`gap_target`: (n - 1) n^{-3 beta}, its absolute constant taken as 1."""
    return (n - 1.0) * n ** (-3.0 * beta)


def _aggregate(records, target, bound_prob, degenerate, meta) -> GapReport:
    """The report on at least one trial record (both experiments refuse ``trials < 1``)."""
    return GapReport(
        records=tuple(records),
        target=float(target),
        bound_prob=float(bound_prob),
        prob_ge_target=float(np.mean([r.min_gap >= target for r in records])),
        simple_freq=float(np.mean([r.simple for r in records])),
        degenerate=degenerate,
        meta=meta,
    )


def _spectrum_record(trial: int, seed: int, spectra) -> TrialRecord:
    """One trial from its Gram spectra: the gap is the min over them, simple only if all are."""
    min_gap = min(s.min_gap for s in spectra)
    smin = math.sqrt(max(min(float(s.eigenvalues[-1]) for s in spectra), 0.0))
    smax = math.sqrt(max(max(float(s.eigenvalues[0]) for s in spectra), 0.0))
    return TrialRecord(trial, seed, min_gap, all(s.simple for s in spectra), smin, smax)


def run_gap_experiment(cfg: GapExperiment) -> GapReport:
    """Sample n x p matrices, eigendecompose the p x p Gram, record min adjacent gaps."""
    p = cfg.resolved_p
    records = []
    for trial in range(cfg.trials):
        rng = generator(cfg.model.seed, trial)
        m = sample_entries(rng, cfg.model, (cfg.n, p))
        records.append(_spectrum_record(trial, cfg.model.seed, [eig_hermitian(m.conj().T @ m, vectors=False)]))
    zeta = cfg.effective_zeta
    target = gap_target(cfg.n, zeta, cfg.beta)
    bound = bound_probability(cfg.n, zeta, cfg.beta)
    meta = {
        "kind": "matrix",
        "n": cfg.n,
        "p": p,
        "zeta": zeta,
        "beta": cfg.beta,
        "distribution": cfg.model.distribution,
        "scalar_kind": cfg.model.scalar_kind,
        "seed": cfg.model.seed,
    }
    return _aggregate(records, target, bound, degenerate=(p == 1), meta=meta)


def run_tensor_gram_experiment(
    n: int,
    model: RandomModel,
    trials: int,
    eta: float | None = None,
    beta: float = BETA_EXPERIMENT,
) -> GapReport:
    """Min-over-modes Gram gap statistics for n x n x n tensors.

    With ``eta`` given (finite, >= 0) the trials draw A = 1 + eta E around the
    all-ones tensor; otherwise each trial draws a fresh tensor from
    ``model``.  ``beta`` must be finite.  A trial counts as simple only when
    all three mode spectra are simple.
    """
    if n < 3:
        raise ConfigInvalid("tensor experiment requires n >= 3")
    if trials < 1:
        raise ConfigInvalid("trials must be >= 1")
    if eta is not None and not 0.0 <= eta < math.inf:
        raise ConfigInvalid(f"eta must be finite and >= 0, got {eta}")
    if not math.isfinite(beta):
        raise ConfigInvalid(f"beta must be finite, got {beta}")
    dims = (n, n, n)
    records = []
    for trial in range(trials):
        sample = sample_tensor(dims, model, stream=(trial,))
        if eta is None:
            a = sample
        else:
            a = Tensor3._adopt(1.0 + eta * sample.data)
        records.append(_spectrum_record(trial, model.seed, mode_spectra([a], vectors=False)[0]))

    target = tensor_gap_target(n, beta)
    bound = bound_probability(n * n, 0.5, beta)
    meta = {
        "kind": "tensor",
        "n": n,
        "beta": beta,
        "eta": eta,
        "distribution": model.distribution,
        "scalar_kind": model.scalar_kind,
        "seed": model.seed,
    }
    return _aggregate(records, target, bound, degenerate=False, meta=meta)


_CSV_HEADER = ["trial", "seed", "min_gap", "simple", "smin", "smax"]


def emit_csv(report: GapReport, path) -> None:
    """One row per trial plus a '#aggregate' footer; floats use repr for exact round trips."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for r in report.records:
            writer.writerow(
                [r.trial, r.seed, repr(r.min_gap), "true" if r.simple else "false", repr(r.smin), repr(r.smax)]
            )
        writer.writerow(
            [
                "#aggregate",
                f"target={report.target!r}",
                f"bound_prob={report.bound_prob!r}",
                f"prob_ge_target={report.prob_ge_target!r}",
                f"simple_freq={report.simple_freq!r}",
                f"degenerate={'true' if report.degenerate else 'false'}",
            ]
        )


def read_csv(path) -> GapReport:
    """Parse a file written by emit_csv back into a GapReport (meta is not persisted)."""
    with open(path, newline="", encoding="ascii") as fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise FormatError(f"non-ASCII byte in gap-lab CSV {path}: {exc}") from exc
    if not rows or rows[0] != _CSV_HEADER:
        raise FormatError(f"bad or missing header in {path}")
    if len(rows) < 2 or not rows[-1] or rows[-1][0] != "#aggregate":
        raise FormatError(f"missing aggregate footer in {path}")
    records = []
    for row in rows[1:-1]:
        if len(row) != 6:
            raise FormatError(f"malformed data row {row!r}")
        try:
            records.append(
                TrialRecord(
                    trial=int(row[0]),
                    seed=int(row[1]),
                    min_gap=float(row[2]),
                    simple=row[3] == "true",
                    smin=float(row[4]),
                    smax=float(row[5]),
                )
            )
        except ValueError as exc:
            raise FormatError(f"malformed data row {row!r}: {exc}") from exc
    footer = {}
    for item in rows[-1][1:]:
        key, _, value = item.partition("=")
        footer[key] = value
    try:
        return GapReport(
            records=tuple(records),
            target=float(footer["target"]),
            bound_prob=float(footer["bound_prob"]),
            prob_ge_target=float(footer["prob_ge_target"]),
            simple_freq=float(footer["simple_freq"]),
            degenerate=footer["degenerate"] == "true",
            meta={},
        )
    except KeyError as exc:
        raise FormatError(f"aggregate footer missing field {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"malformed aggregate footer: {exc}") from exc
