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
        """The matrix experiment's own rules; :func:`run_gap_experiment` checks ``trials`` and ``beta``'s finiteness."""
        if self.n < 1:
            raise ConfigInvalid("n must be >= 1")
        if (self.zeta is None) == (self.p is None):
            raise ConfigInvalid("give exactly one of zeta or p")
        if self.zeta is not None:
            if not (0.0 < self.zeta < 1.0):
                raise ConfigInvalid("zeta must lie in (0, 1)")
            if self.resolved_p < 2:
                raise ConfigInvalid(f"p = floor(n^zeta) = {self.resolved_p} < 2")
            if self.beta <= self.zeta:
                raise ConfigInvalid(f"beta={self.beta} must exceed zeta={self.zeta}")
        elif self.p < 1:
            raise ConfigInvalid("p must be >= 1")

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


def _spectrum_record(trial: int, seed: int, spectra) -> TrialRecord:
    """One trial from its Gram spectra: the gap is the min over them, simple only if all are."""
    min_gap = min(s.min_gap for s in spectra)
    smin = math.sqrt(max(min(float(s.eigenvalues[-1]) for s in spectra), 0.0))
    smax = math.sqrt(max(max(float(s.eigenvalues[0]) for s in spectra), 0.0))
    return TrialRecord(trial, seed, min_gap, all(s.simple for s in spectra), smin, smax)


def _run_trials(model: RandomModel, trials: int, draw, spectra, target, bound, degenerate: bool, meta: dict) -> GapReport:
    """The report on trials ``0 .. trials-1``, each recorded from ``spectra(draw(trial))``, its sample's Gram spectra.

    The rules both experiments share, ``trials >= 1`` and a finite
    ``meta["beta"]``, are checked before any trial is drawn; the model's
    keys follow the experiment's own in the report's meta.
    """
    if trials < 1:
        raise ConfigInvalid("trials must be >= 1")
    if not math.isfinite(meta["beta"]):
        raise ConfigInvalid(f"beta must be finite, got {meta['beta']}")
    records = []
    for trial in range(trials):
        # the loop holds a trial's sample until the next draw replaces it; freed
        # any earlier, its megabytes go back to the system and the next draw
        # faults in fresh pages (about 1 ms of a 7 ms trial at n = 60 on a
        # 2-vCPU Xeon host)
        sample = draw(trial)
        records.append(_spectrum_record(trial, model.seed, spectra(sample)))
    return GapReport(
        records=tuple(records),
        target=float(target),
        bound_prob=float(bound),
        prob_ge_target=float(np.mean([r.min_gap >= target for r in records])),
        simple_freq=float(np.mean([r.simple for r in records])),
        degenerate=degenerate,
        meta={**meta, "distribution": model.distribution, "scalar_kind": model.scalar_kind, "seed": model.seed},
    )


def run_gap_experiment(cfg: GapExperiment) -> GapReport:
    """Sample n x p matrices, eigendecompose the p x p Gram, record min adjacent gaps."""
    model, p, zeta = cfg.model, cfg.resolved_p, cfg.effective_zeta
    return _run_trials(model, cfg.trials, lambda trial: sample_entries(generator(model.seed, trial), model, (cfg.n, p)),
                       lambda m: [eig_hermitian(m.conj().T @ m, vectors=False)],
                       gap_target(cfg.n, zeta, cfg.beta), bound_probability(cfg.n, zeta, cfg.beta), p == 1,
                       {"kind": "matrix", "n": cfg.n, "p": p, "zeta": zeta, "beta": cfg.beta})


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
    if eta is not None and not 0.0 <= eta < math.inf:
        raise ConfigInvalid(f"eta must be finite and >= 0, got {eta}")

    def draw(trial):
        a = sample_tensor((n, n, n), model, stream=(trial,))
        return a if eta is None else Tensor3._adopt(1.0 + eta * a.data)

    return _run_trials(model, trials, draw, lambda a: mode_spectra([a], vectors=False)[0], tensor_gap_target(n, beta),
                       bound_probability(n * n, 0.5, beta), False, {"kind": "tensor", "n": n, "beta": beta, "eta": eta})


_CSV_HEADER = ["trial", "seed", "min_gap", "simple", "smin", "smax"]
_FOOTER_KEYS = ("target", "bound_prob", "prob_ge_target", "simple_freq", "degenerate")


def _cell(value) -> str:
    """A cell as emit_csv writes it: a bool as ``true`` or ``false``, a number by repr, exact for a float."""
    return ("true" if value else "false") if isinstance(value, bool) else repr(value)


def emit_csv(report: GapReport, path) -> None:
    """One row per trial plus a '#aggregate' footer of ``key=value`` items; floats use repr for exact round trips."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        writer.writerows([_cell(getattr(r, key)) for key in _CSV_HEADER] for r in report.records)
        writer.writerow(["#aggregate", *(f"{key}={_cell(getattr(report, key))}" for key in _FOOTER_KEYS)])


def _flag(text: str) -> bool:
    """A boolean cell back from :func:`_cell`: ``true`` or ``false``, and any other text is a FormatError."""
    if text not in ("true", "false"):
        raise FormatError(f"boolean must be true or false, got {text!r}")
    return text == "true"


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
                    simple=_flag(row[3]),
                    smin=float(row[4]),
                    smax=float(row[5]),
                )
            )
        except ValueError as exc:
            raise FormatError(f"malformed data row {row!r}: {exc}") from exc
    footer = dict(item.partition("=")[::2] for item in rows[-1][1:])
    if len(rows[-1]) != 1 + len(_FOOTER_KEYS) or footer.keys() != set(_FOOTER_KEYS):
        raise FormatError(f"aggregate footer must hold {', '.join(_FOOTER_KEYS)} once each, got {rows[-1][1:]!r}")
    try:
        return GapReport(
            records=tuple(records),
            target=float(footer["target"]),
            bound_prob=float(footer["bound_prob"]),
            prob_ge_target=float(footer["prob_ge_target"]),
            simple_freq=float(footer["simple_freq"]),
            degenerate=_flag(footer["degenerate"]),
            meta={},
        )
    except ValueError as exc:
        raise FormatError(f"malformed aggregate footer: {exc}") from exc
