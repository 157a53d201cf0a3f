"""Independent, untimed checks of CLI outputs, using numpy only.

Nothing here imports the package under test: witnesses are re-read from the
JSON the CLI wrote, tensors come from the generator's own arrays, and
gap-lab draws are replayed from the documented Philox stream layout.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# README contract: witness factors are unitary to 1e-10 per dimension.
UNITARY_REL = 1e-10
# Slack between the CLI's residual and ours: both are exact to a few ulps of |A|.
RESIDUAL_SLACK = 1e-12
GAP_REL = 1e-8
CSV_ROWS_CHECKED = 3


class BrokenYes(Exception):
    """A YES whose witness does not pass the independent re-check."""


def _matrix(rows):
    m = np.asarray(rows, dtype=np.float64)
    return m[..., 0] + 1j * m[..., 1] if m.ndim == 3 else m


def check_witness(op, report: dict) -> None:
    """Recompute |(L, R, T) . A - B|_F and each |U^H U - I|_F from the witness file."""
    try:
        doc = json.loads(op.check["witness"].read_text(encoding="ascii"))
        factors = [_matrix(f) for f in doc["factors"]]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise BrokenYes(f"{op.label}: unreadable witness: {exc}") from exc
    a, b = op.check["a"], op.check["b"]
    if [f.shape for f in factors] != [(d, d) for d in a.shape]:
        raise BrokenYes(f"{op.label}: witness shapes {[f.shape for f in factors]} do not fit {a.shape}")
    residual = float(np.linalg.norm(np.einsum("ip,jq,kr,pqr->ijk", *factors, a, optimize=True) - b))
    gate = report["gamma_bound"]
    if not residual <= gate + RESIDUAL_SLACK * float(np.linalg.norm(a)):
        raise BrokenYes(f"{op.label}: residual {residual:.3e} above reported gate {gate:.3e}")
    for f in factors:
        defect = float(np.linalg.norm(f.conj().T @ f - np.eye(f.shape[0])))
        if not defect <= UNITARY_REL * f.shape[0]:
            raise BrokenYes(f"{op.label}: unitarity defect {defect:.3e} at size {f.shape[0]}")


def check_perms(op, report: dict) -> None:
    """The returned 1-based permutations must carry g's edge set exactly onto h's."""
    try:
        perms = [np.asarray(p, dtype=np.int64) - 1 for p in report["perms"]]
        g = op.check["g"]
        mapped = np.stack([perms[d][g[:, d]] for d in range(3)], axis=1)
        shape = tuple(len(p) for p in perms)
        same = np.array_equal(*(np.sort(np.ravel_multi_index(e.T, shape)) for e in (mapped, op.check["h"])))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise BrokenYes(f"{op.label}: malformed permutations: {exc}") from exc
    if not same:
        raise BrokenYes(f"{op.label}: permutations do not map g's edges onto h's")


def _philox(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(trial,))))


def _gaps(lam: np.ndarray) -> float:
    return float(np.min(np.diff(lam)))


def check_gaps(op, report: dict) -> bool:
    """Replay a sample of trials with eigvalsh and compare with what the CLI reported."""
    try:
        return _gaps_match(op.check, report)
    except (OSError, ValueError, IndexError, KeyError, TypeError):
        return False


def _gaps_match(c: dict, report: dict) -> bool:
    if report.get("trials") != c["trials"]:
        return False
    if c["experiment"] == "matrix":
        p = int(math.floor(c["n"] ** c["zeta"]))
        with open(c["csv"], newline="") as fh:
            rows = [r for r in csv.reader(fh)][1:-1]
        if len(rows) != c["trials"]:
            return False
        for row in rows[:CSV_ROWS_CHECKED]:
            m = _philox(c["seed"], int(row[0])).standard_normal((c["n"], p))
            lam = np.linalg.eigvalsh(m.T @ m)
            expect = [_gaps(lam), math.sqrt(max(lam[0], 0.0)), math.sqrt(lam[-1])]
            got = [float(row[2]), float(row[4]), float(row[5])]
            if not np.allclose(got, expect, rtol=GAP_REL, atol=GAP_REL * lam[-1]):
                return False
        return True
    n = c["n"]
    gaps = []
    for trial in range(c["trials"]):
        a = _philox(c["seed"], trial).standard_normal((n, n, n))
        lams = [np.linalg.eigvalsh((m := np.moveaxis(a, ax, 0).reshape(n, -1)) @ m.T) for ax in range(3)]
        gaps.append(min(_gaps(lam) for lam in lams))
    scale = max(float(lam[-1]) for lam in lams)
    return math.isclose(report["median_min_gap"], float(np.median(gaps)), rel_tol=GAP_REL, abs_tol=GAP_REL * scale)
