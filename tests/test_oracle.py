"""The decision against exact ground truth on matrix-shaped tensors.

For a (1, m, n) tensor the orbit distance is ``matrix_orbit_distance``, an
SVD the spine never runs, so on these shapes a verdict can be checked at any
scale: a gapped NO needs the distance to exceed eps, a gapped YES reports a
residual no smaller than the distance, and an exact pair moved by at most
2^-40 ||A|| is never NO.  Shapes (1, m, m) and (1, m, m+1) have simple Gram
spectra; a wider one ties its zero eigenvalues and is refused at gap_policy.
"""

import numpy as np
import pytest

from otiso import RandomModel, Tensor3, apply_action, decide_isomorphism, decide_orbit_distance, sample_haar_triple
from otiso import sample_tensor
from otiso.hosvd import core_of

from helpers import matrix_orbit_distance

ULP = 2.0 ** -52

# (kind, mode, k) cells the decision fails at today: a gapped NO on a pair
# no more than eps apart, and an exact NO on a pair moved by rounding only.
# The modulus threshold has no unit, so at wide scales it falls below the
# cores' rounding, which grows with the input.
FAILING = {
    ("real", "gapped", 40), ("complex", "gapped", 40), ("real", "gapped", 200), ("complex", "gapped", 200),
    ("real", "exact", 40), ("complex", "exact", 40), ("real", "exact", 200), ("complex", "exact", 200),
}


def moved_pair(m, n, kind, k, seed, size):
    """A = 2^k G for a Gaussian (1, m, n) G, and B = U.A + E for a Haar U and an E of norm ``size``."""
    model = RandomModel("gaussian", kind, seed)
    a = Tensor3(sample_tensor((1, m, n), model).data * 2.0 ** k)  # a power of two: exact
    e = sample_tensor((1, m, n), model, stream=(1,)).data
    b = apply_action(sample_haar_triple((1, m, n), seed + 1, kind), a).data
    return a, Tensor3(b + e * (size / np.linalg.norm(e)))


def cells():
    for kind in ("real", "complex"):
        for mode in ("exact", "gapped"):
            for k in (0, 40, -40, 200, -200):
                marks = [pytest.mark.xfail(strict=True, raises=AssertionError)] if (kind, mode, k) in FAILING else []
                yield pytest.param(kind, mode, k, marks=marks, id=f"{kind}-{mode}-{k}")


def wrong_verdict(a, b, mode, eps) -> tuple | None:
    """The verdict and step when the decision on (a, b) contradicts the pair's exact orbit distance, else None."""
    dist = matrix_orbit_distance(a.data, b.data)
    rounding = 64 * ULP * (a.frobenius_norm + b.frobenius_norm)
    if mode == "exact":
        d = decide_isomorphism(a, b)
        ok = d.verdict != "no"
    else:
        d = decide_orbit_distance(a, b, eps)
        ok = d.verdict == "cannot_decide" or (dist > eps - rounding if d.verdict == "no" else d.residual >= dist - rounding)
    return None if ok else (d.verdict, d.diagnostics["step"], dist / eps)


@pytest.mark.parametrize("kind, mode, k", cells())
def test_verdicts_agree_with_the_exact_orbit_distance(kind, mode, k):
    wrong, pairs = [], 0
    for m in range(2, 9):
        for n in (m, m + 1):
            for seed in (11, 12):
                a = moved_pair(m, n, kind, k, seed, 0.0)[0]
                norm = a.frobenius_norm
                eps = core_of(a)[0].min_gap / (32.0 * norm)  # delta / (16 K), K = ||A|| + ||B|| = 2 ||A||
                for size in (0.0, 2.0 ** -40 * norm) if mode == "exact" else (0.0, eps / 2.0, 3.0 * eps):
                    pairs += 1
                    found = wrong_verdict(*moved_pair(m, n, kind, k, seed, size), mode, eps)
                    if found:
                        wrong.append((m, n, seed, size / norm, *found))
    assert not wrong, f"{len(wrong)} of {pairs} pairs wrong, (m, n, seed, |E|/|A|, verdict, step, dist/eps): {wrong[:3]}"
