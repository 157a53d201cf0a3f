"""Random instances, reference functions, pinned constants and input plumbing the tests share.

The package and its programs never call these.
"""

import io
import os
import threading

import numpy as np

import otiso.hypergraph
from otiso.errors import ConfigInvalid, DimensionMismatch
from otiso.hypergraph import PermTriple, TripartiteHypergraph
from otiso.io import _read_t3b
from otiso.tensor import Tensor3, TransformTriple, _unitarity_defect, generator

# Calibrated exponent for the median-gap slope check.  A one-time pilot
# (n in {100, 200, 400, 800}, zeta = 0.5, gaussian, 100 trials, 12 seeds)
# measured the log-log slope of the median lambda-scale min gap at
# +0.012 +/- 0.043 (range -0.066 to +0.071): essentially flat in this
# window.  The chord slope of log(n^{0.25} - 1) over the same n-range is
# +0.3325, so the effective exponent here is 0.3325 - 0.012 = 0.32.  The
# asymptotic decay regime (beta > zeta) is not visible at these sizes.
BETA_CALIBRATED = 0.32

# Frozen pilot medians backing the calibration above (seed 0, 100 trials).
PILOT_MEDIANS = {
    100: 3.0199907110343673,
    200: 3.6516488135777934,
    400: 3.3365421229552226,
    800: 3.5300149415873534,
}


def log_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    if lx.size < 2:
        raise ConfigInvalid("slope needs at least two points")
    return float(np.polyfit(lx, ly, 1)[0])


def survival_curve(records, thresholds):
    """Empirical P[min_gap >= t] for each t, in the order given."""
    gaps = np.asarray([r.min_gap for r in records], dtype=np.float64)
    if gaps.size == 0:
        return [0.0 for _ in thresholds]
    return [float(np.mean(gaps >= t)) for t in thresholds]


def unflatten(mat: np.ndarray, mode: int, dims) -> Tensor3:
    """Inverse of ``otiso.tensor.flatten`` for the given full dims."""
    if mode not in (1, 2, 3):
        raise DimensionMismatch(f"mode must be 1, 2, or 3, got {mode}")
    ax = mode - 1
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3:
        raise DimensionMismatch(f"dims must have length 3, got {dims}")
    rest = tuple(d for i, d in enumerate(dims) if i != ax)
    mat = np.asarray(mat)
    if mat.shape != (dims[ax], rest[0] * rest[1]):
        raise DimensionMismatch(f"matrix shape {mat.shape} does not match mode-{mode} flattening of {dims}")
    arr = np.moveaxis(mat.reshape((dims[ax],) + rest), 0, ax)
    return Tensor3(arr)


def identity_triple(dims) -> TransformTriple:
    """Identity element of the acting group for the given tensor dims; real, it acts on either kind by promotion."""
    return TransformTriple([np.eye(d) for d in dims])


def unitarity_defect(X: np.ndarray) -> float:
    """``||X* X - I||_F`` for a square matrix."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise DimensionMismatch(f"factor must be square, got shape {X.shape}")
    return _unitarity_defect(X.astype(np.result_type(X, 1.0), copy=False))


def tensor_from_bytes(buf: bytes) -> Tensor3:
    """The T3B tensor encoded by ``buf``, read as ``read_tensor`` reads a file."""
    fh = io.BytesIO(buf)
    return _read_t3b(fh.read(17), fh)


def random_hypergraph(part_sizes, seed: int, edge_prob: float = 0.5, *, stream=()) -> TripartiteHypergraph:
    """Each potential edge included independently with probability edge_prob."""
    sizes = tuple(int(s) for s in part_sizes)
    rng = generator(seed, *stream)
    return TripartiteHypergraph(sizes, np.argwhere(rng.random(sizes) < edge_prob))


def parse_hypergraph(text: str) -> TripartiteHypergraph:
    """The hypergraph of a document given as text, read by ``read_hypergraph``'s two paths.

    The gate is looked up on its module, so a test that patches
    ``otiso.hypergraph._canonical_rows`` reaches it here too.
    """
    module = otiso.hypergraph
    rows = module._canonical_rows(text.encode(errors="surrogatepass"))  # a lone surrogate is a non-ASCII byte here
    return module._from_rows(module._loadtxt_rows(text) if rows is None else rows)


def toggle_edge(g: TripartiteHypergraph, cell: int) -> TripartiteHypergraph:
    """g with the edge at C-order flat index ``cell`` added if absent, removed if present."""
    index = np.setxor1d(g.edge_index, [cell])
    return TripartiteHypergraph(g.part_sizes, np.column_stack(np.unravel_index(index, g.part_sizes)))


def random_perm_triple(part_sizes, seed: int, *, stream=()) -> PermTriple:
    rng = generator(seed, *stream)
    return PermTriple(tuple(tuple(int(v) for v in rng.permutation(s)) for s in part_sizes))


def matrix_orbit_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over the group of ||g.A - B||_F for two (1, m, n) arrays: ||sigma(A) - sigma(B)||_2.

    The group acts as O(m) x O(n), or U(m) x U(n), on the m x n matrix; by von
    Neumann's trace inequality the nearest point of A's orbit to B lines up
    their singular vectors (Mirsky 1960).  ``np.linalg.svd`` sorts both
    spectra the same way, and the spine never calls it.
    """
    sa, sb = (np.linalg.svd(x[0], compute_uv=False) for x in (a, b))
    return float(np.linalg.norm(sa - sb))


def read_from_fifo(path, blob: bytes, read):
    """``read(path)`` on a FIFO made at ``path`` that a thread feeds ``blob`` 5 bytes at a time."""
    os.mkfifo(path)

    def feed():
        try:
            with open(path, "wb", buffering=0) as fh:
                for i in range(0, len(blob), 5):
                    fh.write(blob[i:i + 5])
        except BrokenPipeError:  # the reader stopped at a bad header
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return read(path)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()
