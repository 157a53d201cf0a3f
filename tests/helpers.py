"""Random instances and input plumbing the tests share; the package and its programs never call these."""

import os
import threading

import numpy as np

from otiso.hypergraph import PermTriple, TripartiteHypergraph
from otiso.tensor import generator


def random_hypergraph(part_sizes, seed: int, edge_prob: float = 0.5, *, stream=()) -> TripartiteHypergraph:
    """Each potential edge included independently with probability edge_prob."""
    sizes = tuple(int(s) for s in part_sizes)
    rng = generator(seed, *stream)
    return TripartiteHypergraph(sizes, np.argwhere(rng.random(sizes) < edge_prob))


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
