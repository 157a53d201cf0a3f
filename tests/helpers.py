"""Random instances the tests build; the package and its programs never call these."""

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
