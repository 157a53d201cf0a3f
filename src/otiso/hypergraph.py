"""Isomorphism testing for 3-uniform tripartite hypergraphs.

Relabelling the parts acts on the centred adjacency tensor by permutation
matrices, which are orthogonal, so ``decide_isomorphism`` decides the pair:
its NO is sound here, and its YES witness is rounded to a permutation triple
that is re-checked exactly on the edge sets.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .decision import decide_isomorphism
from .errors import DimensionMismatch, FormatError
from .tensor import Tensor3

# Not called here: bench/spans.py wraps these names on this module.
from .spectral import eig_hermitian  # noqa: F401
from .tensor import gram  # noqa: F401

_INT64_MAX = 2**63 - 1  # np.iinfo(np.int64).max, without its two wrapper calls


@dataclass(frozen=True, eq=False)
class TripartiteHypergraph:
    """Part sizes plus the edges as a sorted, unique int64 array of 0-based C-order flat indices."""

    part_sizes: tuple[int, int, int]
    edge_index: np.ndarray

    def __init__(self, part_sizes, edges):
        sizes = tuple(int(s) for s in part_sizes)
        if len(sizes) != 3 or any(s < 1 for s in sizes) or math.prod(sizes) > _INT64_MAX:
            raise DimensionMismatch(f"part sizes must be three positive integers, got {part_sizes!r}")
        try:
            coords = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        except (ValueError, TypeError, OverflowError) as exc:
            raise FormatError(f"edges are not integer triples: {exc}") from exc
        coords = coords.reshape(0, 3) if coords.size == 0 else coords
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise FormatError(f"edges must be (i, j, k) triples, got an array of shape {coords.shape}")
        try:
            index = np.ravel_multi_index(tuple(coords.T), sizes)  # its one bounds check
        except ValueError:
            bad = np.logical_or.reduce((coords < 0) | (coords >= sizes), axis=1).nonzero()[0][0]
            raise FormatError(f"edge {tuple(coords[bad].tolist())} out of range for part sizes {sizes}") from None
        # edges written in order, as format_hypergraph writes them, need no sort: one compare finds them
        # strictly increasing; otherwise sort, and any repeat is a duplicate
        if (index[1:] <= index[:-1]).nonzero()[0].size:
            index.sort()
            dup = (index[1:] == index[:-1]).nonzero()[0]
            if dup.size:
                raise FormatError(f"duplicate edge {tuple(int(v) for v in np.unravel_index(index[dup[0]], sizes))}")
        self._own(sizes, index)

    @classmethod
    def _adopt(cls, sizes: tuple[int, int, int], index: np.ndarray) -> "TripartiteHypergraph":
        """Wrap ``index`` itself, made read-only: only a sorted, unique, in-range int64 array the package just built."""
        g = cls.__new__(cls)
        g._own(sizes, index)
        return g

    def _own(self, sizes: tuple[int, int, int], index: np.ndarray) -> None:
        index.setflags(write=False)
        object.__setattr__(self, "part_sizes", sizes)
        object.__setattr__(self, "edge_index", index)

    @cached_property
    def edges(self) -> frozenset:
        """The edges as a frozenset of (i, j, k) tuples, built on first use."""
        return frozenset(zip(*(c.tolist() for c in np.unravel_index(self.edge_index, self.part_sizes))))

    @property
    def edge_count(self) -> int:
        return int(self.edge_index.size)

    def __eq__(self, other):
        return (isinstance(other, TripartiteHypergraph) and self.part_sizes == other.part_sizes
                and np.array_equal(self.edge_index, other.edge_index))

    def __hash__(self):
        return hash((self.part_sizes, self.edge_index.tobytes()))


@dataclass(frozen=True)
class PermTriple:
    """Three permutations, one per part, as image tuples: perms[d][i] is where i goes."""

    perms: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def __init__(self, perms):
        ps = tuple(tuple(int(v) for v in p) for p in perms)
        if len(ps) != 3:
            raise DimensionMismatch("need exactly three permutations")
        for p in ps:
            if sorted(p) != list(range(len(p))):
                raise FormatError(f"{p!r} is not a permutation of 0..{len(p) - 1}")
        object.__setattr__(self, "perms", ps)

    def __getitem__(self, d: int):
        return self.perms[d]


@dataclass(frozen=True)
class HypergraphDecision:
    verdict: str  # "yes" | "no" | "cannot_decide"
    perms: PermTriple | None
    diagnostics: dict = field(default_factory=dict)


def adjacency_tensor(g: TripartiteHypergraph) -> Tensor3:
    """1 - c on edges, -1 - c elsewhere: the +-1 encoding less its mean c = 2|E|/(lmn) - 1.

    Centring drops the rank-one spike that sets the Grams' tops, and so their
    degeneracy floor; c comes from the integer edge count, so equal counts share it.
    """
    c = 2.0 * g.edge_count / math.prod(g.part_sizes) - 1.0
    arr = np.full(g.part_sizes, -1.0 - c)
    arr.flat[g.edge_index] = 1.0 - c
    return Tensor3._adopt(arr)


def relabel(g: TripartiteHypergraph, pt: PermTriple) -> TripartiteHypergraph:
    if tuple(map(len, pt.perms)) != g.part_sizes:
        raise DimensionMismatch(f"permutation lengths {tuple(map(len, pt.perms))} do not match parts {g.part_sizes}")
    coords = np.unravel_index(g.edge_index, g.part_sizes)
    index = np.ravel_multi_index(tuple(np.asarray(p)[c] for p, c in zip(pt.perms, coords)), g.part_sizes)
    index.sort()
    # permutations of a valid edge set stay in range and distinct: nothing to re-check
    return TripartiteHypergraph._adopt(g.part_sizes, index)


def _sorted_degrees(g: TripartiteHypergraph):
    """Each part's vertex degrees, sorted, one part at a time: relabelling a part permutes its degrees."""
    for c, size in zip(np.unravel_index(g.edge_index, g.part_sizes), g.part_sizes):
        deg = np.bincount(c, minlength=size)
        deg.sort()  # in place on the fresh count: np.sort would copy it, through a dispatcher
        yield deg


def decide_hypergraph_iso(g: TripartiteHypergraph, h: TripartiteHypergraph) -> HypergraphDecision:
    """NO at ``degrees`` when some part's sorted degrees differ, else the orbit decision on the adjacency tensors.

    Unequal edge counts fail part 1, whose degrees sum to the count, before
    any degree is counted.  Any verdict but YES passes through with its
    diagnostics.  YES (step ``verified``) needs the rounded witness to
    relabel g onto h exactly; otherwise cannot_decide at
    ``edge_verification``, not NO, since another sign choice could round to
    a valid permutation.
    """
    if g.part_sizes != h.part_sizes:
        raise DimensionMismatch(f"part sizes differ: {g.part_sizes} vs {h.part_sizes}")
    counts = [g.edge_count, h.edge_count]
    # both sides' degrees have the part size as length and one dtype: equal bytes are equal degrees
    failed = 1 if counts[0] != counts[1] else next(
        (d for d, (dg, dh) in enumerate(zip(_sorted_degrees(g), _sorted_degrees(h)), 1)
         if dg.tobytes() != dh.tobytes()), 0)
    if failed:
        return HypergraphDecision("no", None, {"step": "degrees", "failed_part": failed, "edge_counts": counts})
    dec = decide_isomorphism(adjacency_tensor(g), adjacency_tensor(h))
    diag = dec.diagnostics
    if dec.verdict != "yes":
        return HypergraphDecision(dec.verdict, None, diag)
    # factor W carries vertex i of its part to the row of column i's largest |entry|
    perms = [np.abs(w).argmax(axis=0).tolist() for w in dec.witness.factors]
    if all(len(set(p)) == len(p) for p in perms):
        pt = PermTriple(perms)
        if relabel(g, pt).edge_index.tobytes() == h.edge_index.tobytes():  # equal edge counts, as the degrees are
            diag["step"] = "verified"
            return HypergraphDecision("yes", pt, diag)
    diag["step"] = "edge_verification"
    return HypergraphDecision("cannot_decide", None, diag)


def _from_rows(rows: np.ndarray) -> TripartiteHypergraph:
    edges = rows[1:]
    edges -= 1  # 0-based in place: both readers return a fresh array, so no second copy of the edges
    return TripartiteHypergraph(tuple(rows[0].tolist()), edges)


def _canonical_rows(doc: bytes) -> np.ndarray | None:
    r"""The rows of a canonical document in one ``np.fromstring`` pass, else None.

    Canonical: every line three unsigned decimals, single spaces, ended by
    "\n", every value below 10^18.  Deleting the digits must leave one "  \n"
    per line, which rejects every other byte and layout in one C pass.  An
    empty token reads as no value and fails the count, unless a token after
    the last "\n" makes it up, hence the final "\n"; fromstring clamps a value
    past 2^63 to INT64_MAX without an error, which the cap catches.
    """
    stripped = doc.translate(None, b"0123456789")
    lines = len(stripped) // 3  # the line count, whenever the layout check below holds
    if not doc.endswith(b"\n") or stripped != b"  \n" * lines:
        return None
    rows = np.fromstring(doc, np.int64, sep=" ")
    if rows.size != 3 * lines or np.maximum.reduce(rows) >= 10**18:
        return None
    return rows.reshape(-1, 3)


def _loadtxt_rows(text: str) -> np.ndarray:
    """The rows of any document: comments, blank lines, any whitespace, signs, CRLF, a missing final newline."""
    lines = text.splitlines()
    if "#" in text:
        # A comment takes its whole line: a '#' after an edge fails the edge parse.
        lines = [ln for ln in lines if not ln.lstrip().startswith("#")]
    if not any(map(str.strip, lines)):  # loadtxt skips the same blank and whitespace-only lines
        raise FormatError("empty hypergraph document")
    try:
        with warnings.catch_warnings():
            # numpy 1.x reads an int64 field such as '1.5' through float, with only a DeprecationWarning
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(lines, dtype=np.int64, ndmin=2, comments=None)
    except (ValueError, OverflowError, DeprecationWarning) as exc:
        raise FormatError(f"the header and edge lines must hold three integers: {exc}") from exc
    if rows.shape[1] != 3:
        raise FormatError(f"the header and edge lines must hold three integers, got {rows.shape[1]}")
    return rows


def format_hypergraph(g: TripartiteHypergraph) -> str:
    """The canonical document of g, which ``read_hypergraph`` reads back; edges written sorted for stable output."""
    coords = np.column_stack(np.unravel_index(g.edge_index, g.part_sizes)) + 1
    out = ["{} {} {}".format(*g.part_sizes)] + [f"{i} {j} {k}" for i, j, k in coords.tolist()]
    return "\n".join(out) + "\n"


def read_hypergraph(path) -> TripartiteHypergraph:
    """Text format: first line 'l m n', then one 1-based edge 'i j k' per line, all in one int64 decimal grammar.

    A canonical document, the form ``format_hypergraph`` writes, is read by
    ``_canonical_rows``; every other one goes through ``np.loadtxt``, which
    reads a canonical document to the same rows.
    """
    # os.read to end of file, so a FIFO reads as a file does; no file object, whose set-up costs more than a small read
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 20):
            chunks.append(chunk)
    except OSError as exc:  # a directory opens and fails at its first read: name it, as open() does
        exc.filename = os.fspath(path)
        raise
    finally:
        os.close(fd)
    data = b"".join(chunks)  # one chunk is returned as it is
    rows = _canonical_rows(data)
    if rows is None:
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise FormatError(f"non-ASCII byte in hypergraph file {path}: {exc}") from exc
        rows = _loadtxt_rows(text)
    return _from_rows(rows)


def write_hypergraph(g: TripartiteHypergraph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_hypergraph(g))
