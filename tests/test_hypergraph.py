"""Tripartite hypergraphs: adjacency tensors, the orbit decision on them, text format."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import otiso.hypergraph
from otiso import (
    Decision,
    DimensionMismatch,
    FormatError,
    PermTriple,
    Tensor3,
    TripartiteHypergraph,
    decide_hypergraph_iso,
    decide_isomorphism,
    read_hypergraph,
    relabel,
    sample_haar_triple,
    write_hypergraph,
)
from otiso.hypergraph import adjacency_tensor, format_hypergraph
from otiso.hypergraph import _sorted_degrees

from helpers import parse_hypergraph, random_hypergraph, random_perm_triple, read_from_fifo, toggle_edge


def test_adjacency_tensor_basics():
    # the empty and the full hypergraph are constant tensors, so centring zeroes them
    empty = TripartiteHypergraph((2, 3, 2), [])
    t = adjacency_tensor(empty)
    assert t.scalar_kind == "real"
    assert np.all(t.data == 0.0)

    full_edges = [(i, j, k) for i in range(2) for j in range(2) for k in range(2)]
    full = TripartiteHypergraph((2, 2, 2), full_edges)
    assert np.all(adjacency_tensor(full).data == 0.0)

    one = TripartiteHypergraph((2, 3, 4), [(1, 2, 3)])
    arr = adjacency_tensor(one).data
    c = 2.0 / 24 - 1.0
    assert arr[1, 2, 3] == 1.0 - c
    assert np.sum(arr == 1.0 - c) == 1 and np.sum(arr == -1.0 - c) == 23
    assert abs(arr.sum()) < 1e-12
    assert one.edge_count == 1


def test_hypergraph_validation():
    with pytest.raises(DimensionMismatch):
        TripartiteHypergraph((2, 2), [])
    with pytest.raises(DimensionMismatch):
        TripartiteHypergraph((2, 0, 2), [])
    with pytest.raises(FormatError):
        TripartiteHypergraph((2, 2, 2), [(0, 0, 2)])  # out of range
    with pytest.raises(FormatError):
        TripartiteHypergraph((2, 2, 2), [(0, 0, 0), (0, 0, 0)])  # duplicate


@pytest.mark.parametrize("edges, bad", [
    ([(0, 0, 0), (1, -1, 2)], (1, -1, 2)),  # negative
    ([(0, 0, 0), (2, 0, 0)], (2, 0, 0)),  # equal to the part size
    ([(1, 2, 2**40)], (1, 2, 2**40)),  # far beyond it
    ([(0, 0, 0), (0, 5, 0), (1, 1, 1), (-3, 0, 0)], (0, 5, 0)),  # several bad rows, a later one negative
    ([(0, 0, -1), (9, 0, 0)], (0, 0, -1)),
])
def test_out_of_range_edge_names_the_first_bad_row(edges, bad):
    with pytest.raises(FormatError) as info:
        TripartiteHypergraph((2, 3, 4), edges)
    assert str(info.value) == f"edge {bad} out of range for part sizes (2, 3, 4)"


def test_perm_triple_validation():
    PermTriple(((1, 0), (0, 1, 2), (2, 1, 0)))
    with pytest.raises(FormatError):
        PermTriple(((0, 0), (0, 1), (0, 1)))  # not a bijection
    pt = PermTriple(((1, 0), (0, 1), (1, 0)))
    assert (pt[0][0], pt[1][1], pt[2][0]) == (1, 1, 1)


def test_relabel_round_trip():
    g = random_hypergraph((4, 5, 3), seed=200)
    pt = random_perm_triple((4, 5, 3), seed=201)
    h = relabel(g, pt)
    assert h.edge_count == g.edge_count
    assert {(pt[0][i], pt[1][j], pt[2][k]) for i, j, k in g.edges} == set(h.edges)


@st.composite
def relabel_cases(draw):
    """Part sizes in [1, 8]^3, an edge set (empty ones included) and one permutation per part."""
    sizes = draw(st.tuples(*(st.integers(1, 8) for _ in range(3))))
    cells = sorted(draw(st.sets(st.integers(0, math.prod(sizes) - 1))))
    perms = tuple(tuple(draw(st.permutations(range(s)))) for s in sizes)
    return sizes, cells, perms


@given(relabel_cases())
@example(((1, 1, 1), [], ((0,), (0,), (0,))))
@example(((1, 1, 1), [0], ((0,), (0,), (0,))))
@example(((2, 3, 1), [], ((1, 0), (2, 0, 1), (0,))))
def test_relabel_matches_the_validating_constructor(case):
    sizes, cells, perms = case
    g = TripartiteHypergraph(sizes, np.column_stack(np.unravel_index(np.array(cells, dtype=np.int64), sizes)))
    h = relabel(g, PermTriple(perms))
    coords = np.unravel_index(g.edge_index, sizes)
    assert h == TripartiteHypergraph(sizes, np.column_stack([np.asarray(p)[c] for p, c in zip(perms, coords)]))
    index = h.edge_index
    assert h.part_sizes == sizes and index.dtype == np.int64 and not index.flags.writeable
    assert np.all(index[1:] > index[:-1])  # sorted and unique


def test_iso_identity_and_relabeled():
    g = random_hypergraph((5, 5, 5), seed=202)
    same = decide_hypergraph_iso(g, g)
    assert same.verdict == "yes"

    decided = 0
    for seed in range(10):
        g = random_hypergraph((6, 5, 7), seed=300 + seed)
        pt = random_perm_triple((6, 5, 7), seed=400 + seed)
        h = relabel(g, pt)
        d = decide_hypergraph_iso(g, h)
        assert d.verdict in ("yes", "cannot_decide")
        if d.verdict == "yes":
            decided += 1
            assert relabel(g, d.perms).edges == h.edges
    assert decided >= 8


def test_iso_rejects_edge_toggle():
    rejected = 0
    for seed in range(10):
        g = random_hypergraph((6, 6, 6), seed=500 + seed)
        edges = set(g.edges)
        probe = (0, 0, 0)
        edges.symmetric_difference_update({probe})
        h = TripartiteHypergraph((6, 6, 6), edges)
        d = decide_hypergraph_iso(g, h)
        assert d.verdict in ("no", "cannot_decide")
        if d.verdict == "no":
            rejected += 1
    assert rejected >= 8


def test_iso_degenerate_spectrum_is_cannot_decide():
    full_edges = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
    full = TripartiteHypergraph((3, 3, 3), full_edges)
    d = decide_hypergraph_iso(full, full)
    # the centred tensor is zero, so every spectrum is tied: the spine refuses
    assert d.verdict == "cannot_decide" and d.perms is None
    assert d.diagnostics["step"] == "gap_policy"


def test_sparse_pair_is_decided_only_after_centring():
    sizes = (150, 150, 150)
    g = random_hypergraph(sizes, 6, 0.001)
    h = relabel(g, random_perm_triple(sizes, 6, stream=(1,)))

    def plus_minus_one(x):
        arr = np.full(sizes, -1.0)
        arr.flat[x.edge_index] = 1.0
        return Tensor3(arr)

    # the +-1 encoding's rank-one spike sets a degeneracy floor above the bulk gaps
    raw = decide_isomorphism(plus_minus_one(g), plus_minus_one(h))
    assert raw.verdict == "cannot_decide" and raw.diagnostics["step"] == "gap_policy"
    d = decide_hypergraph_iso(g, h)
    assert d.verdict == "yes" and d.diagnostics["step"] == "verified"
    assert relabel(g, d.perms) == h


@pytest.mark.xfail(strict=True, raises=AssertionError)
def test_relabelled_pair_with_a_part_of_size_one_is_yes():
    # Known defect: the tensor is a 4x5 matrix and only 4 core entries are sign
    # targets, so the spine's witness carries A onto B with factors that are
    # orthogonal but nowhere near permutations, and their rounding relabels
    # nothing: cannot_decide at edge_verification.  Breaking the ties before
    # rounding would make this pair YES.
    sizes = (1, 4, 5)
    g = random_hypergraph(sizes, seed=2)
    h = relabel(g, random_perm_triple(sizes, seed=2, stream=(1,)))
    d = decide_hypergraph_iso(g, h)
    assert d.verdict == "yes", d.diagnostics


def test_witness_that_rounds_to_no_relabelling_is_cannot_decide(monkeypatch):
    sizes = (5, 6, 7)
    g = random_hypergraph(sizes, seed=210)
    h = relabel(g, random_perm_triple(sizes, seed=211))
    haar = sample_haar_triple(sizes, 212, "real")
    monkeypatch.setattr(otiso.hypergraph, "decide_isomorphism",
                        lambda a, b: Decision("yes", haar, 0.0, 1.0, {"mode": "exact_iso"}))
    d = decide_hypergraph_iso(g, h)
    # not NO: another sign choice of the witness could round to a valid permutation
    assert d.verdict == "cannot_decide" and d.perms is None
    assert d.diagnostics == {"mode": "exact_iso", "step": "edge_verification"}


PART_SIZES = st.tuples(*(st.integers(1, 8) for _ in range(3)))


def test_degree_mismatch_names_the_part():
    # equal edge counts and part-1 degrees; part 2 has degrees (1, 1) against (0, 2)
    g = TripartiteHypergraph((2, 2, 2), [(0, 0, 0), (1, 1, 0)])
    h = TripartiteHypergraph((2, 2, 2), [(0, 0, 0), (1, 0, 1)])
    d = decide_hypergraph_iso(g, h)
    assert d.verdict == "no" and d.perms is None
    assert d.diagnostics == {"step": "degrees", "failed_part": 2, "edge_counts": [2, 2]}


@given(sizes=PART_SIZES, density=st.floats(0.1, 0.9), seed=st.integers(0, 2**32 - 1))
def test_relabelled_hypergraphs_pass_the_degree_check(sizes, density, seed):
    g = random_hypergraph(sizes, seed, density)
    h = relabel(g, random_perm_triple(sizes, seed, stream=(1,)))
    for x, y in ((g, h), (h, g)):
        d = decide_hypergraph_iso(x, y)
        # isomorphic hypergraphs give centred tensors on one orbit: any NO would be unsound
        assert d.diagnostics["step"] != "degrees" and d.verdict != "no", d.diagnostics


@given(sizes=PART_SIZES, density=st.floats(0.1, 0.9), seed=st.integers(0, 2**32 - 1), cell=st.integers(0, 511))
def test_one_edge_toggle_is_no_at_degrees(sizes, density, seed, cell):
    # adding or removing one edge changes the edge count, so part 1's degree sums differ
    g = random_hypergraph(sizes, seed, density)
    h = toggle_edge(g, cell % math.prod(sizes))
    assert abs(h.edge_count - g.edge_count) == 1
    for x, y in ((g, h), (h, g)):
        d = decide_hypergraph_iso(x, y)
        assert d.verdict == "no"
        assert d.diagnostics == {"step": "degrees", "failed_part": 1, "edge_counts": [x.edge_count, y.edge_count]}


def test_unequal_edge_counts_are_no_before_any_degree_is_counted(monkeypatch):
    # part 1's degrees sum to the edge count: a toggle needs no degree to be a NO at part 1
    g = random_hypergraph((10, 10, 10), seed=911)
    h = toggle_edge(g, 0)

    def no_degrees(_):
        raise AssertionError("degrees counted for unequal edge counts")

    monkeypatch.setattr(otiso.hypergraph, "_sorted_degrees", no_degrees)
    for x, y in ((g, h), (h, g)):
        d = decide_hypergraph_iso(x, y)
        assert d.verdict == "no" and d.perms is None
        assert d.diagnostics == {"step": "degrees", "failed_part": 1, "edge_counts": [x.edge_count, y.edge_count]}
    assert (g.edge_count, h.edge_count) == (480, 481)


def _isomorphic_by_brute_force(g, h) -> bool:
    perms = itertools.product(*(itertools.permutations(range(s)) for s in g.part_sizes))
    return any(relabel(g, PermTriple(p)) == h for p in perms)


# Equal sorted degree sequences in every part, yet not isomorphic: in G two
# edges share their part-1 and part-2 vertices, in H none share those two.
SAME_DEGREES = (((2, 2, 2), [(0, 0, 0), (0, 0, 1), (1, 1, 0)]), ((2, 2, 2), [(0, 0, 0), (0, 1, 0), (1, 0, 1)]))


def test_equal_degrees_pair_is_not_isomorphic():
    g, h = (TripartiteHypergraph(*args) for args in SAME_DEGREES)
    assert all(np.array_equal(x, y) for x, y in zip(_sorted_degrees(g), _sorted_degrees(h)))
    assert not _isomorphic_by_brute_force(g, h)


@given(seed=st.integers(0, 2**32 - 1))
def test_equal_degrees_pair_passes_degrees_and_is_never_yes(seed):
    g, h = (TripartiteHypergraph(*args) for args in SAME_DEGREES)
    g = relabel(g, random_perm_triple(g.part_sizes, seed))
    h = relabel(h, random_perm_triple(h.part_sizes, seed, stream=(1,)))
    for x, y in ((g, h), (h, g)):
        d = decide_hypergraph_iso(x, y)
        assert d.verdict != "yes" and d.diagnostics["step"] != "degrees", d.diagnostics


def test_iso_part_size_mismatch():
    g = random_hypergraph((3, 3, 3), seed=203)
    h = random_hypergraph((3, 3, 4), seed=204)
    with pytest.raises(DimensionMismatch):
        decide_hypergraph_iso(g, h)


def test_random_hypergraph_deterministic():
    a = random_hypergraph((5, 6, 7), seed=205, edge_prob=0.3)
    b = random_hypergraph((5, 6, 7), seed=205, edge_prob=0.3)
    assert a.edges == b.edges
    c = random_hypergraph((5, 6, 7), seed=206, edge_prob=0.3)
    assert a.edges != c.edges


def test_text_format_round_trip(tmp_path):
    g = random_hypergraph((4, 3, 5), seed=207)
    text = format_hypergraph(g)
    assert text.splitlines()[0] == "4 3 5"
    assert text.endswith("\n")
    assert parse_hypergraph(text) == g

    path = tmp_path / "g.txt"
    write_hypergraph(g, path)
    assert read_hypergraph(path) == g

    saved = tmp_path / "saved.txt"
    with open(saved, "w", encoding="ascii") as fh:  # a header, then np.savetxt(fmt="%d"), as the bench writes
        fh.write("4 3 5\n")
        np.savetxt(fh, np.column_stack(np.unravel_index(g.edge_index, g.part_sizes)) + 1, fmt="%d")
    assert read_hypergraph(saved) == g
    for p in (path, saved):  # both writers' documents take the canonical path
        assert otiso.hypergraph._canonical_rows(p.read_bytes()) is not None


def test_non_ascii_byte_past_the_first_read_chunk_is_a_format_error(tmp_path):
    g = random_hypergraph((20, 20, 20), seed=208)
    data = format_hypergraph(g).encode("ascii")
    assert len(data) > 8192
    path = tmp_path / "g.txt"
    path.write_bytes(data + "# caf\u00e9\n".encode("utf-8"))
    with pytest.raises(FormatError) as info:
        read_hypergraph(path)
    assert f"byte 0xc3 in position {len(data) + 5}" in str(info.value)


def test_fifo_reads_as_the_file(tmp_path):
    # one read of the stream: a second pass over the path would find a FIFO drained
    g = random_hypergraph((6, 5, 7), seed=209)
    canonical = format_hypergraph(g).encode("ascii")
    assert otiso.hypergraph._canonical_rows(canonical) is not None
    for name, data in (("commented", b"# from a pipe\n" + canonical), ("canonical", canonical)):
        path = tmp_path / f"{name}.txt"
        path.write_bytes(data)
        from_file = read_hypergraph(path)
        from_fifo = read_from_fifo(tmp_path / f"{name}.fifo", data, read_hypergraph)
        assert from_file == g and from_fifo.edge_index.tobytes() == from_file.edge_index.tobytes()


def test_non_ascii_byte_on_an_edge_line_is_a_format_error(tmp_path):
    # the byte fails the canonical gate, and the ASCII decode of the fallback names it
    path = tmp_path / "g.txt"
    path.write_bytes(b"3 3 3\n1 1 1\n1 2 \xe9\n")
    with pytest.raises(FormatError) as info:
        read_hypergraph(path)
    assert str(info.value) == (f"non-ASCII byte in hypergraph file {path}: 'ascii' codec can't decode byte 0xe9 "
                               "in position 16: ordinal not in range(128)")


def test_parse_accepts_comments_and_blanks():
    text = "# tripartite\n2 2 2\n\n1 1 1\n# middle\n2 2 1\n"
    g = parse_hypergraph(text)
    assert g.part_sizes == (2, 2, 2)
    assert g.edges == frozenset({(0, 0, 0), (1, 1, 0)})


def test_parse_format_errors():
    with pytest.raises(FormatError):
        parse_hypergraph("")  # no header
    with pytest.raises(FormatError):
        parse_hypergraph("2 2\n")  # short header
    with pytest.raises(FormatError):
        parse_hypergraph("2 2 2\n1 1\n")  # short edge line
    with pytest.raises(FormatError):
        parse_hypergraph("2 2 2\n1 1 3\n")  # out of range
    with pytest.raises(FormatError):
        parse_hypergraph("2 2 2\n0 1 1\n")  # indices are 1-based
    with pytest.raises(FormatError):
        parse_hypergraph("2 2 2\n1 1 1\n1 1 1\n")  # duplicate edge
    with pytest.raises(FormatError):
        parse_hypergraph("2 2 2\none one one\n")  # non-integer
    with pytest.raises(FormatError):
        parse_hypergraph("2 2 2\n1 1 1 # trailing\n")  # a comment must take its whole line
    for token in ("1.0", "2e0", "1.5", "1_0", "12345678901234567890"):
        with pytest.raises(FormatError):
            parse_hypergraph(f"2 2 2\n1 1 {token}\n")  # only plain int64 decimal indices
    for header in ("0_3 3 3", "3 3 12345678901234567890", "3 3", "3 3 3 3"):
        for body in ("", "1 1 1\n"):
            with pytest.raises(FormatError):
                parse_hypergraph(f"{header}\n{body}")  # the header takes the same grammar


def test_parse_rejects_integer_read_through_float(monkeypatch):
    """numpy 1.x loadtxt reads '1.5' into an int64 field through float, warning instead of failing."""
    def lenient_loadtxt(lines, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return np.ones((len(lines), 3), dtype=np.int64)

    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    with pytest.raises(FormatError):
        parse_hypergraph("2 2 2\n1 1 1.5\n")


def reference_parse(text: str):
    """The line-by-line parser and per-edge validation that the array parser replaced."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty hypergraph document")
    head = lines[0].split()
    if len(head) != 3:
        raise FormatError("header must be three part sizes")
    try:
        sizes = tuple(int(v) for v in head)
    except ValueError as exc:
        raise FormatError("non-integer part size") from exc
    edges = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 3:
            raise FormatError("edge line must have three indices")
        try:
            edges.append(tuple(int(v) - 1 for v in toks))
        except ValueError as exc:
            raise FormatError("non-integer index") from exc
    if any(s < 1 for s in sizes):
        raise DimensionMismatch("part sizes must be positive")
    seen = set()
    for e in edges:
        if not all(0 <= e[d] < sizes[d] for d in range(3)):
            raise FormatError("edge out of range")
        if e in seen:
            raise FormatError("duplicate edge")
        seen.add(e)
    return sizes, frozenset(edges)


def beyond_int64_parse(text: str) -> bool:
    """True when a header or edge line holds a token that int() reads but an int64 parse does not: '1_0' or |v| >= 2^63.

    The reference parser reads such a token and may accept it: '0_3' as a part size of 3, '1_0' as
    index 10.  The array parser fails on the token itself, with a FormatError.
    """
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    for tok in " ".join(lines).split():
        try:
            value = int(tok)
        except ValueError:
            continue
        if "_" in tok or not -2**63 <= value < 2**63:
            return True
    return False


SPELLINGS = ["{}", "{}", "0{}", "+{}"]
BAD_HEADERS = ["3 3", "3 3 3 3", "0 3 3", "3 -1 3", "3 x 3", "3 3 3.0", "3 0_3 3", "3 3 9223372036854775808"]
BAD_TOKENS = ["0", "-1", "4", "1_0", "0_1", "1.0", "2e0", "x", "1 # c", "12345678901234567890", "-9223372036854775808"]
# a line of a malformed document: one of the malformations the format rejects, or now and then a good edge
MALFORMED_LINES = ([("edge", None)] * 5 + [("line", h) for h in BAD_HEADERS] + [("bad", t) for t in BAD_TOKENS]
                   + [("inline", None), ("ragged", None), ("repeat", None)])


@st.composite
def hypergraph_documents(draw):
    """Canonical documents, other well-formed ones, and documents whose lines mix good edges with every malformation.

    The form is drawn first and counted as an event.  A canonical document is
    what ``format_hypergraph`` writes, leading zeros allowed, so the reader
    takes its ``fromstring`` path.  The edges are distinct and part sizes
    reach 4, so a well-formed document parses and is compared edge for edge.
    Every line of a malformed one, the header included, draws from
    MALFORMED_LINES: a bad header as the whole line, a bad token, an inline
    comment, a ragged line or a repeated edge.
    """
    form = draw(st.sampled_from(["canonical", "loose", "malformed"]))
    event(form)
    canonical = form == "canonical"
    sep = st.just(" ") if canonical else st.sampled_from([" ", "  ", "\t", " \t "])
    pad = st.just("") if canonical else st.sampled_from(["", " ", "\t"])
    spellings = st.sampled_from(["{}", "{}", "0{}"] if canonical else SPELLINGS)
    sizes = [draw(st.integers(1, 4)) for _ in range(3)]
    cases = MALFORMED_LINES if form == "malformed" else [("edge", None)]
    edges = []

    def line(values):
        kind, bad = draw(st.sampled_from(cases))
        if kind == "line":
            return bad
        if kind == "repeat" and edges:
            values = draw(st.sampled_from(edges))
        elif kind == "ragged":
            values = values[:2] if draw(st.booleans()) else [*values, values[0]]
        toks = [draw(spellings).format(v) for v in values]
        if kind == "bad":
            toks[draw(st.integers(0, 2))] = bad
        return draw(pad) + draw(sep).join(toks) + (" # c" if kind == "inline" else "") + draw(pad)

    # a good header takes the edge lines' spellings and separators
    lines = [line(sizes)]
    cells = sizes[0] * sizes[1] * sizes[2]
    for flat in draw(st.lists(st.integers(0, cells - 1), unique=True, max_size=min(8, cells))):
        edge = [int(v) + 1 for v in np.unravel_index(flat, sizes)]
        lines.append(line(edge))
        edges.append(edge)
    if canonical:
        return "\n".join(lines) + "\n"
    for _ in range(draw(st.integers(0, 3))):
        filler = draw(st.sampled_from(["# c", "#", "  # indented", "#1 1 1", "", "   ", "\t", " \x1f ", "\x0b"]))
        lines.insert(draw(st.integers(1, len(lines))), filler)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lead = draw(st.sampled_from(["", "", "# leading comment" + eol, " " + eol + "\t" + eol, "#" + eol + " " + eol]))
    return lead + eol.join(lines) + draw(st.sampled_from(["", eol, eol + " " + eol + eol]))


@settings(max_examples=300)
@given(hypergraph_documents())
@example("1 1 1\n \n\n")  # a body of blank lines only holds no edge
@example("3 0_3 3\n1 2 3\n")  # a header token int() reads and int64 does not
def test_parse_matches_reference_parser(text):
    if beyond_int64_parse(text):  # the one known difference: always a FormatError now
        with pytest.raises(FormatError):
            parse_hypergraph(text)
        return
    try:
        want = reference_parse(text)
    except (FormatError, DimensionMismatch) as exc:
        with pytest.raises(type(exc)):
            parse_hypergraph(text)
        return
    g = parse_hypergraph(text)
    assert (g.part_sizes, g.edges) == want


def read_outcome(text: str, fast: bool):
    """``parse_hypergraph(text)`` as comparable data, its canonical-document path switched off when not ``fast``."""
    with pytest.MonkeyPatch.context() as mp:
        if not fast:
            mp.setattr(otiso.hypergraph, "_canonical_rows", lambda doc: None)
        try:
            g = parse_hypergraph(text)
        except (FormatError, DimensionMismatch) as exc:
            return type(exc)
    return g.part_sizes, g.edge_index.tobytes()


@st.composite
def canonical_documents(draw):
    """Documents in the canonical layout: leading zeros, part sizes up to INT64_MAX, edges in and out of range.

    Returns the text and whether every value is below 10^18, as the
    canonical gate requires.
    """
    sizes = [draw(st.integers(1, 5) | st.integers(1, 2**63 - 1)) for _ in range(3)]
    rows = [sizes] + draw(st.lists(st.tuples(*(st.integers(1, min(s, 5)) | st.integers(0, 10**18 - 1)
                                               for s in sizes)), max_size=6))
    tokens = [[draw(st.sampled_from(["", "", "0", "00000"])) + str(v) for v in row] for row in rows]
    text = "".join(" ".join(row) + "\n" for row in tokens)
    return text, all(v < 10**18 for row in rows for v in row)


@settings(max_examples=300)
@given(canonical_documents())
@example(("1 1 1\n", True))
@example(("000000000000000003 0000000000000002 1\n1 2 1\n", True))
@example(("9223372036854775807 1 1\n1 1 1\n", False))
def test_both_reader_paths_agree_on_canonical_documents(case):
    text, fast = case
    assert (otiso.hypergraph._canonical_rows(text.encode()) is not None) == fast
    event("fromstring" if fast else "loadtxt")
    assert read_outcome(text, fast=True) == read_outcome(text, fast=False)


@pytest.mark.parametrize("text, fast, want", [
    ("999999999999999999 1 1\n1 1 1\n", True, ((999999999999999999, 1, 1), [0])),  # 18 digits
    ("3 3 000000000000000003\n1 2 3\n", True, ((3, 3, 3), [5])),  # 18 digits, leading zeros
    ("1000000000000000000 1 1\n1 1 1\n", False, ((10**18, 1, 1), [0])),  # 19 digits, below 2^63
    ("2 2 0000000000000000002\n1 1 1\n", True, ((2, 2, 2), [0])),  # 19 digits with leading zeros, below 10^18
    ("9223372036854775808 1 1\n", False, FormatError),  # 2^63
    ("1 1 1\n1 1 9223372036854775808\n", False, FormatError),
    ("2 2 2\n1 1 1", False, ((2, 2, 2), [0])),  # no final newline
    ("2 2 2\r\n1 1 1\r\n", False, ((2, 2, 2), [0])),
    ("2 2 2\n1  1 1\n", False, ((2, 2, 2), [0])),  # a double space
    (" 2 2 2\n1 1 1\n", False, ((2, 2, 2), [0])),  # a leading space
    ("2 2 2\n\n1 1 1\n", False, ((2, 2, 2), [0])),  # a blank line
    ("0 3 3\n", True, DimensionMismatch),
    ("3 3 3\n1 1 4\n", True, FormatError),  # out of range
    ("3 3 3\n1 1 1\n1 1 1\n", True, FormatError),  # duplicate edge
    ("3037000500 3037000500 1\n", True, DimensionMismatch),  # more cells than int64 holds
    # the gate's own edges: every line keeps its two spaces and "\n", but a token is empty
    ("2 2 2\n 1 1\n", False, FormatError),
    ("2 2 2\n1 1 \n", False, FormatError),
    ("2 2 2\n 1 1\n1", False, FormatError),  # a token after the last "\n" makes up the count
    ("2 2 2\n1 1 1\x00\n", False, FormatError),  # a NUL byte
    ("2 2 2\n1 1 \ud800\n", False, FormatError),  # a lone surrogate
    ("\n", False, FormatError),
    ("", False, FormatError),
    ("2 2 2\n+1 1 1\n", False, ((2, 2, 2), [0])),
    ("2 2 2\n1 1 999999999999999999\n", True, FormatError),  # the largest value the gate passes, out of range
    ("2 2 2\n1 1 1000000000000000000\n", False, FormatError),  # the smallest it sends to loadtxt
    # the gate takes the line count from the digit-stripped bytes: a stray byte or a short line fails it
    ("2 2 2\n1 1 1 \n", False, ((2, 2, 2), [0])),  # a trailing space after three values
    ("2 2 2\n1 1 1\n\n", False, ((2, 2, 2), [0])),  # a trailing blank line
    ("2 2 2 2\n1 1\n", False, FormatError),  # stripped to 6 bytes, 3 per line, but not two "  \n"
])
def test_reader_paths_at_the_canonical_pattern_edges(text, fast, want):
    assert (otiso.hypergraph._canonical_rows(text.encode(errors="surrogatepass")) is not None) == fast
    got = read_outcome(text, fast=True)
    assert got == read_outcome(text, fast=False)
    if isinstance(want, tuple):
        sizes, flat = want
        want = sizes, np.array(flat, dtype=np.int64).tobytes()
    assert got == want


def test_reading_a_canonical_document_holds_one_copy_of_its_rows(tmp_path):
    # at its peak the read holds the file's bytes and the parsed rows (24 bytes
    # an edge, as np.fromstring grows them); a second copy of the edges would
    # add another 24 * E and pass the bound
    g = random_hypergraph((40, 40, 40), seed=7)
    path = tmp_path / "g.txt"
    write_hypergraph(g, path)
    assert otiso.hypergraph._canonical_rows(path.read_bytes()) is not None
    assert read_hypergraph(path) == g  # the first call pays any one-time setup
    tracemalloc.start()
    try:
        got = read_hypergraph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == g
    assert peak < 2 * 24 * g.edge_count, (peak, g.edge_count)


def test_yes_permutations_map_edges_in_dense_tensors():
    """Each YES permutation, applied to g's dense 0/1 tensor by numpy indexing, gives h's."""
    yes = 0
    for seed in range(8):
        sizes = (4 + seed % 3, 5, 6)
        g = random_hypergraph(sizes, seed=600 + seed)
        h = relabel(g, random_perm_triple(sizes, seed=700 + seed))
        d = decide_hypergraph_iso(g, h)
        if d.verdict != "yes":
            continue
        yes += 1
        dense = []
        for graph in (g, h):
            arr = np.zeros(sizes, dtype=bool)
            arr[tuple(np.array(sorted(graph.edges)).T)] = True
            dense.append(arr)
        moved = np.zeros(sizes, dtype=bool)
        moved[np.ix_(*[np.asarray(p) for p in d.perms.perms])] = dense[0]
        assert np.array_equal(moved, dense[1])
    assert yes >= 6
