import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathreach import graph
from pathreach.graph import Digraph, GraphFormatError, format_graph, is_acyclic, parse_graph

from .conftest import digraphs

DIAMOND = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


class TestParse:
    def test_single_edge(self):
        g = parse_graph("n 2\ne 0 1")
        assert g.n == 2 and g.edges == {(0, 1)}

    def test_edgeless(self):
        g = parse_graph("n 3")
        assert g.n == 3 and g.edges == frozenset()

    def test_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="loop"):
            parse_graph("n 2\ne 0 0")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            parse_graph("n 2\ne 0 1\ne 0 1")

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphFormatError, match="outside"):
            parse_graph("n 2\ne 0 2")

    def test_edge_before_header(self):
        with pytest.raises(GraphFormatError, match="before header"):
            parse_graph("e 0 1\nn 2")

    def test_missing_header(self):
        with pytest.raises(GraphFormatError, match="missing header"):
            parse_graph("# nothing here\n")

    def test_duplicate_header(self):
        with pytest.raises(GraphFormatError, match="duplicate header"):
            parse_graph("n 2\nn 3")

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError):
            parse_graph("n 2\nx 0 1")
        with pytest.raises(GraphFormatError):
            parse_graph("n 2\ne 0")
        with pytest.raises(GraphFormatError):
            parse_graph("n two")

    def test_comments_blanks_crlf(self):
        g = parse_graph("# header\r\n\r\nn 3\r\n# edge\r\ne 0 1\r\n\r\ne 1 2\r\n")
        assert g.edges == {(0, 1), (1, 2)}

    def test_roundtrip_canonical(self):
        text = "# a comment\nn 4\ne 2 3\ne 0 1\n"
        g = parse_graph(text)
        assert format_graph(g) == "n 4\ne 0 1\ne 2 3\n"
        assert parse_graph(format_graph(g)) == g


# Every parse_graph diagnostic, exact: (file text, message).
GRAPH_DIAGNOSTICS = [
    ("n 2\nn 3\n", "line 2: duplicate header line"),
    ("n 2\nn 3 4\n", "line 2: duplicate header line"),
    ("n 2 3\n", "line 1: header must be 'n <N>'"),
    ("n\n", "line 1: header must be 'n <N>'"),
    ("n -1\n", "line 1: vertex count must be nonnegative"),
    ("# c\ne 0 1\nn 2\n", "line 2: edge line before header"),
    ("e 0\nn 2\n", "line 1: edge line before header"),
    ("n 2\ne 0\n", "line 2: edge line must be 'e <u> <v>'"),
    ("n 2\ne 0 1 1\n", "line 2: edge line must be 'e <u> <v>'"),
    ("n 2\ne\n", "line 2: edge line must be 'e <u> <v>'"),
    ("n 2\ne 1 1\n", "line 2: loop edge (1, 1)"),
    ("n 2\ne 5 5\n", "line 2: loop edge (5, 5)"),
    ("n 2\ne 0 2\n", "line 2: vertex id outside [0, 2)"),
    ("n 2\ne -1 0\n", "line 2: vertex id outside [0, 2)"),
    ("n 0\ne 0 1\n", "line 2: vertex id outside [0, 0)"),
    ("n 2\ne 0 1\ne 0 1\n", "line 3: duplicate edge (0, 1)"),
    ("n 3\ne 00 1\ne 0 +1\n", "line 3: duplicate edge (0, 1)"),
    ("n two\n", "line 1: expected integer, got 'two'"),
    ("n 2\ne 0 x\n", "line 2: expected integer, got 'x'"),
    ("n 2\ne y x\n", "line 2: expected integer, got 'y'"),
    ("n 2\ne 0 1.0\n", "line 2: expected integer, got '1.0'"),
    ("n 3\ne \u00b2 1\n", "line 2: expected integer, got '\u00b2'"),
    ("n 2\nx 0 1\n", "line 2: unknown directive 'x'"),
    ("n 2\ne0 1\n", "line 2: unknown directive 'e0'"),
    ("n 2\nN 2\n", "line 2: unknown directive 'N'"),
    ("# nothing here\n", "missing header line 'n <N>'"),
    ("", "missing header line 'n <N>'"),
    # Blank lines, comments and CRLF still count toward line numbers.
    ("# c\r\n\r\n  n 3\r\n  # e 0 0\r\n\te 1 1\r\n", "line 5: loop edge (1, 1)"),
    # The first error in file order wins.
    ("n 4\ne 0 1\ne 0 1\ne 2 3\ne 3 3\n", "line 3: duplicate edge (0, 1)"),
    ("n 4\ne 3 3\ne 0 1\ne 0 1\n", "line 2: loop edge (3, 3)"),
    ("n 2\ne 0 1\nq\ne 1 1\n", "line 3: unknown directive 'q'"),
    ("n 2\ne 0 1\ne 0 9\nn 3\n", "line 3: vertex id outside [0, 2)"),
    ("n 2\ne 0 1\nn 3\ne 1 1\n", "line 3: duplicate header line"),
    ("n 2\ne 0 1\ne 1 0\ne x 1\ne 1 1\n", "line 4: expected integer, got 'x'"),
]


@pytest.mark.parametrize("text, message", GRAPH_DIAGNOSTICS)
def test_parse_graph_diagnostic(text, message):
    with pytest.raises(GraphFormatError) as info:
        parse_graph(text)
    assert str(info.value) == message


# Texts that parse, some canonical (as format_graph writes them) and some
# not: (file text, N, edges).
GRAPH_ACCEPTED = [
    ("n 3\ne 0 1\ne 1 2\n", 3, {(0, 1), (1, 2)}),
    ("n 3\ne 0 1", 3, {(0, 1)}),
    ("n 03\ne 00 1\n", 3, {(0, 1)}),
    ("n 0\n", 0, set()),
    ("n 3\ne 0 1 \n", 3, {(0, 1)}),
    ("n 3\ne \u0661 2\n", 3, {(1, 2)}),
    ("n 3\ne +0 1\n", 3, {(0, 1)}),
    ("n 3\r\ne 0 1\r\n", 3, {(0, 1)}),
    ("# c\nn 3\ne 0 1\n", 3, {(0, 1)}),
    # Only LF, CRLF and CR end a line; a form feed is whitespace.
    ("# note\x0cmore\nn 3\ne 0 1\n", 3, {(0, 1)}),
    ("n 3\re 0 1\r", 3, {(0, 1)}),
]


@pytest.mark.parametrize("text, n, edges", GRAPH_ACCEPTED)
def test_parse_graph_accepts(text, n, edges):
    g = parse_graph(text)
    assert g.n == n and g.edges == edges
    assert all(type(x) is int for e in g.edges for x in e)


def test_canonical_text_skips_the_line_loop(monkeypatch):
    def line_loop(text):
        raise AssertionError("canonical text fell back to the line loop")

    text = format_graph(Digraph(5, [(0, 1), (3, 4), (1, 4)]))
    monkeypatch.setattr(graph, "_parse_lines", line_loop)
    assert parse_graph(text) == Digraph(5, [(0, 1), (3, 4), (1, 4)])
    assert parse_graph(text.rstrip("\n")) == Digraph(5, [(0, 1), (3, 4), (1, 4)])


# Traced peak of parse_graph on the canonical text of the DAG on 6000
# vertices with the edges u -> u+1 .. u+30 (179,535 edges, 2.09 MB): 19.8 MB
# on CPython 3.11, with about 10 % headroom.  Slice copies of the endpoint
# and key lists, since removed, made it 24.1 MB.
CANONICAL_PARSE_PEAK = 22 * 10**6


def test_canonical_parse_peak():
    n, width = 6000, 30
    text = f"n {n}\n" + "".join(f"e {u} {v}\n" for u in range(n)
                                for v in range(u + 1, min(n, u + width + 1)))
    tracemalloc.start()
    try:
        g = parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count == 179_535
    assert peak < CANONICAL_PARSE_PEAK, peak


def _outcome(parse, text):
    try:
        g = parse(text)
    except GraphFormatError as exc:
        return str(exc)
    return g.n, g.edges


# What one defect may write into a canonical text.
_DEFECT_CHARS = "0123456789 \n\r\tenx#-+\u0661\u00b2"


@st.composite
def mutated_canonical_texts(draw):
    text = format_graph(draw(digraphs(max_n=8)))
    kind = draw(st.sampled_from(["replace", "insert", "delete", "repeat_line", "edge", "header"]))
    lines = text.splitlines(keepends=True)
    if kind == "header":
        return f"n {draw(st.sampled_from([1, 10**18]))}\n" + "".join(lines[1:])
    if kind == "repeat_line":
        return text + draw(st.sampled_from(lines))
    if kind == "edge":  # one more edge line, maybe a loop or out of range
        i = draw(st.integers(1, len(lines)))
        u, v = draw(st.integers(0, 9)), draw(st.integers(0, 9))
        return "".join(lines[:i]) + f"e {u} {v}\n" + "".join(lines[i:])
    i = draw(st.integers(0, len(text) - (kind != "insert")))
    if kind == "delete":
        return text[:i] + text[i + 1:]
    c = draw(st.sampled_from(_DEFECT_CHARS))
    return text[:i] + c + text[i + (kind == "replace"):]


@given(mutated_canonical_texts())
@settings(max_examples=400, deadline=None)
def test_mutated_canonical_text_matches_line_loop(text):
    # The whole-text check must give the line loop's graph or diagnostic.
    assert _outcome(parse_graph, text) == _outcome(graph._parse_lines, text)


def test_every_short_text_matches_line_loop():
    # All 55,987 texts of at most six characters over ids, separators and
    # the letters of header and edge lines.
    for size in range(7):
        for chars in product("01 \nen", repeat=size):
            text = "".join(chars)
            assert _outcome(parse_graph, text) == _outcome(graph._parse_lines, text), text


# Canonical texts with headers of any size, some with edges at the top
# of the id range: memory and time follow the edges, not N.
# (file text, N, edges)
_TOP = 10**18 - 1
HUGE_HEADERS = [
    ("n 4194305\n", 4194305, set()),
    ("n 4194305\ne 0 1\ne 1 2\n", 4194305, {(0, 1), (1, 2)}),
    ("n 2000000000\ne 1999999999 0\n", 2000000000, {(1999999999, 0)}),
    (f"n {10**18}\ne 0 {_TOP}\ne {_TOP - 2} {_TOP - 1}\ne {_TOP - 1} {_TOP}\n", 10**18,
     {(0, _TOP), (_TOP - 2, _TOP - 1), (_TOP - 1, _TOP)}),
]


def test_any_vertex_count_loads(monkeypatch):
    for text, n, edges in HUGE_HEADERS:
        for parse in (parse_graph, graph._parse_lines):
            g = parse(text)
            assert g.n == n and g.edges == edges, (parse, text)
    # A canonical text takes no detour through the line loop for its N.
    def line_loop(text):
        raise AssertionError("canonical text fell back to the line loop")

    monkeypatch.setattr(graph, "_parse_lines", line_loop)
    for text, n, _ in HUGE_HEADERS:
        assert parse_graph(text).n == n


class TestDigraph:
    def test_construction_rejects_loop(self):
        with pytest.raises(ValueError, match="loop"):
            Digraph(2, [(1, 1)])

    def test_construction_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Digraph(2, [(0, 5)])
        with pytest.raises(ValueError):
            Digraph(2, [(-1, 0)])

    @pytest.mark.parametrize("n, edges, message", [
        # A loop and an out-of-range edge in either order: the smallest wins.
        (3, [(2, 2), (0, 5)], "edge (0, 5) has an endpoint outside [0, 3)"),
        (3, [(0, 5), (2, 2)], "edge (0, 5) has an endpoint outside [0, 3)"),
        (3, [(0, 0), (1, 7)], "loop edge (0, 0) is not allowed"),
        (3, [(1, 7), (0, 0)], "loop edge (0, 0) is not allowed"),
        (3, [(5, 5)], "loop edge (5, 5) is not allowed"),
        (3, [(0, 1), (1, -2)], "edge (1, -2) has an endpoint outside [0, 3)"),
        (3, [(0, 1), (-1, 0)], "edge (-1, 0) has an endpoint outside [0, 3)"),
        (-1, [], "vertex count must be nonnegative, got -1"),
    ])
    def test_construction_message(self, n, edges, message):
        with pytest.raises(ValueError) as info:
            Digraph(n, edges)
        assert str(info.value) == message

    def test_repeated_edge_counts_once(self):
        g = Digraph(3, [(0, 1), (1, 2), (0, 1), (1, 2)])
        assert g == Digraph(3, [(0, 1), (1, 2)])
        assert g.edge_count == 2
        assert g.edges == {(0, 1), (1, 2)}
        with pytest.raises(TypeError):
            Digraph(3, [(0, 1), ("1", "2")])

    def test_adjacency_sorted(self):
        g = Digraph(4, [(0, 3), (0, 1), (0, 2), (2, 0)])
        assert g.successors(0) == (1, 2, 3)
        assert g.predecessors(0) == (2,)

    def test_equality(self):
        assert Digraph(3, [(0, 1)]) == Digraph(3, [(0, 1)])
        assert Digraph(3, [(0, 1)]) != Digraph(4, [(0, 1)])


class TestDegrees:
    def test_diamond_source(self):
        assert DIAMOND.predecessors(0) == () and DIAMOND.successors(0) == (1, 2)

    def test_diamond_sink(self):
        assert DIAMOND.predecessors(3) == (1, 2) and DIAMOND.successors(3) == ()

    def test_edgeless(self):
        g = Digraph(3)
        assert all(g.predecessors(v) == g.successors(v) == () for v in range(3))

    def test_out_of_range(self):
        for neighbours in (DIAMOND.predecessors, DIAMOND.successors):
            with pytest.raises(ValueError, match=r"^vertex 4 outside \[0, 4\)$"):
                neighbours(4)


class TestAcyclic:
    def test_diamond(self):
        assert is_acyclic(DIAMOND)

    def test_two_cycle(self):
        assert not is_acyclic(Digraph(2, [(0, 1), (1, 0)]))

    def test_edgeless(self):
        assert is_acyclic(Digraph(5))

    def test_self_reach_closure_oracle(self):
        # Independent oracle: repeated-relaxation transitive closure; a cycle
        # exists iff some vertex reaches itself through at least one edge.
        def cyclic_by_closure(g):
            reach = {(u, v) for u, v in g.edges}
            grew = True
            while grew:
                grew = False
                for a, b in list(reach):
                    for c, d in list(reach):
                        if b == c and (a, d) not in reach:
                            reach.add((a, d))
                            grew = True
            return any((v, v) in reach for v in range(g.n))

        @given(digraphs(max_n=6))
        @settings(max_examples=150, deadline=None)
        def check(g):
            assert is_acyclic(g) == (not cyclic_by_closure(g))

        check()


@given(digraphs())
@settings(max_examples=100, deadline=None)
def test_degree_sums_equal_edge_count(g):
    indegs = sum(len(g.predecessors(v)) for v in range(g.n))
    outdegs = sum(len(g.successors(v)) for v in range(g.n))
    assert indegs == outdegs == g.edge_count


@given(digraphs())
@settings(max_examples=100, deadline=None)
def test_format_parse_roundtrip(g):
    assert parse_graph(format_graph(g)) == g


@st.composite
def edge_lists(draw, max_n=8):
    """(n, edges): a vertex count and distinct non-loop edges in random order."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return n, draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))


@given(edge_lists())
@settings(max_examples=200, deadline=None)
def test_representation_matches_tuple_set_model(case):
    n, edges = case
    model = set(edges)
    lines = "".join(f"e {u} {v}\n" for u, v in edges)
    graphs = [
        Digraph(n, edges),
        Digraph(n, edges + edges[::-1]),         # a repeated edge counts once
        parse_graph(f"n {n}\n{lines}"),          # canonical form, any line order
        parse_graph(f"# c\nn {n}\n{lines}"),     # the line loop
        parse_graph(format_graph(Digraph(n, edges))),
    ]
    for g in graphs:
        assert type(g.edges) is frozenset and g.edges == model
        assert g.edge_count == len(model)
        for v in range(n):
            assert g.successors(v) == tuple(sorted(b for a, b in model if a == v))
            assert g.predecessors(v) == tuple(sorted(a for a, b in model if b == v))
        # One map holds both sides, keyed by exactly the vertices with an edge.
        assert g._adjacency.keys() == {v for edge in model for v in edge}
        for v, sides in g._adjacency.items():
            assert sides == (g.successors(v), g.predecessors(v))
        assert g == graphs[0] and hash(g) == hash(graphs[0])
    assert graphs[0] != Digraph(n + 1, edges)
    if edges:
        assert graphs[0] != Digraph(n, edges[1:])
