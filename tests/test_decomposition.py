from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathreach import decomposition
from pathreach.dagcover import minimal_path_decomposition
from pathreach.decomposition import (
    DecompositionFormatError,
    ValidationReport,
    Violation,
    ViolationKind,
    Walk,
    WalkDecomposition,
    format_decomposition,
    parse_decomposition,
    path_number_lower_bound,
    union_graph,
    validate_path_decomposition,
    validate_walk_decomposition,
)
from pathreach.graph import Digraph

from .conftest import overlap_instance


class TestWalk:
    def test_requires_vertices(self):
        with pytest.raises(ValueError):
            Walk([])

    def test_rejects_loop_step(self):
        with pytest.raises(ValueError, match="loop"):
            Walk([0, 0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Walk([0, -1])

    def test_simple(self):
        assert Walk([0, 1, 2]).is_simple
        assert not Walk([0, 1, 0]).is_simple
        assert Walk([7]).is_simple

    def test_steps(self):
        assert list(Walk([3, 1, 4]).steps()) == [(3, 1), (1, 4)]
        assert list(Walk([5]).steps()) == []


class TestUnionGraph:
    def test_overlapping_walks_dedup(self):
        g = union_graph(overlap_instance(), 11)
        assert g.edge_count == 13

    def test_single_walk(self):
        g = union_graph(WalkDecomposition([[0, 1, 2]]), 3)
        assert g.edges == {(0, 1), (1, 2)}

    def test_empty(self):
        g = union_graph(WalkDecomposition(), 4)
        assert g.n == 4 and g.edge_count == 0
        # The empty family uses no vertex id, so it fits on no vertices.
        empty = WalkDecomposition()
        assert empty.implied_vertex_count == 0
        assert union_graph(empty, 0).n == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            union_graph(WalkDecomposition([[0, 5]]), 3)
        with pytest.raises(ValueError, match=r"^walk vertex 3 outside \[0, 3\)$"):
            union_graph(WalkDecomposition([[0, 3]]), 3)

    def test_negative_vertex_count(self):
        with pytest.raises(ValueError, match=r"^vertex count must be nonnegative, got -1$"):
            union_graph(WalkDecomposition(), -1)
        with pytest.raises(ValueError, match=r"^vertex count must be nonnegative, got -2$"):
            union_graph(WalkDecomposition([[0, 1]]), -2)

    def test_single_vertex_walks_add_nothing(self):
        g = union_graph(WalkDecomposition([[2], [0, 1]]), 3)
        assert g.edges == {(0, 1)}


class TestValidatePaths:
    def test_three_disjoint_paths_ok(self):
        paths = WalkDecomposition([[0, 1, 2, 3], [4, 1, 5], [2, 6]])
        g = union_graph(paths, 7)
        report = validate_path_decomposition(g, paths)
        assert report.ok and report.violations == ()

    def test_uncovered(self):
        g = Digraph(3, [(0, 1), (1, 2)])
        report = validate_path_decomposition(g, WalkDecomposition([[0, 1]]))
        assert not report.ok
        assert any(v.kind is ViolationKind.EDGE_UNCOVERED and "(1, 2)" in v.detail
                   for v in report.violations)

    def test_repeated(self):
        g = Digraph(2, [(0, 1)])
        report = validate_path_decomposition(g, WalkDecomposition([[0, 1], [0, 1]]))
        assert not report.ok
        assert any(v.kind is ViolationKind.EDGE_REPEATED for v in report.violations)

    def test_not_simple(self):
        walk = WalkDecomposition([[0, 1, 0]])
        g = union_graph(walk, 2)
        report = validate_path_decomposition(g, walk)
        assert any(v.kind is ViolationKind.NOT_SIMPLE for v in report.violations)

    def test_edge_not_in_graph(self):
        g = Digraph(3, [(0, 1)])
        report = validate_path_decomposition(g, WalkDecomposition([[0, 1, 2]]))
        assert any(v.kind is ViolationKind.EDGE_NOT_IN_GRAPH and "(1, 2)" in v.detail
                   for v in report.violations)

    def test_never_raises_collects_all(self):
        g = Digraph(4, [(0, 1), (2, 3)])
        report = validate_path_decomposition(g, WalkDecomposition([[0, 1, 0]]))
        kinds = {v.kind for v in report.violations}
        assert ViolationKind.NOT_SIMPLE in kinds
        assert ViolationKind.EDGE_UNCOVERED in kinds
        assert ViolationKind.EDGE_NOT_IN_GRAPH in kinds

    def test_report_ok_means_no_violations(self):
        assert ValidationReport(()).ok
        assert not ValidationReport((Violation(ViolationKind.EDGE_UNCOVERED, "x"),)).ok


def test_validators_use_edge_keys_only(monkeypatch):
    def pairs(self):
        raise AssertionError("a validator built Digraph.edges")

    g = Digraph(4, [(0, 1), (1, 2), (2, 3)])
    monkeypatch.setattr(Digraph, "edges", property(pairs))
    # a valid cover, a broken one, and one with a step to id 7 >= n
    for family, ok in (([[0, 1, 2, 3]], True), ([[0, 1], [1, 2, 0]], False),
                       ([[0, 1, 2, 3, 7]], False)):
        for validate in (validate_path_decomposition, validate_walk_decomposition):
            assert validate(g, WalkDecomposition(family)).ok is ok


class TestValidateWalks:
    def test_overlap_instance_ok(self):
        w = overlap_instance()
        g = union_graph(w, 11)
        assert validate_walk_decomposition(g, w).ok

    def test_overlap_allowed(self):
        g = Digraph(3, [(0, 1), (1, 2)])
        w = WalkDecomposition([[0, 1, 2], [0, 1]])
        assert validate_walk_decomposition(g, w).ok

    def test_uncovered(self):
        g = Digraph(3, [(0, 1), (1, 2)])
        report = validate_walk_decomposition(g, WalkDecomposition([[0, 1]]))
        assert not report.ok
        assert any(v.kind is ViolationKind.EDGE_UNCOVERED and "(1, 2)" in v.detail
                   for v in report.violations)

    def test_repeats_are_fine(self):
        g = Digraph(2, [(0, 1)])
        assert validate_walk_decomposition(g, WalkDecomposition([[0, 1], [0, 1]])).ok
        g2 = Digraph(2, [(0, 1), (1, 0)])
        assert validate_walk_decomposition(g2, WalkDecomposition([[0, 1, 0, 1]])).ok

    def test_empty_family_valid_exactly_for_edgeless(self):
        empty = WalkDecomposition()
        assert validate_walk_decomposition(Digraph(3), empty).ok
        assert validate_path_decomposition(Digraph(3), empty).ok
        report = validate_walk_decomposition(Digraph(2, [(0, 1)]), empty)
        assert not report.ok
        assert report.violations[0].kind is ViolationKind.EDGE_UNCOVERED


class TestLowerBound:
    def test_diamond(self):
        g = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert path_number_lower_bound(g) == 2

    def test_single_path(self):
        g = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert path_number_lower_bound(g) == 1

    def test_edgeless(self):
        assert path_number_lower_bound(Digraph(6)) == 0

    def test_out_star(self):
        g = Digraph(5, [(0, i) for i in range(1, 5)])
        assert path_number_lower_bound(g) == 4


@st.composite
def _graphs_with_degree_extremes(draw):
    """A random graph on n core vertices, plus a pure source and a pure sink
    joined through a drawn fan of core vertices, plus isolated vertices."""
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20))
    fan = draw(st.lists(st.integers(min_value=0, max_value=n - 1), unique=True))
    isolated = draw(st.integers(min_value=0, max_value=3))
    source, sink = n, n + 1
    edges += [(source, v) for v in fan] + [(v, sink) for v in fan]
    return Digraph(n + 2 + isolated, edges)


@given(_graphs_with_degree_extremes())
def test_lower_bound_matches_degree_sum(g):
    assert path_number_lower_bound(g) == sum(
        max(0, len(g.successors(v)) - len(g.predecessors(v))) for v in range(g.n))


class TestFileFormat:
    def test_parse(self):
        w = parse_decomposition("# two walks\n0 1 2\n\n3 0\n")
        assert w.k == 2
        assert w[0] == Walk([0, 1, 2]) and w[1] == Walk([3, 0])

    def test_empty_file(self):
        assert parse_decomposition("# only comments\n").k == 0
        assert parse_decomposition("").k == 0

    def test_single_vertex_line(self):
        assert parse_decomposition("7\n")[0] == Walk([7])

    def test_bad_token(self):
        with pytest.raises(DecompositionFormatError, match="line 1"):
            parse_decomposition("0 x 2\n")

    def test_loop_step(self):
        with pytest.raises(DecompositionFormatError, match="line 2"):
            parse_decomposition("0 1\n3 3\n")

    def test_roundtrip(self):
        w = WalkDecomposition([[0, 1, 2], [5], [2, 0]])
        assert parse_decomposition(format_decomposition(w)) == w
        assert format_decomposition(WalkDecomposition()) == ""


# Every parse_decomposition diagnostic, exact: (file text, message).
DECOMPOSITION_DIAGNOSTICS = [
    ("0 x 2\n", "line 1: walk lines must contain integers"),
    ("0 1\n\n# c\n2 1.5\n", "line 4: walk lines must contain integers"),
    ("-1 x\n", "line 1: walk lines must contain integers"),
    ("0 -4 2\n", "line 1: negative vertex id -4"),
    ("0 1\n3 3\n", "line 2: loop step (3, 3) is not allowed"),
    ("7 1 2 2\n", "line 1: loop step (2, 2) is not allowed"),
    # The first offending value wins; negative ids are checked before loops.
    ("3 -1 -2\n", "line 1: negative vertex id -1"),
    ("0 1 1 -1\n", "line 1: negative vertex id -1"),
    ("4 4 5 5\n", "line 1: loop step (4, 4) is not allowed"),
    ("0 1\r\n\r\n1 1\r\n2 -3\r\n", "line 3: loop step (1, 1) is not allowed"),
]


@pytest.mark.parametrize("text, message", DECOMPOSITION_DIAGNOSTICS)
def test_parse_decomposition_diagnostic(text, message):
    with pytest.raises(DecompositionFormatError) as info:
        parse_decomposition(text)
    assert str(info.value) == message


# Texts that parse, some canonical (as format_decomposition writes them)
# and some not: (file text, vertex tuples).
DECOMPOSITION_ACCEPTED = [
    ("", []),
    ("0 1 2\n5\n2 0\n", [(0, 1, 2), (5,), (2, 0)]),
    ("0 1 2\n2 0", [(0, 1, 2), (2, 0)]),
    ("00 1\n", [(0, 1)]),
    ("3000000000 0\n", [(3000000000, 0)]),
    ("0 1 \n", [(0, 1)]),
    ("\u0661 2\n", [(1, 2)]),
    ("0  1\r\n\n# c\n+2 1\n", [(0, 1), (2, 1)]),
    # Only LF, CRLF and CR end a line; a form feed or U+2028 is whitespace.
    ("0 1\x0c2\n", [(0, 1, 2)]),
    ("0 1\u20282 3\n", [(0, 1, 2, 3)]),
    ("0 1\r2 3\r", [(0, 1), (2, 3)]),
]


@pytest.mark.parametrize("text, paths", DECOMPOSITION_ACCEPTED)
def test_parse_decomposition_accepts(text, paths):
    w = parse_decomposition(text)
    assert [walk.vertices for walk in w] == paths
    assert all(type(v) is int for walk in w for v in walk)


def test_canonical_text_skips_the_line_loop(monkeypatch):
    def line_loop(text):
        raise AssertionError("canonical text fell back to the line loop")

    w = WalkDecomposition([[0, 1, 2], [5], [2, 0]])
    monkeypatch.setattr(decomposition, "_parse_lines", line_loop)
    assert parse_decomposition(format_decomposition(w)) == w
    assert parse_decomposition("") == WalkDecomposition()


def _outcome(parse, text):
    try:
        return [walk.vertices for walk in parse(text)]
    except DecompositionFormatError as exc:
        return str(exc)


@st.composite
def mutated_canonical_texts(draw):
    text = format_decomposition(draw(walk_families(max_id=6)))
    i = draw(st.integers(0, len(text)))
    c = draw(st.sampled_from("0123456789 \n\r\t#-+x\u0661\u00b2"))
    kind = draw(st.sampled_from(["replace", "insert", "delete"]))
    if kind == "insert":
        return text[:i] + c + text[i:]
    return text[:i] + (c if kind == "replace" else "") + text[i + 1:]


@given(mutated_canonical_texts())
@settings(max_examples=400, deadline=None)
def test_mutated_canonical_text_matches_line_loop(text):
    # The whole-text check must give the line loop's walks or diagnostic.
    assert _outcome(parse_decomposition, text) == _outcome(decomposition._parse_lines, text)


def test_every_short_text_matches_line_loop():
    # All 55,987 texts of at most six characters over ids, separators,
    # comments and minus signs.
    for size in range(7):
        for chars in product("01 \n#-", repeat=size):
            text = "".join(chars)
            assert (_outcome(parse_decomposition, text)
                    == _outcome(decomposition._parse_lines, text)), text


@pytest.mark.parametrize("vertices, message", [
    ([], "a walk needs at least one vertex"),
    ([0, -1], "negative vertex id -1"),
    ([2, -7, -1, 2, 2], "negative vertex id -7"),
    ([0, 0], "loop step (0, 0) is not allowed"),
    ([1, 2, 1, 3, 3, 4, 4], "loop step (3, 3) is not allowed"),
])
def test_walk_diagnostic(vertices, message):
    with pytest.raises(ValueError) as info:
        Walk(vertices)
    assert str(info.value) == message


# A float or str id or vertex count raises instead of being truncated,
# split into digits or silently kept.
@pytest.mark.parametrize("build", [
    lambda: Walk([0.5, 1.7]),
    lambda: Walk(["1", "2"]),
    lambda: WalkDecomposition(["12", "3"]),
    lambda: Digraph(5, ["12"]),
    lambda: Digraph(5, [(0, 1.0)]),
    lambda: Digraph(4.5, [(0, 1)]),
    lambda: Digraph(3, [(0, 1)]).successors(1.5),
    lambda: Digraph(3, [(0, 1)]).predecessors(1.0),
    lambda: union_graph(WalkDecomposition([[0, 1, 2, 3]]), 4.5),
], ids=["walk-float", "walk-str", "family-str", "digraph-str", "digraph-float",
        "digraph-float-count", "successors-float", "predecessors-float",
        "union-graph-float-count"])
def test_non_integer_id_raises_type_error(build):
    with pytest.raises(TypeError):
        build()


def walk_families(max_id=2**40):
    # Vertex lists with consecutive repeats collapsed, so no loop steps.
    def walk(vs):
        return [v for i, v in enumerate(vs) if i == 0 or vs[i - 1] != v]
    vertex_lists = st.lists(st.integers(min_value=0, max_value=max_id), min_size=1)
    return st.lists(vertex_lists.map(walk)).map(WalkDecomposition)


@given(walk_families())
@settings(max_examples=100, deadline=None)
def test_each_walk_is_checked_once(w):
    walks = [Walk(vs) for vs in w._paths]
    checked = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decomposition, "_check_walk", checked.append)
        # A plain sequence is checked where it enters the family...
        assert WalkDecomposition(map(list, w._paths)) == w
        assert len(checked) == w.k
        checked.clear()
        # ...and the views, iteration, indexing and a family built from
        # existing Walks check nothing again.
        assert w.walks == tuple(walks)
        assert list(w) == [w[i] for i in range(w.k)] == walks
        assert WalkDecomposition(walks) == WalkDecomposition(w) == w
        assert not checked


@given(walk_families())
@settings(max_examples=100, deadline=None)
def test_format_parse_roundtrip(w):
    assert parse_decomposition(format_decomposition(w)) == w


@st.composite
def path_decompositions(draw):
    # Build a valid path decomposition directly: simple vertex-disjoint-in-use
    # chains whose steps never collide, by carving paths out of a shuffled
    # vertex pool.
    n = draw(st.integers(min_value=1, max_value=12))
    order = draw(st.permutations(range(n)))
    paths = []
    pos = 0
    while pos < n:
        take = draw(st.integers(min_value=1, max_value=n - pos))
        chunk = list(order[pos:pos + take])
        pos += take
        paths.append(chunk)
    return WalkDecomposition([p for p in paths if len(p) >= 1])


@given(path_decompositions())
@settings(max_examples=100, deadline=None)
def test_valid_path_decomposition_properties(p):
    n = p.implied_vertex_count or 1
    g = union_graph(p, n)
    report = validate_path_decomposition(g, p)
    assert report.ok
    # total path length in edges equals the edge count
    assert sum(len(w) - 1 for w in p) == g.edge_count
    # every valid path decomposition is also a valid walk decomposition
    assert validate_walk_decomposition(g, p).ok


def _reference_violations(edges, paths, paths_mode):
    """(kind, detail) pairs of the validators, computed on tuple sets."""
    out = []
    if paths_mode:
        out += [("NOT_SIMPLE", f"walk {i} repeats a vertex: {list(vs)}")
                for i, vs in enumerate(paths) if len(set(vs)) < len(vs)]
    steps = [step for vs in paths for step in zip(vs, vs[1:])]
    counts = Counter(steps)
    out += [("EDGE_NOT_IN_GRAPH", f"step {e} is not an edge of the graph")
            for e in sorted(counts.keys() - edges)]
    if paths_mode:
        out += [("EDGE_REPEATED", f"edge {e} is used {counts[e]} times")
                for e in sorted(counts) if counts[e] > 1 and e in edges]
    noun = "path" if paths_mode else "walk"
    out += [("EDGE_UNCOVERED", f"edge {e} lies on no {noun}") for e in sorted(edges - counts.keys())]
    return out


MUTATIONS = ["none", "drop", "duplicate", "extra-step", "out-of-range", "repeat"]


@st.composite
def mutated_covers(draw):
    """(n, edges, family): a random DAG and its minimal cover, changed in one way."""
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    paths = [list(walk) for walk in minimal_path_decomposition(Digraph(n, edges))] or [[0]]
    i = draw(st.integers(0, len(paths) - 1))
    last = paths[i][-1]
    mutation = draw(st.sampled_from(MUTATIONS))
    if mutation == "drop":
        del paths[i]
    elif mutation == "duplicate":
        paths.append(paths[i])
    elif mutation == "extra-step":
        paths[i] = paths[i] + [draw(st.integers(0, n - 1).filter(lambda v: v != last))]
    elif mutation == "out-of-range":
        paths[i] = paths[i] + [n + draw(st.integers(0, 2 * n))]
    elif mutation == "repeat":
        paths[i] = paths[i] + [draw(st.sampled_from(paths[i][:-1] or [last + 1]))]
    return n, edges, paths


@st.composite
def graphs_with_families(draw):
    """(n, edges, family): any graph, and walks on ids up to n + 1 without loop steps."""
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    walk = st.lists(st.integers(0, n + 1), min_size=1, max_size=6).map(
        lambda vs: [v for j, v in enumerate(vs) if j == 0 or vs[j - 1] != v])
    return n, edges, draw(st.lists(walk, max_size=5))


@given(st.one_of(mutated_covers(), graphs_with_families()))
# The step (0, 5) has the key 0 * 3 + 5 of the edge (1, 2), so a key
# comparison alone would call this cover exact.
@example((3, [(1, 2)], [[0, 5]]))
# One report holding all four kinds, in kind order; each stray step has an
# id >= n.  In the second, (1, 9) has the key 1 * 4 + 9 of the edge (3, 1).
@example((3, [(0, 1), (1, 0), (1, 2)], [[0, 1, 0, 1, 3]]))
@example((4, [(0, 1), (1, 0), (2, 3), (3, 1)], [[0, 1, 0], [0, 1, 9]]))
@settings(max_examples=300, deadline=None)
def test_validators_match_tuple_set_reference(case):
    n, edges, paths = case
    g, w = Digraph(n, edges), WalkDecomposition(paths)
    for validate, paths_mode in ((validate_path_decomposition, True),
                                 (validate_walk_decomposition, False)):
        report = validate(g, w)
        got = [(v.kind.value, v.detail) for v in report.violations]
        assert got == _reference_violations(set(edges), paths, paths_mode)
        assert report.ok == (not got)
