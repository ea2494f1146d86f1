import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathreach.dagcover import (
    CyclicGraphError,
    EdgeIndexing,
    assign_edge_indices,
    minimal_path_decomposition,
    trace_path,
)
from pathreach.decomposition import (
    Walk,
    WalkDecomposition,
    format_decomposition,
    parse_decomposition,
    path_number_lower_bound,
    validate_path_decomposition,
)
from pathreach.graph import Digraph, degrees, format_graph, parse_graph
from pathreach.testkit import gen_random_dag

DIAMOND = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
PATH3 = Digraph(3, [(0, 1), (1, 2)])


def random_dags():
    return st.builds(
        gen_random_dag,
        n=st.integers(min_value=0, max_value=16),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**63),
    )


class TestAssign:
    def test_diamond(self):
        idx = assign_edge_indices(DIAMOND)
        assert idx.out_index[(0, 1)] == 1
        assert idx.out_index[(0, 2)] == 2
        assert idx.in_index[(1, 3)] == 1
        assert idx.in_index[(2, 3)] == 2

    def test_single_edge(self):
        idx = assign_edge_indices(Digraph(2, [(0, 1)]))
        assert idx.out_index[(0, 1)] == 1
        assert idx.in_index[(0, 1)] == 1

    def test_edgeless(self):
        idx = assign_edge_indices(Digraph(3))
        assert idx.in_index == {} and idx.out_index == {}

    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_indices_are_permutations(self, g):
        idx = assign_edge_indices(g)
        for v in range(g.n):
            ins = sorted(idx.in_index[(u, v)] for u in g.predecessors(v))
            outs = sorted(idx.out_index[(v, x)] for x in g.successors(v))
            assert ins == list(range(1, degrees(g, v).indeg + 1))
            assert outs == list(range(1, degrees(g, v).outdeg + 1))


class TestTrace:
    def test_diamond_second_start(self):
        idx = assign_edge_indices(DIAMOND)
        assert trace_path(DIAMOND, idx, (0, 2)) == Walk([0, 2, 3])

    def test_single_edge(self):
        g = Digraph(2, [(0, 1)])
        assert trace_path(g, assign_edge_indices(g), (0, 1)) == Walk([0, 1])

    def test_path_graph(self):
        assert trace_path(PATH3, assign_edge_indices(PATH3), (0, 1)) == Walk([0, 1, 2])

    def test_start_not_in_graph(self):
        with pytest.raises(ValueError, match="not in the graph"):
            trace_path(PATH3, assign_edge_indices(PATH3), (0, 2))

    def test_illegal_start(self):
        # (1, 2) carries out number 1 which does not exceed indeg(1) = 1
        with pytest.raises(ValueError, match="not a legal path start"):
            trace_path(PATH3, assign_edge_indices(PATH3), (1, 2))

    def test_cycle_detected(self):
        g = Digraph(3, [(0, 1), (1, 2), (2, 1)])
        with pytest.raises(CyclicGraphError):
            trace_path(g, assign_edge_indices(g), (0, 1))

    def test_revisit_within_length_guard(self):
        # The trace from (0, 1) is [0, 1, 2, 1, 3]: five vertices on five
        # vertex ids, so the length guard stays quiet and only the revisit
        # check can reject it.
        g = Digraph(5, [(0, 1), (1, 2), (2, 1), (1, 3)])
        with pytest.raises(CyclicGraphError, match="revisits a vertex"):
            trace_path(g, assign_edge_indices(g), (0, 1))


class TestMinimalDecomposition:
    def test_diamond(self):
        cover = minimal_path_decomposition(DIAMOND)
        assert list(cover) == [Walk([0, 1, 3]), Walk([0, 2, 3])]
        assert cover.k == path_number_lower_bound(DIAMOND) == 2

    def test_path_graph(self):
        cover = minimal_path_decomposition(PATH3)
        assert list(cover) == [Walk([0, 1, 2])]

    def test_cyclic_rejected(self):
        with pytest.raises(CyclicGraphError, match="not acyclic"):
            minimal_path_decomposition(Digraph(2, [(0, 1), (1, 0)]))

    def test_cycle_with_simple_covering_traces_rejected(self):
        # 1 -> 3 -> 1 is a cycle, yet the traces from the legal starts,
        # (1, 3, 0) and (4, 3, 1, 2), are simple and cover all five edges:
        # no check of coverage or revisits can stand in for the acyclicity
        # check that minimal_path_decomposition makes first.
        g = Digraph(5, [(4, 3), (3, 0), (3, 1), (1, 2), (1, 3)])
        idx = assign_edge_indices(g)
        traces = [trace_path(g, idx, start).vertices for start in [(1, 3), (4, 3)]]
        assert traces == [(1, 3, 0), (4, 3, 1, 2)]
        assert validate_path_decomposition(g, WalkDecomposition(traces)).ok
        with pytest.raises(CyclicGraphError, match="^graph is not acyclic$"):
            minimal_path_decomposition(g)

    def test_edgeless(self):
        assert minimal_path_decomposition(Digraph(5)).k == 0

    def test_deterministic_emission_order(self):
        g = Digraph(5, [(0, 2), (0, 3), (1, 2), (2, 4), (3, 4)])
        first = minimal_path_decomposition(g)
        second = minimal_path_decomposition(g)
        assert list(first) == list(second)
        starts = [w[0] for w in first]
        assert starts == sorted(starts)

    @given(random_dags())
    @settings(max_examples=100, deadline=None)
    def test_cover_is_valid_and_minimal(self, g):
        cover = minimal_path_decomposition(g)
        assert validate_path_decomposition(g, cover).ok
        assert cover.k == path_number_lower_bound(g)
        assert all(w.is_simple for w in cover)

    @given(random_dags())
    @settings(max_examples=100, deadline=None)
    def test_matches_traces_of_assigned_indexing(self, g):
        # Reference: trace_path over assign_edge_indices from every legal
        # start, in (vertex, out number) order.
        idx = assign_edge_indices(g)
        reference = []
        for v in range(g.n):
            for x in sorted(g.successors(v), key=lambda x: idx.out_index[(v, x)]):
                if idx.out_index[(v, x)] > degrees(g, v).indeg:
                    reference.append(trace_path(g, idx, (v, x)))
        assert list(minimal_path_decomposition(g)) == reference

    @given(random_dags())
    @settings(max_examples=100, deadline=None)
    def test_cover_walks_pass_walk_checks(self, g):
        # The cover's walks are built without Walk.__init__; rebuilding each
        # one through it must give the same family, on int vertex ids.
        cover = minimal_path_decomposition(g)
        assert WalkDecomposition([Walk(list(p)) for p in cover]) == cover
        assert all(type(v) is int for p in cover for v in p.vertices)

    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_file_round_trips(self, g):
        assert parse_graph(format_graph(g)) == g
        cover = minimal_path_decomposition(g)
        assert parse_decomposition(format_decomposition(cover)) == cover

    @given(random_dags(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_any_valid_indexing_works(self, g, rng):
        # Shuffle each vertex's in and out numbering; the traces must still
        # form a valid decomposition of minimal size.
        idx = assign_edge_indices(g)
        in_index = dict(idx.in_index)
        out_index = dict(idx.out_index)
        for v in range(g.n):
            preds = list(g.predecessors(v))
            ranks = list(range(1, len(preds) + 1))
            rng.shuffle(ranks)
            for u, r in zip(preds, ranks):
                in_index[(u, v)] = r
            succs = list(g.successors(v))
            ranks = list(range(1, len(succs) + 1))
            rng.shuffle(ranks)
            for x, r in zip(succs, ranks):
                out_index[(v, x)] = r
        shuffled = EdgeIndexing(in_index=in_index, out_index=out_index)
        walks = []
        for v in range(g.n):
            indeg = degrees(g, v).indeg
            for x in g.successors(v):
                if shuffled.out_index[(v, x)] > indeg:
                    walks.append(trace_path(g, shuffled, (v, x)))
        cover = WalkDecomposition(walks)
        assert validate_path_decomposition(g, cover).ok
        assert cover.k == path_number_lower_bound(g)
