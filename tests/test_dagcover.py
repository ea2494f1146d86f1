import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathreach.dagcover import CyclicGraphError, minimal_path_decomposition
from pathreach.decomposition import (
    Walk,
    WalkDecomposition,
    format_decomposition,
    parse_decomposition,
    path_number_lower_bound,
    validate_path_decomposition,
)
from pathreach.graph import Digraph, format_graph, parse_graph
from pathreach.testkit import numbered_cover

from .conftest import random_dags

DIAMOND = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
PATH3 = Digraph(3, [(0, 1), (1, 2)])


class TestAssign:
    """The numbering of testkit.numbered_cover, by ascending neighbour id or
    shuffled, seen through its traces."""

    def test_diamond(self):
        # Every numbering gives the same two paths; only the out numbers at
        # 0, which order the starts, can differ.
        for seed in range(8):
            cover = numbered_cover(DIAMOND, random.Random(seed))
            assert sorted(w.vertices for w in cover) == [(0, 1, 3), (0, 2, 3)]

    def test_single_edge(self):
        # Out number 1 exceeds indeg(0) = 0, under any numbering.
        g = Digraph(2, [(0, 1)])
        assert list(numbered_cover(g, random.Random(0))) == [Walk([0, 1])]

    def test_edgeless(self):
        assert numbered_cover(Digraph(3)).k == 0

    def test_shuffled_numbering_changes_pairing(self):
        # At 2, the in-edge from 0 pairs with the out-edge to 3 by ascending
        # id; some shuffled numberings pair it with the out-edge to 4.
        g = Digraph(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
        assert list(numbered_cover(g)) == [Walk([0, 2, 3]), Walk([1, 2, 4])]
        covers = {tuple(sorted(w.vertices for w in numbered_cover(g, random.Random(seed))))
                  for seed in range(16)}
        assert covers == {((0, 2, 3), (1, 2, 4)), ((0, 2, 4), (1, 2, 3))}

    @given(random_dags(max_n=16, min_n=0), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_indices_are_permutations(self, g, rng):
        # Numbers 1..indeg and 1..outdeg, in any order, leave exactly
        # outdeg - indeg out-edges of v unmatched, each a start, and
        # indeg - outdeg in-edges unmatched, each an end.
        for numbering in (None, rng):
            cover = numbered_cover(g, numbering)
            for v in range(g.n):
                surplus = len(g.successors(v)) - len(g.predecessors(v))
                assert sum(w[0] == v for w in cover) == max(0, surplus)
                assert sum(w[-1] == v for w in cover) == max(0, -surplus)


class TestTrace:
    def test_diamond_second_start(self):
        assert numbered_cover(DIAMOND)[1] == Walk([0, 2, 3])

    def test_single_edge(self):
        g = Digraph(2, [(0, 1)])
        assert numbered_cover(g)[0] == Walk([0, 1])

    def test_path_graph(self):
        assert list(numbered_cover(PATH3)) == [Walk([0, 1, 2])]

    def test_cycle_detected(self):
        g = Digraph(3, [(0, 1), (1, 2), (2, 1)])
        with pytest.raises(ValueError, match=r"^trace \[0, 1, 2, 1\] revisits a vertex$"):
            numbered_cover(g)

    def test_revisit_within_length_guard(self):
        # The trace from (0, 1) is [0, 1, 2, 1, 3]: it leaves the cycle
        # again and ends within m steps, so only the revisit check can
        # reject it.
        g = Digraph(5, [(0, 1), (1, 2), (2, 1), (1, 3)])
        with pytest.raises(ValueError, match="revisits a vertex"):
            numbered_cover(g)


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
        # Each graph has a cycle, 1 -> 3 -> 1 and 0 -> 1 -> 2 -> 9 -> 0, yet
        # the traces from the legal starts are simple, cover every edge and
        # are as many as the lower bound: no check of the traces can stand
        # in for the acyclicity check that minimal_path_decomposition makes
        # first.
        cases = [
            (Digraph(5, [(4, 3), (3, 0), (3, 1), (1, 2), (1, 3)]),
             [Walk([1, 3, 0]), Walk([4, 3, 1, 2])]),
            (Digraph(10, [(5, 0), (0, 1), (1, 2), (2, 6), (7, 2), (2, 9), (9, 0), (0, 8)]),
             [Walk([5, 0, 1, 2, 6]), Walk([7, 2, 9, 0, 8])]),
        ]
        for g, walks in cases:
            traces = numbered_cover(g)
            assert list(traces) == walks
            assert validate_path_decomposition(g, traces).ok
            assert traces.k == path_number_lower_bound(g) == 2
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

    @given(random_dags(max_n=16, min_n=0))
    @settings(max_examples=100, deadline=None)
    def test_cover_is_valid_and_minimal(self, g):
        cover = minimal_path_decomposition(g)
        assert validate_path_decomposition(g, cover).ok
        assert cover.k == path_number_lower_bound(g)
        assert all(w.is_simple for w in cover)

    @given(random_dags(max_n=16, min_n=0))
    @settings(max_examples=100, deadline=None)
    def test_matches_traces_of_assigned_indexing(self, g):
        assert minimal_path_decomposition(g) == numbered_cover(g)

    @given(random_dags(max_n=16, min_n=0))
    @settings(max_examples=100, deadline=None)
    def test_cover_walks_pass_walk_checks(self, g):
        # The cover's walks are built without Walk.__init__; rebuilding each
        # one through it must give the same family, on int vertex ids.
        cover = minimal_path_decomposition(g)
        assert WalkDecomposition([Walk(list(p)) for p in cover]) == cover
        assert all(type(v) is int for p in cover for v in p.vertices)

    @given(random_dags(max_n=16, min_n=0))
    @settings(max_examples=60, deadline=None)
    def test_file_round_trips(self, g):
        assert parse_graph(format_graph(g)) == g
        cover = minimal_path_decomposition(g)
        assert parse_decomposition(format_decomposition(cover)) == cover

    @given(random_dags(max_n=16, min_n=0), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_any_valid_indexing_works(self, g, rng):
        # Shuffle each vertex's in and out numbering; the traces must still
        # form a valid decomposition of minimal size.
        cover = numbered_cover(g, rng)
        assert validate_path_decomposition(g, cover).ok
        assert cover.k == path_number_lower_bound(g)
