import itertools
import random
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from pathreach import reach
from pathreach.dagcover import minimal_path_decomposition
from pathreach.decomposition import WalkDecomposition, union_graph
from pathreach.graph import is_acyclic
from pathreach.reach import ReachResult, _rounds, decide_reachability
from pathreach.testkit import (
    InstanceSeed,
    gen_decomposed_instance,
    iter_walk_families,
    oracle_min_switches,
    oracle_reachable,
    reachable_set,
    switch_chain,
    switch_costs,
    switch_ring,
)

from .conftest import overlap_instance, random_dags


def instances(max_n=14, max_k=6, max_len=10):
    return st.builds(
        gen_decomposed_instance,
        st.builds(
            InstanceSeed,
            n=st.integers(min_value=1, max_value=max_n),
            k=st.integers(min_value=0, max_value=max_k),
            max_len=st.integers(min_value=1, max_value=max_len),
            seed=st.integers(min_value=0, max_value=2**63),
        ),
    )


def levels(w, s):
    """The current register tuples _rounds yields, level by level, None
    where no position is known (a register at its walk's length)."""
    return [tuple(None if x == len(walk) else x for x, walk in zip(c, w))
            for _, c, _ in _rounds(w, s)]


class TestAdvanceFrontier:
    def test_bridging_walk_picks_up_shared_vertex(self):
        w = WalkDecomposition([[0, 1], [1, 2]])
        assert levels(w, 0) == [(0, None), (0, 0)]

    def test_single_walk_fixpoint(self):
        # Level 1 is yielded even when the first round moves nothing.
        w = WalkDecomposition([[0, 1, 2]])
        assert levels(w, 0) == [(0,), (0,)]

    def test_disjoint_walk_stays_unset(self):
        w = WalkDecomposition([[0, 1], [2, 3]])
        assert levels(w, 0) == [(0, None), (0, None)]

    def test_initial_frontier(self):
        w = WalkDecomposition([[3, 4], [4, 3, 4]])
        assert levels(w, 4)[0] == (1, 0)

    def test_absent_source_yields_no_level(self):
        w = WalkDecomposition([[0, 1]])
        assert levels(w, 2) == []


class TestDecide:
    def test_same_walk_zero_switches(self):
        res = decide_reachability(WalkDecomposition([[0, 1, 2]]), 0, 2)
        assert (res.reachable, res.min_switches, res.iterations) == (True, 0, 0)

    def test_backwards_unreachable(self):
        res = decide_reachability(WalkDecomposition([[0, 1, 2]]), 2, 0)
        assert not res.reachable
        assert res.min_switches is None

    def test_one_switch_bridge(self):
        res = decide_reachability(WalkDecomposition([[0, 1], [1, 2]]), 0, 2)
        assert (res.reachable, res.min_switches) == (True, 1)

    def test_overlap_instance_queries(self):
        w = overlap_instance()
        res = decide_reachability(w, 5, 3)
        assert (res.reachable, res.min_switches) == (True, 1)
        res = decide_reachability(w, 8, 1)
        assert not res.reachable

    def test_source_equals_target(self):
        w = WalkDecomposition([[0, 1]])
        res = decide_reachability(w, 1, 1)
        assert (res.reachable, res.min_switches, res.iterations) == (True, 0, 0)
        # even when the vertex occurs in no walk
        res = decide_reachability(w, 3, 3, n=4)
        assert (res.reachable, res.min_switches, res.iterations) == (True, 0, 0)

    def test_absent_source(self):
        w = WalkDecomposition([[0, 1]])
        res = decide_reachability(w, 2, 0, n=3)
        assert (res.reachable, res.iterations) == (False, 0)

    def test_absent_target(self):
        w = WalkDecomposition([[0, 1]])
        res = decide_reachability(w, 0, 2, n=3)
        assert not res.reachable

    def test_empty_decomposition(self):
        w = WalkDecomposition()
        res = decide_reachability(w, 0, 1, n=2)
        assert (res.reachable, res.iterations) == (False, 0)
        assert decide_reachability(w, 1, 1, n=2).reachable

    def test_earliest_source_occurrence_wins(self):
        # second occurrence of the source sits later; frontier must start early
        w = WalkDecomposition([[2, 0, 1, 0]])
        res = decide_reachability(w, 0, 1)
        assert (res.reachable, res.min_switches) == (True, 0)

    def test_vertex_ids_validated(self):
        w = WalkDecomposition([[0, 1]])
        with pytest.raises(ValueError):
            decide_reachability(w, -1, 0)
        with pytest.raises(ValueError):
            decide_reachability(w, 0, 2)
        with pytest.raises(ValueError):
            decide_reachability(w, 0, 1, n=1)
        for s, t, n in ((1.5, 1, None), (0, 1.0, None), (0, 1, 4.5)):
            with pytest.raises(TypeError):
                decide_reachability(w, s, t, n=n)

    def test_ring_forces_iterations_equal_to_k(self):
        for k in (1, 2, 3, 5, 8):
            w = switch_ring(k)
            res = decide_reachability(w, 0, k + 1)
            assert res.min_switches == k
            assert res.iterations == k
            assert oracle_min_switches(w, 0, k + 1) == k


def _traced_query_bytes(w, s, t):
    """Peak bytes traced during one decide_reachability(w, s, t) call,
    with the occurrence index and the vertex count built beforehand."""
    w._index, w.implied_vertex_count
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        decide_reachability(w, s, t)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMeter:
    def test_peak_is_register_budget(self):
        for k in (0, 1, 4, 16):
            w = WalkDecomposition([[2 * i, 2 * i + 1] for i in range(k)])
            res = decide_reachability(w, 0, 1, n=max(2 * k, 2))
            assert res.peak_words <= 2 * k + 8

    def test_traced_query_space_flat_in_n_and_linear_in_k(self):
        # The index is built before tracing; what one query allocates on
        # top is its registers and scalars.  Flat in n at k = 4, at most
        # 24 bytes per walk plus a constant in k.
        flat = [_traced_query_bytes(switch_chain(n, 4), n - 50, n - 1)
                for n in (100, 1000, 10_000)]
        assert max(flat) - min(flat) <= 512, flat
        for k in (4, 64, 1024):
            w = gen_decomposed_instance(InstanceSeed(2000, k, 50, 1))
            rng = random.Random(k)
            n = w.implied_vertex_count
            worst = max(_traced_query_bytes(w, rng.randrange(n), rng.randrange(n))
                        for _ in range(10))
            assert worst <= 24 * k + 2048, (k, worst)

    def test_peak_independent_of_walk_length(self):
        peaks = set()
        for length in (2, 20, 200):
            w = WalkDecomposition([list(range(length))])
            peaks.add(decide_reachability(w, 0, length - 1).peak_words)
        assert len(peaks) == 1


@given(instances())
@settings(max_examples=150, deadline=None)
def test_occurrence_index_matches_scan(w):
    # The index its docstring states, rebuilt by a plain scan of the walks.
    occ, at = w._index[:2]
    repeats = tuple(not walk.is_simple for walk in w)
    assert w._index == (occ, at, repeats, any(repeats))
    assert set(occ) == {v for walk in w for v in walk.vertices}
    for v in range(w.implied_vertex_count + 2):
        expected = []
        for i, walk in enumerate(w):
            positions = [q for q, u in enumerate(walk.vertices) if u == v]
            if positions:
                expected.append((i, max(positions)))
        assert occ.get(v, []) == expected
    # Row i holds, at each position, the very entry list of its vertex.
    assert len(at) == w.k
    for row, walk in zip(at, w):
        assert len(row) == len(walk)
        for entries, v in zip(row, walk.vertices):
            assert entries is occ[v]


@given(instances(), st.data())
@settings(max_examples=150, deadline=None)
def test_matches_oracles(w, data):
    n = max(w.implied_vertex_count, 1)
    s = data.draw(st.integers(min_value=0, max_value=n - 1))
    t = data.draw(st.integers(min_value=0, max_value=n - 1))
    res = decide_reachability(w, s, t, n=n)
    g = union_graph(w, n)
    assert res.reachable == oracle_reachable(g, s, t)
    assert res.min_switches == oracle_min_switches(w, s, t, n=n)
    assert res.iterations <= n
    assert res.reachable == (res.min_switches is not None)


def _reference_advance(w, c):
    # The update rule restated on plain slices: the new register of a walk
    # is its first position whose vertex occurs at or after some current
    # register.
    return tuple(
        next((q for q, v in enumerate(walk.vertices)
              if any(ci is not None and v in w[i].vertices[ci:] for i, ci in enumerate(c))),
             None)
        for walk in w)


def _reference_levels(w, s):
    """Level 0, the first occurrences of s, then one reference round per
    level up to the first fixpoint after level 0; [] when s occurs nowhere."""
    if all(s not in walk.vertices for walk in w):
        return []
    regs = [tuple(walk.vertices.index(s) if s in walk.vertices else None for walk in w)]
    regs.append(_reference_advance(w, regs[0]))
    while (nxt := _reference_advance(w, regs[-1])) != regs[-1]:
        regs.append(nxt)
    return regs


# Minimal DAG covers hold only paths, so every push there reads its
# position from the index.
@given(st.one_of(instances(max_n=10, max_k=4, max_len=8),
                 st.builds(minimal_path_decomposition, random_dags(max_n=10))),
       st.data())
@settings(max_examples=120, deadline=None)
def test_rounds_match_scan_reference(w, data):
    if w.k == 0:
        return
    n = w.implied_vertex_count
    s = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert levels(w, s) == _reference_levels(w, s)


@given(st.one_of(instances(), st.builds(minimal_path_decomposition, random_dags())))
@settings(max_examples=100, deadline=None)
def test_rounds_yield_level_current_and_previous(w):
    # Each yield is (level, c, d): levels count 0, 1, 2, ..., d is each
    # walk's length at level 0 and the previous yield's c after that, with
    # no register left pending (negative), and the c are the levels.
    lengths = [len(walk) for walk in w]
    for s in sorted({v for walk in w for v in walk.vertices}):
        seen, previous = [], lengths
        for level, c, d in _rounds(w, s):
            assert level == len(seen), s
            assert d == previous, (s, level)
            assert min(c) >= 0 and min(d) >= 0, (s, level)
            previous = c[:]
            seen.append(tuple(None if x == n else x for x, n in zip(c, lengths)))
        assert seen == levels(w, s), s


def test_every_small_family():
    # Every family of at most 3 walks and 7 positions, up to relabelling,
    # over two ids more than it uses: each source's levels, and every
    # field of every answer, against the references.  A round looks up at
    # most L positions: a push scans each walk's new segment and pulls it
    # at most once, over its prefix, and a pull round scans sum(c) <= L.
    # A query runs R rounds, one more than its iterations when it ends
    # unreachable and none when s = t or s occurs nowhere, so it makes at
    # most L * R lookups beside one each of the source and the target.
    # Level l + 1 depends only on the vertices reached at level l, so the
    # levels stop one round after that set stops growing: iterations <=
    # max(1, V - 1) over V distinct vertices.  On an acyclic union graph a
    # route with fewest switches never returns to a walk it left, so
    # min_switches <= k - 1, the levels are fixed from level k on, and
    # R <= k + 1.
    acyclic = 0
    for family in iter_walk_families(7, 3):
        w = WalkDecomposition(family)
        k, length, n = w.k, sum(map(len, family)), w.implied_vertex_count + 2
        distinct = len({v for vs in family for v in vs})
        dag = is_acyclic(union_graph(w, n))
        acyclic += dag
        index, _ = _counted(w)
        for s in range(n):
            ref = _reference_levels(w, s)
            assert levels(w, s) == ref, (family, s)
            reached = [{v for vs, ci in zip(family, c) if ci is not None for v in vs[ci:]}
                       for c in ref]
            costs = switch_costs(w, s, n=n)
            for t in range(n):
                index.lookups = 0
                res = decide_reachability(w, s, t, n=n)
                iterations = 0 if s == t or not ref else next(
                    (level for level, r in enumerate(reached) if t in r), len(ref) - 1)
                assert res == ReachResult(costs[t] is not None, costs[t], iterations,
                                          2 * k + 8), (family, s, t)
                rounds = 0 if s == t or not ref else iterations + (not res.reachable)
                assert index.lookups <= length * rounds + 2, (family, s, t)
                assert iterations <= max(1, distinct - 1), (family, s, t)
                if dag:
                    assert res.iterations <= max(1, k), (family, s, t)
                    assert res.min_switches is None or res.min_switches <= max(0, k - 1), (
                        family, s, t)
                    assert index.lookups <= length * (k + 1) + 2, (family, s, t)
    assert acyclic == 2249


@given(instances(max_n=6, max_k=4, max_len=12))
@settings(max_examples=200, deadline=None)
def test_query_work_bounds_on_walks_with_repeats(w):
    # test_every_small_family's bounds, lookups <= L * R + 2 and
    # iterations <= max(1, V - 1), on every pair of longer families whose
    # walks repeat vertices, steered toward the lookup bound.
    length = sum(map(len, w._paths))
    distinct = len({v for vs in w._paths for v in vs})
    n = w.implied_vertex_count
    index, _ = _counted(w)
    worst = 0.0
    for s in range(n):
        for t in range(n):
            index.lookups = 0
            res = decide_reachability(w, s, t, n=n)
            rounds = 0 if s == t or s not in index else res.iterations + (not res.reachable)
            assert index.lookups <= length * rounds + 2, (s, t)
            assert res.iterations <= max(1, distinct - 1), (s, t)
            if rounds:
                worst = max(worst, (index.lookups - 2) / (length * rounds))
    target(worst)


@given(random_dags(max_n=16))
@settings(max_examples=300, deadline=None)
def test_dag_cover_query_bounds(g):
    # The acyclic bounds of test_every_small_family on minimal covers of
    # larger DAGs, for every pair.  Some queries make more than L + 2
    # lookups, so only L(k + 1) + 2 is asserted.
    w = minimal_path_decomposition(g)
    k, length = w.k, sum(map(len, w._paths))
    index, _ = _counted(w)
    for s in range(g.n):
        for t in range(g.n):
            index.lookups = 0
            res = decide_reachability(w, s, t, n=g.n)
            assert res.iterations <= max(1, k), (s, t)
            assert res.min_switches is None or res.min_switches <= max(0, k - 1), (s, t)
            assert index.lookups <= length * (k + 1) + 2, (s, t)


def _pulls_per_level(w, s, monkeypatch):
    """Per level of s, the walks whose register the round reaching it took
    from a pull scan, in call order, then those of the last round, which
    moves nothing and yields no level."""
    pull, pulled = reach._pull, []

    def spy(at, c, j):
        pulled.append(j)
        return pull(at, c, j)

    monkeypatch.setattr(reach, "_pull", spy)
    per_level = []
    for _ in _rounds(w, s):
        per_level.append(tuple(pulled))
        pulled.clear()
    per_level.append(tuple(pulled))
    return per_level


class TestRoundKinds:
    """One fixed instance per kind of round, so a broken branch of the
    round loop in _rounds fails on every run; the comments trace the round
    that takes it."""

    def test_round_that_pulls_every_walk(self, monkeypatch):
        # Round 1: c = (1, 0), previous level the walk lengths (1, 3).
        # Walk 1 repeats vertex 6, so the rule runs: the new segment (3
        # positions) costs more to push than the prefixes (1) cost to
        # pull, so every walk is marked pending and pulled at round end,
        # and the pull of walk 0 finds vertex 3, which occurs at 1, after
        # c[1] = 0, in walk 1.  Round 2, with new = 1 > sum(c) = 0, pulls
        # both walks again.
        w = WalkDecomposition([[3], [6, 3, 6]])
        assert levels(w, 6) == _reference_levels(w, 6) == [(None, 0), (0, 0)]
        assert _pulls_per_level(w, 6, monkeypatch) == [(), (0, 1), (0, 1)]

    def test_path_round_never_pulls_every_walk(self, monkeypatch):
        # Round 2: c = (0, 0, 1), previous level (0, 2, 1).  The new
        # segments (2 positions) would cost more to push than the prefixes
        # (1) cost to pull, but every walk is a path, so the rule does not
        # run and the round pushes: walk 1's segment holds vertex 0, whose
        # entry lowers walk 2 from 1 to 0.  No round pulls anything.
        w = WalkDecomposition([[3, 1], [1, 0], [0]])
        assert (levels(w, 3) == _reference_levels(w, 3)
                == [(0, None, None), (0, 0, None), (0, 0, 0)])
        assert _pulls_per_level(w, 3, monkeypatch) == [(), (), (), ()]

    def test_moved_walk_pushed_by_an_earlier_walk_goes_pending(self, monkeypatch):
        # Round 1: c = (2, 2, 1), previous level the walk lengths (2, 3, 3);
        # walks 1 and 2 moved.  Walk 1's segment holds vertex 0, which
        # occurs in walk 2, so walk 2 goes pending before its turn.  It
        # still scans its own segment at its turn (vertex 2 lowers walk 1
        # to 1), and its pull at round end finds vertex 2 at position 0.
        w = WalkDecomposition([[1, 3], [3, 2, 0], [2, 0, 2]])
        assert levels(w, 0) == _reference_levels(w, 0) == [(None, 2, 1), (None, 1, 0)]
        assert _pulls_per_level(w, 0, monkeypatch) == [(), (2,), (2,)]

    def test_push_into_a_walk_that_did_not_move(self, monkeypatch):
        # Round 2: c = (1, 1, 1), previous level (3, 1, 1); only walk 0
        # moved.  Its segment holds vertices 1 and 6.  Every walk is a
        # path, so a push reads the entry's last position and scans
        # nothing.  Vertex 1 lies in walks 0 and 1 at or after their
        # registers only, so it lowers nothing; vertex 6 lowers walks 1
        # and 2, still waiting for their turns, from 1 to 0 with no pull.
        # Round 3, which moves nothing: c = (1, 0, 0), previous level
        # (1, 1, 1).  Walk 1's segment holds vertex 6 again, whose entry
        # in walk 2, which moved, sits at 0, not below c[2] = 0: it is
        # reached at this level already, so nothing is marked or pulled.
        w = WalkDecomposition([[3, 1, 6], [6, 5, 1], [6]])
        assert (levels(w, 5) == _reference_levels(w, 5)
                == [(None, 1, None), (1, 1, None), (1, 0, 0)])
        assert _pulls_per_level(w, 5, monkeypatch) == [(), (), (), ()]

    def test_path_pushed_below_its_register_is_pulled_at_round_end(self, monkeypatch):
        # Round 1: c = (0, 1, 0), previous level the walk lengths (2, 2,
        # 2); every walk is a path and moved.  Walk 0's segment holds
        # vertex 0, whose entries in walks 1 and 2 sit at their registers,
        # and vertex 1, which sits at 0 in walk 1, below c[1] = 1: walk 1,
        # with its segment still to scan, goes pending.  It scans its
        # segment at its turn, walk 2 scans its own after it, and only
        # then, after all 6 lookups of the round (the source's included),
        # the sweep pulls walk 1, once, to 0.
        w = WalkDecomposition([[0, 1], [1, 0], [0, 2]])
        index, _ = _counted(w)
        pull, pulled = reach._pull, []

        def spy(at, c, j):
            pulled.append((j, index.lookups))
            return pull(at, c, j)

        monkeypatch.setattr(reach, "_pull", spy)
        assert levels(w, 0) == _reference_levels(w, 0) == [(0, 1, 0), (0, 0, 0)]
        assert pulled == [(1, 6)]

    def test_push_round_that_marks_nothing_pulls_nothing(self, monkeypatch):
        # Walk 2 repeats vertices 5 and 6, out of the source's reach.
        # Round 1: c = (0, 0, 6), previous level the lengths (2, 3, 6);
        # new = 5 is not above sum(c) = 6, so the round pushes although
        # some walk repeats a vertex.  Walk 0's segment holds vertices 0
        # and 2, whose entries in walk 1 sit at 0 and 1, at or after
        # c[1] = 0, so walk 1 is not marked although its segment is still
        # to scan.  No round marks a walk, so none pulls.
        w = WalkDecomposition([[0, 2], [0, 2, 3], [5, 6, 5, 6, 5, 6]])
        assert levels(w, 0) == _reference_levels(w, 0) == [(0, 0, None), (0, 0, None)]
        assert _pulls_per_level(w, 0, monkeypatch) == [(), (), ()]

    def test_push_into_a_walk_that_repeats_the_vertex(self, monkeypatch):
        # Round 1: c = (4,), previous level the length (6,).  Walk 0
        # repeats vertex 5, at 0, 2 and 5, so the index holds no first
        # positions for it.  The two new positions cost no more than the
        # prefix of 4, so the round pushes.  Walk 0's scan reads its own
        # entries: vertex 0's marks it pending, since d[0] = c[0] = 4 > 0,
        # and vertex 5's finds it pending already.  The pull at round end
        # finds vertex 5 at position 0.
        w = WalkDecomposition([[5, 1, 5, 2, 0, 5]])
        assert levels(w, 0) == _reference_levels(w, 0) == [(4,), (0,)]
        assert _pulls_per_level(w, 0, monkeypatch) == [(), (0,), (0,)]

    def test_walk_that_repeats_a_vertex_marks_itself_before_its_scan(self, monkeypatch):
        # Walk 0 repeats vertex 0, at 0, 2 and 4.  Round 1: c = (5, 2),
        # previous level the lengths (6, 4); new = 3 is not above sum(c) =
        # 7, so the round pushes.  Walk 0's scan starts with its own entry
        # for vertex 1, which marks it pending, since d[0] = c[0] = 5 > 0,
        # before any other walk is scanned.  Walk 1 scans its segment
        # after it, and only then, after 4 lookups (the source's
        # included), the sweep pulls walk 0 to 3, where vertex 4 occurs
        # after c[1].  Round 2: c = (3, 2), previous level (5, 2); only
        # walk 0 moved, so no other walk's scan can mark it: its own entry
        # for vertex 4 does, and after its 2 lookups the sweep pulls it
        # to 0, since vertex 0 occurs again at 4.
        # Round 3, with new = 3 > sum(c) = 2, pulls every walk and moves
        # nothing.
        w = WalkDecomposition([[0, 2, 0, 4, 0, 1], [6, 3, 1, 4]])
        index, _ = _counted(w)
        pull, pulled = reach._pull, []

        def spy(at, c, j):
            pulled.append((j, index.lookups))
            return pull(at, c, j)

        monkeypatch.setattr(reach, "_pull", spy)
        assert levels(w, 1) == _reference_levels(w, 1) == [(5, 2), (3, 2), (0, 2)]
        assert pulled == [(0, 4), (0, 10), (0, 11), (1, 11)]

    def test_walk_that_repeats_a_vertex_from_its_start_is_not_marked(self, monkeypatch):
        # Round 1: c = (0, 4), previous level the lengths (3, 5); new = 4
        # is not above sum(c) = 4, so the round pushes.  Walk 0 repeats
        # vertex 0 and scans its whole segment from d[0] = c[0] = 0, below
        # which no position lies, so its own entries do not mark it.
        # Vertex 0's entry in walk 1 sits at its register, and walk 1's
        # scan finds walk 0's entry at 2, after c[0]: nothing is marked or
        # pulled.
        w = WalkDecomposition([[0, 1, 0], [5, 6, 7, 8, 0]])
        assert levels(w, 0) == _reference_levels(w, 0) == [(0, 4), (0, 4)]
        assert _pulls_per_level(w, 0, monkeypatch) == [(), (), ()]

    def test_round_whose_new_segments_equal_the_prefixes_pushes(self, monkeypatch):
        # Walk 1 repeats vertex 3, so the rule runs.  Round 1: c = (2, 2),
        # previous level the lengths (2, 4); new = 2 < sum(c) = 4, so the
        # round pushes.  Vertex 1 makes walk 1 pending, and its pull at
        # round end finds vertex 3, which occurs again at 3.  Round 2:
        # c = (2, 0), previous level (2, 2); new = 2 equals sum(c) = 2, so
        # the round pushes.  Walk 1's segment holds vertex 4, which lowers
        # walk 0 from 2 to 0 with no pull.
        w = WalkDecomposition([[4, 5], [3, 4, 1, 3]])
        assert levels(w, 1) == _reference_levels(w, 1) == [(None, 2), (None, 0), (0, 0)]
        assert _pulls_per_level(w, 1, monkeypatch) == [(), (1,), (), (0, 1)]

    def test_round_whose_new_segments_pass_the_prefixes_pulls(self, monkeypatch):
        # Walk 1 repeats vertex 1, so the rule runs.  Round 1: c = (2, 1),
        # previous level the lengths (2, 3); new = 2 < sum(c) = 3, so the
        # round pushes: vertex 1 lowers walk 0 to 1, and walk 1, pending,
        # is pulled at round end to 0.  Round 2: c = (1, 0), previous
        # level (2, 1); new = 2 is sum(c) + 1, so every walk is pulled.
        w = WalkDecomposition([[2, 1], [1, 4, 1]])
        assert levels(w, 4) == _reference_levels(w, 4) == [(None, 1), (1, 0)]
        assert _pulls_per_level(w, 4, monkeypatch) == [(), (1,), (0, 1)]


class _CountingIndex(dict):
    """An occurrence index that counts its lookups, which a query makes by
    get only, for the source and the target; its rows add their reads to
    the same count (_CountingRow), and a subscript fails, since every
    per-position read goes through a row."""

    lookups = 0

    def __getitem__(self, v):
        raise AssertionError(f"occurrence index subscripted for vertex {v!r}")

    def get(self, v, default=None):
        self.lookups += 1
        return super().get(v, default)


class _CountingWalk(tuple):
    """A walk's vertex tuple that counts the positions index compares."""

    compared = 0

    def index(self, v, lo=0, hi=sys.maxsize):
        hi = min(hi, len(self))
        try:
            q = super().index(v, lo, hi)
        except ValueError:
            self.compared += max(hi - lo, 0)
            raise
        self.compared += q - lo + 1
        return q


class _CountingRow(tuple):
    """A row of the occurrence index whose every read at[i][q] counts one
    lookup of its index, as occ.get(v) does."""

    def __new__(cls, index, entries):
        row = super().__new__(cls, entries)
        row.index = index
        return row

    def __getitem__(self, q):
        self.index.lookups += 1
        return super().__getitem__(q)


def _counted(w):
    """Make w count its index lookups, row reads included, and the
    positions its walks' index calls compare; return both counters'
    holders."""
    occ, at, repeats, any_repeats = w._index
    index = _CountingIndex(occ)
    rows = tuple(_CountingRow(index, row) for row in at)
    w.__dict__["_index"] = index, rows, repeats, any_repeats
    walks = w.__dict__["_paths"] = tuple(map(_CountingWalk, w._paths))
    return index, walks


@pytest.mark.parametrize("n, repeats", [
    pytest.param(200, False, id="200"),
    pytest.param(400, False, id="400"),
    pytest.param(800, False, id="800"),
    pytest.param(1600, False, id="1600"),
    pytest.param(200, True, id="200-repeats"),
    pytest.param(1600, True, id="1600-repeats"),
])
def test_chain_query_index_lookups_are_linear_in_n(n, repeats):
    # The query 0 -> n-1 on switch_chain(n, 4) runs about n rounds.  A
    # push round looks up only the positions the round before newly
    # reached, so each of the ~2n positions is looked up about once;
    # pulling every prefix in every round would make ~n^2 lookups.  Every
    # walk is a path, so a push reads first positions from the index and
    # compares no position.
    #
    # With repeats, each walk gets its second-to-last vertex appended, so
    # every walk repeats a vertex and the route is unchanged.  Only the
    # level-0 lookups of the source compare positions.  Each push into a
    # walk makes it pending, and its pull rescans its prefix: 29,608
    # lookups at n = 200 and 1,916,808 at n = 1600, quadratic in n.
    # Stored first positions would make pushes into such walks read the
    # index as on paths, and these lookups linear.
    w = switch_chain(n, 4)
    if repeats:
        w = WalkDecomposition([walk.vertices + walk.vertices[-2:-1] for walk in w])
    source_scans = sum(vs.index(0) + 1 for vs in w._paths if 0 in vs)
    index, walks = _counted(w)
    res = decide_reachability(w, 0, n - 1)
    assert res.min_switches == n - 2
    compared = sum(walk.compared for walk in walks)
    if repeats:
        assert compared <= source_scans, compared
        assert index.lookups <= n * n, index.lookups
    else:
        assert compared == 0
        assert index.lookups <= 2 * n, index.lookups


@pytest.mark.parametrize("s, pulls", [
    pytest.param(1, {}, id="1"),
    pytest.param(10, {}, id="10"),
    pytest.param(57, {2: (3,)}, id="57"),
    pytest.param(100, {2: (2,)}, id="100"),
    pytest.param(150, {}, id="150"),
])
def test_chain_query_pulls_per_round(s, pulls, monkeypatch):
    # On switch_chain(200, 4) a source s occurs in two walks, and round 1
    # scans both from s on.  Each holds the other's vertices only at or
    # after the other's register, which a push cannot lower, so round 1
    # marks and pulls nothing.  A later round pulls a path only when an
    # earlier walk reaches it below its register before its turn, which
    # happens in round 2 from some sources.  The levels run to the end of
    # the chain, and the query s -> 199 costs 198 - s switches.
    w = switch_chain(200, 4)
    assert decide_reachability(w, s, 199).min_switches == 198 - s
    assert _pulls_per_level(w, s, monkeypatch) == [pulls.get(level, ())
                                                   for level in range(200 - s)]


@pytest.mark.parametrize("length, repeats", [
    pytest.param(1000, False, id="1000"),
    pytest.param(4000, False, id="4000"),
    pytest.param(1000, True, id="1000-repeats"),
    pytest.param(4000, True, id="4000-repeats"),
])
def test_long_walk_query_work_is_linear_in_length(length, repeats):
    # One walk, the source two thirds in and the target before it.  The
    # first round's new segment is the last third, no longer than the
    # prefix, so the round pushes it.  On a path each vertex's position
    # comes from the index and no position is compared.  When the walk
    # repeats a vertex (here one past the source, once more at the end),
    # the source's lookup compares its prefix, the walk's own entry for
    # the source, first in its scan, marks it pending, and one pull at
    # round end looks up the prefix once: 1001 lookups plus 667
    # compared positions at length 1000.
    s = 2 * length // 3
    w = WalkDecomposition([list(range(length)) + [s + 1] * repeats])
    index, walks = _counted(w)
    res = decide_reachability(w, s, 0)
    assert not res.reachable
    work = index.lookups + sum(walk.compared for walk in walks)
    assert work <= 2 * length, work


def simple_walks(max_n=12, max_k=5, max_len=10):
    # Families of simple walks (paths): no vertex repeats within a walk,
    # so no walk has a loop step either.
    walk = st.lists(st.integers(min_value=0, max_value=max_n - 1),
                    min_size=1, max_size=max_len, unique=True)
    return st.builds(WalkDecomposition, st.lists(walk, max_size=max_k))


@given(st.one_of(simple_walks(),
                 st.builds(minimal_path_decomposition, random_dags(max_n=12))))
@settings(max_examples=100, deadline=None)
def test_path_query_work_bound(w):
    # On paths every round pushes, and a pending walk is pulled in the
    # round-end sweep.  Push segments never overlap, so pushes look up
    # each of the L positions at most once.  A pull of walk j from c
    # looks up at most c[j] positions, and j is pulled only in a round
    # after one in which it moved, so its pulls see strictly decreasing
    # c[j] below len(j): at most len(j)(len(j) - 1)/2 lookups in all.
    # The ladder family below shows that this quadratic term is real.
    # Beside both, the source and the target are looked up once each.
    # No position is compared, since a path's first positions are its
    # last ones.
    lengths = list(map(len, w._paths))
    index, walks = _counted(w)
    pull, pulled = reach._pull, []

    def spy(at, c, j):
        before = index.lookups
        q = pull(at, c, j)
        pulled.append((j, c[j], index.lookups - before))
        return q

    vertices = sorted(index)
    with mock.patch.object(reach, "_pull", spy):
        for s in vertices:
            for t in vertices:
                index.lookups = 0
                pulled.clear()
                decide_reachability(w, s, t)
                assert sum(walk.compared for walk in walks) == 0
                pull_lookups = sum(n for _, _, n in pulled)
                assert index.lookups - pull_lookups <= sum(lengths) + 2, (s, t)
                for j, cj, n in pulled:
                    assert n <= cj < lengths[j], (s, t, j)
                for j in range(w.k):
                    seen = [cj for i, cj, _ in pulled if i == j]
                    assert seen == sorted(set(seen), reverse=True), (s, t, j)


@given(st.one_of(instances(max_n=10, max_k=5, max_len=8), simple_walks(max_n=10),
                 st.builds(minimal_path_decomposition, random_dags(max_n=10))),
       st.data())
@settings(max_examples=100, deadline=None)
def test_walk_order_changes_no_answer(w, data):
    # A push visits the walks in order, and a walk pushed into before its
    # turn goes pending, so the rounds run differently in another order;
    # every field of every answer must not.
    order = data.draw(st.permutations(range(w.k)))
    shuffled = WalkDecomposition([w[i] for i in order])
    n = w.implied_vertex_count
    for s in range(n):
        for t in range(n):
            assert decide_reachability(shuffled, s, t) == decide_reachability(w, s, t), (s, t)


def _check_reversal_and_relabelling(w, n, pairs, perm):
    # Reversing every walk reverses every route, switches included, so on
    # the reversed walks t reaches s with the same fewest switches; the
    # rounds differ, so iterations may too.  Renaming the ids changes no
    # field of any answer.
    reversed_w = WalkDecomposition([walk.vertices[::-1] for walk in w])
    renamed_w = WalkDecomposition([[perm[v] for v in walk.vertices] for walk in w])
    for s, t in pairs:
        res = decide_reachability(w, s, t, n=n)
        back = decide_reachability(reversed_w, t, s, n=n)
        assert (back.reachable, back.min_switches) == (res.reachable, res.min_switches), (s, t)
        assert decide_reachability(renamed_w, perm[s], perm[t], n=n) == res, (s, t)


@given(instances(), st.data())
@settings(max_examples=100, deadline=None)
def test_reversal_and_relabelling_on_all_pairs(w, data):
    n = w.implied_vertex_count
    perm = data.draw(st.permutations(range(n)))
    _check_reversal_and_relabelling(w, n, [(s, t) for s in range(n) for t in range(n)], perm)


def test_reversal_and_relabelling_on_seeded_pairs():
    # The relations on the walks_random benchmark's instance, before its
    # ids are shifted, and on chain_deep's.
    rng = random.Random(5)
    for w in (gen_decomposed_instance(InstanceSeed(1000, 64, 100, 3)), switch_chain(800, 4)):
        n = w.implied_vertex_count
        perm = rng.sample(range(n), n)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(100)]
        _check_reversal_and_relabelling(w, n, pairs, perm)


def _switch_matrix(w, n):
    return [[decide_reachability(w, s, t, n=n).min_switches for t in range(n)]
            for s in range(n)]


@given(instances(), st.data())
@settings(max_examples=100, deadline=None)
def test_split_triangle_and_one_walk_relations(w, data):
    # Three more relations of the engine with itself, on every pair:
    # - x at or before y on one walk: 0 switches;
    # - the triangle: a route to u and one on from u join with at most
    #   one switch at u, so ms(s, t) <= ms(s, u) + ms(u, t) + 1, and
    #   reachability is transitive;
    # - splitting walk i at an inner position p into its positions up to
    #   p and its positions from p keeps every edge, so reachability
    #   stays.  A route with a switches runs on a + 1 walk pieces, each
    #   crossing p at most once, so the split costs b switches with
    #   a <= b <= 2a + 1.
    n = w.implied_vertex_count
    ms = _switch_matrix(w, n)
    for walk in w:
        vs = walk.vertices
        for p in range(len(vs)):
            for q in range(p, len(vs)):
                assert ms[vs[p]][vs[q]] == 0, (vs[p], vs[q])
    for s, u, t in itertools.product(range(n), repeat=3):
        if ms[s][u] is not None and ms[u][t] is not None:
            assert ms[s][t] is not None and ms[s][t] <= ms[s][u] + ms[u][t] + 1, (s, u, t)
    inner = [(i, p) for i, walk in enumerate(w) for p in range(1, len(walk) - 1)]
    if not inner:
        return
    i, p = data.draw(st.sampled_from(inner))
    walks = [walk.vertices for walk in w]
    walks[i:i + 1] = walks[i][:p + 1], walks[i][p:]
    split = _switch_matrix(WalkDecomposition(walks), n)
    for s in range(n):
        for t in range(n):
            a, b = ms[s][t], split[s][t]
            assert (a is None) == (b is None), (i, p, s, t)
            assert a is None or a <= b <= 2 * a + 1, (i, p, s, t)


def _ladder(m):
    """Two paths over which the query 0 -> 2m + 3 moves both registers two
    positions each round, for m - 1 rounds.

    With a_1 = b_1 = 0 and a_r = 2r, b_r = 2r + 1 for r > 1, walk 0 lists
    the pairs (a_r, b_{r+1}) and walk 1 the pairs (b_r, a_{r+1}), for r
    from m down to 1.  Round r reaches a_{r+1} in walk 0 through walk 1
    and b_{r+1} in walk 1 through walk 0.
    """
    a = [0] + [2 * r for r in range(2, m + 2)]
    b = [0] + [2 * r + 1 for r in range(2, m + 2)]
    return WalkDecomposition([
        [v for r in range(m - 1, -1, -1) for v in (a[r], b[r + 1])],
        [v for r in range(m - 1, -1, -1) for v in (b[r], a[r + 1])],
    ])


@pytest.mark.parametrize("m", [10, 40, 160])
def test_ladder_query_pending_pulls_are_quadratic(m):
    # Each round, walk 0's new segment holds a vertex of walk 1, which
    # moved the round before and has not had its turn: walk 1 goes
    # pending, and its pull at round end scans its prefix, which shrinks
    # by two positions per round.  So the query makes (m + 3)(m - 1) + 2
    # lookups, the source's and the target's included, 25,919 at m = 160
    # against L = 4m = 640 positions: on paths the pending pulls are
    # quadratic, not bounded by 2L.  Storing the pushed position of a
    # pending path would need a third value per walk beside c and d.
    w = _ladder(m)
    index, walks = _counted(w)
    res = decide_reachability(w, 0, 2 * m + 3)
    assert res.min_switches == m - 1
    assert sum(walk.compared for walk in walks) == 0
    assert index.lookups == (m + 3) * (m - 1) + 2


def _strict_levels(w, s):
    # The levels restated with the strict test "v occurs after c[i]": a
    # walk's new register is its first position, below the current one,
    # whose vertex occurs strictly after some current register.
    def step(c):
        return tuple(
            next((q for q in range(len(walk) if cj is None else cj)
                  if any(ci is not None and walk[q] in w[i].vertices[ci + 1:]
                         for i, ci in enumerate(c))),
                 cj)
            for walk, cj in zip(w, c))

    regs = [tuple(walk.vertices.index(s) if s in walk.vertices else None for walk in w)]
    regs.append(step(regs[0]))
    while step(regs[-1]) != regs[-1]:
        regs.append(step(regs[-1]))
    return regs


@given(instances(max_n=8, max_k=4, max_len=10), st.data())
@settings(max_examples=150, deadline=None)
def test_strict_comparison_gives_the_same_levels(w, data):
    # The engine tests "v occurs at or after c[i]" (last >= c[i]); the
    # vertex at a register is s, or it also occurs strictly after a
    # register, so the strict test yields the same levels and the same
    # target answers.  Small n makes walks repeat vertices.
    if w.k == 0:
        return
    s = data.draw(st.sampled_from(sorted({v for walk in w for v in walk.vertices})))
    regs = levels(w, s)
    assert regs == _strict_levels(w, s)
    for c in regs:
        for t in range(w.implied_vertex_count):
            if t != s:
                assert (any(ci is not None and t in w[i].vertices[ci:]
                            for i, ci in enumerate(c))
                        == any(ci is not None and t in w[i].vertices[ci + 1:]
                               for i, ci in enumerate(c)))


@given(instances(max_n=10, max_k=4, max_len=8), st.data())
@settings(max_examples=80, deadline=None)
def test_frontier_tracks_switch_level(w, data):
    # At level l + 1, register i must hold the earliest position in walk i
    # whose vertex is reachable from s within l switches (None when no
    # such vertex exists).  The last level yielded stands for every level
    # after it.
    if w.k == 0:
        return
    n = w.implied_vertex_count
    s = data.draw(st.integers(min_value=0, max_value=n - 1))
    costs = switch_costs(w, s, n=n)
    regs = levels(w, s) or [(None,) * w.k]
    for level in range(n + 1):
        at = regs[min(level + 1, len(regs) - 1)]
        for i, walk in enumerate(w):
            expected = None
            for q, v in enumerate(walk.vertices):
                if costs[v] is not None and costs[v] <= level:
                    expected = q
                    break
            assert at[i] == expected, (
                f"walk {i} level {level}: register {at[i]} expected {expected}")


@given(instances())
@settings(max_examples=100, deadline=None)
def test_frontier_monotone_under_rounds(w):
    if w.k == 0 or w.implied_vertex_count == 0:
        return
    regs = levels(w, w[0][0])
    assert regs
    for old_level, new_level in zip(regs, regs[1:]):
        for old, new in zip(old_level, new_level):
            if old is not None:
                assert new is not None and new <= old


@given(instances(), st.data())
@settings(max_examples=60, deadline=None)
def test_deterministic(w, data):
    n = max(w.implied_vertex_count, 1)
    s = data.draw(st.integers(min_value=0, max_value=n - 1))
    t = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert decide_reachability(w, s, t, n=n) == decide_reachability(w, s, t, n=n)


@given(instances(max_n=10, max_k=4, max_len=8))
@settings(max_examples=60, deadline=None)
def test_all_pairs_small(w):
    n = max(w.implied_vertex_count, 1)
    g = union_graph(w, n)
    for s in range(n):
        ref = reachable_set(g, s)
        for t in range(n):
            res = decide_reachability(w, s, t, n=n)
            assert res.reachable == (t in ref)
