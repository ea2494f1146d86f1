import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathreach.decomposition import Walk, WalkDecomposition, union_graph
from pathreach.reach import (
    FrontierRegisters,
    RegisterMeter,
    advance_frontier,
    decide_reachability,
    earliest_occurrence,
    initial_frontier,
    occurs_from,
)
from pathreach.testkit import (
    InstanceSeed,
    gen_decomposed_instance,
    oracle_min_switches,
    oracle_reachable,
    reachable_set,
    switch_costs,
    switch_ring,
)

from .conftest import overlap_instance


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


class TestScans:
    def test_earliest_occurrence(self):
        assert earliest_occurrence(Walk([10, 11, 12]), 11) == 1
        assert earliest_occurrence(Walk([5, 6, 5]), 5) == 0
        assert earliest_occurrence(Walk([1, 2, 3]), 9) is None

    def test_occurs_from(self):
        assert occurs_from(Walk([1, 2, 3]), 0, 3)
        assert not occurs_from(Walk([1, 2, 3]), 2, 1)
        assert occurs_from(Walk([1, 2, 1]), 1, 1)

    def test_occurs_from_range(self):
        with pytest.raises(IndexError):
            occurs_from(Walk([1, 2]), 2, 1)
        with pytest.raises(IndexError):
            occurs_from(Walk([1, 2]), -1, 1)


class TestAdvanceFrontier:
    def test_bridging_walk_picks_up_shared_vertex(self):
        w = WalkDecomposition([[0, 1], [1, 2]])
        out = advance_frontier(w, FrontierRegisters(c=(0, None), d=(None, None)))
        assert out.c == (0, 0)
        assert out.d == out.c

    def test_single_walk_fixpoint(self):
        w = WalkDecomposition([[0, 1, 2]])
        out = advance_frontier(w, FrontierRegisters(c=(0,), d=(None,)))
        assert out.c == (0,)

    def test_disjoint_walk_stays_unset(self):
        w = WalkDecomposition([[0, 1], [2, 3]])
        out = advance_frontier(w, FrontierRegisters(c=(0, None), d=(None, None)))
        assert out.c == (0, None)

    def test_register_count_mismatch(self):
        w = WalkDecomposition([[0, 1]])
        with pytest.raises(ValueError):
            advance_frontier(w, FrontierRegisters(c=(0, 1), d=(None, None)))

    def test_register_out_of_walk(self):
        w = WalkDecomposition([[0, 1]])
        with pytest.raises(ValueError):
            advance_frontier(w, FrontierRegisters(c=(5,), d=(None,)))

    def test_initial_frontier(self):
        w = WalkDecomposition([[3, 4], [4, 3, 4]])
        regs = initial_frontier(w, 4)
        assert regs.c == (1, 0)
        assert regs.d == (None, None)


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

    def test_ring_forces_iterations_equal_to_k(self):
        for k in (1, 2, 3, 5, 8):
            w = switch_ring(k)
            res = decide_reachability(w, 0, k + 1)
            assert res.min_switches == k
            assert res.iterations == k
            assert oracle_min_switches(w, 0, k + 1) == k


class TestMeter:
    def test_acquire_release_peak(self):
        meter = RegisterMeter()
        meter.acquire(5)
        meter.acquire(3)
        meter.release(4)
        meter.acquire(2)
        assert meter.words == 6
        assert meter.peak_words == 8

    def test_peak_is_register_budget(self):
        for k in (0, 1, 4, 16):
            w = WalkDecomposition([[2 * i, 2 * i + 1] for i in range(k)])
            res = decide_reachability(w, 0, 1, n=max(2 * k, 2))
            assert res.peak_words <= 2 * k + 8

    def test_peak_independent_of_walk_length(self):
        peaks = set()
        for length in (2, 20, 200):
            w = WalkDecomposition([list(range(length))])
            peaks.add(decide_reachability(w, 0, length - 1).peak_words)
        assert len(peaks) == 1


@given(instances())
@settings(max_examples=150, deadline=None)
def test_occurrence_index_matches_scan(w):
    # Per vertex, one (walk, first, last) entry per walk containing it, in
    # walk order; vertices that occur nowhere are not keys.
    occ = w.occurrences
    assert set(occ) == {v for walk in w for v in walk.vertices}
    for v in range(w.implied_vertex_count + 2):
        expected = []
        for i, walk in enumerate(w):
            positions = [q for q, u in enumerate(walk.vertices) if u == v]
            if positions:
                expected.append((i, min(positions), max(positions)))
        assert occ.get(v, ()) == tuple(expected)


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
    # restatement of the update rule on top of the public scan primitives
    out = []
    for walk in w:
        best = None
        for q in range(len(walk)):
            v = walk[q]
            if any(ci is not None and occurs_from(w[i], ci, v)
                   for i, ci in enumerate(c)):
                best = q
                break
        out.append(best)
    return tuple(out)


@given(instances(max_n=10, max_k=4, max_len=8), st.data())
@settings(max_examples=80, deadline=None)
def test_advance_matches_scan_reference(w, data):
    if w.k == 0:
        return
    n = w.implied_vertex_count
    s = data.draw(st.integers(min_value=0, max_value=n - 1))
    regs = initial_frontier(w, s)
    for _ in range(n + 2):
        advanced = advance_frontier(w, regs)
        assert advanced.c == _reference_advance(w, regs.c)
        regs = advanced


@given(instances(max_n=10, max_k=4, max_len=8), st.data())
@settings(max_examples=80, deadline=None)
def test_frontier_tracks_switch_level(w, data):
    # After initialization plus l+1 advances, register i must hold the
    # earliest position in walk i whose vertex is reachable from s within
    # l switches (None when no such vertex exists).
    if w.k == 0:
        return
    n = w.implied_vertex_count
    s = data.draw(st.integers(min_value=0, max_value=n - 1))
    costs = switch_costs(w, s, n=n)
    regs = advance_frontier(w, initial_frontier(w, s))
    for level in range(n + 1):
        for i, walk in enumerate(w):
            expected = None
            for q, v in enumerate(walk.vertices):
                if costs[v] is not None and costs[v] <= level:
                    expected = q
                    break
            assert regs.c[i] == expected, (
                f"walk {i} level {level}: register {regs.c[i]} expected {expected}")
        regs = advance_frontier(w, regs)


@given(instances())
@settings(max_examples=100, deadline=None)
def test_frontier_monotone_under_advance(w):
    if w.k == 0 or w.implied_vertex_count == 0:
        return
    regs = initial_frontier(w, w[0][0])
    for _ in range(w.implied_vertex_count + 2):
        nxt = advance_frontier(w, regs)
        for old, new in zip(regs.c, nxt.c):
            if old is not None:
                assert new is not None and new <= old
        regs = FrontierRegisters(c=nxt.c, d=regs.c)


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
