import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathreach import decomposition
from pathreach.dagcover import minimal_path_decomposition
from pathreach.decomposition import (
    Walk,
    WalkDecomposition,
    format_decomposition,
    path_number_lower_bound,
    union_graph,
)
from pathreach.graph import Digraph, format_graph, is_acyclic
from pathreach.testkit import (
    InstanceSeed,
    brute_force_path_number,
    gen_decomposed_instance,
    gen_random_dag,
    iter_small_dags,
    iter_walk_families,
    numbered_cover,
    oracle_min_switches,
    oracle_reachable,
    reachable_set,
    switch_chain,
    switch_costs,
    switch_ring,
)

from .conftest import digraphs


class TestReachableOracle:
    def test_chain(self):
        g = Digraph(3, [(0, 1), (1, 2)])
        assert oracle_reachable(g, 0, 2)
        assert not oracle_reachable(g, 2, 0)

    def test_self(self):
        g = Digraph(3, [(0, 1), (1, 2)])
        assert all(oracle_reachable(g, v, v) for v in range(3))

    def test_range_checked(self):
        with pytest.raises(ValueError):
            oracle_reachable(Digraph(2), 0, 5)
        w = WalkDecomposition([[0, 1]])
        for call in (lambda: oracle_reachable(Digraph(2), 0.5, 1),
                     lambda: oracle_reachable(Digraph(2), 0, 1.0),
                     lambda: reachable_set(Digraph(2), 1.0),
                     lambda: oracle_min_switches(w, 1.5, 1),
                     lambda: oracle_min_switches(w, 0, 1.0),
                     lambda: oracle_min_switches(w, 0, 1, n=2.5),
                     lambda: switch_costs(w, 0, n=2.5)):
            with pytest.raises(TypeError):
                call()

    def test_reachable_set(self):
        g = Digraph(4, [(0, 1), (1, 2)])
        assert reachable_set(g, 0) == {0, 1, 2}
        assert reachable_set(g, 3) == {3}


class TestSwitchOracle:
    def test_same_walk(self):
        assert oracle_min_switches(WalkDecomposition([[0, 1, 2]]), 0, 2) == 0

    def test_bridge(self):
        assert oracle_min_switches(WalkDecomposition([[0, 1], [1, 2]]), 0, 2) == 1

    def test_disjoint(self):
        assert oracle_min_switches(WalkDecomposition([[0, 1], [2, 3]]), 0, 3) is None

    def test_self_jump_within_one_walk(self):
        # route 0 -> 1 -> 2 needs a hop back to the earlier occurrence of 1
        w = WalkDecomposition([[1, 2, 0, 1]])
        assert oracle_min_switches(w, 0, 2) == 1

    def test_source_equals_target(self):
        w = WalkDecomposition([[0, 1]])
        assert oracle_min_switches(w, 1, 1) == 0
        assert oracle_min_switches(w, 2, 2, n=3) == 0

    def test_switch_costs_table(self):
        w = WalkDecomposition([[0, 1], [1, 2]])
        assert switch_costs(w, 0) == [0, 0, 1]

    def test_alternating_walk_answers_in_linear_time(self):
        # 0 and 1 occur 6,000 times each, and every occurrence hops to all
        # of its vertex's others.  Queuing a vertex's hops once, when its
        # first occurrence settles, keeps the search O(L); relaxing them at
        # every settled occurrence is quadratic, ~11 s a query here.
        w = WalkDecomposition([[0, 1] * 6000])
        for call in (lambda: oracle_min_switches(w, 0, 1),
                     lambda: oracle_min_switches(w, 1, 0),
                     lambda: switch_costs(w, 1)[0]):
            start = time.perf_counter()
            assert call() == 0
            assert time.perf_counter() - start < 2.0

    @given(st.integers(min_value=0, max_value=2**32), st.integers(1, 10),
           st.integers(0, 5), st.integers(1, 8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_consistent_with_reachability(self, seed, n, k, max_len, data):
        w = gen_decomposed_instance(InstanceSeed(n=n, k=k, max_len=max_len, seed=seed))
        g = union_graph(w, n)
        s = data.draw(st.integers(0, n - 1))
        t = data.draw(st.integers(0, n - 1))
        count = oracle_min_switches(w, s, t, n=n)
        assert (count is not None) == oracle_reachable(g, s, t)
        if count == 0 and s != t:
            # zero switches means both sit in order on one walk
            assert any(
                s in walk.vertices
                and t in walk.vertices[walk.vertices.index(s):]
                for walk in w
            )


class TestGenerators:
    def test_single_vertex_universe(self):
        w = gen_decomposed_instance(InstanceSeed(n=1, k=3, max_len=5, seed=7))
        assert w.k == 3
        assert all(len(walk) == 1 for walk in w)

    def test_zero_walks(self):
        assert gen_decomposed_instance(InstanceSeed(n=10, k=0, max_len=5, seed=1)).k == 0

    def test_postconditions(self):
        w = gen_decomposed_instance(InstanceSeed(n=20, k=4, max_len=10, seed=42))
        assert w.k == 4
        assert all(1 <= len(walk) <= 10 for walk in w)
        assert w.implied_vertex_count <= 20
        union_graph(w, 20)  # no loop steps, ids in range

    def test_reproducible(self):
        a = gen_decomposed_instance(InstanceSeed(n=15, k=5, max_len=12, seed=99))
        b = gen_decomposed_instance(InstanceSeed(n=15, k=5, max_len=12, seed=99))
        assert format_decomposition(a) == format_decomposition(b)

    def test_seed_changes_output(self):
        a = gen_decomposed_instance(InstanceSeed(n=15, k=5, max_len=12, seed=0))
        b = gen_decomposed_instance(InstanceSeed(n=15, k=5, max_len=12, seed=1))
        assert format_decomposition(a) != format_decomposition(b)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            InstanceSeed(n=0, k=1, max_len=1, seed=0)
        with pytest.raises(ValueError):
            InstanceSeed(n=1, k=-1, max_len=1, seed=0)
        with pytest.raises(ValueError):
            InstanceSeed(n=1, k=1, max_len=0, seed=0)
        for n, max_len, seed in ((5.5, 3, 1), (5, 3.5, 1), (5, 3, 1.5)):
            with pytest.raises(TypeError):
                InstanceSeed(n=n, k=2, max_len=max_len, seed=seed)


def test_generators_and_oracles_check_each_walk_once(monkeypatch):
    def no_view(vertices):
        raise AssertionError(f"built a Walk view of {vertices}")

    checked = []
    monkeypatch.setattr(decomposition, "_check_walk", checked.append)
    monkeypatch.setattr(Walk, "_checked", no_view)
    diamond = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    for build, t, switches in [
        (lambda: gen_decomposed_instance(InstanceSeed(n=6, k=4, max_len=8, seed=5)), 5, 0),
        (lambda: switch_chain(12, 3), 11, 10),
        (lambda: switch_ring(4), 5, 4),
        (lambda: numbered_cover(diamond), 3, 0),
    ]:
        checked.clear()
        w = build()
        assert len(checked) == w.k  # once per walk, where it enters the family
        assert switch_costs(w, 0, n=t + 1)[t] == oracle_min_switches(w, 0, t) == switches
        assert len(checked) == w.k  # the oracles check nothing


class TestRandomDag:
    def test_p_zero(self):
        assert gen_random_dag(8, 0.0, 3).edge_count == 0

    def test_p_one(self):
        g = gen_random_dag(6, 1.0, 3)
        assert g.edge_count == 6 * 5 // 2

    def test_acyclic_and_reproducible(self):
        a = gen_random_dag(12, 0.5, 17)
        b = gen_random_dag(12, 0.5, 17)
        assert is_acyclic(a)
        assert format_graph(a) == format_graph(b)

    def test_p_validated(self):
        with pytest.raises(ValueError):
            gen_random_dag(5, 1.5, 0)


class TestHandBuiltInstances:
    def test_ring_oracle_values(self):
        for k in (1, 2, 4, 7):
            w = switch_ring(k)
            assert w.k == k
            assert oracle_min_switches(w, 0, k + 1) == k

    def test_chain_oracle_values(self):
        for n, k in ((4, 1), (7, 2), (10, 3), (10, 9)):
            w = switch_chain(n, k)
            assert w.k == k
            assert oracle_min_switches(w, 0, n - 1) == n - 2

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            switch_chain(1, 1)
        with pytest.raises(ValueError):
            switch_chain(5, 5)

    def test_ring_validation(self):
        with pytest.raises(ValueError, match="^need at least 1 walk$"):
            switch_ring(0)


class TestBruteForce:
    def test_known_values(self):
        assert brute_force_path_number(Digraph(3)) == 0
        assert brute_force_path_number(Digraph(3, [(0, 1), (1, 2)])) == 1
        assert brute_force_path_number(
            Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])) == 2
        assert brute_force_path_number(Digraph(3, [(0, 1), (0, 2)])) == 2

    def test_cycle_needs_two(self):
        # a 2-cycle cannot be one simple path
        assert brute_force_path_number(Digraph(2, [(0, 1), (1, 0)])) == 2

    def test_relabelled_small_dags(self):
        # iter_small_dags yields natural-order DAGs only, where the smallest
        # edge's tail has no in-edge; reversing the labels lets the search
        # also extend a path backwards from that tail.
        count = 0
        for n in range(1, 6):
            for g in iter_small_dags(n):
                r = Digraph(n, [(n - 1 - u, n - 1 - v) for u, v in g.edges])
                assert (brute_force_path_number(r) == path_number_lower_bound(r)
                        == minimal_path_decomposition(r).k)
                count += 1
        assert count == 1099

    @given(digraphs(max_n=6, max_edges=9))
    @settings(max_examples=200, deadline=None)
    def test_bounds_on_any_digraph(self, g):
        # Cycles allowed, and labels iter_small_dags never draws: no cover
        # beats the degree bound or needs more paths than edges, and on a
        # DAG the minimal cover attains the count.
        count = brute_force_path_number(g)
        assert path_number_lower_bound(g) <= count <= g.edge_count
        if is_acyclic(g):
            assert count == minimal_path_decomposition(g).k

    def test_small_dag_enumeration(self):
        counts = [sum(1 for _ in iter_small_dags(n)) for n in range(4)]
        assert counts == [1, 1, 2, 8]
        assert all(is_acyclic(g) for g in iter_small_dags(3))


class TestHugeGraphHeader:
    # The references read the graph's adjacency map, so their work follows
    # the edges, not the header's n: numbering every id below n took ~7 s
    # for this graph, ~10 s shuffled.
    GRAPH = Digraph(4 * 10**6, [(0, 1), (1, 2)])

    @pytest.mark.parametrize("call, answer", [
        (lambda g: [tuple(w) for w in numbered_cover(g)], [(0, 1, 2)]),
        (lambda g: [tuple(w) for w in numbered_cover(g, random.Random(1))], [(0, 1, 2)]),
        (brute_force_path_number, 1),
        (lambda g: reachable_set(g, 0), {0, 1, 2}),
    ], ids=["numbered_cover", "numbered_cover_shuffled", "brute_force_path_number",
            "reachable_set"])
    def test_answers_at_once(self, call, answer):
        start = time.perf_counter()
        assert call(self.GRAPH) == answer
        assert time.perf_counter() - start < 1.0


def _relabelled_families(max_len, max_k):
    """Every family of at most max_k walks over ids below max_len, with at
    most max_len positions in all and no loop step, relabelled by first
    occurrence."""
    found = set()
    for k in range(max_k + 1):
        for lengths in product(range(1, max_len + 1), repeat=k):
            if sum(lengths) > max_len:
                continue
            for ids in product(range(max_len), repeat=sum(lengths)):
                it, names = iter(ids), {}
                family = tuple(tuple(next(it) for _ in range(n)) for n in lengths)
                if all(a != b for walk in family for a, b in zip(walk, walk[1:])):
                    found.add(tuple(tuple(names.setdefault(v, len(names)) for v in walk)
                                    for walk in family))
    return found


class TestWalkFamilies:
    @pytest.mark.parametrize("max_len, max_k, count", [
        (0, 3, 1), (3, 0, 1), (3, 2, 13), (4, 2, 39), (4, 3, 74)])
    def test_matches_brute_force_relabelling(self, max_len, max_k, count):
        families = list(iter_walk_families(max_len, max_k))
        assert len(families) == count
        assert set(families) == _relabelled_families(max_len, max_k)

    def test_exhaustive_check_size(self):
        # The scope of test_every_small_family: it must not shrink silently.
        families = list(iter_walk_families(7, 3))
        assert len(set(families)) == len(families) == 8151
        assert () in families
        for family in families:
            assert WalkDecomposition(family).k == len(family) <= 3
            assert sum(map(len, family)) <= 7
            # Numbered by first occurrence: no id exceeds every id before it by more than 1.
            flat = [v for walk in family for v in walk]
            assert all(v <= max(flat[:q], default=-1) + 1 for q, v in enumerate(flat)), family
