"""Cross-module properties tying the decomposition machinery together."""

from hypothesis import given, settings
from hypothesis import strategies as st

from pathreach.dagcover import minimal_path_decomposition
from pathreach.decomposition import (
    path_number_lower_bound,
    union_graph,
    validate_path_decomposition,
    validate_walk_decomposition,
)
from pathreach.reach import decide_reachability
from pathreach.testkit import (
    brute_force_path_number,
    iter_small_dags,
    oracle_min_switches,
    oracle_reachable,
    reachable_set,
)

from .conftest import random_dags


@given(random_dags(), st.data())
@settings(max_examples=100, deadline=None)
def test_reachability_through_minimal_cover(g, data):
    # querying over the computed cover answers plain graph reachability
    cover = minimal_path_decomposition(g)
    s = data.draw(st.integers(0, g.n - 1))
    t = data.draw(st.integers(0, g.n - 1))
    res = decide_reachability(cover, s, t, n=g.n)
    assert res.reachable == oracle_reachable(g, s, t)
    assert res.min_switches == oracle_min_switches(cover, s, t, n=g.n)


@given(random_dags())
@settings(max_examples=100, deadline=None)
def test_cover_reconstructs_graph(g):
    cover = minimal_path_decomposition(g)
    assert union_graph(cover, g.n) == g
    assert validate_path_decomposition(g, cover).ok
    assert validate_walk_decomposition(g, cover).ok


def test_no_decomposition_beats_the_degree_bound_small():
    # exhaustive over order-respecting DAGs on up to 5 vertices: the brute
    # force minimizes over every decomposition, so min >= bound covers all
    for n in range(6):
        for g in iter_small_dags(n):
            assert brute_force_path_number(g) >= path_number_lower_bound(g)


@given(random_dags(max_n=20), st.data())
@settings(max_examples=60, deadline=None)
def test_all_sources_agree_with_bfs(g, data):
    cover = minimal_path_decomposition(g)
    s = data.draw(st.integers(0, g.n - 1))
    ref = reachable_set(g, s)
    for t in range(g.n):
        assert decide_reachability(cover, s, t, n=g.n).reachable == (t in ref)
