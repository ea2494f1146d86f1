"""Brute-force oracles and reproducible instance generators.

Nothing here shares code with the frontier-register engine or with
dagcover: numbered_cover follows the paper's edge numbering by its own
route.  The point is to give differential tests something independent to
disagree with.  Generators draw from Python's stdlib random.Random
(Mersenne Twister), so a given seed reproduces an instance byte for byte.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import index
from typing import Iterator

from .decomposition import WalkDecomposition
from .graph import Digraph, Edge

# Largest count of ids a generator holds or of vertices it draws pairs of.
# Generators allocate by their size arguments, so each is checked before
# the first allocation or draw; graph files have no such limit.
_MAX_VERTEX_COUNT = 1 << 22


def _check_cap(count: int, what: str) -> None:
    if count > _MAX_VERTEX_COUNT:
        raise ValueError(f"{what} exceeds the limit {_MAX_VERTEX_COUNT}")


@dataclass(frozen=True)
class InstanceSeed:
    n: int
    k: int
    max_len: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("n", "k", "max_len", "seed"):
            index(getattr(self, name))  # TypeError for a float, before any draw
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")
        # Up to k * max_len ids are drawn and held.
        _check_cap(self.k * self.max_len, f"k * max_len = {self.k * self.max_len}")


def reachable_set(g: Digraph, s: int) -> set[int]:
    """All vertices reachable from s, including s itself (plain BFS)."""
    g._check_vertex(s)
    seen = {s}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in g.successors(u):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def oracle_reachable(g: Digraph, s: int, t: int) -> bool:
    g._check_vertex(t)
    return t in reachable_set(g, s)


def _universe(w: WalkDecomposition, s: int, n: int | None) -> int:
    nv = w.implied_vertex_count
    universe = nv if n is None else index(n)
    s = index(s)
    if universe < nv:
        raise ValueError(f"universe {universe} smaller than implied vertex count {nv}")
    if not (0 <= s < universe):
        raise ValueError(f"source {s} outside [0, {universe})")
    return universe


def _switch_cost_map(w: WalkDecomposition, s: int) -> dict[int, int]:
    """Minimum switch count from s to every vertex reachable from it.

    Runs a 0/1 shortest-path search on the occurrence graph: nodes are
    (walk, position) pairs, advancing one position inside a walk is free,
    and hopping between two occurrences of the same vertex (possibly in
    the same walk) costs one switch.  Entry at any occurrence of s is
    free, and s costs 0 even when it occurs nowhere.  Keyed by vertex, so
    the result is sized by the input, not by the largest vertex id.
    """
    paths = w._paths
    occ: dict[int, list[tuple[int, int]]] = {}
    for i, vs in enumerate(paths):
        for p, v in enumerate(vs):
            occ.setdefault(v, []).append((i, p))

    dist = [[None] * len(vs) for vs in paths]
    queue: deque[tuple[int, int, int]] = deque()
    for i, p in occ.get(s, []):
        dist[i][p] = 0
        queue.append((0, i, p))
    while queue:
        cost, i, p = queue.popleft()
        if dist[i][p] != cost:
            continue
        nxt = p + 1
        if nxt < len(paths[i]) and (dist[i][nxt] is None or dist[i][nxt] > cost):
            dist[i][nxt] = cost
            queue.appendleft((cost, i, nxt))
        for j, q in occ[paths[i][p]]:
            if (j, q) != (i, p) and (dist[j][q] is None or dist[j][q] > cost + 1):
                dist[j][q] = cost + 1
                queue.append((cost + 1, j, q))

    best = {s: 0}
    for vs, row in zip(paths, dist):
        for v, c in zip(vs, row):
            if c is not None and (v not in best or c < best[v]):
                best[v] = c
    return best


def switch_costs(w: WalkDecomposition, s: int, n: int | None = None) -> list[int | None]:
    """Minimum switch count from s to every vertex in [0, n), None where
    unreachable; see _switch_cost_map for the search."""
    best: list[int | None] = [None] * _universe(w, s, n)
    for v, c in _switch_cost_map(w, s).items():
        best[v] = c
    return best


def oracle_min_switches(
    w: WalkDecomposition, s: int, t: int, n: int | None = None
) -> int | None:
    universe = _universe(w, s, n)
    if not (0 <= index(t) < universe):
        raise ValueError(f"target {t} outside [0, {universe})")
    return _switch_cost_map(w, s).get(t)


def numbered_cover(g: Digraph, rng: random.Random | None = None) -> WalkDecomposition:
    """The traces of the paper's edge numbering, as the reference cover.

    Every vertex numbers its incoming edges 1..indeg and its outgoing edges
    1..outdeg, by ascending neighbour id, or in an order drawn from rng when
    it is given.  A trace starts on every outgoing edge whose number exceeds
    the vertex's indegree, in (vertex, out number) order, and after entering
    a vertex through in number i leaves along out number i, ending where
    there is none.  Raises ValueError when a trace revisits a vertex.

    No length guard is needed: the map from an edge to the next edge of its
    trace is injective and never yields a start edge, so a trace ends
    within m steps, cyclic g included.
    """
    in_number: dict[Edge, int] = {}
    out_edge: dict[tuple[int, int], int] = {}  # (v, out number) -> head
    starts: list[Edge] = []
    for v in range(g.n):
        preds, succs = list(g.predecessors(v)), list(g.successors(v))
        if rng is not None:
            rng.shuffle(preds)
            rng.shuffle(succs)
        for i, u in enumerate(preds, start=1):
            in_number[(u, v)] = i
        for i, x in enumerate(succs, start=1):
            out_edge[(v, i)] = x
        starts.extend((v, x) for x in succs[len(preds):])
    walks = []
    for u, v in starts:
        verts = [u, v]
        while (out := (v, in_number[(u, v)])) in out_edge:
            u, v = v, out_edge[out]
            verts.append(v)
        if len(set(verts)) < len(verts):
            raise ValueError(f"trace {verts} revisits a vertex")
        walks.append(verts)
    return WalkDecomposition(walks)


def gen_decomposed_instance(spec: InstanceSeed) -> WalkDecomposition:
    """k random walks over vertex ids below n, each of length <= max_len.

    Steps that would form a loop are redrawn rather than rejected, so with
    n = 1 every walk degenerates to a single vertex.  Deterministic in the
    seed.
    """
    rng = random.Random(spec.seed)
    walks = []
    for _ in range(spec.k):
        length = rng.randint(1, spec.max_len)
        seq = [rng.randrange(spec.n)]
        if spec.n > 1:
            while len(seq) < length:
                nxt = rng.randrange(spec.n)
                while nxt == seq[-1]:
                    nxt = rng.randrange(spec.n)
                seq.append(nxt)
        walks.append(seq)
    return WalkDecomposition(walks)


def gen_random_dag(n: int, p: float, seed: int) -> Digraph:
    """Random DAG: each pair (i, j) with i < j becomes an edge with
    probability p, so the result is acyclic by construction.

    Draws n(n-1)/2 random numbers, so n is checked against the
    generators' cap before the first draw.
    """
    _check_cap(n, f"vertex count {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Digraph(n, edges)


def switch_chain(n: int, k: int) -> WalkDecomposition:
    """Worst-case instance: the chain 0 -> 1 -> ... -> n-1 split round-robin
    into k walks, each listing its chain segments in reverse order.

    Following the chain then needs a switch per edge (the continuation
    always sits earlier in its walk, or in another walk), so the query
    0 -> n-1 costs n-2 switches and drives the engine through about n
    rounds.  The filler steps between reversed segments only add edges
    that point backwards along the chain, which cannot shorten a forward
    route.  n is checked against the generators' cap before any allocation.
    """
    _check_cap(n, f"vertex count {n}")
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if not (1 <= k <= n - 1):
        raise ValueError(f"k must be in [1, {n - 1}]")
    buckets: list[list[int]] = [[] for _ in range(k)]
    for i in range(n - 1):
        buckets[i % k].append(i)
    walks = []
    for segs in buckets:
        seq: list[int] = []
        for a in reversed(segs):
            seq.extend((a, a + 1))
        walks.append(seq)
    return WalkDecomposition(walks)


def switch_ring(k: int) -> WalkDecomposition:
    """k walks on vertices 0..k+1 whose only 0 -> k+1 route costs exactly
    k switches: walk 0 holds the last chain segment followed by the first,
    walks 1..k-1 hold one middle segment each."""
    if k < 1:
        raise ValueError("need at least 1 walk")
    return WalkDecomposition([[k, k + 1, 0, 1], *([i, i + 1] for i in range(1, k))])


def _extensions(edges: frozenset[Edge], at: int, blocked: frozenset[int],
                forward: bool) -> Iterator[tuple[Edge, ...]]:
    # All simple chains growing from `at`, shortest first, avoiding blocked
    # vertices; () is always yielded.
    yield ()
    for a, b in edges:
        if forward and a == at and b not in blocked:
            for rest in _extensions(edges, b, blocked | {b}, forward):
                yield ((a, b),) + rest
        elif not forward and b == at and a not in blocked:
            for rest in _extensions(edges, a, blocked | {a}, forward):
                yield ((a, b),) + rest


@lru_cache(maxsize=None)
def _min_paths_covering(edges: frozenset[Edge]) -> int:
    if not edges:
        return 0
    e = min(edges)
    u, v = e
    rest = edges - {e}
    best = None
    for back in _extensions(rest, u, frozenset((u, v)), forward=False):
        back_vertices = frozenset(x for edge in back for x in edge)
        for fwd in _extensions(rest - set(back), v,
                               frozenset((u, v)) | back_vertices, forward=True):
            used = frozenset(back) | {e} | frozenset(fwd)
            count = 1 + _min_paths_covering(edges - used)
            if best is None or count < best:
                best = count
    assert best is not None
    return best


def brute_force_path_number(g: Digraph) -> int:
    """Exhaustive minimum number of edge-disjoint simple paths covering all
    edges of g.  Exponential; intended for graphs with a handful of edges."""
    return _min_paths_covering(frozenset(g.edges))


def iter_small_dags(n: int) -> Iterator[Digraph]:
    """Every DAG on vertices 0..n-1 whose edges respect the natural order.

    Any labeled DAG is a relabeling of exactly one of these, which is
    enough for exhaustive checks of label-independent quantities.
    """
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Digraph(n, [pairs[b] for b in range(len(pairs)) if bits >> b & 1])


def iter_walk_families(max_len: int, max_k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every ordered family of at most max_k non-empty walks with at most
    max_len positions in all and no loop step, the empty family included.

    Vertex ids are numbered 0, 1, 2, ... in order of first occurrence, so
    any such family is a relabelling of exactly one of these, which is
    enough for exhaustive checks of label-independent quantities.
    """
    def families(done, fresh, room):
        # done: the finished walks; fresh: the next new id; room: the
        # positions still free.
        yield done
        if room > 0 and len(done) < max_k:
            for v in range(fresh + 1):
                yield from walks(done, (v,), max(fresh, v + 1), room - 1)

    def walks(done, walk, fresh, room):
        # walk: the open walk, closed here or extended by one position.
        yield from families(done + (walk,), fresh, room)
        if room > 0:
            for v in range(fresh + 1):
                if v != walk[-1]:
                    yield from walks(done, walk + (v,), max(fresh, v + 1), room - 1)

    return families((), 0, max_len)
