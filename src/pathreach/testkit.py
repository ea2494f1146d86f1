"""Brute-force oracles and reproducible instance generators.

The oracles share one argument check with the frontier-register engine,
WalkDecomposition._universe, so both reject a bad query in the same
words.  They share no answer code with it or with dagcover:
numbered_cover follows the paper's edge numbering by its own route.  The
point is to give differential tests something independent to disagree
with.  Generators draw from Python's stdlib random.Random
(Mersenne Twister), so a given seed reproduces an instance byte for byte.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
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


def _switch_cost_map(w: WalkDecomposition, s: int) -> dict[int, int]:
    """Minimum switch count from s to every vertex reachable from it.

    Runs a 0/1 breadth-first search on the occurrence graph: nodes are
    (walk, position) pairs, advancing one position inside a walk is free,
    and hopping between two occurrences of the same vertex (possibly in
    the same walk) costs one switch.  Entry at any occurrence of s is
    free, and s costs 0 even when it occurs nowhere.  Nodes settle at
    their first pop, in cost order; a vertex's first settled occurrence
    gives its cost and queues hops to all its occurrences once, so the
    work is O(L).  Keyed by vertex, so memory follows the input, not ids.
    """
    paths = w._paths
    occ: dict[int, list[tuple[int, int]]] = {}
    for i, vs in enumerate(paths):
        for p, v in enumerate(vs):
            occ.setdefault(v, []).append((i, p))

    done = [bytearray(len(vs)) for vs in paths]
    best = {s: 0}
    queue = deque((0, i, p) for i, p in occ.get(s, ()))
    while queue:
        cost, i, p = queue.popleft()
        if done[i][p]:
            continue
        done[i][p] = 1
        if p + 1 < len(paths[i]):
            queue.appendleft((cost, i, p + 1))
        v = paths[i][p]
        if v not in best:
            best[v] = cost
            queue.extend((cost + 1, j, q) for j, q in occ[v])
    return best


def switch_costs(w: WalkDecomposition, s: int, n: int | None = None) -> list[int | None]:
    """Minimum switch count from s to every vertex in [0, n), None where
    unreachable; see _switch_cost_map for the search."""
    best: list[int | None] = [None] * w._universe(n, index(s))
    for v, c in _switch_cost_map(w, s).items():
        best[v] = c
    return best


def oracle_min_switches(
    w: WalkDecomposition, s: int, t: int, n: int | None = None
) -> int | None:
    w._universe(n, index(s), index(t))
    return _switch_cost_map(w, s).get(t)


def numbered_cover(g: Digraph, rng: random.Random | None = None) -> WalkDecomposition:
    """The traces of the paper's edge numbering, as the reference cover.

    Every vertex numbers its incoming edges 1..indeg and its outgoing edges
    1..outdeg, by ascending neighbour id, or in an order drawn from rng when
    it is given.  A trace starts on every outgoing edge whose number exceeds
    the vertex's indegree, in (vertex, out number) order, and after entering
    a vertex through in number i leaves along out number i, ending where
    there is none.  Raises ValueError when a trace revisits a vertex.  Only
    the vertices of g's adjacency map are numbered, so the work follows the
    edges, not n.  No length guard is needed: the map from an edge to the
    next edge of its trace is injective and never yields a start edge, so
    a trace ends within m steps, cyclic g included.
    """
    in_number: dict[Edge, int] = {}
    out_edge: dict[tuple[int, int], int] = {}  # (v, out number) -> head
    starts: list[Edge] = []
    for v, (succs, preds) in sorted(g._adjacency.items()):
        preds, succs = list(preds), list(succs)
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


def brute_force_path_number(g: Digraph) -> int:
    """Exhaustive minimum number of edge-disjoint simple paths covering all
    edges of g.  Every simple path with an edge is recorded as a bit set of
    edges, by a search along g's adjacency map.  Some path of a fewest-path
    cover of the edge set mask holds mask's lowest edge, so best[mask] is
    1 + min(best[mask ^ p]) over the paths p within mask that hold it.
    Exponential in the edge count; intended for a handful of edges."""
    bit = {e: 1 << b for b, e in enumerate(sorted(g.edges))}
    adjacency = g._adjacency
    paths = []
    stack = [(u, {u}, 0) for u in adjacency]  # (end, its vertices, its edges)
    while stack:
        u, seen, mask = stack.pop()
        for v in adjacency[u][0]:
            if v not in seen:
                paths.append(mask | bit[u, v])
                stack.append((v, seen | {v}, paths[-1]))
    best = [0] * (1 << len(bit))
    for mask in range(1, len(best)):
        low = mask & -mask
        best[mask] = 1 + min(best[mask ^ p] for p in paths if p & low and p & mask == p)
    return best[-1]


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
