"""Minimal edge-disjoint path covers of DAGs via per-vertex edge indexing.

Every vertex numbers its incoming edges 1..indeg and its outgoing edges
1..outdeg.  A trace starts on an outgoing edge whose number exceeds the
start vertex's indegree and, after entering a vertex through edge number
i, continues along the outgoing edge numbered i when it exists.  Distinct
start edges yield edge-disjoint simple paths, and the family of all
traces covers every edge with exactly as many paths as the degree
imbalance lower bound, so the cover is minimal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import Walk, WalkDecomposition
from .graph import Digraph, Edge, is_acyclic


class CyclicGraphError(ValueError):
    """The input graph contains a directed cycle."""


@dataclass(frozen=True)
class EdgeIndexing:
    """Edge numbering: in_index[(u, v)] in 1..indeg(v), out_index in 1..outdeg(u).

    Per vertex, the numbers over its incoming (outgoing) edges form a
    permutation of 1..degree.
    """

    in_index: dict[Edge, int]
    out_index: dict[Edge, int]


def assign_edge_indices(g: Digraph) -> EdgeIndexing:
    """Deterministic numbering: incoming edges of v by ascending source id,
    outgoing edges of u by ascending target id."""
    in_index: dict[Edge, int] = {}
    out_index: dict[Edge, int] = {}
    successors, predecessors = g._adjacency()
    for v in sorted(successors):
        for r, u in enumerate(predecessors[v], start=1):
            in_index[(u, v)] = r
        for r, x in enumerate(successors[v], start=1):
            out_index[(v, x)] = r
    return EdgeIndexing(in_index=in_index, out_index=out_index)


def trace_path(g: Digraph, idx: EdgeIndexing, start: Edge) -> Walk:
    """Follow the edge numbering from a legal start edge until it runs out.

    The start edge (v, w) must satisfy out_index > indeg(v).  After
    entering a vertex through the edge with in number i, the trace leaves
    along its outgoing edge with out number i, and ends where there is
    none.  On an acyclic graph the result is a simple path; a revisited
    vertex certifies a cycle and raises CyclicGraphError.
    """
    if not g.has_edge(*start):
        raise ValueError(f"start edge {start} is not in the graph")
    u, v = start
    if idx.out_index[start] <= len(g.predecessors(u)):
        raise ValueError(
            f"edge {start} is not a legal path start: its out number "
            f"{idx.out_index[start]} does not exceed indeg({u})={len(g.predecessors(u))}")
    verts = [u, v]
    while True:
        r = idx.in_index[(u, v)]
        w = next((x for x in g.successors(v) if idx.out_index[(v, x)] == r), None)
        if w is None:
            break
        verts.append(w)
        # More than n vertices certify a cycle, and end the loop on one.
        if len(verts) > g.n:
            raise CyclicGraphError("trace revisits a vertex: the graph is not acyclic")
        u, v = v, w
    if len(set(verts)) != len(verts):
        raise CyclicGraphError("trace revisits a vertex: the graph is not acyclic")
    return Walk(verts)


def minimal_path_decomposition(g: Digraph) -> WalkDecomposition:
    """Minimal path decomposition of an acyclic g.

    Paths are emitted in ascending order of start vertex and start edge
    number; the result always validates as a path decomposition and its
    size equals path_number_lower_bound(g).
    """
    if not is_acyclic(g):
        raise CyclicGraphError("graph is not acyclic")
    # The numbering of assign_edge_indices: the j-th predecessor of v in
    # ascending order has in number j + 1 and the j-th successor out number
    # j + 1, so a trace entering v from its j-th predecessor leaves to its
    # j-th successor, and the starts are the successors past indeg(v).
    # continuations[v][u] is the vertex after v when v was entered from u;
    # u is absent when the trace ends at v.
    successors, predecessors = g._adjacency()
    continuations = {v: dict(zip(us, successors[v])) for v, us in predecessors.items()}
    paths = []
    for v in sorted(successors):
        for x in successors[v][len(predecessors[v]):]:
            path = [v, x]
            u, y = v, x
            z = continuations[y].get(u)
            while z is not None:
                path.append(z)
                u, y = y, z
                z = continuations[y].get(u)
            paths.append(tuple(path))
    # g is acyclic, so every trace ends without a length guard, as a simple
    # path of int ids that passes every check of Walk.__init__.
    return WalkDecomposition._checked(paths)
