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
from functools import cached_property
from typing import Iterable

from .decomposition import Walk, WalkDecomposition
from .graph import Digraph, Edge, is_acyclic
from .reach import RegisterMeter


class CyclicGraphError(ValueError):
    """The input graph contains a directed cycle."""


# Scalar locals of a trace: previous, current and next vertex, and the
# emitted length used as the cycle guard.
_TRACE_SCRATCH_WORDS = 4

# What a trace follows: for every vertex v with an incoming edge,
# continuations[v][u] is the vertex after v when v was entered from u, the
# head of v's outgoing edge whose out number equals the in number of (u, v).
# u is absent when v has no such edge, and the trace ends at v.
_Continuations = dict[int, dict[int, int]]


@dataclass(frozen=True)
class EdgeIndexing:
    """Edge numbering: in_index[(u, v)] in 1..indeg(v), out_index in 1..outdeg(u).

    Per vertex, the numbers over its incoming (outgoing) edges form a
    permutation of 1..degree.
    """

    in_index: dict[Edge, int]
    out_index: dict[Edge, int]

    @cached_property
    def _continuations(self) -> _Continuations:
        head = {(u, r): v for (u, v), r in self.out_index.items()}
        continuations: _Continuations = {}
        for (u, v), r in self.in_index.items():
            after = continuations.setdefault(v, {})
            if (v, r) in head:
                after[u] = head[(v, r)]
        return continuations


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


def _follow(continuations: _Continuations, starts: Iterable[Edge], limit: int,
            meter: RegisterMeter | None) -> list[tuple[int, ...]]:
    """Vertices of the trace that begins with each start edge: entering v
    through the edge numbered i, it leaves along v's outgoing edge numbered
    i until there is none.  More than limit vertices certify a cycle."""
    if meter is not None:
        meter.acquire(_TRACE_SCRATCH_WORDS)
    try:
        traces = []
        for u, v in starts:
            verts = [u, v]
            w = continuations[v].get(u)
            while w is not None:
                verts.append(w)
                if len(verts) > limit:
                    raise CyclicGraphError("trace revisits a vertex: the graph is not acyclic")
                u, v = v, w
                w = continuations[v].get(u)
            traces.append(tuple(verts))
        return traces
    finally:
        if meter is not None:
            meter.release(_TRACE_SCRATCH_WORDS)


def trace_path(
    g: Digraph, idx: EdgeIndexing, start: Edge, meter: RegisterMeter | None = None
) -> Walk:
    """Follow the edge numbering from a legal start edge until it runs out.

    The start edge (v, w) must satisfy out_index > indeg(v).  On an acyclic
    graph the result is a simple path; a revisited vertex certifies a cycle
    and raises CyclicGraphError.
    """
    if not g.has_edge(*start):
        raise ValueError(f"start edge {start} is not in the graph")
    u = start[0]
    if idx.out_index[start] <= len(g.predecessors(u)):
        raise ValueError(
            f"edge {start} is not a legal path start: its out number "
            f"{idx.out_index[start]} does not exceed indeg({u})={len(g.predecessors(u))}")
    [verts] = _follow(idx._continuations, [start], g.n, meter)
    if len(set(verts)) != len(verts):
        raise CyclicGraphError("trace revisits a vertex: the graph is not acyclic")
    return Walk(verts)


def minimal_path_decomposition(
    g: Digraph, meter: RegisterMeter | None = None
) -> WalkDecomposition:
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
    successors, predecessors = g._adjacency()
    continuations = {v: dict(zip(us, successors[v])) for v, us in predecessors.items()}
    starts = ((v, x) for v in sorted(successors) for x in successors[v][len(predecessors[v]):])
    # A trace on an acyclic graph is a simple path of int ids, so it passes
    # every check of Walk.__init__.
    return WalkDecomposition._checked(_follow(continuations, starts, g.n, meter))
