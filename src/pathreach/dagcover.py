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

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .decomposition import Walk, WalkDecomposition
from .graph import Digraph, Edge, is_acyclic
from .reach import RegisterMeter


class CyclicGraphError(ValueError):
    """The input graph contains a directed cycle."""


# Scalar locals of a trace: previous and current vertex, carried edge
# number, and the emitted length used as the cycle guard.
_TRACE_SCRATCH_WORDS = 4

# The per-vertex arrays a trace follows, indexed by vertex id: successors
# in out-number order, predecessors in ascending id, and in_numbers[v][j],
# the number of the edge from predecessors[v][j] into v.
_PerVertex = Sequence[Sequence[int]]


@dataclass(frozen=True)
class EdgeIndexing:
    """Edge numbering: in_index[(u, v)] in 1..indeg(v), out_index in 1..outdeg(u).

    Per vertex, the numbers over its incoming (outgoing) edges form a
    permutation of 1..degree.
    """

    in_index: dict[Edge, int]
    out_index: dict[Edge, int]

    @cached_property
    def _arrays(self) -> tuple[_PerVertex, _PerVertex, _PerVertex]:
        # (successors, predecessors, in_numbers) for following this numbering
        n = 1 + max((max(e) for e in self.in_index), default=-1)
        outs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        ins: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (u, v), r in self.out_index.items():
            outs[u].append((r, v))
        for (u, v), r in self.in_index.items():
            ins[v].append((u, r))
        successors = [tuple(v for _, v in sorted(pairs)) for pairs in outs]
        incoming = [sorted(pairs) for pairs in ins]
        predecessors = [tuple(u for u, _ in pairs) for pairs in incoming]
        in_numbers = [tuple(r for _, r in pairs) for pairs in incoming]
        return successors, predecessors, in_numbers


def assign_edge_indices(g: Digraph) -> EdgeIndexing:
    """Deterministic numbering: incoming edges of v by ascending source id,
    outgoing edges of u by ascending target id."""
    in_index: dict[Edge, int] = {}
    out_index: dict[Edge, int] = {}
    for v in range(g.n):
        for r, u in enumerate(g.predecessors(v), start=1):
            in_index[(u, v)] = r
        for r, x in enumerate(g.successors(v), start=1):
            out_index[(v, x)] = r
    return EdgeIndexing(in_index=in_index, out_index=out_index)


def _follow(successors: _PerVertex, predecessors: _PerVertex, in_numbers: _PerVertex,
            start: Edge, limit: int, meter: RegisterMeter | None) -> list[int]:
    """Vertices of the trace that begins with the edge start: entering v
    through the edge numbered i, it leaves along v's outgoing edge numbered
    i until there is none.  More than limit vertices certify a cycle."""
    if meter is not None:
        meter.acquire(_TRACE_SCRATCH_WORDS)
    try:
        u, v = start
        verts = [u]
        while True:
            carried = in_numbers[v][bisect_left(predecessors[v], u)]
            verts.append(v)
            if len(verts) > limit:
                raise CyclicGraphError("trace revisits a vertex: the graph is not acyclic")
            nexts = successors[v]
            if carried > len(nexts):
                return verts
            u, v = v, nexts[carried - 1]
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
    if start not in g.edges:
        raise ValueError(f"start edge {start} is not in the graph")
    u = start[0]
    if idx.out_index[start] <= len(g.predecessors(u)):
        raise ValueError(
            f"edge {start} is not a legal path start: its out number "
            f"{idx.out_index[start]} does not exceed indeg({u})={len(g.predecessors(u))}")
    verts = _follow(*idx._arrays, start, g.n, meter)
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
    # The numbering of assign_edge_indices: the sorted adjacency tuples are
    # already in number order, and the edge from predecessors[v][j] has
    # number j + 1 for every v.
    successors = [g.successors(v) for v in range(g.n)]
    predecessors = [g.predecessors(v) for v in range(g.n)]
    in_numbers = [range(1, g.n)] * g.n
    walks: list[Walk] = []
    for v, succs in enumerate(successors):
        for rank in range(len(predecessors[v]), len(succs)):
            walks.append(Walk(_follow(
                successors, predecessors, in_numbers, (v, succs[rank]), g.n, meter)))
    return WalkDecomposition(walks)
