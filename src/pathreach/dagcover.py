"""Minimal edge-disjoint path covers of DAGs via per-vertex edge numbering.

minimal_path_decomposition realises this construction: every vertex
numbers its incoming edges 1..indeg and its outgoing edges 1..outdeg, by
ascending neighbour id.  A trace starts on an outgoing edge whose number
exceeds the start vertex's indegree and, after entering a vertex through
edge number i, continues along the outgoing edge numbered i when it
exists.  Distinct start edges yield edge-disjoint simple paths, and the
family of all traces covers every edge with exactly as many paths as the
degree imbalance lower bound, so the cover is minimal.
"""

from __future__ import annotations

from .decomposition import WalkDecomposition
from .graph import Digraph, is_acyclic


class CyclicGraphError(ValueError):
    """The input graph contains a directed cycle."""


def minimal_path_decomposition(g: Digraph) -> WalkDecomposition:
    """Minimal path decomposition of an acyclic g.

    Paths are emitted in ascending order of start vertex and start edge
    number; the result always validates as a path decomposition and its
    size equals path_number_lower_bound(g).
    """
    if not is_acyclic(g):
        raise CyclicGraphError("graph is not acyclic")
    # The numbering by ascending neighbour id: the j-th predecessor of v in
    # ascending order has in number j + 1 and the j-th successor out number
    # j + 1, so a trace entering v from its j-th predecessor leaves to its
    # j-th successor, and the starts are the successors past indeg(v).
    # continuations[v][u] is the vertex after v when v was entered from u;
    # u is absent when the trace ends at v.
    adjacency = g._adjacency
    continuations = {v: dict(zip(us, xs)) for v, (xs, us) in adjacency.items()}
    paths = []
    for v, (xs, us) in sorted(adjacency.items()):
        for x in xs[len(us):]:
            path = [v, x]
            u, y = v, x
            z = continuations[y].get(u)
            while z is not None:
                path.append(z)
                u, y = y, z
                z = continuations[y].get(u)
            paths.append(tuple(path))
    # g is acyclic, so every trace ends without a length guard, as a simple
    # path of int ids that passes every check of _check_walk.
    return WalkDecomposition._checked(paths)
