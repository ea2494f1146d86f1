"""Immutable simple directed graphs with dense integer vertex ids.

Graphs have no loops and no parallel arcs.  Vertex ids are the integers
0..n-1; callers that work with named vertices must map names to ids
themselves.  Adjacency lists are kept sorted so that neighbor iteration
is deterministic.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, NamedTuple

Edge = tuple[int, int]


# Largest header N that parse_graph accepts.  Adjacency is held per
# vertex, so N alone sets a floor on memory whatever the edge lines say;
# README "File formats" gives the sizes behind this choice.
_MAX_VERTEX_COUNT = 1 << 22


class GraphFormatError(ValueError):
    """A graph file could not be parsed."""


class DegreePair(NamedTuple):
    indeg: int
    outdeg: int


class Digraph:
    """Simple directed graph on vertices 0..n-1, immutable after construction."""

    __slots__ = ("_n", "_edges", "_succ", "_pred")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        edge_set = frozenset((int(u), int(v)) for u, v in edges)
        out: defaultdict[int, list[int]] = defaultdict(list)
        inc: defaultdict[int, list[int]] = defaultdict(list)
        for u, v in edge_set:
            out[u].append(v)
            inc[v].append(u)
        ends = out.keys() | inc.keys()
        has_loop = any(u in vs for u, vs in out.items())
        if has_loop or ends and not (0 <= min(ends) and max(ends) < n):
            _reject_first_bad_edge(n, edge_set)
        self._n = n
        self._edges = edge_set
        self._succ = _sorted_adjacency(n, out)
        self._pred = _sorted_adjacency(n, inc)

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> frozenset[Edge]:
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self._n):
            raise ValueError(f"vertex {v} outside [0, {self._n})")

    def successors(self, v: int) -> tuple[int, ...]:
        """Out-neighbors of v in ascending order."""
        self._check_vertex(v)
        return self._succ[v]

    def predecessors(self, v: int) -> tuple[int, ...]:
        """In-neighbors of v in ascending order."""
        self._check_vertex(v)
        return self._pred[v]

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return f"Digraph(n={self._n}, edges={len(self._edges)})"


def _sorted_adjacency(n: int, lists: dict[int, list[int]]) -> tuple[tuple[int, ...], ...]:
    """Per vertex, its neighbor list sorted; vertices without one get ()."""
    adj: list[tuple[int, ...]] = [()] * n
    for v, vs in lists.items():
        vs.sort()
        adj[v] = tuple(vs)
    return tuple(adj)


def _reject_first_bad_edge(n: int, edges: frozenset[Edge]) -> None:
    """Raise for the smallest loop or out-of-range edge."""
    for u, v in sorted(edges):
        if u == v:
            raise ValueError(f"loop edge ({u}, {v}) is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")


def degrees(g: Digraph, v: int) -> DegreePair:
    """Indegree and outdegree of vertex v."""
    g._check_vertex(v)
    return DegreePair(len(g._pred[v]), len(g._succ[v]))


def is_acyclic(g: Digraph) -> bool:
    """True iff g contains no directed cycle (iterative Kahn peeling)."""
    indeg = [len(g._pred[v]) for v in range(g.n)]
    stack = [v for v in range(g.n) if indeg[v] == 0]
    seen = 0
    while stack:
        u = stack.pop()
        seen += 1
        for w in g._succ[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    return seen == g.n


def parse_graph(text: str) -> Digraph:
    """Parse the graph file format.

    Lines starting with '#' and blank lines are ignored.  Exactly one
    header line "n <N>" with 0 <= N <= 2**22 must precede any edge line
    "e <u> <v>".  Duplicate edge lines, loops, and out-of-range endpoints
    are hard errors; the first error in file order is reported.
    """
    n: int | None = None
    edges: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if len(parts) == 3 and parts[0] == "e" and n is not None:
            try:
                edge = (int(parts[1]), int(parts[2]))
            except ValueError:  # _parse_int names the first token that is not one
                edge = (_parse_int(parts[1], lineno), _parse_int(parts[2], lineno))
            u, v = edge
            if u == v:
                raise GraphFormatError(f"line {lineno}: loop edge ({u}, {v})")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"line {lineno}: vertex id outside [0, {n})")
            if edge in edges:
                raise GraphFormatError(f"line {lineno}: duplicate edge ({u}, {v})")
            edges.add(edge)
        elif not parts or parts[0].startswith("#"):
            continue
        elif parts[0] == "n":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate header line")
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: header must be 'n <N>'")
            n = _parse_int(parts[1], lineno)
            if n < 0:
                raise GraphFormatError(f"line {lineno}: vertex count must be nonnegative")
            if n > _MAX_VERTEX_COUNT:
                raise GraphFormatError(
                    f"line {lineno}: vertex count {n} exceeds the limit {_MAX_VERTEX_COUNT}")
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge line before header")
            raise GraphFormatError(f"line {lineno}: edge line must be 'e <u> <v>'")
        else:
            raise GraphFormatError(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise GraphFormatError("missing header line 'n <N>'")
    return Digraph(n, edges)


def format_graph(g: Digraph) -> str:
    """Serialize g in the graph file format with edges sorted."""
    lines = [f"n {g.n}"]
    lines.extend(f"e {u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: expected integer, got {token!r}") from None
