"""Walk and path decompositions of directed graphs.

A walk is an ordered vertex sequence whose consecutive pairs are the
edges it uses; it may revisit vertices.  A family of walks covers a
graph when the union of its steps equals the graph's edge set.  The
stricter path form additionally requires every walk to be a simple path
and every edge to be used exactly once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import eq
from typing import Iterable, Iterator, NamedTuple, Sequence

from .graph import Digraph, Edge


class DecompositionFormatError(ValueError):
    """A decomposition file could not be parsed."""


class Walk:
    """Directed walk given as a nonempty vertex sequence without loop steps."""

    __slots__ = ("_vertices",)

    def __init__(self, vertices: Iterable[int]) -> None:
        vs = tuple(map(int, vertices))
        if not vs:
            raise ValueError("a walk needs at least one vertex")
        if min(vs) < 0:
            v = next(v for v in vs if v < 0)
            raise ValueError(f"negative vertex id {v}")
        if any(map(eq, vs, vs[1:])):
            v = next(a for a, b in zip(vs, vs[1:]) if a == b)
            raise ValueError(f"loop step ({v}, {v}) is not allowed")
        self._vertices = vs

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def is_simple(self) -> bool:
        """True iff no vertex repeats, i.e. the walk is a simple path."""
        return len(set(self._vertices)) == len(self._vertices)

    def steps(self) -> Iterator[Edge]:
        return zip(self._vertices, self._vertices[1:])

    def __len__(self) -> int:
        return len(self._vertices)

    def __getitem__(self, i: int) -> int:
        return self._vertices[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self._vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Walk):
            return NotImplemented
        return self._vertices == other._vertices

    def __hash__(self) -> int:
        return hash(self._vertices)

    def __repr__(self) -> str:
        return f"Walk({list(self._vertices)})"


class WalkDecomposition:
    """An ordered family of walks.

    The derived occurrence index (per vertex, its first and last position
    in each walk that contains it) is built lazily and cached; it is
    query-independent input representation, shared by all reachability
    queries on the instance.
    """

    def __init__(self, walks: Iterable[Walk | Sequence[int]] = ()) -> None:
        self._walks = tuple(w if isinstance(w, Walk) else Walk(w) for w in walks)

    @property
    def walks(self) -> tuple[Walk, ...]:
        return self._walks

    @property
    def k(self) -> int:
        return len(self._walks)

    @cached_property
    def max_vertex(self) -> int:
        """Largest vertex id used by any walk, or -1 for an empty family."""
        return max((max(w.vertices) for w in self._walks), default=-1)

    @property
    def implied_vertex_count(self) -> int:
        return self.max_vertex + 1

    @cached_property
    def occurrences(self) -> dict[int, tuple[tuple[int, int, int], ...]]:
        """Per vertex, one (walk, first, last) entry for each walk it occurs in.

        Entries are in walk order; first and last are the smallest and
        largest position of the vertex in that walk.  Only vertices that
        occur are keys, so the index is sized by the input, not by the
        largest vertex id.
        """
        index: dict[int, list[tuple[int, int, int]]] = {}
        for i, walk in enumerate(self._walks):
            last = {v: pos for pos, v in enumerate(walk.vertices)}
            first: dict[int, int] = {}
            for pos, v in enumerate(walk.vertices):
                first.setdefault(v, pos)
            for v, pos in first.items():
                index.setdefault(v, []).append((i, pos, last[v]))
        return {v: tuple(entries) for v, entries in index.items()}

    def __len__(self) -> int:
        return len(self._walks)

    def __iter__(self) -> Iterator[Walk]:
        return iter(self._walks)

    def __getitem__(self, i: int) -> Walk:
        return self._walks[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WalkDecomposition):
            return NotImplemented
        return self._walks == other._walks

    def __hash__(self) -> int:
        return hash(self._walks)

    def __repr__(self) -> str:
        return f"WalkDecomposition(k={self.k})"


class ViolationKind(Enum):
    NOT_SIMPLE = "NOT_SIMPLE"
    EDGE_NOT_IN_GRAPH = "EDGE_NOT_IN_GRAPH"
    EDGE_REPEATED = "EDGE_REPEATED"
    EDGE_UNCOVERED = "EDGE_UNCOVERED"


class Violation(NamedTuple):
    kind: ViolationKind
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    @classmethod
    def from_violations(cls, violations: Sequence[Violation]) -> "ValidationReport":
        vs = tuple(violations)
        return cls(ok=not vs, violations=vs)


def union_graph(w: WalkDecomposition, n: int) -> Digraph:
    """Digraph on n vertices whose edges are the deduplicated steps of w."""
    if w.max_vertex >= n:
        raise ValueError(f"walk vertex {w.max_vertex} outside [0, {n})")
    edges = {step for walk in w for step in walk.steps()}
    return Digraph(n, edges)


def validate_path_decomposition(g: Digraph, p: WalkDecomposition) -> ValidationReport:
    """Check that p partitions the edges of g into simple directed paths.

    All failures are collected and reported, never raised.  Single-vertex
    walks carry no edges and are ignored.
    """
    violations: list[Violation] = []
    for i, walk in enumerate(p):
        if not walk.is_simple:
            violations.append(Violation(
                ViolationKind.NOT_SIMPLE, f"walk {i} repeats a vertex: {list(walk)}"))
    steps = [step for walk in p for step in walk.steps()]
    used = set(steps)
    for e in sorted(used - g.edges):
        violations.append(Violation(
            ViolationKind.EDGE_NOT_IN_GRAPH, f"step {e} is not an edge of the graph"))
    if len(used) < len(steps):
        usage = Counter(steps)
        for e in sorted(e for e, c in usage.items() if c > 1 and e in g.edges):
            violations.append(Violation(
                ViolationKind.EDGE_REPEATED, f"edge {e} is used {usage[e]} times"))
    for e in sorted(g.edges - used):
        violations.append(Violation(
            ViolationKind.EDGE_UNCOVERED, f"edge {e} lies on no path"))
    return ValidationReport.from_violations(violations)


def validate_walk_decomposition(g: Digraph, w: WalkDecomposition) -> ValidationReport:
    """Check that the union of the steps of w is exactly the edge set of g.

    Walks may repeat vertices and share edges; only coverage matters.
    """
    violations: list[Violation] = []
    used = {step for walk in w for step in walk.steps()}
    for e in sorted(used - g.edges):
        violations.append(Violation(
            ViolationKind.EDGE_NOT_IN_GRAPH, f"step {e} is not an edge of the graph"))
    for e in sorted(g.edges - used):
        violations.append(Violation(
            ViolationKind.EDGE_UNCOVERED, f"edge {e} lies on no walk"))
    return ValidationReport.from_violations(violations)


def path_number_lower_bound(g: Digraph) -> int:
    """Sum over all vertices of the positive part of outdegree minus indegree.

    No path decomposition of g can use fewer paths than this.
    """
    total = 0
    for v in range(g.n):
        total += max(0, len(g.successors(v)) - len(g.predecessors(v)))
    return total


def parse_decomposition(text: str) -> WalkDecomposition:
    """Parse the decomposition file format: one walk per non-blank line.

    Each line lists whitespace-separated vertex ids in traversal order;
    '#' lines are comments.  Line order defines walk indices.
    """
    walks: list[Walk] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        try:
            ids = tuple(map(int, tokens))
        except ValueError:
            raise DecompositionFormatError(
                f"line {lineno}: walk lines must contain integers") from None
        try:
            walks.append(Walk(ids))
        except ValueError as exc:
            raise DecompositionFormatError(f"line {lineno}: {exc}") from None
    return WalkDecomposition(walks)


def format_decomposition(w: WalkDecomposition) -> str:
    """Serialize w in the decomposition file format (empty string for k=0)."""
    if not w.walks:
        return ""
    return "\n".join(" ".join(map(str, walk.vertices)) for walk in w) + "\n"
