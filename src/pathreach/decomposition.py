"""Walk and path decompositions of directed graphs.

A walk is an ordered vertex sequence whose consecutive pairs are the
edges it uses; it may revisit vertices.  A family of walks covers a
graph when the union of its steps equals the graph's edge set.  The
stricter path form additionally requires every walk to be a simple path
and every edge to be used exactly once.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, compress, filterfalse, islice, repeat
from operator import eq, lt
from typing import Iterable, Iterator, NamedTuple, Sequence

from .graph import Digraph, Edge, _edge_keys, _key_ends, _step_keys


class DecompositionFormatError(ValueError):
    """A decomposition file could not be parsed."""


class Walk:
    """Directed walk given as a nonempty vertex sequence without loop steps."""

    __slots__ = ("_vertices",)

    def __init__(self, vertices: Iterable[int]) -> None:
        vs = tuple(map(int, vertices))
        _check_walk(vs)
        self._vertices = vs

    @classmethod
    def _checked(cls, vertices: tuple[int, ...]) -> "Walk":
        """Walk on an int tuple already known to pass _check_walk."""
        walk = cls.__new__(cls)
        walk._vertices = vertices
        return walk

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


def _check_walk(vs: tuple[int, ...]) -> None:
    """Raise ValueError naming the first defect of a walk's int vertex tuple:
    emptiness, then a negative id, then a loop step."""
    if not vs:
        raise ValueError("a walk needs at least one vertex")
    if min(vs) < 0:
        v = next(v for v in vs if v < 0)
        raise ValueError(f"negative vertex id {v}")
    if any(map(eq, vs, vs[1:])):
        v = next(a for a, b in zip(vs, vs[1:]) if a == b)
        raise ValueError(f"loop step ({v}, {v}) is not allowed")


class WalkDecomposition:
    """An ordered family of walks.

    The family is held as the walks' vertex tuples; the Walk objects of
    the public view are built on first use.  The derived occurrence index
    (per vertex, its first and last position in each walk that contains
    it) is built lazily and cached; it is query-independent input
    representation, shared by all reachability queries on the instance.
    """

    def __init__(self, walks: Iterable[Walk | Sequence[int]] = ()) -> None:
        self._walks: tuple[Walk, ...] | None = tuple(
            w if isinstance(w, Walk) else Walk(w) for w in walks)
        self._paths = tuple(w.vertices for w in self._walks)

    @classmethod
    def _checked(cls, paths: Iterable[tuple[int, ...]]) -> "WalkDecomposition":
        """Family of int vertex tuples already known to pass _check_walk."""
        w = cls.__new__(cls)
        w._walks = None
        w._paths = tuple(paths)
        return w

    @property
    def walks(self) -> tuple[Walk, ...]:
        if self._walks is None:
            self._walks = tuple(map(Walk._checked, self._paths))
        return self._walks

    @property
    def k(self) -> int:
        return len(self._paths)

    @cached_property
    def max_vertex(self) -> int:
        """Largest vertex id used by any walk, or -1 for an empty family."""
        return max(chain.from_iterable(self._paths), default=-1)

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
        for i, vs in enumerate(self._paths):
            last = {v: pos for pos, v in enumerate(vs)}
            first: dict[int, int] = {}
            for pos, v in enumerate(vs):
                first.setdefault(v, pos)
            for v, pos in first.items():
                index.setdefault(v, []).append((i, pos, last[v]))
        return {v: tuple(entries) for v, entries in index.items()}

    def __len__(self) -> int:
        return len(self._paths)

    def __iter__(self) -> Iterator[Walk]:
        return iter(self.walks)

    def __getitem__(self, i: int) -> Walk:
        return self.walks[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WalkDecomposition):
            return NotImplemented
        return self._paths == other._paths

    def __hash__(self) -> int:
        return hash(self._paths)

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
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def union_graph(w: WalkDecomposition, n: int) -> Digraph:
    """Digraph on n vertices whose edges are the deduplicated steps of w."""
    if w.max_vertex >= n:
        raise ValueError(f"walk vertex {w.max_vertex} outside [0, {n})")
    return Digraph._checked(n, tuple(sorted(set(_step_keys(n, w._paths)))))


def _keyed(g: Digraph, w: WalkDecomposition) -> tuple[int, tuple[int, ...]]:
    """A base above every vertex id of g and w, and g's edge keys u * base + v:
    on it a step with an id of n or more names no edge, and keys sort as pairs."""
    base = max(g.n, w.max_vertex + 1)
    return base, g._keys if base == g.n else tuple(_edge_keys(base, *_key_ends(g.n, g._keys)))


def _coverage_violations(edges: tuple[int, ...], used: set[int], base: int,
                         noun: str) -> tuple[list[Violation], list[Violation]]:
    """In key order, the steps in used that are not edges and the edges not in used."""
    stray = [Violation(ViolationKind.EDGE_NOT_IN_GRAPH,
                       f"step {divmod(key, base)} is not an edge of the graph")
             for key in sorted(used.difference(edges))]
    missed = [Violation(ViolationKind.EDGE_UNCOVERED,
                        f"edge {divmod(key, base)} lies on no {noun}")
              for key in filterfalse(used.__contains__, edges)]
    return stray, missed


def validate_path_decomposition(g: Digraph, p: WalkDecomposition) -> ValidationReport:
    """Check that p partitions the edges of g into simple directed paths.

    All failures are collected and reported, never raised.  Single-vertex
    walks carry no edges and are ignored.
    """
    base, edges = _keyed(g, p)
    paths = p._paths
    violations = [Violation(ViolationKind.NOT_SIMPLE, f"walk {i} repeats a vertex: {list(vs)}")
                  for i, vs in compress(enumerate(paths),
                                        map(lt, map(len, map(set, paths)), map(len, paths)))]
    # Sorted, the step keys equal the edge keys exactly when each edge is
    # used once and no step leaves the graph.
    keys = sorted(_step_keys(base, paths))
    if tuple(keys) != edges:
        used = set(keys)
        stray, missed = _coverage_violations(edges, used, base, "path")
        violations += stray
        if len(used) < len(keys):
            usage = Counter(keys)
            repeated = {key for key, c in usage.items() if c > 1}.intersection(edges)
            violations += [Violation(ViolationKind.EDGE_REPEATED,
                                     f"edge {divmod(key, base)} is used {usage[key]} times")
                           for key in sorted(repeated)]
        violations += missed
    return ValidationReport(tuple(violations))


def validate_walk_decomposition(g: Digraph, w: WalkDecomposition) -> ValidationReport:
    """Check that the union of the steps of w is exactly the edge set of g.

    Walks may repeat vertices and share edges; only coverage matters.
    """
    base, edges = _keyed(g, w)
    stray, missed = _coverage_violations(edges, set(_step_keys(base, w._paths)), base, "walk")
    return ValidationReport((*stray, *missed))


def path_number_lower_bound(g: Digraph) -> int:
    """Sum over all vertices of the positive part of outdegree minus indegree.

    No path decomposition of g can use fewer paths than this.
    """
    # Degrees are counted from the edge keys, without building adjacency; a
    # vertex without an out-edge adds 0, so only the tails are visited.
    tails, heads = _key_ends(g.n, g._keys)
    outdeg, indeg = Counter(tails), Counter(heads)
    return sum(max(0, d - indeg[v]) for v, d in outdeg.items())


# The form format_decomposition writes: one line per walk, ASCII digits and
# single spaces only, each line ending in a newline.  Both repetitions are
# possessive: an id the inner one would give back begins with a space, which
# the line's newline cannot match, and a line the outer one would give back
# is text the end of the match cannot consume.  So the same texts match, and
# the match keeps no per-line backtracking state.
_CANONICAL = re.compile(r"(?:[0-9]+(?: [0-9]+)*+\n)*+")


def parse_decomposition(text: str) -> WalkDecomposition:
    """Parse the decomposition file format: one walk per non-blank line.

    Each line lists whitespace-separated vertex ids in traversal order;
    '#' lines are comments.  Line order defines walk indices.
    """
    if _CANONICAL.fullmatch(text):
        w = _parse_canonical(text)
        if w is not None:
            return w
    return _parse_lines(text)


def _parse_canonical(text: str) -> WalkDecomposition | None:
    """The family of a canonical text checked as a whole, or None when a
    check fails; _parse_lines then finds and reports the first error."""
    # One C-level scan converts every id: the walk lines read as the JSON
    # list of lists [[v, ...], ...].  A number that JSON or int() rejects
    # (a leading zero, too many digits) sends the text to the line loop.
    body = text[:-1].replace(" ", ",").replace("\n", "],[")
    try:
        # No name holds the JSON row lists, so they are freed before flat
        # is built below.
        paths = list(map(tuple, json.loads(f"[[{body}]]"))) if text else []
    except ValueError:
        return None
    # Canonical ids carry no sign, so a loop step is the only defect left.
    # One pass over the ids of all walks finds every loop step, and also
    # equal ids where one walk ends and the next begins; only a hit there
    # needs the check walk by walk.
    flat = list(chain.from_iterable(paths))
    if any(map(eq, flat, islice(flat, 1, None))) and any(
            any(map(eq, vs, vs[1:])) for vs in paths):
        return None
    return WalkDecomposition._checked(paths)


def _parse_lines(text: str) -> WalkDecomposition:
    """parse_decomposition line by line, for any text; the source of every
    diagnostic."""
    paths: list[tuple[int, ...]] = []
    for lineno, tokens in enumerate(map(str.split, text.splitlines()), start=1):
        if not tokens or tokens[0].startswith("#"):
            continue
        try:
            ids = tuple(map(int, tokens))
        except ValueError:
            raise DecompositionFormatError(
                f"line {lineno}: walk lines must contain integers") from None
        try:
            _check_walk(ids)
        except ValueError as exc:
            raise DecompositionFormatError(f"line {lineno}: {exc}") from None
        paths.append(ids)
    return WalkDecomposition._checked(paths)


def format_decomposition(w: WalkDecomposition) -> str:
    """Serialize w in the decomposition file format (empty string for k=0)."""
    if not w._paths:
        return ""
    return "\n".join(map(" ".join, map(map, repeat(str), w._paths))) + "\n"
