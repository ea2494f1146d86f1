"""Walk and path decompositions of directed graphs.

A walk is an ordered vertex sequence whose consecutive pairs are the
edges it uses; it may revisit vertices.  A family of walks covers a
graph when the union of its steps equals the graph's edge set.  The
stricter path form additionally requires every walk to be a simple path
and every edge to be used exactly once.

A WalkDecomposition holds only its walks' int vertex tuples, and each
walk is checked once, where it enters: in Walk, in WalkDecomposition for an
item that is not a Walk, or in a parser or the DAG cover, which build a
family from tuples they have checked themselves.  The Walk views of a
family are built on first use without a second check.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, compress, filterfalse, islice, repeat
from operator import eq, index, lt
from typing import Iterable, Iterator, NamedTuple, Sequence

from .graph import Digraph, Edge, _edge_keys, _key_ends, _lines, _step_keys


class DecompositionFormatError(ValueError):
    """A decomposition file could not be parsed."""


@dataclass(frozen=True, slots=True)
class Walk:
    """Directed walk given as a nonempty vertex sequence without loop steps."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        vs = tuple(map(index, self.vertices))
        _check_walk(vs)
        object.__setattr__(self, "vertices", vs)

    @classmethod
    def _checked(cls, vertices: tuple[int, ...]) -> "Walk":
        """Walk on an int vertex tuple already known to pass _check_walk."""
        walk = cls.__new__(cls)
        object.__setattr__(walk, "vertices", vertices)
        return walk

    @property
    def is_simple(self) -> bool:
        """True iff no vertex repeats, i.e. the walk is a simple path."""
        return len(set(self.vertices)) == len(self.vertices)

    def steps(self) -> Iterator[Edge]:
        return zip(self.vertices, self.vertices[1:])

    def __len__(self) -> int:
        return len(self.vertices)

    def __getitem__(self, i: int) -> int:
        return self.vertices[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __repr__(self) -> str:
        return f"Walk({list(self.vertices)})"


def _check_walk(vs: tuple[int, ...]) -> None:
    """Raise ValueError naming the first defect of a walk's int vertex tuple:
    emptiness, then a negative id, then a loop step."""
    if not vs:
        raise ValueError("a walk needs at least one vertex")
    for v in vs:
        if v < 0:
            raise ValueError(f"negative vertex id {v}")
    for u, v in zip(vs, vs[1:]):
        if u == v:
            raise ValueError(f"loop step ({v}, {v}) is not allowed")


class WalkDecomposition:
    """An ordered family of walks, held as the walks' vertex tuples.

    The Walk objects of the public view and the occurrence index that
    reachability queries read are built on first use and cached.
    """

    def __init__(self, walks: Iterable[Walk | Sequence[int]] = ()) -> None:
        self._paths = tuple((w if isinstance(w, Walk) else Walk(w)).vertices for w in walks)

    @classmethod
    def _checked(cls, paths: Iterable[tuple[int, ...]]) -> "WalkDecomposition":
        """Family of int vertex tuples already known to pass _check_walk."""
        w = cls.__new__(cls)
        w._paths = tuple(paths)
        return w

    @cached_property
    def walks(self) -> tuple[Walk, ...]:
        return tuple(map(Walk._checked, self._paths))

    @property
    def k(self) -> int:
        return len(self._paths)

    @cached_property
    def implied_vertex_count(self) -> int:
        """One more than the largest vertex id of any walk; 0 for an empty family."""
        return max(chain.from_iterable(self._paths), default=-1) + 1

    def _universe(self, n: int | None, s: int, t: int | None = None) -> int:
        """The vertex universe of a query from the int s (to the int t): n,
        or the implied vertex count when n is None.  The engine and the
        oracles reject a bad query here, with the same diagnostics."""
        nv = self.implied_vertex_count
        universe = nv if n is None else index(n)
        if universe < nv:
            raise ValueError(f"universe {universe} smaller than implied vertex count {nv}")
        if not (0 <= s < universe):
            raise ValueError(f"source {s} outside [0, {universe})")
        if t is not None and not (0 <= t < universe):
            raise ValueError(f"target {t} outside [0, {universe})")
        return universe

    @cached_property
    def _index(
        self,
    ) -> tuple[dict[int, tuple[tuple[int, int], ...]], tuple[bool, ...], bool]:
        """The occurrence index: read-only input, derived once per
        instance and shared by all queries.

        It is the triple (occ, repeats, any_repeats).  occ maps each vertex
        that occurs to one (walk, last) entry per walk containing it, in
        walk order, where last is the vertex's largest position in that
        walk; it holds at most one entry per position, whatever the
        largest vertex id.  repeats[i] tells whether walk i repeats a
        vertex, which it does exactly when it has fewer distinct vertices
        than positions; in a walk that does not, last is the vertex's only
        position.  any_repeats tells whether any walk does.
        """
        by_vertex: dict[int, list[tuple[int, int]]] = {}
        repeats = []
        for i, vs in enumerate(self._paths):
            lasts = dict(zip(vs, range(len(vs))))
            repeats.append(len(lasts) < len(vs))
            for v, last in lasts.items():
                by_vertex.setdefault(v, []).append((i, last))
        occ = {v: tuple(entries) for v, entries in by_vertex.items()}
        return occ, tuple(repeats), any(repeats)

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
    n = index(n)
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if w.implied_vertex_count > n:
        raise ValueError(f"walk vertex {w.implied_vertex_count - 1} outside [0, {n})")
    return Digraph._checked(n, tuple(sorted(set(_step_keys(n, w._paths)))))


def _keyed(g: Digraph, w: WalkDecomposition) -> tuple[int, tuple[int, ...]]:
    """A base above every vertex id of g and w, and g's edge keys u * base + v:
    on it a step with an id of n or more names no edge, and keys sort as pairs."""
    base = max(g.n, w.implied_vertex_count)
    return base, g._keys if base == g.n else tuple(_edge_keys(base, *_key_ends(g.n, g._keys)))


def _coverage_violations(edges: tuple[int, ...], used: set[int], base: int,
                         noun: str) -> tuple[list[Violation], list[Violation]]:
    """In key order, the steps in used that are not edges and the edges not in used."""
    missed = [Violation(ViolationKind.EDGE_UNCOVERED,
                        f"edge {divmod(key, base)} lies on no {noun}")
              for key in filterfalse(used.__contains__, edges)]
    # Every edge not missed is in used, so used holds a stray step exactly
    # when it is larger than that; a valid cover then skips the copy.
    strays = used.difference(edges) if len(used) > len(edges) - len(missed) else ()
    stray = [Violation(ViolationKind.EDGE_NOT_IN_GRAPH,
                       f"step {divmod(key, base)} is not an edge of the graph")
             for key in sorted(strays)]
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
        stray, missed = _coverage_violations(edges, set(keys), base, "path")
        violations += stray
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
    for lineno, tokens in enumerate(map(str.split, _lines(text)), start=1):
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
