"""Immutable simple directed graphs with dense integer vertex ids.

Graphs have no loops and no parallel arcs.  Vertex ids are the integers
0..n-1; callers that work with named vertices must map names to ids
themselves.  A graph holds its edges as ascending integer keys u * n + v,
so an edge (u, v) sorts before (u', v') exactly when its key is smaller;
adjacency lists built from them come out sorted, so neighbor iteration is
deterministic.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from functools import cached_property
from itertools import islice, repeat
from operator import add, eq, floordiv, index, lt, mod, mul
from typing import Iterable, Iterator

Edge = tuple[int, int]


class GraphFormatError(ValueError):
    """A graph file could not be parsed."""


class Digraph:
    """Simple directed graph on vertices 0..n-1, immutable after construction."""

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        n = index(n)
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        keys: set[int] = set()  # a repeated edge counts once
        bad: list[Edge] = []
        for u, v in edges:
            u, v = index(u), index(v)
            if u == v or not (0 <= u < n and 0 <= v < n):
                bad.append((u, v))
            keys.add(u * n + v)
        if bad:  # the smallest bad edge is reported
            u, v = min(bad)
            if u == v:
                raise ValueError(f"loop edge ({u}, {v}) is not allowed")
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
        self._init(n, tuple(sorted(keys)))

    @classmethod
    def _checked(cls, n: int, keys: tuple[int, ...]) -> "Digraph":
        """Digraph on the strictly ascending keys of edges already known to
        be loop-free and inside [0, n)."""
        g = cls.__new__(cls)
        g._init(n, keys)
        return g

    def _init(self, n: int, keys: tuple[int, ...]) -> None:
        self._n = n
        self._keys = keys

    @cached_property
    def _adjacency(self) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
        """(successors, predecessors) of each vertex with an edge, both
        ascending because the keys ascend, () on a side with no edge.
        Memory follows the edges, not the vertex count.  Built on first
        use: checking a cover against the graph needs only the keys."""
        out: defaultdict[int, list[int]] = defaultdict(list)
        inc: defaultdict[int, list[int]] = defaultdict(list)
        for u, v in zip(*_key_ends(self._n, self._keys)):
            out[u].append(v)
            inc[v].append(u)
        return {v: (tuple(out.get(v, ())), tuple(inc.get(v, ())))
                for v in out.keys() | inc.keys()}

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> frozenset[Edge]:
        """The edges as (u, v) pairs, built on each call."""
        return frozenset(map(divmod, self._keys, repeat(self._n)))

    @property
    def edge_count(self) -> int:
        return len(self._keys)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= index(v) < self._n):
            raise ValueError(f"vertex {v} outside [0, {self._n})")

    def successors(self, v: int) -> tuple[int, ...]:
        """Out-neighbors of v in ascending order."""
        self._check_vertex(v)
        return self._adjacency.get(v, ((), ()))[0]

    def predecessors(self, v: int) -> tuple[int, ...]:
        """In-neighbors of v in ascending order."""
        self._check_vertex(v)
        return self._adjacency.get(v, ((), ()))[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self._n == other._n and self._keys == other._keys

    def __hash__(self) -> int:
        return hash((self._n, self._keys))

    def __repr__(self) -> str:
        return f"Digraph(n={self._n}, edges={len(self._keys)})"


def _edge_keys(n: int, us: Iterable[int], vs: Iterable[int]) -> Iterable[int]:
    """The key u * n + v of each edge (u, v) with 0 <= v < n."""
    return map(add, map(mul, us, repeat(n)), vs)


def _step_keys(n: int, walks: Iterable[tuple[int, ...]]) -> list[int]:
    """The key of every step (u, v) of the walks, whose ids are all below n."""
    return [u * n + v for vs in walks for u, v in zip(vs, vs[1:])]


def _key_ends(n: int, keys: tuple[int, ...]) -> tuple[Iterator[int], Iterator[int]]:
    """The tails u and the heads v of the edges with keys u * n + v, in key
    order."""
    return map(floordiv, keys, repeat(n)), map(mod, keys, repeat(n))


def is_acyclic(g: Digraph) -> bool:
    """True iff g contains no directed cycle (iterative Kahn peeling).

    Only vertices with an edge are peeled; the others cannot lie on a cycle.
    """
    adjacency = g._adjacency
    indeg = {v: len(us) for v, (_, us) in adjacency.items()}
    stack = [v for v, d in indeg.items() if d == 0]
    seen = 0
    while stack:
        u = stack.pop()
        seen += 1
        for w in adjacency[u][0]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    return seen == len(indeg)


# The form format_graph writes: the header, then one "e u v" line per
# edge, ASCII digits and single spaces only, with or without a final newline.
# The repetition is possessive: an edge line it would give back begins with
# "\ne", of which the optional final newline can consume only the "\n", so
# the same texts match with the same groups, and the match keeps no
# per-line backtracking state.
_CANONICAL = re.compile(r"n ([0-9]+)((?:\ne [0-9]+ [0-9]+)*+)\n?")


def parse_graph(text: str) -> Digraph:
    """Parse the graph file format.

    Lines starting with '#' and blank lines are ignored.  Exactly one
    header line "n <N>" with any N >= 0 must precede any edge line
    "e <u> <v>".  Duplicate edge lines, loops, and out-of-range endpoints
    are hard errors; the first error in file order is reported.  Memory
    and time follow the edges, not N.
    """
    canonical = _CANONICAL.fullmatch(text)
    if canonical is not None:
        g = _parse_canonical(canonical)
        if g is not None:
            return g
    return _parse_lines(text)


def _parse_canonical(match: re.Match[str]) -> Digraph | None:
    """The graph of a canonical text checked as a whole, or None when any
    check fails; _parse_lines then finds and reports the first error."""
    try:
        n = int(match[1])
        # One C-level scan converts every endpoint: the edge lines read as
        # the JSON list [u, v, u, v, ...].  A number that JSON or int()
        # rejects (a leading zero, too many digits) sends the text to the
        # line loop.
        ends = json.loads("[" + match[2].replace("\ne ", ",").replace(" ", ",")[1:] + "]")
    except ValueError:
        return None
    tails, heads = islice(ends, 0, None, 2), islice(ends, 1, None, 2)
    if any(map(eq, tails, heads)) or ends and max(ends) >= n:
        return None
    # Lines in the order format_graph writes give strictly ascending keys,
    # which proves there are no duplicates; any other order is sorted and
    # then has a duplicate exactly where two neighbors are equal.
    keys = tuple(_edge_keys(n, islice(ends, 0, None, 2), islice(ends, 1, None, 2)))
    if not all(map(lt, keys, islice(keys, 1, None))):
        keys = tuple(sorted(keys))
        if any(map(eq, keys, islice(keys, 1, None))):
            return None
    return Digraph._checked(n, keys)


def _lines(text: str) -> list[str]:
    """The lines of a file text: LF, CRLF and CR end a line, and nothing
    else does (str.splitlines also breaks at a form feed or U+2028)."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _parse_lines(text: str) -> Digraph:
    """parse_graph line by line, for any text; the source of every diagnostic."""
    n: int | None = None
    keys: set[int] = set()
    for lineno, raw in enumerate(_lines(text), start=1):
        parts = raw.split()
        if len(parts) == 3 and parts[0] == "e" and n is not None:
            u, v = _parse_int(parts[1], lineno), _parse_int(parts[2], lineno)
            if u == v:
                raise GraphFormatError(f"line {lineno}: loop edge ({u}, {v})")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"line {lineno}: vertex id outside [0, {n})")
            key = u * n + v
            if key in keys:
                raise GraphFormatError(f"line {lineno}: duplicate edge ({u}, {v})")
            keys.add(key)
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
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge line before header")
            raise GraphFormatError(f"line {lineno}: edge line must be 'e <u> <v>'")
        else:
            raise GraphFormatError(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise GraphFormatError("missing header line 'n <N>'")
    return Digraph._checked(n, tuple(sorted(keys)))


def format_graph(g: Digraph) -> str:
    """Serialize g in the graph file format with edges sorted."""
    lines = [f"n {g.n}"]
    lines.extend(f"e {u} {v}" for u, v in map(divmod, g._keys, repeat(g.n)))
    return "\n".join(lines) + "\n"


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: expected integer, got {token!r}") from None
