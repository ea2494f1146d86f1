"""Reachability queries over a walk decomposition with 2k frontier registers.

A query keeps one register per walk: the earliest position of the walk
whose vertex is known to be reachable from the source, or the walk's
length when no position is, which fails every comparison against a
position in it.  Level l is the register array after l rounds.  Level 0
holds the first occurrences of the source, and each round extends
reachability by one switch between walks, so the registers of level l
point at the earliest vertices reachable with at most l switches.  The
target is reachable with at most l switches exactly when it occurs at or
after some level-l register, so the first level at which it does is the
minimum number of switches.  A second register per walk holds the
previous level, into which a round writes the next one.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterator

from .decomposition import WalkDecomposition

# Scalar index-sized locals live during a query, on top of the 2k
# registers: at most eight, listed in the _rounds docstring.
_QUERY_SCRATCH_WORDS = 8


@dataclass(frozen=True)
class ReachResult:
    reachable: bool
    min_switches: int | None
    iterations: int
    peak_words: int


def _pull(paths, occ, c, j) -> int:
    """Walk j's next register: its first position below c[j] whose vertex
    occurs at or after c[i] in some walk i, else c[j], since positions
    from c[j] on qualify already."""
    vs = paths[j]
    for q in range(c[j]):
        for i, last in occ[vs[q]]:
            if last >= c[i]:
                return q
    return c[j]


def _rounds(w: WalkDecomposition, s: int) -> Iterator[list[int]]:
    """The registers of each level, from level 0 on.

    Level 1 is always yielded, even when it equals level 0, so a query
    whose source occurs counts at least one round; after that the
    generator ends at the first round that moves no register.  Nothing is
    yielded when s occurs in no walk.  A yielded list is a live register
    array: the next round reads it as the current level, and the round
    after reads it as the previous level and then overwrites it.  Do not
    mutate it, and copy it to keep it longer than two resumptions.

    Each round computes the next level from c into d.  On entry d holds
    the previous level (each walk's length before the first round), so
    [c[i], d[i]) is the segment of walk i that the last round newly
    reached; a vertex from d[i] on has already lowered every register it
    can.

    A round either pulls or pushes.  A pull runs _pull on every walk, at
    most sum(c) index lookups.  A push visits the walks in order and scans
    each new segment once, sum(d) - sum(c) lookups; a scanned vertex may
    lower d[j] to its first position in each walk j it occurs in.  A
    round pulls when some walk repeats a vertex and sum(d) - sum(c) >
    sum(c); every other round pushes.

    A push writes that position only into a path j with no segment left
    to scan (d[j] <= c[j]), where the vertex's one position is its
    entry's last.  A walk j that still has its segment to scan, or that
    repeats a vertex, goes pending instead, unless it is pending already
    or d[j] is 0, below which nothing lies: d[j] holds ~d[j], a negative
    int, so its segment end survives without flag bits.  A pending walk
    ignores later pushes and scans its segment at its turn.  It is then
    pulled: a pull from c checks every vertex known at the current level,
    so it yields the complete next register, which no push can lower.  A
    path is pulled right after its turn, since it cannot go pending once
    d[i] <= c[i]; a walk that repeats a vertex can, and is pulled at
    round end.

    A round holds at most eight index-sized scalars beside c and d
    (_QUERY_SCRATCH_WORDS).  A push: the round counter, the scanned walk
    i, its segment end, the scan position q, the vertex vs[q], the cursor
    into its index entries, the pushed walk j and the entry's last (dj
    only caches d[j]).  A pull: the round counter, the pulled walk j, and
    in _pull q, vs[q], the entry cursor, and the entry's walk and last.
    The sums that pick the kind of round are dead once it starts.
    """
    occ, repeats, any_repeats = w._index
    source = occ.get(s)
    if source is None:
        return
    paths = w._paths
    c = list(map(len, paths))
    d = c[:]
    for i, last in source:
        c[i] = paths[i].index(s) if repeats[i] else last
    yield c
    level = 0
    while True:
        if any_repeats and sum(d) - sum(c) > sum(c):
            for j in range(len(paths)):
                d[j] = _pull(paths, occ, c, j)
        else:
            for i, end in enumerate(d):
                if end < 0:
                    end = ~end
                elif end > c[i]:
                    d[i] = c[i]
                else:
                    continue
                vs = paths[i]
                for q in range(c[i], end):
                    for j, last in occ[vs[q]]:
                        dj = d[j]
                        if dj > c[j] or repeats[j] and dj > 0:
                            d[j] = ~dj
                        elif last < dj:
                            d[j] = last
                if d[i] < 0 and not repeats[i]:
                    d[i] = _pull(paths, occ, c, i)
            if any_repeats:
                for j in range(len(paths)):
                    if d[j] < 0:
                        d[j] = _pull(paths, occ, c, j)
        if level and d == c:
            return
        level += 1
        c, d = d, c
        yield c


def decide_reachability(
    w: WalkDecomposition, s: int, t: int, n: int | None = None
) -> ReachResult:
    """Decide whether t is reachable from s in the union graph of w.

    min_switches is the least number of switches between walks over all
    s-to-t routes (0 when s equals t or both lie in order on one walk);
    iterations counts frontier rounds.  peak_words is the query's working
    space in index-sized words, 2k + 8 for every query: the two register
    arrays and the scalars of _QUERY_SCRATCH_WORDS.

    n, when given, is the vertex universe; it defaults to the implied
    union-graph size.  A source that occurs in no walk reaches only
    itself and the query returns without running any round.
    """
    s, t = index(s), index(t)
    w._universe(n, s, t)

    peak_words = 2 * w.k + _QUERY_SCRATCH_WORDS
    if s == t:
        return ReachResult(True, 0, 0, peak_words)
    target = w._index[0].get(t, ())
    level = 0
    for level, c in enumerate(_rounds(w, s)):
        for i, last in target:
            if last >= c[i]:
                return ReachResult(True, level, level, peak_words)
    return ReachResult(False, None, level, peak_words)
