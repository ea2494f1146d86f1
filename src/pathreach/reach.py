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


def _pull(at, c, j) -> int:
    """Walk j's next register: its first position below c[j] whose vertex
    occurs at or after c[i] in some walk i, else c[j], since positions
    from c[j] on qualify already."""
    row = at[j]
    for q in range(c[j]):
        for i, last in row[q]:
            if last >= c[i]:
                return q
    return c[j]


def _rounds(w: WalkDecomposition, s: int) -> Iterator[tuple[int, list[int], list[int]]]:
    """(level, c, d) for each level from 0 on: c holds the level's
    registers and d the previous level's (each walk's length at level 0),
    so [c[i], d[i]) is the segment of walk i newly reached at that level.
    No register of either is pending (see below) at a yield.

    Level 1 is always yielded, even when it equals level 0, so a query
    whose source occurs counts at least one round; after that the
    generator ends at the first round that moves no register.  Nothing is
    yielded when s occurs in no walk.  Both yielded lists are live
    register arrays: on resumption the next round reads c and overwrites
    d, and the round after overwrites c.  Do not mutate them; copy d to
    keep it across a resumption, and c to keep it across two.

    Each round computes the next level from c into d.  On entry d holds
    the previous level, so a vertex from d[i] on has already lowered
    every register it can.

    A push visits the walks in order.  At its turn walk i, unless
    pending, sets d[i] = c[i]; it scans its new segment once, in all
    sum(d) - sum(c) index lookups: the entries of position q of walk i
    are read from its row, at[i][q].
    A scanned vertex may lower d[j] in each walk j it occurs in, walk i
    included, and the push tests the entry (j, last) by the kind of j.
    A push marks a walk pending when it can lower its register but
    cannot write it; every pending walk is pulled at round end.  A walk
    j that repeats a vertex is marked unless d[j] is 0, below which
    nothing lies.  In a path the vertex's one position is last, which
    lowers d[j] only when last < d[j]: the push writes it into d[j] once
    j has no segment left to scan (d[j] <= c[j]), and otherwise marks j
    when last < c[j], since an entry at or after c[j] is reached at this
    level already.  Walk i's own entries need no rule of their own: on
    a path they sit at or after d[i] = c[i] and lower nothing, and in a
    walk that repeats a vertex the first one marks it when c[i] > 0.  A
    pending d[j] holds ~d[j], a negative int, so its segment end
    survives without flag bits; it ignores later pushes and still scans
    its segment at its turn.  A pull runs _pull, at most c[j]
    row reads: from c it checks every vertex known at the current level,
    so it yields the complete next register.  When some walk repeats a
    vertex and the new segments are longer than the prefixes, sum(d) >
    2 * sum(c), the round marks every walk pending instead of pushing;
    it scans no segment, so each holds -1.

    A round holds at most eight index-sized scalars beside c and d
    (_QUERY_SCRATCH_WORDS).  A push holds seven: the round counter, the
    scanned walk i, its segment end, the scan position q, the cursor into
    the entries at[i][q], the pushed walk j and the entry's last (dj only
    caches d[j]), beside the one bit that records a mark; the row is
    read-only input, as the walk is.  A pull holds seven and no vertex:
    the round counter, the sweep's cursor and the pulled walk j, and in
    _pull q, the cursor into the entries at[j][q], and the entry's walk
    and last.  The sums that pick the kind of round are dead once it starts.
    """
    occ, at, repeats, any_repeats = w._index
    source = occ.get(s)
    if source is None:
        return
    paths = w._paths
    c = list(map(len, paths))
    d = c[:]
    for i, last in source:
        c[i] = paths[i].index(s) if repeats[i] else last
    level = 0
    while True:
        yield level, c, d
        pending = any_repeats and sum(d) > 2 * sum(c)
        if pending:
            for j in range(len(d)):
                d[j] = -1
        else:
            for i, end in enumerate(d):
                if end < 0:
                    end = ~end
                elif end > c[i]:
                    d[i] = c[i]
                else:
                    continue
                row = at[i]
                for q in range(c[i], end):
                    for j, last in row[q]:
                        dj = d[j]
                        if repeats[j]:
                            if dj > 0:
                                d[j] = ~dj
                                pending = True
                        elif last < dj:
                            if dj <= c[j]:
                                d[j] = last
                            elif last < c[j]:
                                d[j] = ~dj
                                pending = True
        if pending:
            for j, dj in enumerate(d):
                if dj < 0:
                    d[j] = _pull(at, c, j)
        if level and d == c:
            return
        level += 1
        c, d = d, c


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
    for level, c, _ in _rounds(w, s):
        for i, last in target:
            if last >= c[i]:
                return ReachResult(True, level, level, peak_words)
    return ReachResult(False, None, level, peak_words)
