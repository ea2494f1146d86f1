"""Reachability queries over a walk decomposition with 2k frontier registers.

For each walk the engine keeps one register holding the earliest position
whose vertex is currently known to be reachable from the source, plus one
register holding the previous level, into which the next level is
written.  Each round extends reachability by one more switch between
walks: a vertex becomes known as soon as it occurs at or after a register
position in some walk.  The round counter at which the target is first
detected is therefore the minimum number of switches needed, and the
working state per query is the 2k registers plus a fixed handful of
scalars, independent of the graph size.

The engine reads the decomposition's read-only occurrence index: per
vertex, the (walk, last) entry of every walk it occurs in, per walk
whether it repeats a vertex, and whether any walk does.  A scanned
position therefore checks only the walks that contain its vertex, not
all k registers.  A walk with no position known holds its own length,
which fails every comparison against a position in it.

A round pushes only the segments the round before newly reached; when
some walk repeats a vertex, a cost rule may pull every walk's prefix
instead.  The _rounds docstring states both kinds of round, the rule,
when a walk is pulled on its own, and the scalars a round holds.

One generator, _rounds, runs the frontier, every round inline in its
loop; only the pull scan of one walk, _pull, is a function of its own.
It yields the registers of level 0, the earliest occurrences of the
source, and then those of every level l, which point at the earliest
vertices reachable with at most l switches.  The round-l target check
therefore answers "reachable with at most l switches" exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    occurs at or after c[i] in some walk i, else c[j].

    occ[v] lists a (walk i, last) entry for each walk containing v, so
    "v occurs at or after c[i]" is the comparison last >= c[i], made only
    for the walks in which v occurs.  The scan can stop at c[j]:
    positions from there on qualify already.  A register at its walk's
    length fails every comparison and lets the scan cover the whole walk.
    """
    vs = paths[j]
    for q in range(c[j]):
        for i, last in occ[vs[q]]:
            if last >= c[i]:
                return q
    return c[j]


def _rounds(w: WalkDecomposition, s: int) -> Iterator[list[int]]:
    """The registers of each level, from level 0 on; a walk with no
    position known holds its length.

    Level 0 holds the first position of s in every walk containing it.
    Level 1 is always yielded, even when it equals level 0, so a query
    whose source occurs counts at least one round; after that the
    generator ends at the first round that moves no register.  Nothing is
    yielded when s occurs in no walk.

    A yielded list is a live register array: the next round reads it as
    the current level, and the round after reads it as the previous level
    and then overwrites it.  Do not mutate it, and copy it to keep it
    longer than two resumptions.

    Each round computes the next level from c into d.  On entry d holds
    the previous level (each walk's length before the first round), so
    [c[i], d[i]) is the segment of walk i that the last round newly
    reached.  A vertex at or after d[i] was known one level earlier and
    has already lowered every register it can, so the next register of
    walk j is c[j] lowered to the first position in j of any vertex of a
    new segment.

    A round either pulls or pushes.  A pull runs _pull on every walk: it
    looks up each prefix position in the index, at most sum(c) lookups.
    A push looks up each of the new = sum(d) - sum(c) new-segment
    positions once.  When some walk repeats a vertex (any_repeats), a
    round with new > sum(c) therefore pulls every walk, and any other
    round pushes.  On a path decomposition the rule and its sums are
    skipped and every round pushes.  The push segments of one query never
    overlap, so pushes look up each position at most once per query.  A
    pending walk's pull (below) rescans its prefix, so deep queries can
    make quadratic lookups: over walks that repeat a vertex, and over
    paths too.  On paths, walk j is pulled only in a round after one in
    which it moved, so its pulls see strictly decreasing c[j] < len(j)
    and make at most len(j)(len(j) - 1)/2 lookups in all; the two-path
    ladder of the tests reaches that order.

    A push visits the walks in index order.  Walk i scans its segment, if
    it moved, and for each vertex v there and each walk j in occ[v]
    lowers d[j] to the first position of v in j, when that lies below
    d[j].  When j repeats no vertex (repeats[j] is false), that position
    is the entry's last, so the push compares no position.  The index
    holds no first positions, so a walk j that repeats a vertex goes
    pending instead when d[j] > 0: nothing lies below 0, and a negative
    d[j] is pending already.  Once walk i's turn has begun, d[i] holds
    its next register.  Before walk j's turn d[j] still holds j's segment
    end, so a push into j must not overwrite it:
    - j did not move (d[j] <= c[j]): it has no segment, and the pushed
      position is stored as itself, below c[j];
    - j moved (d[j] > c[j], which holds only before j's turn): j goes
      pending.
    A pending walk stores ~d[j], a negative int, so no flag bits are
    needed.  It ignores later pushes and scans its segment at its turn,
    if it has one.  A pending path is then pulled at once: a pull from c
    gives its complete next register, which no later push can lower, and
    a path cannot go pending after its turn, since from then on
    d[i] <= c[i].  A walk that repeats a vertex can go pending after its
    turn too, so it is pulled at round end, by a sweep that runs only
    when some walk repeats a vertex.  Either way d ends up holding the
    next level.

    A round holds at most eight index-sized scalars beside c and d
    (_QUERY_SCRATCH_WORDS).  A push round: the round counter, the scanned
    walk i, its segment end, scan position q, the scanned vertex vs[q],
    the cursor into its occurrence entries, the pushed walk j, and the
    entry's last position, which may become d[j] (dj only caches d[j]).
    A pull round: the round counter, the pulled walk j, and in _pull q,
    the vertex vs[q], the entry cursor, and the entry's walk i and last
    position.  The pull of a pending path at its turn holds seven: the
    round counter, the walk i, and _pull's five.  The sums that pick the
    kind of round are dead once it starts.  The per-walk flags and
    any_repeats are read-only input, like the index.
    """
    occ = w.occurrences
    source = occ.get(s)
    if source is None:
        return
    paths = w._paths
    _, repeats, any_repeats = w._index
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
    space in index-sized words, 2k + 8 for every query: the k registers c
    of the current level, the k registers d of the previous level, into
    which a round writes the next, and the 8 scalars of
    _QUERY_SCRATCH_WORDS.

    n, when given, is the vertex universe; it defaults to the implied
    union-graph size.  A source that occurs in no walk reaches only
    itself and the query returns without running any round.
    """
    nv = w.implied_vertex_count
    universe = nv if n is None else n
    if n is not None and n < nv:
        raise ValueError(f"universe {n} smaller than implied vertex count {nv}")
    if not (0 <= s < universe):
        raise ValueError(f"source {s} outside [0, {universe})")
    if not (0 <= t < universe):
        raise ValueError(f"target {t} outside [0, {universe})")

    peak_words = 2 * w.k + _QUERY_SCRATCH_WORDS
    if s == t:
        return ReachResult(True, 0, 0, peak_words)
    target = w.occurrences.get(t, ())
    level = 0
    for level, c in enumerate(_rounds(w, s)):
        for i, last in target:
            if last >= c[i]:
                return ReachResult(True, level, level, peak_words)
    return ReachResult(False, None, level, peak_words)
