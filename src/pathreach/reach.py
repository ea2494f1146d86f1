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
vertex, the (walk, last) entry of every walk it occurs in.  A scanned
position therefore checks only the walks that contain its vertex, not
all k registers.  A walk with no position known holds its own length,
which fails every comparison against a position in it.

A round either pulls or pushes.  A pull scans each walk's prefix up to
its register for a vertex known in some walk.  A push scans only the
segments the round before newly reached, from each register up to the
previous level's, and lowers the register of every walk containing a
vertex found there to that vertex's first position below it.  In a walk
that repeats no vertex, a path, the entry's last position is that first
position, so the push reads it from the index; the index also flags,
per walk, whether it repeats a vertex.  In a walk that repeats one, a
tuple.index scan bounded by the register finds it.  The push segments
of one query never overlap, so a query of many small rounds looks up
each position in the index about once instead of once per round, and on
a path decomposition, the paper's main case, it compares no positions
beyond those lookups.  A round pushes only when its lookups, and its
scans into walks that repeat a vertex weighed at _SCANS_PER_LOOKUP
compared positions per lookup, cost no more than pulling every walk.

One generator, _rounds, runs the frontier, every round inline in its
loop; only the pull scan of one walk, _pull, is a function of its own.
It yields the registers of level 0, the earliest occurrences of the
source, and then those of every level l, which point at the earliest
vertices reachable with at most l switches.  The round-l target check
therefore answers "reachable with at most l switches" exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterator

from .decomposition import WalkDecomposition

# Scalar index-sized locals live during a query, on top of the 2k
# registers.  Every round runs inline in _rounds's loop, and a round uses
# at most eight.  A push round: the round counter, the scanned walk i,
# its segment end, scan position q, scanned vertex v, the cursor into the
# occurrence entries of v, the pushed walk j, and the position that
# becomes d[j]: the entry's last position when j repeats no vertex, else
# the position of the tuple.index scan, which becomes d[j] when it finds
# v (dj only caches the register d[j]).  A pull round: the round counter,
# the pulled walk j, and in _pull q, v, the entry cursor, and the entry's
# walk i and last position.  The sums and the scan bound m that pick the
# kind of round are dead once it starts.  The per-walk flags, and the
# flag saying whether any walk repeats a vertex, are read-only input,
# like the index.
_QUERY_SCRATCH_WORDS = 8

# Positions tuple.index compares in the time of one pull lookup, rounded
# down: about 10 on CPython 3.11 on a 2-vCPU x86-64 VM (12-27 ns per
# compared position against 130-310 ns per looked-up position, on a long
# single walk and on 64 random walks of length <= 100).  _rounds weighs
# push scans with it; only pushes into walks that repeat a vertex scan.
_SCANS_PER_LOOKUP = 10


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

    The round pushes only when that costs no more than pulling every
    walk.  A pull looks up each prefix position in the index, at most
    sum(c) lookups.  A push looks up each of the new = sum(d) - sum(c)
    new-segment positions once.  Each index entry of its vertex for a
    walk that repeats a vertex scans at most m positions in C, m the
    largest register of such a walk, which costs about
    m / _SCANS_PER_LOOKUP lookups; an entry for a path reads its last
    position and scans nothing.  So a round with
    new * (_SCANS_PER_LOOKUP + m) > _SCANS_PER_LOOKUP * sum(c)
    pulls every walk instead; when no walk repeats a vertex m is 0, it
    is not computed, and the rule is new > sum(c).

    A push visits the walks in index order.  Walk i scans its segment, if
    it moved, and lowers d[j] to the first position of v in walk j, for
    every walk j in occ[v], when that position lies below d[j].  When j
    repeats no vertex (repeats[j] is false), that position is the entry's
    last, and no scan is made.  Otherwise the scan for it,
    paths[j].index(v, 0, d[j]), stops at d[j], so it covers at most c[j]
    positions.  Once walk i's turn has begun, d[i] holds its next
    register.  Before walk j's turn d[j] still holds j's segment end, so
    a push into j must not overwrite it:
    - j did not move (d[j] <= c[j]): it has no segment, and the pushed
      position is stored as itself, below c[j];
    - j moved (d[j] > c[j], which holds only before j's turn): j becomes
      pending, stored as ~end, a negative int, so no flag bits are
      needed.  A pending walk ignores later pushes, scans its segment at
      its turn, and is pulled at round end.
    Either way d ends up holding the next level.
    """
    occ = w.occurrences
    source = occ.get(s)
    if source is None:
        return
    paths = w._paths
    repeats = w._index[1]
    scans = any(repeats)
    c = list(map(len, paths))
    d = c[:]
    for i, last in source:
        c[i] = paths[i].index(s) if repeats[i] else last
    yield c
    level = 0
    while True:
        prefixes = sum(c)
        new = sum(d) - prefixes
        if scans:
            m = max(compress(c, repeats), default=0)
            new *= _SCANS_PER_LOOKUP + m
            prefixes *= _SCANS_PER_LOOKUP
        if new > prefixes:
            for j in range(len(paths)):
                d[j] = _pull(paths, occ, c, j)
        else:
            for i in range(len(paths)):
                end = d[i]
                if end < 0:
                    end = ~end
                elif end > c[i]:
                    d[i] = c[i]
                else:
                    continue
                vs = paths[i]
                for q in range(c[i], end):
                    v = vs[q]
                    for j, last in occ[v]:
                        dj = d[j]
                        if dj > c[j]:
                            d[j] = ~dj
                        elif not repeats[j]:
                            if last < dj:
                                d[j] = last
                        elif dj > 0:
                            try:
                                d[j] = paths[j].index(v, 0, dj)
                            except ValueError:
                                pass
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
