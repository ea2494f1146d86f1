"""Reachability queries over a walk decomposition with 2k frontier registers.

For each walk the engine keeps one register holding the earliest position
whose vertex is currently known to be reachable from the source, plus one
staging register for the next round.  Each round extends reachability by
one more switch between walks: a vertex becomes known as soon as it occurs
at or after a register position in some walk.  The round counter at which
the target is first detected is therefore the minimum number of switches
needed, and the working state per query is the 2k registers plus a fixed
handful of scalars, independent of the graph size.

The engine reads the decomposition's read-only occurrence index: per
vertex, the (walk, last) entry of every walk it occurs in.  A scanned
position therefore checks only the walks that contain its vertex, not
all k registers.  A walk with no position known holds its own length,
which fails every comparison against a position in it.

One generator, _rounds, runs the frontier: it yields the registers of
level 0, the earliest occurrences of the source, and then those of every
level l, which point at the earliest vertices reachable with at most l
switches.  The round-l target check therefore answers "reachable with at
most l switches" exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .decomposition import WalkDecomposition

# Scalar index-sized locals live during a query, on top of the 2k registers:
# walk cursors i and j, scan position q, scanned vertex v, the cursor into
# the occurrence entries of v, the walk's new register value, the round
# counter, and the change flag of the current round.
_QUERY_SCRATCH_WORDS = 8


@dataclass(frozen=True)
class ReachResult:
    reachable: bool
    min_switches: int | None
    iterations: int
    peak_words: int


def _advance(paths, occ, c, d) -> bool:
    """Compute the next frontier from c into d; return whether it moved.

    occ[v] lists a (walk i, last) entry for each walk containing v, so
    "v occurs at or after c[i]" is the comparison last >= c[i], made only
    for the walks in which v occurs.  Scanning walk j can stop at c[j]:
    positions from there on qualify already, hence d[j] never exceeds
    c[j].  A register at its walk's length fails every comparison and
    lets the scan cover the whole walk.
    """
    changed = False
    for j in range(len(paths)):
        vs = paths[j]
        new_cj = c[j]
        for q in range(new_cj):
            for i, last in occ[vs[q]]:
                if last >= c[i]:
                    new_cj = q
                    break
            if new_cj == q:
                break
        d[j] = new_cj
        if new_cj != c[j]:
            changed = True
    return changed


def _rounds(w: WalkDecomposition, s: int) -> Iterator[list[int]]:
    """The registers of each level, from level 0 on; a walk with no
    position known holds its length.

    Level 0 holds the first position of s in every walk containing it.
    Level 1 is always yielded, even when it equals level 0, so a query
    whose source occurs counts at least one round; after that the
    generator ends at the first round that moves no register.  Nothing is
    yielded when s occurs in no walk.  A yielded list keeps its level only
    until the generator is resumed twice; copy it to keep it longer.
    """
    occ = w.occurrences
    source = occ.get(s)
    if source is None:
        return
    paths = w._paths
    c = list(map(len, paths))
    d = c[:]
    for i, _ in source:
        c[i] = paths[i].index(s)
    yield c
    _advance(paths, occ, c, d)
    c, d = d, c
    yield c
    while _advance(paths, occ, c, d):
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
    of the current level, the k staging registers d of the next, and the
    8 scalars of _QUERY_SCRATCH_WORDS.

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
