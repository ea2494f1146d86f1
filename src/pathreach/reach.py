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
vertex, the (walk, first, last) entry of every walk it occurs in.  A
scanned position therefore checks only the walks that contain its
vertex, not all k registers.

The frontier is advanced once while initializing, so that after round l
the registers point at the earliest vertices reachable with at most l
switches and the round-l target check answers "reachable with at most l
switches" exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import Walk, WalkDecomposition

# Register value meaning "no position known"; larger than any real position
# so that comparisons against occurrence positions fail without branching.
_ABSENT = 1 << 60

# Scalar index-sized locals live during a query, on top of the 2k registers:
# walk cursors i and j, scan position q, scanned vertex v, scan limit,
# the cursor into the occurrence entries of v, the round counter, and the
# change flag of the current round.
_QUERY_SCRATCH_WORDS = 8


class RegisterMeter:
    """Counts index-sized working cells; peak_words is the high-water mark.

    Read-only input (the decomposition, its cached occurrence index, the
    graph) is not counted, only per-query working state.
    """

    __slots__ = ("words", "peak_words")

    def __init__(self) -> None:
        self.words = 0
        self.peak_words = 0

    def acquire(self, n: int) -> None:
        self.words += n
        if self.words > self.peak_words:
            self.peak_words = self.words

    def release(self, n: int) -> None:
        self.words -= n


@dataclass(frozen=True)
class FrontierRegisters:
    """The per-walk register pair: current frontier c and staging buffer d."""

    c: tuple[int | None, ...]
    d: tuple[int | None, ...]


@dataclass(frozen=True)
class ReachResult:
    reachable: bool
    min_switches: int | None
    iterations: int
    peak_words: int


def earliest_occurrence(walk: Walk, v: int) -> int | None:
    """Smallest position where v occurs in the walk, or None."""
    for q, u in enumerate(walk.vertices):
        if u == v:
            return q
    return None


def occurs_from(walk: Walk, start: int, v: int) -> bool:
    """True iff v occurs at some position >= start."""
    if not (0 <= start < len(walk)):
        raise IndexError(f"start position {start} outside [0, {len(walk)})")
    vs = walk.vertices
    for q in range(start, len(vs)):
        if vs[q] == v:
            return True
    return False


def initial_frontier(w: WalkDecomposition, s: int) -> FrontierRegisters:
    """Registers after initialization: earliest occurrence of s per walk."""
    c = tuple(earliest_occurrence(walk, s) for walk in w)
    return FrontierRegisters(c=c, d=(None,) * w.k)


def advance_frontier(w: WalkDecomposition, regs: FrontierRegisters) -> FrontierRegisters:
    """One frontier round: for every walk, the new register is the earliest
    position whose vertex occurs at or after a current register position in
    some walk (None if there is none).  Registers never move later and never
    revert to None.
    """
    k = w.k
    if len(regs.c) != k:
        raise ValueError(f"register count {len(regs.c)} does not match k={k}")
    for i, ci in enumerate(regs.c):
        if ci is not None and not (0 <= ci < len(w[i])):
            raise ValueError(f"register c[{i}]={ci} outside walk {i}")
    c = [_ABSENT if ci is None else ci for ci in regs.c]
    d = [_ABSENT] * k
    _advance([walk.vertices for walk in w], w.occurrences, c, d)
    out = tuple(None if x == _ABSENT else x for x in d)
    return FrontierRegisters(c=out, d=out)


def _advance(seqs, occ, c, d) -> bool:
    """Compute the next frontier from c into d; return whether it moved.

    occ[v] lists a (walk i, first, last) entry for each walk containing v,
    so "v occurs at or after c[i]" is the comparison last >= c[i], made
    only for the walks in which v occurs.  Scanning walk j can stop at
    c[j]: positions from there on qualify already, hence d[j] never
    exceeds c[j].
    """
    changed = False
    for j in range(len(seqs)):
        vs = seqs[j]
        new_cj = c[j]
        lim = new_cj if new_cj < len(vs) else len(vs)
        for q in range(lim):
            for i, _, last in occ[vs[q]]:
                if last >= c[i]:
                    new_cj = q
                    break
            if new_cj == q:
                break
        d[j] = new_cj
        if new_cj != c[j]:
            changed = True
    return changed


def decide_reachability(
    w: WalkDecomposition, s: int, t: int, n: int | None = None
) -> ReachResult:
    """Decide whether t is reachable from s in the union graph of w.

    min_switches is the least number of switches between walks over all
    s-to-t routes (0 when s equals t or both lie in order on one walk);
    iterations counts frontier rounds; peak_words is the meter reading,
    at most 2k + 8 for every query.

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

    k = w.k
    meter = RegisterMeter()
    meter.acquire(2 * k + _QUERY_SCRATCH_WORDS)
    peak = meter.peak_words

    if s == t:
        return ReachResult(True, 0, 0, peak)

    occ = w.occurrences
    seqs = [walk.vertices for walk in w]

    source = occ.get(s)
    if source is None:
        return ReachResult(False, None, 0, peak)
    c = [_ABSENT] * k
    for i, first, _ in source:
        c[i] = first

    target = occ.get(t, ())
    for i, _, last in target:
        if last >= c[i]:
            return ReachResult(True, 0, 0, peak)

    d = [_ABSENT] * k
    _advance(seqs, occ, c, d)
    c, d = d, c

    iterations = 0
    while True:
        iterations += 1
        for i, _, last in target:
            if last >= c[i]:
                return ReachResult(True, iterations, iterations, peak)
        if not _advance(seqs, occ, c, d):
            return ReachResult(False, None, iterations, peak)
        c, d = d, c
