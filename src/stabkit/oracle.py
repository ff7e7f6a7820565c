"""Exact ground-truth solver and the classical greedy cover baseline.

The exact solver treats the problem as weighted set cover: rectangles are
elements, candidate segments are sets, and a subset dynamic program over
rectangle bitmasks finds the minimum total length.  It is intentionally
capped at small instance sizes and serves as the oracle for every
approximation-ratio test in the suite.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .core import (
    Instance,
    OracleLimitError,
    Segment,
    Solution,
    _integer_scale,
    _seg_key,
)

ORACLE_LIMIT = 20  # 2^20 subset-DP states; beyond this callers branch-and-bound


@dataclass(frozen=True)
class Candidate:
    """A segment together with the bitmask of rect positions it stabs."""

    segment: Segment
    stab_set: int


def _reduce(inst: Instance, lefts, rights, levels, triples) -> tuple[list[Candidate], list[int]]:
    """The reduced candidates among the segments ``[lefts[i], rights[j]] x
    levels[k]`` for the rank triples ``(i, j, k)``, and their lengths as
    integers over one common denominator.

    ``lefts``, ``rights`` and ``levels`` are sorted and distinct, so rank
    order is coordinate order and ties resolve to the smallest (xl, xr, y).
    """
    rects = inst.rects
    # a segment stabs exactly the rects with xl >= its xl, xr <= its xr and
    # yb <= its y <= yt: one mask per distinct coordinate, ANDed per triple
    _, x = _integer_scale({*lefts, *rights, *(r.xl for r in rects), *(r.xr for r in rects)})
    _, y = _integer_scale({*levels, *(r.yb for r in rects), *(r.yt for r in rects)})
    xl = [x[a] for a in lefts]
    xr = [x[b] for b in rights]
    ys = [y[v] for v in levels]
    edges = [(1 << p, x[r.xl], x[r.xr], y[r.yb], y[r.yt]) for p, r in enumerate(rects)]
    lm = [sum(bit for bit, rl, _, _, _ in edges if rl >= a) for a in xl]
    rm = [sum(bit for bit, _, rr, _, _ in edges if rr <= b) for b in xr]
    ym = [sum(bit for bit, _, _, rb, rt in edges if rb <= v <= rt) for v in ys]

    shortest: dict[int, tuple] = {}  # stab set -> smallest (length, (i, j, k))
    for t in triples:
        i, j, k = t
        mask = lm[i] & rm[j] & ym[k]
        if mask:
            entry = (xr[j] - xl[i], t)
            old = shortest.get(mask)
            if old is None or entry < old:
                shortest[mask] = entry
    # a strict superset has a higher popcount, and domination is transitive,
    # so every dominated set has a kept dominator visited before it
    kept = []
    for mask in sorted(shortest, key=int.bit_count, reverse=True):
        length = shortest[mask][0]
        for other, other_length in kept:
            if mask | other == other and length >= other_length:
                break
        else:
            kept.append((mask, length))
    rows = sorted((shortest[mask][1], mask, length) for mask, length in kept)
    cands = [Candidate(Segment(lefts[i], rights[j], levels[k]), mask) for (i, j, k), mask, _ in rows]
    return cands, [length for _, _, length in rows]


def reduce_candidates(inst: Instance, cands: list[Segment]) -> list[Candidate]:
    """Keep one minimum-length candidate per distinct stab-set, drop dominated ones.

    A candidate is dominated when another candidate stabs a superset of its
    rects at no greater length.  The optimal cover cost over the reduced list
    equals that over the full list.  Ties resolve to the lexicographically
    smallest segment (by (xl, xr, y)) so the result is deterministic.
    """
    lefts = sorted({s.xl for s in cands})
    rights = sorted({s.xr for s in cands})
    levels = sorted({s.y for s in cands})
    left, right, level = ({v: r for r, v in enumerate(vs)} for vs in (lefts, rights, levels))
    triples = [(left[s.xl], right[s.xr], level[s.y]) for s in cands]
    return _reduce(inst, lefts, rights, levels, triples)[0]


def _candidate_table(inst: Instance) -> tuple[list[Candidate], list[int], list[list[int]]]:
    """The reduced candidates of ``inst``, their lengths as integers over one
    common denominator, and per rect position the indices of the candidates
    that stab it.

    The candidates are those of ``candidate_segments``, fed to the reduction
    as rank triples: no segment is built for a candidate that is dropped.
    """
    lefts = sorted({r.xl for r in inst.rects})
    rights = sorted({r.xr for r in inst.rects})
    tops = sorted({r.yt for r in inst.rects})
    triples = (
        (i, j, k)
        for i, a in enumerate(lefts)
        for j in range(bisect_left(rights, a), len(rights))
        for k in range(len(tops))
    )
    cands, lengths = _reduce(inst, lefts, rights, tops, triples)
    covering = [
        [ci for ci, c in enumerate(cands) if c.stab_set >> i & 1] for i in range(len(inst.rects))
    ]
    return cands, lengths, covering


def exact_opt(inst: Instance, limit: int = ORACLE_LIMIT) -> Solution:
    """Minimum-total-length solution via subset DP: dp[mask] = min over
    candidates c covering the lowest set bit of dp[mask \\ c.stab_set] + |c|.

    Raises OracleLimitError when the instance has more than `limit` rects.
    Deterministic: candidates are scanned in canonical order and only strict
    improvements replace the incumbent.
    """
    n = len(inst.rects)
    if n == 0:
        return Solution(())
    if n > limit:
        raise OracleLimitError(f"instance has {n} rects, oracle limit is {limit}")

    cands, lengths, covering = _candidate_table(inst)
    size = 1 << n
    dp = [0] * size
    choice = [-1] * size
    for mask in range(1, size):
        low = (mask & -mask).bit_length() - 1
        best = None
        for ci in covering[low]:
            val = dp[mask & ~cands[ci].stab_set] + lengths[ci]
            if best is None or val < best:
                best, choice[mask] = val, ci
        dp[mask] = best

    segments = []
    mask = size - 1
    while mask:
        c = cands[choice[mask]]
        segments.append(c.segment)
        mask &= ~c.stab_set
    return Solution(tuple(sorted(segments, key=_seg_key)))


def greedy_cover(inst: Instance) -> Solution:
    """Classical set-cover greedy: repeatedly pick the candidate maximizing
    newly-stabbed count per unit length.

    Ties break toward smaller length, then lexicographic segment order, so
    the output is deterministic.  Guarantees the (1 + ln n) set-cover ratio.
    """
    cands, lengths, _ = _candidate_table(inst)
    full = (1 << len(inst.rects)) - 1
    covered = 0
    picked: list[Segment] = []
    while covered != full:
        best = (0, 1, None)  # (newly, length, candidate); ratio 0 loses to any newly > 0
        for c, length in zip(cands, lengths):
            newly = (c.stab_set & ~covered).bit_count()
            if newly == 0:
                continue
            # newly/length > best ratio, compared by cross-multiplication so
            # zero lengths order correctly; candidates come in lexicographic
            # order, so on equal ratio and length the incumbent stays
            lhs = newly * best[1]
            rhs = best[0] * length
            if lhs > rhs or (lhs == rhs and length < best[1]):
                best = (newly, length, c)
        covered |= best[2].stab_set
        picked.append(best[2].segment)
    return Solution(tuple(picked))
