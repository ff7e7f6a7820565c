"""Exact ground-truth solver and the classical greedy cover baseline.

The exact solver treats the problem as weighted set cover: rectangles are
elements, candidate segments are sets, and a subset dynamic program over
rectangle bitmasks finds the minimum total length.  It is intentionally
capped at small instance sizes and serves as the oracle for every
approximation-ratio test in the suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Instance,
    OracleLimitError,
    Segment,
    Solution,
    _integer_scale,
    _seg_key,
    candidate_segments,
)

ORACLE_LIMIT = 20  # 2^20 subset-DP states; beyond this callers branch-and-bound


@dataclass(frozen=True)
class Candidate:
    """A segment together with the bitmask of rect positions it stabs."""

    segment: Segment
    stab_set: int


def reduce_candidates(inst: Instance, cands: list[Segment]) -> list[Candidate]:
    """Keep one minimum-length candidate per distinct stab-set, drop dominated ones.

    A candidate is dominated when another candidate stabs a superset of its
    rects at no greater length.  The optimal cover cost over the reduced list
    equals that over the full list.  Ties resolve to the lexicographically
    smallest segment (by (xl, xr, y)) so the result is deterministic.
    """
    def masks(values, test) -> dict:
        return {v: sum(1 << i for i, r in enumerate(inst.rects) if test(r, v)) for v in values}

    # a segment stabs exactly the rects with xl >= its xl, xr <= its xr and
    # yb <= its y <= yt: one mask per distinct coordinate, ANDed per segment
    lefts = masks({s.xl for s in cands}, lambda r, a: r.xl >= a)
    rights = masks({s.xr for s in cands}, lambda r, b: r.xr <= b)
    levels = masks({s.y for s in cands}, lambda r, y: r.yb <= y <= r.yt)
    _, x = _integer_scale(lefts.keys() | rights.keys())
    _, y = _integer_scale(levels.keys())

    shortest: dict[int, tuple] = {}  # stab set -> (length, (xl, xr, y), segment), scaled
    for seg in cands:
        mask = lefts[seg.xl] & rights[seg.xr] & levels[seg.y]
        if mask:
            key = (x[seg.xl], x[seg.xr], y[seg.y])
            entry = (key[1] - key[0], key, seg)
            if mask not in shortest or entry[:2] < shortest[mask][:2]:
                shortest[mask] = entry
    pool = sorted(shortest.items(), key=lambda kv: kv[1][1])
    return [
        Candidate(seg, mask)
        for mask, (length, _, seg) in pool
        if not any(
            other != mask and mask | other == other and length >= other_length
            for other, (other_length, _, _) in pool
        )
    ]


def _candidate_table(inst: Instance) -> tuple[list[Candidate], list[int], list[list[int]]]:
    """The reduced candidates of ``inst``, their lengths as integers over one
    common denominator, and per rect position the indices of the candidates
    that stab it."""
    cands = reduce_candidates(inst, candidate_segments(inst))
    _, scaled = _integer_scale({c.segment.length for c in cands})
    lengths = [scaled[c.segment.length] for c in cands]
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
