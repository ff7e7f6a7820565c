"""Exact ground-truth solver and the classical greedy cover baseline.

The exact solver treats the problem as weighted set cover: rectangles are
elements, candidate segments are sets, and a subset dynamic program over
rectangle bitmasks finds the minimum total length.  It is intentionally
capped at small instance sizes and serves as the oracle for every
approximation-ratio test in the suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Instance,
    OracleLimitError,
    Segment,
    Solution,
    _seg_key,
    candidate_segments,
    stabs,
)

ORACLE_LIMIT = 20  # 2^20 subset-DP states; beyond this callers branch-and-bound


@dataclass(frozen=True)
class Candidate:
    """A segment together with the bitmask of rect positions it stabs."""

    segment: Segment
    stab_set: int
    length: Fraction


def _stab_mask(inst: Instance, seg: Segment) -> int:
    mask = 0
    for i, r in enumerate(inst.rects):
        if stabs(seg, r):
            mask |= 1 << i
    return mask


def reduce_candidates(inst: Instance, cands: list[Segment]) -> list[Candidate]:
    """Keep one minimum-length candidate per distinct stab-set, drop dominated ones.

    A candidate is dominated when another candidate stabs a superset of its
    rects at no greater length.  The optimal cover cost over the reduced list
    equals that over the full list.  Ties resolve to the lexicographically
    smallest segment (by (xl, xr, y)) so the result is deterministic.
    """
    best: dict[int, Candidate] = {}
    for seg in sorted(cands, key=_seg_key):
        mask = _stab_mask(inst, seg)
        if not mask:
            continue
        cur = best.get(mask)
        if cur is None or seg.length < cur.length:
            best[mask] = Candidate(seg, mask, seg.length)
    pool = sorted(best.values(), key=lambda c: _seg_key(c.segment))
    kept = []
    for c in pool:
        dominated = any(
            d.stab_set != c.stab_set
            and c.stab_set | d.stab_set == d.stab_set
            and c.length >= d.length
            for d in pool
        )
        if not dominated:
            kept.append(c)
    return kept


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

    cands = reduce_candidates(inst, candidate_segments(inst))

    # integer-scaled lengths keep the DP fast while staying exact
    den = 1
    for c in cands:
        den = den * c.length.denominator // math.gcd(den, c.length.denominator)
    ilen = [int(c.length * den) for c in cands]

    covering: list[list[int]] = [[] for _ in range(n)]
    for ci, c in enumerate(cands):
        for i in range(n):
            if c.stab_set >> i & 1:
                covering[i].append(ci)

    size = 1 << n
    dp: list[int | None] = [None] * size
    choice = [-1] * size
    dp[0] = 0
    for mask in range(1, size):
        low = (mask & -mask).bit_length() - 1
        best = None
        best_ci = -1
        for ci in covering[low]:
            sub = mask & ~cands[ci].stab_set
            val = dp[sub] + ilen[ci]
            if best is None or val < best:
                best, best_ci = val, ci
        dp[mask] = best
        choice[mask] = best_ci

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
    n = len(inst.rects)
    if n == 0:
        return Solution(())
    cands = reduce_candidates(inst, candidate_segments(inst))
    full = (1 << n) - 1
    covered = 0
    picked: list[Segment] = []
    while covered != full:
        best = None  # (newly, length, segment, mask)
        for c in cands:
            newly = (c.stab_set & ~covered).bit_count()
            if newly == 0:
                continue
            if best is None:
                best = (newly, c.length, c.segment, c.stab_set)
                continue
            # newly/length > best ratio, compared by cross-multiplication so
            # zero lengths order correctly
            lhs = newly * best[1]
            rhs = best[0] * c.length
            if lhs > rhs or (lhs == rhs and (c.length, _seg_key(c.segment)) < (best[1], _seg_key(best[2]))):
                best = (newly, c.length, c.segment, c.stab_set)
        covered |= best[3]
        picked.append(best[2])
    return Solution(tuple(picked))
