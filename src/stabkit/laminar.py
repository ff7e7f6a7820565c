"""Exact solver for laminar instances.

An instance is laminar when the x-projections of its rectangles form a
laminar interval family: any two projections are nested or have disjoint
interiors.  Laminarity buys three facts the solver exploits:

* every subset of the rectangles is still laminar;
* the widest rectangle in any box can be stabbed by a segment spanning
  exactly its own width;
* stabbing it splits the box into four independent sub-boxes (left, right,
  strictly below the stab height, strictly above it).

The recursion caches one state per box spanned by coordinate ranks (indices
into the sorted distinct boundary values): at most O(n^4) states with O(n)
work per state.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable
from fractions import Fraction

from .core import Instance, ParameterError, Segment, Solution, _integer_scale, _seg_key


def is_laminar(inst: Instance) -> bool:
    """True iff every pair of x-projections is nested or interior-disjoint.

    Shared endpoints count as disjoint.  In (left, -right) order each span
    must end inside the innermost span still open where it starts.
    """
    open_ends: list[Fraction] = []
    for a, b in sorted({(r.xl, r.xr) for r in inst.rects}, key=lambda s: (s[0], -s[1])):
        while open_ends and open_ends[-1] <= a:
            open_ends.pop()
        if open_ends and open_ends[-1] < b:
            return False
        open_ends.append(b)
    return True


def _rank(inst: Instance) -> tuple[list[Fraction], list[Fraction], int, list[tuple]]:
    """The DP's input: (xs, ys, den, ranks) for a laminar instance.

    xs and ys are the sorted distinct x and y boundaries, den the common
    denominator of xs, and ranks one (-width * den, id, xl, xr, yb, yt) tuple
    per rect with coordinates as ranks into xs and ys: ranks preserve order,
    and min() picks the widest rect, lowest id first.  The tuples of a subset
    of the rects are valid DP input on their own, since a subset of a laminar
    family is laminar.

    Raises ParameterError on non-laminar input.
    """
    if not is_laminar(inst):
        raise ParameterError("instance is not laminar")
    rects = inst.rects
    xs = sorted({r.xl for r in rects} | {r.xr for r in rects})
    ys = sorted({r.yb for r in rects} | {r.yt for r in rects})
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    # costs are integers over the common denominator of the x coordinates
    den, x = _integer_scale(xs)
    ranks = [(x[r.xl] - x[r.xr], r.id, xi[r.xl], xi[r.xr], yi[r.yb], yi[r.yt]) for r in rects]
    return xs, ys, den, ranks


def _box_dp(ranks: list[tuple]) -> tuple[Callable[[int, int, int, int], int], dict]:
    """The box recursion over rank tuples from ``_rank``: (solve, memo).

    solve(i, j, u, v) is the least cost, in units of 1/den, of stabbing the
    rects whose ranks lie in the box [i, j] x [u, v].  For each box, stab the
    widest contained rectangle W (ties: lowest id) with a segment [W.xl, W.xr]
    at some top-edge level inside W's vertical extent, then solve the four
    independent sub-boxes.  Candidate stab heights are restricted to top
    edges because any segment can be shifted up to the nearest top edge
    without changing what it stabs.

    memo maps each solved box to (cost, stab); stab is None for an empty box,
    else the ranks (a, b, t) of the segment stabbing the box's widest rect.
    solve refers to itself, so a caller clears memo when done rather than
    leave it to the cyclic collector.
    """
    tops = sorted({t[5] for t in ranks})
    memo: dict[tuple[int, int, int, int], tuple[int, tuple | None]] = {}

    def solve(i: int, j: int, u: int, v: int) -> int:
        if u > v or i >= j:
            return 0
        key = (i, j, u, v)
        if key in memo:
            return memo[key][0]
        # the rects inside the box
        group = [t for t in ranks if i <= t[2] and t[3] <= j and u <= t[4] and t[5] <= v]
        if not group:
            memo[key] = (0, None)
            return 0
        neg_width, _, a, b, yb, yt = min(group)
        if len(group) == 1:
            # a lone rect is stabbed at its top edge; its sub-boxes stay unsolved
            memo[key] = (-neg_width, (a, b, yt))
            return -neg_width
        side = solve(i, a, u, v) + solve(b, j, u, v)
        best = None
        best_t = -1
        for t in tops[bisect_left(tops, yb) : bisect_right(tops, yt)]:
            below = solve(a, b, u, t - 1)
            above = solve(a, b, t + 1, v)
            if best is None or below + above < best:
                best = below + above
                best_t = t
        cost = -neg_width + side + best
        memo[key] = (cost, (a, b, best_t))
        return cost

    return solve, memo


def solve_laminar(inst: Instance) -> Solution:
    """Exact optimum for a laminar instance: rank, run the box DP
    (``_box_dp``) on the whole rank range, read the stabs back from its memo.

    Raises ParameterError on non-laminar input.
    """
    xs, ys, den, ranks = _rank(inst)
    solve, memo = _box_dp(ranks)
    root = (0, len(xs) - 1, 0, len(ys) - 1)
    total = solve(*root)

    segments: list[Segment] = []

    def collect(i: int, j: int, u: int, v: int) -> None:
        # a box solve never reached (degenerate, or beside a lone rect) is empty
        stab = memo.get((i, j, u, v), (0, None))[1]
        if stab is None:
            return
        a, b, t = stab
        segments.append(Segment(xs[a], xs[b], ys[t]))
        collect(i, a, u, v)
        collect(b, j, u, v)
        collect(a, b, u, t - 1)
        collect(a, b, t + 1, v)

    collect(*root)
    memo.clear()
    sol = Solution(tuple(sorted(segments, key=_seg_key)))
    assert sol.cost == Fraction(total, den), "reconstructed segments disagree with the DP value"
    return sol
