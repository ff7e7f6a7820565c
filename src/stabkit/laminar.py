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
from fractions import Fraction

from .core import Instance, ParameterError, Rect, Segment, Solution, _seg_key


def is_laminar(inst: Instance) -> bool:
    """True iff every pair of x-projections is nested or interior-disjoint.

    Shared endpoints count as disjoint.
    """
    spans = sorted({(r.xl, r.xr) for r in inst.rects})
    for i, (a0, a1) in enumerate(spans):
        for b0, b1 in spans[i + 1 :]:
            disjoint = a1 <= b0 or b1 <= a0
            nested = (a0 <= b0 and b1 <= a1) or (b0 <= a0 and a1 <= b1)
            if not (disjoint or nested):
                return False
    return True


def solve_laminar(inst: Instance) -> Solution:
    """Exact optimum for a laminar instance.

    For each box, stab the widest contained rectangle W (ties: lowest id)
    with a segment [W.xl, W.xr] at some top-edge level inside W's vertical
    extent, then solve the four independent sub-boxes.  Candidate stab
    heights are restricted to top edges because any segment can be shifted
    up to the nearest top edge without changing what it stabs.

    Raises ParameterError on non-laminar input.
    """
    if not inst.rects:
        return Solution(())
    if not is_laminar(inst):
        raise ParameterError("instance is not laminar")

    rects = inst.rects
    xs = sorted({r.xl for r in rects} | {r.xr for r in rects})
    ys = sorted({r.yb for r in rects} | {r.yt for r in rects})
    tops = sorted({r.yt for r in rects})
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    ranks = [(r, xi[r.xl], xi[r.xr], yi[r.yb], yi[r.yt]) for r in rects]

    def inside(i: int, j: int, u: int, v: int) -> list[Rect]:
        # ranks preserve order, so comparing them is comparing coordinates
        return [r for r, xl, xr, yb, yt in ranks if i <= xl and xr <= j and u <= yb and yt <= v]

    # memo: (i, j, u, v) -> (cost, decision); decision is None for <=1 rect
    # boxes or (W, level index of the chosen stab height)
    memo: dict[tuple[int, int, int, int], tuple[Fraction, object]] = {}

    def solve(i: int, j: int, u: int, v: int) -> Fraction:
        if u > v or i >= j:
            return Fraction(0)
        key = (i, j, u, v)
        if key in memo:
            return memo[key][0]
        group = inside(i, j, u, v)
        if len(group) <= 1:
            cost = group[0].width if group else Fraction(0)
            decision = group[0] if group else None
            memo[key] = (cost, ("base", decision))
            return cost
        w = min(group, key=lambda r: (-r.width, r.id))
        a, b = xi[w.xl], xi[w.xr]
        side = solve(i, a, u, v) + solve(b, j, u, v)
        best = None
        best_t = -1
        for y in tops[bisect_left(tops, w.yb) : bisect_right(tops, w.yt)]:
            t = yi[y]
            below = solve(a, b, u, t - 1)
            above = solve(a, b, t + 1, v)
            if best is None or below + above < best:
                best = below + above
                best_t = t
        cost = w.width + side + best
        memo[key] = (cost, ("split", w, a, b, best_t))
        return cost

    root = (0, len(xs) - 1, 0, len(ys) - 1)
    total = solve(*root)

    segments: list[Segment] = []

    def collect(i: int, j: int, u: int, v: int) -> None:
        if u > v or i >= j:
            return
        _, decision = memo[(i, j, u, v)]
        if decision[0] == "base":
            r = decision[1]
            if r is not None:
                segments.append(Segment(r.xl, r.xr, r.yt))
            return
        _, w, a, b, t = decision
        segments.append(Segment(w.xl, w.xr, ys[t]))
        collect(i, a, u, v)
        collect(b, j, u, v)
        collect(a, b, u, t - 1)
        collect(a, b, t + 1, v)

    collect(*root)
    sol = Solution(tuple(sorted(segments, key=_seg_key)))
    assert sol.cost == total, "reconstructed segments disagree with the DP value"
    return sol
