"""Exact solver for laminar instances.

An instance is laminar when the x-projections of its rectangles form a
laminar interval family: any two projections are nested or have disjoint
interiors.  Laminarity buys three facts the solver exploits:

* every subset of the rectangles is still laminar;
* the widest rectangle in any box can be stabbed by a segment spanning
  exactly its own width;
* stabbing it splits the box into four independent sub-boxes (left, right,
  strictly below the stab height, strictly above it).

The DP caches one state per box spanned by coordinate ranks (indices into
the sorted distinct boundary values): at most O(n^4) states.  A box's rects
are found among those of the box that encloses it, so each state's work is
linear in the enclosing box's rects and in the stab heights it tries.
Ranking scales both axes to integers once, so no layer below it compares
Fractions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from fractions import Fraction

from .core import Instance, ParameterError, Segment, Solution, _scaled, _seg_key

_EMPTY = (0, None)  # the memo entry of a box no rect lies in


def _nested(spans: Iterable[tuple[int, int]]) -> bool:
    """True iff every two (left, right) spans are nested or have disjoint
    interiors; shared endpoints count as disjoint.

    In (left, -right) order each span must end inside the innermost span
    still open where it starts.
    """
    open_ends: list[int] = []
    for a, neg_b in sorted({(a, -b) for a, b in spans}):
        while open_ends and open_ends[-1] <= a:
            open_ends.pop()
        if open_ends and open_ends[-1] < -neg_b:
            return False
        open_ends.append(-neg_b)
    return True


def is_laminar(inst: Instance) -> bool:
    """True iff every pair of x-projections is nested or interior-disjoint.

    Shared endpoints count as disjoint.
    """
    n = len(inst.rects)
    _, x = _scaled([r.xl for r in inst.rects] + [r.xr for r in inst.rects])
    return _nested(zip(x[:n], x[n:]))


def _rank(inst: Instance) -> tuple[list[Fraction], list[Fraction], int, list[tuple]]:
    """The DP's input: (xs, ys, den, ranks) for a laminar instance.

    xs and ys are the sorted distinct x and y boundaries, den the common
    denominator of xs, and ranks one (-width * den, id, xl, xr, yb, yt) tuple
    per rect with coordinates as ranks into xs and ys: ranks preserve order,
    and min() picks the widest rect, lowest id first.  The tuples of a subset
    of the rects are valid DP input on their own, since a subset of a laminar
    family is laminar.

    Each axis is scaled to integers once; the laminarity check, the sorts and
    the rank lookups run on those, and xs and ys hold the input's own values.

    Raises ParameterError on non-laminar input.
    """
    rects = inst.rects
    n = len(rects)
    x_coords = [r.xl for r in rects] + [r.xr for r in rects]
    y_coords = [r.yb for r in rects] + [r.yt for r in rects]
    den, x = _scaled(x_coords)
    _, y = _scaled(y_coords)
    if not _nested(zip(x[:n], x[n:])):
        raise ParameterError("instance is not laminar")
    x_sorted = sorted(set(x))
    y_sorted = sorted(set(y))
    xi = {v: k for k, v in enumerate(x_sorted)}
    yi = {v: k for k, v in enumerate(y_sorted)}
    ranks = [
        (a - b, r.id, xi[a], xi[b], yi[c], yi[d])
        for r, a, b, c, d in zip(rects, x[:n], x[n:], y[:n], y[n:])
    ]
    x_own = dict(zip(x, x_coords))
    y_own = dict(zip(y, y_coords))
    return [x_own[v] for v in x_sorted], [y_own[v] for v in y_sorted], den, ranks


def _box_dp(ranks: list[tuple], root: tuple[int, int, int, int]) -> tuple[int, dict]:
    """The box DP over rank tuples from ``_rank``: (cost, memo).

    cost is the least cost, in units of 1/den, of stabbing the rects whose
    ranks lie in the box ``root`` = (i, j, u, v), that is [i, j] x [u, v].
    For each box, stab the widest contained rectangle W (ties: lowest id)
    with a segment [W.xl, W.xr] at some top-edge level inside W's vertical
    extent, then solve the four independent sub-boxes.  Candidate stab
    heights are restricted to top edges because any segment can be shifted
    up to the nearest top edge without changing what it stabs.

    A sub-box lies inside its box, so its rects are found by scanning only
    the box's own rects.  The DP walks the boxes with an explicit stack, so a
    chain of n sub-boxes, such as n x-disjoint rects, needs no recursion.

    memo maps each solved box to (cost, stab); stab is None for an empty box,
    else the ranks (a, b, t) of the segment stabbing the box's widest rect.
    """
    tops = sorted({t[5] for t in ranks})
    memo: dict[tuple[int, int, int, int], tuple[int, tuple | None]] = {}
    # frames (box, its rects, None) wait to be expanded, and frames
    # (box, None, plan) to be finished once every sub-box is solved
    todo: list[tuple] = []

    def enter(boxes: list[tuple[int, int, int, int]], outer: list[tuple]) -> None:
        # solve each unsolved box holding at most one rect, queue the others;
        # every box lies inside the box whose rects are outer
        for box in boxes:
            i, j, u, v = box
            if u > v or i >= j or box in memo:
                continue
            group = [t for t in outer if i <= t[2] and t[3] <= j and u <= t[4] and t[5] <= v]
            if len(group) > 1:
                todo.append((box, group, None))
            elif group:
                # a lone rect is stabbed at its top edge; its sub-boxes stay unsolved
                neg_width, _, a, b, _, yt = group[0]
                memo[box] = (-neg_width, (a, b, yt))
            else:
                memo[box] = _EMPTY

    enter([root], ranks)
    get = memo.get
    while todo:
        box, group, plan = todo.pop()
        if plan is not None:
            width, a, b, levels, subs = plan
            side = get(subs[0], _EMPTY)[0] + get(subs[1], _EMPTY)[0]
            best = None
            best_t = -1
            halves = iter(subs[2:])
            for t, below, above in zip(levels, halves, halves):
                cost = get(below, _EMPTY)[0] + get(above, _EMPTY)[0]
                if best is None or cost < best:
                    best = cost
                    best_t = t
            memo[box] = (width + side + best, (a, b, best_t))
        elif box not in memo:  # else solved meanwhile inside another box
            i, j, u, v = box
            neg_width, _, a, b, yb, yt = min(group)
            levels = tops[bisect_left(tops, yb) : bisect_right(tops, yt)]
            subs = [(i, a, u, v), (b, j, u, v)]
            for t in levels:
                subs.append((a, b, u, t - 1))
                subs.append((a, b, t + 1, v))
            todo.append((box, None, (-neg_width, a, b, levels, subs)))
            enter(subs, group)
    return get(root, _EMPTY)[0], memo


def solve_laminar(inst: Instance) -> Solution:
    """Exact optimum for a laminar instance: rank, run the box DP
    (``_box_dp``) on the whole rank range, read the stabs back from its memo.

    Raises ParameterError on non-laminar input.
    """
    xs, ys, den, ranks = _rank(inst)
    root = (0, len(xs) - 1, 0, len(ys) - 1)
    total, memo = _box_dp(ranks, root)

    segments: list[Segment] = []
    todo = [root]
    while todo:
        i, j, u, v = box = todo.pop()
        # a box solve never reached (degenerate, or beside a lone rect) is empty
        stab = memo.get(box, _EMPTY)[1]
        if stab is None:
            continue
        a, b, t = stab
        segments.append(Segment(xs[a], xs[b], ys[t]))
        todo += [(i, a, u, v), (b, j, u, v), (a, b, u, t - 1), (a, b, t + 1, v)]
    sol = Solution(tuple(sorted(segments, key=_seg_key)))
    assert sol.cost == Fraction(total, den), "reconstructed segments disagree with the DP value"
    return sol
