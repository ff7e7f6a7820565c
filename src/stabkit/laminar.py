"""Exact solver for laminar instances.

An instance is laminar when the x-projections of its rectangles form a
laminar interval family: any two projections are nested or have disjoint
interiors.  Laminarity buys three facts the solver exploits:

* every subset of the rectangles is still laminar;
* the widest rectangle of any set can be stabbed by a segment spanning
  exactly its own width;
* stabbing it splits the rest of the set into four independent parts: the
  rects left of it, those right of it, and those nested in it strictly
  below and strictly above the stab height.

The DP's states are the rect sets it reaches, as bitmasks over the rects
ordered widest first, so a set's widest rect is its lowest set bit.  Per
rect it holds the masks of the rects left and right of it, and per stab
height those of the rects wholly below and wholly above it, so a state's
four parts are a few integer ANDs.  Those masks come from one ranked pass
per axis: each rect's bit is ORed into the bucket of each of its edges'
ranks, and every mask is a prefix or suffix OR of the buckets, so setting
up costs a sort per axis and O(n) ORs.  Solving a whole instance, every
state reached is the set of rects inside some box spanned by coordinate
ranks, so there are never more states than the O(n^4) boxes a DP over
boxes would keep, and in practice far fewer, since many boxes hold the
same set.  The memo outlives a call, so the prices of many subsets of one
instance share it.  Callers pass x spans as integers, and the DP reads y
off the instance's integer view, so nothing below compares Fractions.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Sequence
from itertools import accumulate, filterfalse
from operator import or_

from .core import Instance, ParameterError, Segment, Solution, _built


def is_laminar(inst: Instance) -> bool:
    """True iff every pair of x-projections is nested or interior-disjoint.

    Shared endpoints count as disjoint.  In (left, -right) order each span
    must end inside the innermost span still open where it starts.
    """
    g = inst._grid
    open_ends: list[int] = []
    for a, neg_b in sorted({(a, -b) for a, b in zip(g.xl, g.xr)}):
        while open_ends and open_ends[-1] <= a:
            open_ends.pop()
        if open_ends and open_ends[-1] < -neg_b:
            return False
        open_ends.append(-neg_b)
    return True


def _laminar_dp(
    inst: Instance, spans: Sequence[tuple[int, int]]
) -> tuple[list[int], Callable[[int], int], Callable[[int], list[tuple[int, int]]]]:
    """The DP over sets of the rects of ``inst``, whose x-spans on integers
    are ``spans``: (bits, solve, stabs).

    bits[i] is rect i's bit in a state.  Bits follow the key (-width, id),
    so a state's lowest bit is its widest rect, lowest id first.
    solve(mask) is the least cost, in units of the span integers, of
    stabbing the rects of ``mask``.  stabs(mask) lists that optimum as
    (i, j) pairs, rect i stabbed by its own span at rect j's top edge, in
    the order of (left, right, height), and asserts that their widths add
    up to solve(mask).  Both share one memo across calls.

    A state of one rect is stabbed at its own top edge.  Any other stabs its
    widest rect W at the level, among the instance's top edges within W's
    [yb, yt], that minimizes the cost of the rects nested in W strictly
    below and strictly above it; the first strictly cheapest level wins.
    Top edges suffice because any segment can be shifted up to the nearest
    top edge without changing what it stabs.  The level that wins depends
    only on the state's rects and the instance's top edges, and its cost is
    the state's optimum.  States wait on an explicit stack, so a chain of n
    of them, such as n x-disjoint rects, needs no recursion; a state whose
    parts are all solved when it is expanded is finished there.

    The masks are built in one ranked pass per axis, on closed boundaries.
    On x, rect p's bit is ORed into the bucket of its right edge's rank and
    into that of its left edge's rank among the distinct x edges.  The
    rects left of p, with xr <= xl[p], are the prefix OR of the right-edge
    buckets through xl[p]'s rank; those right of it, with xl >= xr[p], the
    suffix OR of the left-edge buckets from xr[p]'s rank.  On y, the levels
    are the distinct top edges in order, and rect p's bit is ORed into the
    bucket of its top edge's index and into that of ``bisect_left(tops,
    yb)``, the first level not under its bottom.  Below level k lie the
    rects of the top buckets before k (yt < top), above it those of the
    bottom buckets after k (yb > top), and rect p's levels run from its
    bottom's index to its top's.

    The spans must be laminar, which the DP does not check: approx8's
    dyadic spans are, and ``solve_laminar`` checks with ``is_laminar``.
    """
    rects, g = inst.rects, inst._grid
    n = len(rects)
    keys = [(a - b, r.id) for (a, b), r in zip(spans, rects)]
    order = sorted(range(n), key=keys.__getitem__)
    # everything below is indexed by bit position p, rect order[p]
    xl = [spans[i][0] for i in order]
    xr = [spans[i][1] for i in order]
    yt = [g.yt[i] for i in order]
    width = [b - a for a, b in zip(xl, xr)]

    # x: per rank of the distinct edges, the rects that end there and those
    # that start there
    xrank = {v: r for r, v in enumerate(sorted({*xl, *xr}))}
    ends = [0] * len(xrank)
    starts = [0] * len(xrank)
    bits = [0] * n
    for p, i in enumerate(order):
        bits[i] = bit = 1 << p
        ends[xrank[xr[p]]] |= bit
        starts[xrank[xl[p]]] |= bit
    ended = list(accumulate(ends, or_))  # ended[r]: the rects ending at rank r or before
    started = list(accumulate(reversed(starts), or_))[::-1]  # started[r]: starting at r or after
    left = [ended[xrank[a]] for a in xl]
    right = [started[xrank[b]] for b in xr]

    # y: the stab levels are the distinct top edges, as k indexing tops; per
    # rect, tk is the level of its top edge and bk the first level not under
    # its bottom, and per level the rects whose top is there and those whose
    # bk it is.  This loop is kept apart from the one on x: growing four
    # arrays of big integers in one loop fragments the heap, and raised the
    # peak RSS of approx8 on 16,000 uniform rects from 44 to 51 MiB
    tops = sorted(set(yt))
    ytop = {t: k for k, t in enumerate(tops)}
    tk = [ytop[t] for t in yt]
    bk = [bisect_left(tops, g.yb[i]) for i in order]
    topped = [0] * len(tops)
    floored = [0] * (len(tops) + 1)
    for p, (k, j) in enumerate(zip(tk, bk)):
        topped[k] |= 1 << p
        floored[j] |= 1 << p
    below = [0, *accumulate(topped[:-1], or_)]  # below[k]: tk < k
    above = list(accumulate(reversed(floored), or_))[-2::-1]  # above[k]: bk > k
    split = [b | a for b, a in zip(below, above)]
    levels = [range(j, k + 1) for j, k in zip(bk, tk)]

    cost = {0: 0}
    level: dict[int, int] = {}  # state -> k of the level its widest rect is stabbed at

    def solve(root: int) -> int:
        # ints wait to be expanded; tuples (state, widest, left, right, plan)
        # to be finished once every part is solved
        todo: list = [root]
        while todo:
            frame = todo.pop()
            if frame.__class__ is tuple:
                m, p, lm, rm, plan = frame
            else:
                m = frame
                if m in cost:
                    continue  # solved meanwhile as part of another state
                low = m & -m
                p = low.bit_length() - 1
                if m == low:  # a lone rect, stabbed at its own top edge
                    cost[m] = width[p]
                    level[m] = tk[p]
                    continue
                lm = m & left[p]
                rm = m & right[p]
                inner = m ^ low ^ lm ^ rm
                # adjacent levels that split the nested rects alike cost
                # alike, and the first of them is the one a strict minimum
                # keeps; going up, below only gains and above only loses
                # rects, and the two are disjoint, so two levels split alike
                # when their union splits alike
                plan = []
                subs = [lm, rm]
                last = -1
                for k in levels[p]:
                    both = inner & split[k]
                    if both != last:
                        lo = inner & below[k]
                        plan.append((k, lo, both ^ lo))
                        subs += (lo, both ^ lo)
                        last = both
                missing = [*filterfalse(cost.__contains__, subs)]
                if missing:
                    todo.append((m, p, lm, rm, plan))
                    todo += missing
                    continue
            best = None
            for k, lo, hi in plan:
                c = cost[lo] + cost[hi]
                if best is None or c < best:
                    best = c
                    best_k = k
            cost[m] = width[p] + cost[lm] + cost[rm] + best
            level[m] = best_k
        return cost[root]

    def stabs(root: int) -> list[tuple[int, int]]:
        solve(root)
        out = []
        todo = [root]
        while todo:
            m = todo.pop()
            if not m:
                continue
            low = m & -m
            p = low.bit_length() - 1
            k = level[m]
            # the rect stabbed at level k's top edge: the last with that top
            out.append((xl[p], xr[p], tops[k], order[p], order[topped[k].bit_length() - 1]))
            if m != low:
                lm = m & left[p]
                rm = m & right[p]
                inner = m ^ low ^ lm ^ rm
                todo += (lm, rm, inner & below[k], inner & above[k])
        assert sum(b - a for a, b, *_ in out) == cost[root], "reconstructed stabs disagree with the DP value"
        out.sort()
        return [(i, j) for *_, i, j in out]

    return bits, solve, stabs


def solve_laminar(inst: Instance) -> Solution:
    """Exact optimum for a laminar instance: run the DP over rect sets
    (``_laminar_dp``) on all of them, on the x spans of the instance's
    integer view, and build the stabs.

    Raises ParameterError on input that ``is_laminar`` rejects.
    """
    if not is_laminar(inst):
        raise ParameterError("instance is not laminar")
    rects = inst.rects
    g = inst._grid
    _, _, stabs = _laminar_dp(inst, list(zip(g.xl, g.xr)))
    picked = stabs((1 << len(rects)) - 1)
    return Solution(tuple(_built(Segment, rects[i].xl, rects[i].xr, rects[j].yt) for i, j in picked))
