"""8-approximation: round to a laminar instance, solve it exactly, stretch back.

Rounding widens every rectangle to the next power of two and left-aligns it
on the grid of that width, which makes the x-projections dyadic intervals and
hence laminar.  Any solution of the rounded instance, stretched to double
length to the right, is feasible for the original instance; conversely any
original solution rounds to a laminar-feasible one at a factor of 4, so the
exact laminar optimum stays within a factor 8 of the true optimum.

The decomposition prices many subsets of one instance by approx8's cost
alone; ``_approx8_prices`` serves those prices from one rounding and one
ranking, and is the one place that reads the cost as twice the laminar
optimum.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction

from .core import Instance, Rect, Segment, Solution, ceil_log2, pow2
from .laminar import _box_dp, _rank, solve_laminar


def round_rect(r: Rect) -> Rect:
    """Widen to the power of two w' with w' / 2 < width <= w', left-align to
    the grid of multiples of w'.

    Guarantees width <= w' < 2 * width, new xl <= xl, and xr <= new xl + 2w'.
    """
    w2 = pow2(ceil_log2(r.width))
    left = math.floor(r.xl / w2) * w2
    return Rect(r.id, left, left + w2, r.yb, r.yt)


def to_laminar(inst: Instance) -> Instance:
    """Round every rectangle; ids are preserved."""
    return Instance(tuple(round_rect(r) for r in inst.rects))


def stretch_segment(s: Segment) -> Segment:
    """Double the length, anchored at the left endpoint: [a, b] -> [a, 2b - a]."""
    return Segment(s.xl, 2 * s.xr - s.xl, s.y)


def _approx8_prices(inst: Instance) -> Callable[[list[Rect]], Fraction]:
    """approx8's cost of any rects of ``inst``, as a function of those rects.

    approx8 stretches every segment of the rounded subset's laminar optimum
    to double length, so its cost is exactly twice that optimum.  Rounding is
    per rect, so the rounded rects of a subset are that subset of the rounded
    instance, and a subset of a laminar family is laminar: ``inst`` is
    rounded, checked and ranked once, and each price runs only the box DP on
    the priced rects' rank tuples, found by id.
    """
    xs, ys, den, ranks = _rank(to_laminar(inst))
    by_id = {t[1]: t for t in ranks}
    root = (0, len(xs) - 1, 0, len(ys) - 1)

    def price(rects: list[Rect]) -> Fraction:
        cost, _ = _box_dp([by_id[r.id] for r in rects], root)
        return Fraction(2 * cost, den)

    return price


def approx8(inst: Instance) -> Solution:
    """Round, solve the laminar instance exactly, stretch every segment.

    Output is feasible for the input and costs at most 8 times its optimum.
    """
    return Solution(tuple(stretch_segment(s) for s in solve_laminar(to_laminar(inst)).segments))
