"""8-approximation: round to a laminar instance, solve it exactly, stretch back.

Rounding widens every rectangle to the next power of two and left-aligns it
on the grid of that width, which makes the x-projections dyadic intervals and
hence laminar.  Any solution of the rounded instance, stretched to double
length to the right, is feasible for the original instance; conversely any
original solution rounds to a laminar-feasible one at a factor of 4, so the
exact laminar optimum stays within a factor 8 of the true optimum.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import Instance, Rect, Segment, Solution, ceil_log2, pow2
from .laminar import solve_laminar


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


def _approx8_rounded(rounded: Instance) -> tuple[Fraction, Solution]:
    """approx8 up to the stretch, on rects already rounded by ``to_laminar``:
    (the approx8 cost, the laminar optimum of ``rounded``).

    approx8 stretches every segment of that optimum to double length, so its
    cost is exactly twice the optimum's.  Rounding is per rect, so the rounded
    rects of a subset are that subset of the rounded instance: a caller that
    prices many subsets rounds once.
    """
    inner = solve_laminar(rounded)
    return 2 * inner.cost, inner


def approx8(inst: Instance) -> Solution:
    """Round, solve the laminar instance exactly, stretch every segment.

    Output is feasible for the input and costs at most 8 times its optimum.
    """
    _, inner = _approx8_rounded(to_laminar(inst))
    return Solution(tuple(stretch_segment(s) for s in inner.segments))
