"""8-approximation: round to a laminar instance, solve it exactly, stretch back.

Rounding widens every rectangle to the next power of two and left-aligns it
on the grid of that width, which makes the x-projections dyadic intervals and
hence laminar.  Any solution of the rounded instance, stretched to double
length to the right, is feasible for the original instance; conversely any
original solution rounds to a laminar-feasible one at a factor of 4, so the
exact laminar optimum stays within a factor 8 of the true optimum.

Rounding runs on integers (``_rounded_spans``), and ``approx8`` feeds those
straight to the laminar DP, so it builds no rounded ``Rect`` and no
``Fraction`` before its output segments.  It stretches each segment on
those integers too, to [a, 2b - a] in units of 2**e, and builds each end as
one ``Fraction`` of an integer and a power of two (``_times_pow2``), never
as a product of Fractions.  The decomposition prices many subsets of one
instance by approx8's cost alone; ``_approx8_prices`` serves those prices,
as integers of one unit, from one rounding and one DP, on masks of the DP's
rect bits, and is the one place that reads the cost as twice the laminar
optimum.  A price is monotone in its mask, which lets the
decomposition skip a set that holds one it has priced.  Dyadic spans are
laminar, so neither approx8 nor the pricer checks them: the DP trusts them.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .core import Instance, Rect, Segment, Solution, _built, _ceil_log2, pow2
from .laminar import _laminar_dp


def _rounded_spans(inst: Instance) -> tuple[int, list[tuple[int, int]]]:
    """(e, spans): every rect's rounded x-span as integers in units of 2**e.

    A rect of width w rounds to [left, left + 2**t] with t = ceil_log2(w) and
    left = floor(xl / 2**t) * 2**t, computed on the instance's integer view;
    e is the least t, so every rounded edge is an integer multiple of 2**e.
    """
    g = inst._grid
    den = g.dx
    exps = [_ceil_log2(b - a, den) for a, b in zip(g.xl, g.xr)]
    e = min(exps, default=0)
    spans = []
    for a, t in zip(g.xl, exps):
        # floor(a / (den * 2**t)) multiples of 2**t, that is of 2**(t - e) units
        q = a // (den << t) if t >= 0 else (a << -t) // den
        left = q << (t - e)
        spans.append((left, left + (1 << (t - e))))
    return e, spans


def _times_pow2(v: int, e: int) -> Fraction:
    """v * 2**e, built as one Fraction from integers: no Fraction product."""
    return Fraction(v << e) if e >= 0 else Fraction(v, 1 << -e)


def to_laminar(inst: Instance) -> Instance:
    """Round every rectangle; ids are preserved.

    A rect widens to the power of two w' with w' / 2 < width <= w' and
    left-aligns to the grid of multiples of w', so width <= w' < 2 * width,
    the new xl <= xl, and xr <= new xl + 2w'.
    """
    e, spans = _rounded_spans(inst)
    unit = pow2(e)
    return Instance(tuple(Rect(r.id, a * unit, b * unit, r.yb, r.yt) for r, (a, b) in zip(inst.rects, spans)))


def _approx8_prices(inst: Instance) -> tuple[Fraction, dict[int, int], Callable[[int], int]]:
    """(unit, bit, price): approx8's cost of any rects of ``inst`` is
    ``price(mask) * unit``, where ``mask`` ORs ``bit[r.id]`` over the rects,
    an integer count of one unit per instance, so the prices of one instance
    compare as integers.  A caller maps its rects to their bits once and
    carries masks from there, so a price builds no list and looks up no id.

    approx8 stretches every segment of the rounded subset's laminar optimum
    to double length, so its cost is exactly twice that optimum.  Rounding is
    per rect, so the rounded rects of a subset are that subset of the rounded
    instance, and a subset of a laminar family is laminar: ``inst`` is
    rounded once, unchecked, and one DP over its rect sets serves every
    price, a price being the DP's value on the priced rects' mask.  The
    prices share that DP's memo.  A state's levels are then the top edges of
    all of ``inst``, not only of the priced rects, which may move the level
    chosen but not the cost: past a level that is no top of the state's own
    rects, the next one above stabs a superset of the nested rects and
    leaves the same ones below.

    A price never falls when rects are added: a cover of the rounded rects
    of a set covers those of any subset, so the laminar optimum, and twice
    it, is monotone in the mask.
    """
    e, spans = _rounded_spans(inst)
    bits, solve, _ = _laminar_dp(inst, spans)
    return pow2(e + 1), {r.id: b for r, b in zip(inst.rects, bits)}, solve  # stretching doubles every segment


def approx8(inst: Instance) -> Solution:
    """Round, solve the laminar instance exactly, stretch every segment.

    Output is feasible for the input and costs at most 8 times its optimum.
    """
    rects = inst.rects
    e, spans = _rounded_spans(inst)
    _, _, stabs = _laminar_dp(inst, spans)
    segments = []
    for i, j in stabs((1 << len(rects)) - 1):
        a, b = spans[i]  # stretched to [a, 2b - a]
        segments.append(_built(Segment, _times_pow2(a, e), _times_pow2(2 * b - a, e), rects[j].yt))
    return Solution(tuple(segments))
