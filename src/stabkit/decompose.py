"""Shifted-grid decomposition into cheap sub-instances.

Two stages:

* ``strip_partition`` lays a family of vertical lines spaced max_width/eps
  apart, finds every distinct set of rectangles some grid shift crosses by an
  integer sweep over the shifts where that set changes, pays to stab the
  cheapest set, and groups the untouched rectangles into vertical strips.
* ``horizontal_cuts`` sweeps a strip bottom-up and inserts a full-width
  horizontal cut whenever the 8-approximation cost of the rectangles already
  passed exceeds CUT_FACTOR * w / eps^2 (CUT_FACTOR = 8), yielding y-separated
  chunks of bounded optimum.

Both stages price rect subsets by the 8-approximation's cost alone, through
``approx8._approx8_prices``: ``decompose`` rounds the instance's rects once
and hands that one pricer to both stages.  A stage maps its rects to the
pricer's bits once per call and prices masks of those bits, built up as its
sweep goes: ``strip_partition`` toggles the crossed set's mask next to its
position mask, and ``horizontal_cuts`` adds each top edge's rects to the
mask and clears it at a cut.  The prices share one memo of the laminar DP
over the instance's rect sets, so a set reached by an earlier price, or
inside one, costs a lookup, and come as integer counts of one unit per
pricer, so they compare as integers.  A price never falls when rects are
added, so ``strip_partition`` does not price a crossed set that holds one
it has priced: that set cannot be strictly cheaper than the best, and ties
go to the smaller shift.  Called on its own, a stage builds its own pricer.
Both stages read the instance's integer view, and every strip and chunk
inherits it.

Composed by ``decompose``, the paid segments cost O(eps) times the optimum
while every remaining chunk has optimum at most 8w/eps^2 + w/eps.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .approx8 import _approx8_prices, approx8
from .core import Instance, ParameterError, Rect, Segment, Solution, _built, _pair, _positive, _rational, _unit
from .core import instance_to_json, solution_to_json

CUT_FACTOR = 8

# (unit, bit, price): approx8's cost of a set of rects is price(mask) * unit,
# mask ORing bit[r.id] over the set, built once by ``_approx8_prices``
_Pricer = tuple[Fraction, dict[int, int], Callable[[int], int]]


def _chunk_bound(eps: Fraction) -> Fraction:
    """CUT_FACTOR / eps^2 + 1 / eps: the optimum bound of every ``decompose``
    chunk, in units of the max width."""
    return CUT_FACTOR / eps**2 + 1 / eps


@dataclass(frozen=True)
class Strip:
    """Rectangles lying fully between two adjacent vertical grid lines."""

    instance: Instance
    x0: Fraction
    x1: Fraction


@dataclass(frozen=True)
class StripPartition:
    segments: tuple[Segment, ...]  # paid cover for the rects crossed by the chosen lines
    strips: tuple[Strip, ...]
    offset: Fraction  # the winning grid shift
    spacing: Fraction


@dataclass(frozen=True)
class CutResult:
    segments: tuple[Segment, ...]  # paid horizontal cuts
    chunks: tuple[Instance, ...]
    observed_costs: tuple[Fraction, ...]  # 8-approx cost recorded per chunk


@dataclass(frozen=True)
class Decomposition:
    paid_segments: tuple[Segment, ...]
    sub_instances: tuple[Instance, ...]
    opt_upper_bounds: tuple[Fraction, ...]


def crossing_rects(inst: Instance, z, spacing) -> list[Rect]:
    """Rects whose interior is crossed by some line x = z + i * spacing.

    A rect touching a line only at its boundary is not crossed; it belongs
    wholly to one strip.  z and spacing are exact scalars, spacing positive;
    anything else is a parameter error.  The test runs on the instance's
    integer view, with z and spacing brought onto a common denominator.
    """
    z = _rational(z, "z")
    spacing = _positive(spacing, "spacing")
    g = inst._grid
    # x over dx, z and spacing all over dx * z.denominator * spacing.denominator
    f = z.denominator * spacing.denominator
    z_int = z.numerator * g.dx * spacing.denominator
    s = spacing.numerator * g.dx * z.denominator
    # the first line right of xl lies (z - xl) mod spacing past it, or a full
    # spacing past it when a line runs along xl
    return [r for r, a, b in zip(inst.rects, g.xl, g.xr) if ((z_int - a * f) % s or s) < (b - a) * f]


def strip_partition(inst: Instance, eps, *, _price: _Pricer | None = None) -> StripPartition:
    """Choose the cheapest grid shift, pay for the crossed rects, strip the rest.

    Shifts run over all multiples of max_width * eps / n below the spacing
    max_width / eps (n/eps^2 of them); the cover for the crossed rectangles
    is the 8-approximation.  The crossed set changes only at the shifts where
    a line enters or leaves a rect, so an exact integer sweep over those event
    shifts meets every distinct crossed set at its smallest shift.  That is
    at most 4n + 1 sets, each priced at most once on rects rounded once;
    only the winner's cover is built.  Ties between shifts go to the
    smallest one.  A price never falls when rects are added, so a set that
    holds a set priced before it costs no less than the best so far and is
    not priced.
    The paid cover costs at most 16 * eps * OPT and every strip spans at
    most max_width / eps in x.

    ``_price`` is ``_approx8_prices`` of ``inst`` or of an instance holding
    its rects, when the caller has built it.
    """
    eps = _unit(eps, "eps")
    if not inst.rects:
        return StripPartition((), (), Fraction(0), Fraction(0))

    rects, n = inst.rects, len(inst.rects)
    g = inst._grid
    # on the instance's integer view, rescaled by f so that, with eps = p/q
    # and max width W over dx, the spacing W q / p and the step W p / (q n)
    # are integers s and t over dx * f too: shift k sits at k * t in [0, s),
    # and rect i is crossed exactly while k * t lies in the open arc
    # (a, a + width) of the circle [0, s), a = xl mod s; width < s, so the
    # arc is one k-run or, when it wraps past s, two
    p, q = eps.numerator, eps.denominator
    f = p * q * n
    widest = g.widest()
    s, t = widest * q * q * n, widest * p * p
    den = g.dx * f
    spacing = Fraction(s, den)
    x = [(a * f, b * f) for a, b in zip(g.xl, g.xr)]
    shifts = (s - 1) // t + 1  # ceil(s / t)
    _, bit, price = _approx8_prices(inst) if _price is None else _price
    bits = [bit[r.id] for r in rects]
    # shift k -> the masks, of positions and of pricer bits, of the rects
    # whose crossing flips at k
    toggles = {0: (0, 0)}
    for i, (xl, xr) in enumerate(x):
        a = xl % s
        b = a + xr - xl
        runs = [(a // t + 1, (min(b, s) - 1) // t)]
        if b > s:
            runs.append((0, (b - s - 1) // t))
        for lo, hi in runs:
            if lo <= hi:
                for at in (lo, hi + 1):
                    old, old_bits = toggles.get(at, (0, 0))
                    toggles[at] = (old ^ 1 << i, old_bits ^ bits[i])
    first: dict[int, tuple[int, int]] = {}  # crossed mask -> (its smallest shift, its pricer mask)
    crossed_mask = priced_mask = 0
    for k in sorted(toggles):
        if k >= shifts:
            break
        flip, flip_bits = toggles[k]
        crossed_mask ^= flip
        priced_mask ^= flip_bits
        first.setdefault(crossed_mask, (k, priced_mask))

    best = None
    priced: list[int] = []  # the pricer masks priced so far
    # masks come in order of their smallest shift and only a strictly cheaper
    # set replaces the best, so ties go to the smallest shift; a set holding
    # a priced one costs at least the best, so it cannot replace it
    for mask, (k, priced_mask) in first.items():
        if any(not p & ~priced_mask for p in priced):
            continue
        priced.append(priced_mask)
        cost = price(priced_mask)
        if best is None or cost < best[0]:
            best = (cost, mask, k)
    _, mask, k_star = best
    z_star = Fraction(k_star * t, den)
    crossed = [i for i in range(n) if mask >> i & 1]
    assert crossing_rects(inst, z_star, spacing) == [rects[i] for i in crossed], (
        "the sweep disagrees with the crossing test"
    )

    # rect i lies in strip floor((xl - z*) / spacing), on the same integers
    groups: dict[int, list[int]] = {}
    for i, (xl, _) in enumerate(x):
        if not mask >> i & 1:
            groups.setdefault((xl - k_star * t) // s, []).append(i)
    strips = tuple(
        Strip(inst._restrict(groups[i]), Fraction(k_star * t + i * s, den), Fraction(k_star * t + (i + 1) * s, den))
        for i in sorted(groups)
    )
    return StripPartition(approx8(inst._restrict(crossed)).segments, strips, z_star, spacing)


def horizontal_cuts(
    strip: Instance, eps, width, span: tuple[Fraction, Fraction], *, _price: _Pricer | None = None
) -> CutResult:
    """Sweep cut heights bottom-up and slice the strip into cheap chunks.

    One pass over the strip's distinct top edges z prices the remaining
    rectangles with top edge at most z (by the 8-approximation, on rects
    rounded once; that set changes only at top edges); once that exceeds
    CUT_FACTOR * w / eps^2 it emits a cut segment across the whole strip at
    z, removes everything the cut stabs, closes the chunk of rectangles
    strictly below z, and continues above.  The recorded cost per
    chunk is the trigger value (the plain 8-approx cost for the final chunk),
    an upper bound on the chunk's optimum.  Total cut length is at most
    eps * OPT of the strip.

    ``width`` is the max width w > 0 of the instance being decomposed and
    ``span`` the x-range every cut spans; it must contain the strip.
    ``_price`` is ``_approx8_prices`` of the strip or of an instance holding
    its rects, when the caller has built it; the prices are the same.  The
    priced set grows by the rects of each top edge and starts empty again
    past a cut, where every rect left lies above the cut.
    """
    eps, w = _unit(eps, "eps"), _positive(width, "width")
    x0, x1 = _pair(span, "span")
    if not strip.rects:
        return CutResult((), (), ())
    rects, g = strip.rects, strip._grid
    # the checks and the trigger on integers, with x0 = a/b, x1 = c/d,
    # w = wn/wd and eps = p/q
    a, b = x0.as_integer_ratio()
    c, d = x1.as_integer_ratio()
    wn, wd = w.as_integer_ratio()
    p, q = eps.as_integer_ratio()
    if a * g.dx > min(g.xl) * b or max(g.xr) * d > c * g.dx:
        raise ParameterError("span does not contain the strip")
    if (c * b - a * d) * wd * p > wn * q * b * d:  # x1 - x0 > w / eps
        raise ParameterError("strip exceeds the allowed width max_width/eps")

    unit, bit, price = _approx8_prices(strip) if _price is None else _price
    bits = [bit[r.id] for r in rects]
    # a price of whole units exceeds CUT_FACTOR * w / eps^2 once it exceeds
    # the floor of that over the unit
    un, ud = unit.as_integer_ratio()
    limit = CUT_FACTOR * wn * q * q * ud // (wd * p * p * un)
    yb, yt = g.yb, g.yt
    remaining = range(len(rects))  # positions in the strip
    cuts: list[Segment] = []
    chunks: list[Instance] = []
    costs: list[Fraction] = []
    at_top: dict[int, list[int]] = {}  # top edge -> the positions with it
    for p, top in enumerate(yt):
        at_top.setdefault(top, []).append(p)
    # the pricer mask of the remaining rects with top edge at most z: past a
    # cut every remaining rect lies above it, so the mask starts empty there
    # and takes in the rects of each top edge still remaining.  A top edge of
    # no remaining rect prices the empty set or a set priced (and not cut)
    # before: it cuts nowhere
    mask, last_cut = 0, min(yb) - 1
    for z, at in sorted(at_top.items()):
        for p in at:
            if yb[p] > last_cut:
                mask |= bits[p]
        cost = price(mask)
        if cost > limit:
            cuts.append(_built(Segment, x0, x1, rects[at[-1]].yt))
            closed = [p for p in remaining if yt[p] < z]
            if closed:
                chunks.append(strip._restrict(closed))
                costs.append(cost * unit)
            remaining = [p for p in remaining if yb[p] > z]
            mask, last_cut = 0, z
    if remaining:
        # the last top edge priced every remaining rect
        chunks.append(strip._restrict(remaining))
        costs.append(cost * unit)
    return CutResult(tuple(cuts), tuple(chunks), tuple(costs))


def decompose(inst: Instance, eps) -> Decomposition:
    """Strip partition, then horizontal cuts inside every strip.

    Every input rect is either stabbed by the paid segments or lies in
    exactly one sub-instance; each sub-instance has optimum at most
    8w/eps^2 + w/eps where w is the instance's max width.  The instance is
    rounded once, and its one pricer serves both stages.
    """
    eps = _unit(eps, "eps")
    price = _approx8_prices(inst)
    parts = strip_partition(inst, eps, _price=price)
    paid = list(parts.segments)
    subs: list[Instance] = []
    bounds: list[Fraction] = []
    for strip in parts.strips:
        cut = horizontal_cuts(strip.instance, eps, inst.max_width, (strip.x0, strip.x1), _price=price)
        paid.extend(cut.segments)
        subs.extend(cut.chunks)
        bounds.extend(cut.observed_costs)
    return Decomposition(tuple(paid), tuple(subs), tuple(bounds))


def decomposition_to_json(dec: Decomposition) -> dict:
    paid = solution_to_json(Solution(dec.paid_segments))
    return {
        "paid_segments": paid["segments"],
        "paid_cost": paid["cost"],
        "sub_instances": [instance_to_json(sub) for sub in dec.sub_instances],
        "opt_upper_bounds": [str(b) for b in dec.opt_upper_bounds],
    }
