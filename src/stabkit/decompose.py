"""Shifted-grid decomposition into cheap sub-instances.

Two stages:

* ``strip_partition`` lays a family of vertical lines spaced max_width/eps
  apart, tries every grid shift, pays to stab the rectangles crossed by the
  cheapest family, and groups the untouched rectangles into vertical strips.
* ``horizontal_cuts`` sweeps a strip bottom-up and inserts a full-width
  horizontal cut whenever the 8-approximation cost of the rectangles already
  passed exceeds CUT_FACTOR * w / eps^2 (CUT_FACTOR = 8), yielding y-separated
  chunks of bounded optimum.

Composed by ``decompose``, the paid segments cost O(eps) times the optimum
while every remaining chunk has optimum at most 8w/eps^2 + w/eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .approx8 import approx8
from .core import Instance, ParameterError, Rect, Segment, Solution, _open_unit, as_scalar
from .core import instance_to_json, solution_to_json

CUT_FACTOR = 8


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


def crossing_rects(inst: Instance, z: Fraction, spacing: Fraction) -> list[Rect]:
    """Rects whose interior is crossed by some line x = z + i * spacing.

    A rect touching a line only at its boundary is not crossed; it belongs
    wholly to one strip.
    """
    # the first line right of xl lies (z - xl) mod spacing past it, or a full
    # spacing past it when a line runs along xl
    return [r for r in inst.rects if ((z - r.xl) % spacing or spacing) < r.width]


def strip_partition(inst: Instance, eps) -> StripPartition:
    """Choose the cheapest grid shift, pay for the crossed rects, strip the rest.

    Shifts run over all multiples of max_width * eps / n below the spacing
    max_width / eps (n/eps^2 of them); the cover for the crossed rectangles
    is the 8-approximation, priced once per distinct crossed set.  Ties
    between shifts go to the smallest one.  The paid cover costs at most
    16 * eps * OPT and every strip spans at most max_width / eps in x.
    """
    eps = _open_unit(eps, "eps")
    if not inst.rects:
        return StripPartition((), (), Fraction(0), Fraction(0))

    w = inst.max_width
    spacing = w / eps
    step = w * eps / len(inst.rects)
    covers: dict[frozenset[int], tuple[Solution, Fraction]] = {}
    for k in range(math.ceil(spacing / step)):
        crossed = crossing_rects(inst, k * step, spacing)
        ids = frozenset(r.id for r in crossed)
        if ids not in covers:
            covers[ids] = (approx8(Instance(tuple(crossed))), k * step)
    # min keeps the first of equal costs, so ties go to the smallest shift
    crossed_ids, (cover, z_star) = min(covers.items(), key=lambda item: item[1][0].cost)

    groups: dict[int, list[Rect]] = {}
    for r in inst.rects:
        if r.id in crossed_ids:
            continue
        i = math.floor((r.xl - z_star) / spacing)
        groups.setdefault(i, []).append(r)
    strips = tuple(
        Strip(Instance(tuple(groups[i])), z_star + i * spacing, z_star + (i + 1) * spacing)
        for i in sorted(groups)
    )
    return StripPartition(tuple(cover.segments), strips, z_star, spacing)


def horizontal_cuts(strip: Instance, eps, width, span: tuple[Fraction, Fraction]) -> CutResult:
    """Sweep cut heights bottom-up and slice the strip into cheap chunks.

    At each distinct top edge z the sweep prices the rectangles lying entirely
    below z (by the 8-approximation; that set changes only at top edges); once
    that exceeds CUT_FACTOR * w / eps^2 it emits a cut segment across the whole
    strip at z, removes everything the cut stabs, closes the chunk of
    rectangles strictly below z, and continues above.  The recorded cost per
    chunk is the trigger value (the plain 8-approx cost for the final chunk),
    an upper bound on the chunk's optimum.  Total cut length is at most
    eps * OPT of the strip.

    ``width`` is the max width w of the instance being decomposed and
    ``span`` the x-range every cut spans; it must contain the strip.
    """
    eps = _open_unit(eps, "eps")
    if not strip.rects:
        return CutResult((), (), ())
    w = as_scalar(width)
    x0, x1 = span
    if x0 > min(r.xl for r in strip.rects) or max(r.xr for r in strip.rects) > x1:
        raise ParameterError("span does not contain the strip")
    if x1 - x0 > w / eps:
        raise ParameterError("strip exceeds the allowed width max_width/eps")

    threshold = CUT_FACTOR * w / eps**2
    remaining = list(strip.rects)
    cuts: list[Segment] = []
    chunks: list[Instance] = []
    costs: list[Fraction] = []
    while remaining:
        for z in sorted({r.yt for r in remaining}):
            cost = approx8(Instance(tuple(r for r in remaining if r.yt <= z))).cost
            if cost > threshold:
                break
        else:
            # the last step priced every remaining rect
            chunks.append(Instance(tuple(remaining)))
            costs.append(cost)
            break
        cuts.append(Segment(x0, x1, z))
        closed = [r for r in remaining if r.yt < z]
        if closed:
            chunks.append(Instance(tuple(closed)))
            costs.append(cost)
        remaining = [r for r in remaining if r.yb > z]
    return CutResult(tuple(cuts), tuple(chunks), tuple(costs))


def decompose(inst: Instance, eps) -> Decomposition:
    """Strip partition, then horizontal cuts inside every strip.

    Every input rect is either stabbed by the paid segments or lies in
    exactly one sub-instance; each sub-instance has optimum at most
    8w/eps^2 + w/eps where w is the instance's max width.
    """
    eps = _open_unit(eps, "eps")
    parts = strip_partition(inst, eps)
    paid = list(parts.segments)
    subs: list[Instance] = []
    bounds: list[Fraction] = []
    for strip in parts.strips:
        cut = horizontal_cuts(strip.instance, eps, inst.max_width, (strip.x0, strip.x1))
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
