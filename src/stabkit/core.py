"""Exact geometric primitives for stabbing axis-aligned rectangles.

A horizontal segment *stabs* a rectangle when it reaches from the rectangle's
left edge to its right edge at a height inside the rectangle's vertical
extent (all boundaries closed).  The goal everywhere in this package is a set
of segments of minimum total length stabbing every rectangle.

All coordinates are exact rationals (``fractions.Fraction``) at the API.
Solvers never touch floating point, so feasibility predicates, rounding to
powers of two and cost comparisons are exact.  Inside, every layer reads one
integer view per instance (``Instance._grid``: each coordinate as an integer
over one denominator per axis), built once when first read.  A sub-instance
(a strip, a chunk, a residual, the normalized instance) inherits its
parent's view restricted to its own rects instead of rescaling, so a
``Fraction`` is built only for what the API returns.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate


class ParameterError(ValueError):
    """Invalid parameter or malformed input data."""


class OracleLimitError(RuntimeError):
    """Instance exceeds the size limit of the exhaustive exact solver."""


class BudgetError(RuntimeError):
    """Search budget exhausted before the run could be certified."""


class InfeasibleError(RuntimeError):
    """No feasible solution exists within the requested search space."""


def as_scalar(value) -> Fraction:
    """Coerce ints, Fractions and "p/q" or decimal strings to an exact rational.

    Floats are rejected: every coordinate entering the solvers must be exact.
    """
    # the exact classes first: nearly every value is one, and a type test is
    # far cheaper than the ABC checks below
    cls = type(value)
    if cls is Fraction:
        return value
    if cls is int:
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParameterError(f"not a coordinate value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            # a decimal exponent beyond Python's default int-string digit limit
            # would expand into a huge integer before any other check
            if "e" in value or "E" in value:
                _, _, exponent = value.lower().partition("e")
                if abs(int(exponent)) > 4300:
                    raise ValueError("decimal exponent out of range")
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParameterError(f"cannot parse scalar {value!r}") from exc
    raise ParameterError(f"inexact or unsupported scalar type: {type(value).__name__}")


def _not_rational(value, name: str) -> ParameterError:
    """The error for a ``value`` of ``name`` that ``as_scalar`` rejects: it
    names the parameter and the type, never the value."""
    got = "an unparsable string" if isinstance(value, str) else type(value).__name__
    return ParameterError(f"{name} must be an exact rational, not {got}")


def _rational(value, name: str) -> Fraction:
    """The parameter ``name`` as an exact rational, by ``as_scalar``; a value
    of another type, or a string that does not parse, is a parameter error
    that names the parameter and the type, never the value."""
    try:
        return as_scalar(value)
    except ParameterError:
        raise _not_rational(value, name) from None


def _pair(value, name: str) -> tuple[Fraction, Fraction]:
    """``value`` as a pair (lo, hi) of exact rationals, such as a span.
    Whether lo <= hi is left to the caller."""
    if not isinstance(value, (tuple, list)) or len(value) != 2:
        raise ParameterError(f"{name} must be a pair (lo, hi)")
    lo, hi = value
    return _rational(lo, name), _rational(hi, name)


def _unit(value, name: str, closed: bool = False) -> Fraction:
    """``value`` as an exact rational in (0, 1), or in (0, 1] when ``closed``:
    an accuracy such as eps, or a width bound such as delta.  The message
    names the interval, not the value, whose digits may be too many to print."""
    value = _rational(value, name)
    p, q = value.numerator, value.denominator
    if not (0 < p < q or closed and p == q):
        raise ParameterError(f"{name} must lie in (0, 1{']' if closed else ')'}")
    return value


def _positive(value, name: str) -> Fraction:
    """``value`` as an exact rational > 0: a scale, a spacing or a width.
    Like ``_unit``'s, the message does not print the value."""
    value = _rational(value, name)
    if value.numerator <= 0:
        raise ParameterError(f"{name} must be positive")
    return value


def _scaled(values: list[Fraction], den: int = 1) -> tuple[int, list[int]]:
    """(d, [v * d for v in values]) for the least common multiple d of ``den``
    and the values' denominators: every v * d is an integer, order, sums and
    differences scale exactly, and integers compare and hash far faster than
    Fractions.  An integer over ``den`` is one over d times d // den."""
    den = math.lcm(den, *(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def ceil_log2(x) -> int:
    """Smallest integer t with x <= 2**t, for x > 0.  t may be negative."""
    x = _positive(x, "ceil_log2's argument")
    return _ceil_log2(x.numerator, x.denominator)


def _ceil_log2(p: int, q: int) -> int:
    """Smallest integer t with p / q <= 2**t, for positive integers p and q,
    which need not be in lowest terms."""

    def fits(t: int) -> bool:
        return p <= (q << t) if t >= 0 else (p << -t) <= q

    t = p.bit_length() - q.bit_length()
    while not fits(t):
        t += 1
    while fits(t - 1):
        t -= 1
    return t


def pow2(t: int) -> Fraction:
    """2**t as an exact rational; t may be negative."""
    return Fraction(1 << t) if t >= 0 else Fraction(1, 1 << -t)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


def _exact_fields(record, names: tuple[str, ...]) -> list[Fraction]:
    """The fields ``names`` of a record being built, each coerced by
    ``as_scalar`` and stored back unless it is already a ``Fraction``.
    Edges then compare by integer cross-products, denominators being
    positive, without the ``Fraction`` comparison protocol."""
    values = []
    for name in names:
        value = getattr(record, name)
        if type(value) is not Fraction:
            value = as_scalar(value)
            object.__setattr__(record, name, value)
        values.append(value)
    return values


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned rectangle with a caller-chosen id.

    Zero-width rectangles are rejected: a zero-length segment would stab them
    trivially and they break every width-ratio argument downstream.
    """

    id: int
    xl: Fraction
    xr: Fraction
    yb: Fraction
    yt: Fraction

    def __post_init__(self):
        # the messages name the rule, never the id or the values, whose
        # text may be thousands of digits long
        xl, xr, yb, yt = _exact_fields(self, ("xl", "xr", "yb", "yt"))
        if xl.numerator * xr.denominator >= xr.numerator * xl.denominator:
            raise ParameterError("rect requires xl < xr")
        if yb.numerator * yt.denominator > yt.numerator * yb.denominator:
            raise ParameterError("rect requires yb <= yt")

    @property
    def width(self) -> Fraction:
        return self.xr - self.xl


@dataclass(frozen=True)
class Segment:
    """Closed horizontal segment [xl, xr] at height y."""

    xl: Fraction
    xr: Fraction
    y: Fraction

    def __post_init__(self):
        xl, xr, _ = _exact_fields(self, ("xl", "xr", "y"))
        if xl.numerator * xr.denominator > xr.numerator * xl.denominator:
            raise ParameterError("segment requires xl <= xr")

    @property
    def length(self) -> Fraction:
        return self.xr - self.xl


def _built(cls, *values):
    """``cls(*values)`` for ``Rect`` or ``Segment`` values the library built
    from valid ones, which pass its checks by construction: exact rationals,
    edges in order.  Skips the checks and their Fraction comparisons."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


def _length(segments: Sequence[Segment]) -> Fraction:
    """The total length of ``segments``, summed as integers over the least
    common denominator of their ends."""
    den, ends = _scaled([v for s in segments for v in (s.xl, s.xr)])
    return Fraction(sum(ends[1::2]) - sum(ends[::2]), den)


@dataclass(frozen=True)
class _Grid:
    """The integer view of an instance: rect p spans ``[xl[p], xr[p]]`` over
    ``dx`` and ``[yb[p], yt[p]]`` over ``dy``.

    Order, sums and differences of the integers are those of the
    coordinates, scaled by the denominator of their axis, which may be any
    common multiple of the coordinates' own denominators.  Four flat tuples
    keep the view small on an instance that holds it.
    """

    dx: int
    dy: int
    xl: tuple[int, ...]
    xr: tuple[int, ...]
    yb: tuple[int, ...]
    yt: tuple[int, ...]

    @classmethod
    def of(cls, rects: tuple[Rect, ...]) -> "_Grid":
        """The view of ``rects`` on the least common denominator per axis."""
        dx, xs = _scaled([v for r in rects for v in (r.xl, r.xr)])
        dy, ys = _scaled([v for r in rects for v in (r.yb, r.yt)])
        return cls(dx, dy, tuple(xs[::2]), tuple(xs[1::2]), tuple(ys[::2]), tuple(ys[1::2]))

    def widest(self) -> int:
        """The greatest rect width, over ``dx``; 0 with no rects."""
        return max(map(operator.sub, self.xr, self.xl), default=0)


@dataclass(frozen=True)
class Instance:
    """A finite set of rectangles to stab.  Rect ids must be unique; two
    rects that share one are named by their positions, counted from 1."""

    rects: tuple[Rect, ...]

    def __post_init__(self):
        object.__setattr__(self, "rects", tuple(self.rects))
        seen: dict[int, int] = {}  # id -> the position of the first rect with it
        for pos, r in enumerate(self.rects, start=1):
            first = seen.setdefault(r.id, pos)
            if first != pos:
                raise ParameterError(f"rects #{first} and #{pos} share an id")

    @classmethod
    def _viewed(cls, rects: tuple[Rect, ...], grid: _Grid) -> "Instance":
        """The instance of ``rects``, distinct rects of a valid instance,
        whose integer view is ``grid``."""
        inst = cls.__new__(cls)
        object.__setattr__(inst, "rects", rects)
        inst.__dict__["_grid"] = grid
        return inst

    @cached_property
    def _grid(self) -> _Grid:
        return _Grid.of(self.rects)

    def _restrict(self, positions: Sequence[int]) -> "Instance":
        """The sub-instance of the rects at ``positions``, in that order, with
        this instance's view restricted to them: the one way a layer makes a
        sub-instance, so no sub-instance is rescaled."""
        rects, g = self.rects, self._grid
        if len(positions) > 1:
            pick = operator.itemgetter(*positions)
            return Instance._viewed(pick(rects), _Grid(g.dx, g.dy, pick(g.xl), pick(g.xr), pick(g.yb), pick(g.yt)))
        if positions:
            # itemgetter of one index returns the bare item, not a 1-tuple
            (p,) = positions
            return Instance._viewed((rects[p],), _Grid(g.dx, g.dy, (g.xl[p],), (g.xr[p],), (g.yb[p],), (g.yt[p],)))
        return Instance._viewed((), _Grid(g.dx, g.dy, (), (), (), ()))

    @cached_property
    def max_width(self) -> Fraction:
        return Fraction(self._grid.widest(), self._grid.dx)


@dataclass(frozen=True)
class Solution:
    """A set of stabbing segments.  Cost is the plain sum of the lengths;
    overlapping segments are not merged."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))

    @cached_property
    def cost(self) -> Fraction:
        return _length(self.segments)


@dataclass(frozen=True)
class Transform:
    """Record of instance normalization, sufficient to map a solution back.

    Forward map: x' = (x - x_shift) * x_scale; y is left as it is, and
    x_scale must be positive.  ``presolved`` holds (rect id, segment) pairs
    for rectangles stabbed greedily during normalization, in normalized
    coordinates.
    """

    x_scale: Fraction
    x_shift: Fraction
    presolved: tuple[tuple[int, Segment], ...]

    def __post_init__(self):
        object.__setattr__(self, "x_scale", _positive(self.x_scale, "x_scale"))
        object.__setattr__(self, "x_shift", _rational(self.x_shift, "x_shift"))

    @classmethod
    def identity(cls) -> "Transform":
        return cls(Fraction(1), Fraction(0), ())


@dataclass(frozen=True)
class VerifyReport:
    feasible: bool
    unstabbed_ids: tuple[int, ...]
    recomputed_cost: Fraction


# ---------------------------------------------------------------------------
# Predicates and verification
# ---------------------------------------------------------------------------


def stabs(s: Segment, r: Rect) -> bool:
    """True iff s crosses r from left edge to right edge at a height inside r.

    All boundaries are closed: touching an edge or corner counts.
    """
    return s.xl <= r.xl and s.xr >= r.xr and r.yb <= s.y <= r.yt


def _segment_view(grid: _Grid, segs: tuple[Segment, ...]) -> tuple[int, int, list[int], list[int]]:
    """(fx, fy, sx, sy): the segments' x ends, flat, and heights as integers
    on common multiples of the view's denominators, which rescale the view's
    integers by fx and fy."""
    dx, sx = _scaled([v for s in segs for v in (s.xl, s.xr)], grid.dx)
    dy, sy = _scaled([s.y for s in segs], grid.dy)
    return dx // grid.dx, dy // grid.dy, sx, sy


def verify(inst: Instance, sol: Solution) -> VerifyReport:
    """Check feasibility of a solution against an instance, from scratch.

    The rects are read off the instance's integer view and the segments
    scaled onto it.  Per distinct segment height, the segments are sorted by
    left end with a running maximum of right ends, so a rect asks each height
    inside ``[yb, yt]`` one ``bisect`` for the farthest reach of the segments
    starting at or before its left edge.
    """
    g = inst._grid
    fx, fy, sx, sy = _segment_view(g, sol.segments)
    rows: dict[int, list[tuple[int, int]]] = {}  # height -> (xl, xr) of its segments
    for a, b, h in zip(sx[::2], sx[1::2], sy):
        rows.setdefault(h, []).append((a, b))
    heights = sorted(rows)
    lefts, reach = [], []  # per height: sorted left ends, running max of right ends
    for h in heights:
        row = sorted(rows[h])
        lefts.append([a for a, _ in row])
        reach.append(list(accumulate((b for _, b in row), max)))

    def stabbed(p: int) -> bool:
        for h in range(bisect_left(heights, g.yb[p] * fy), bisect_right(heights, g.yt[p] * fy)):
            i = bisect_right(lefts[h], g.xl[p] * fx)
            if i and reach[h][i - 1] >= g.xr[p] * fx:
                return True
        return False

    unstabbed = tuple(sorted(r.id for p, r in enumerate(inst.rects) if not stabbed(p)))
    cost = Fraction(sum(sx[1::2]) - sum(sx[::2]), fx * g.dx)
    return VerifyReport(feasible=not unstabbed, unstabbed_ids=unstabbed, recomputed_cost=cost)


def candidate_segments(inst: Instance) -> list[Segment]:
    """All segments [xl_i, xr_j] x yt_k over rect boundary coordinates, in
    lexicographic (xl, xr, y) order.

    Any feasible solution can be rearranged to use only these: shrink each
    segment onto the extreme left/right edges it must reach, then shift it up
    to the nearest top edge.  At most n^3 segments; duplicates are removed.
    """
    lefts = sorted({r.xl for r in inst.rects})
    rights = sorted({r.xr for r in inst.rects})
    tops = sorted({r.yt for r in inst.rects})
    return [
        Segment(a, b, y)
        for a in lefts
        for b in rights[bisect_left(rights, a) :]
        for y in tops
    ]


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def normalize(inst: Instance, eps) -> tuple[Instance, Transform]:
    """Rescale x to max width 1 and presolve slivers; y is left as it is.

    * x is translated so the leftmost edge sits at 0 and scaled so the widest
      rectangle has width exactly 1.
    * every rectangle of scaled width <= eps/n is removed and covered by a
      segment exactly spanning it at its top edge; those segments are
      recorded in ``transform.presolved``.

    eps must lie in (0, 1), as everywhere else.  On the instance's integer
    view, with x = X/D, leftmost edge S/D and max width W/D, the normalized
    x is (X - S)/W: the normalized instance's view subtracts one integer per
    edge and takes W as its x denominator, and keeps the y view as it is.
    Every solver reads y only through its order, so no y map is needed.
    Returns (normalized instance, transform).
    """
    eps = _unit(eps, "eps")
    if not inst.rects:
        return inst, Transform.identity()

    g = inst._grid
    shift = min(g.xl)
    width = g.widest()
    # scaled width (b - a) / width <= eps / n, on integers
    limit = eps.numerator * width
    per_rect = eps.denominator * len(inst.rects)
    kept: list[int] = []
    presolved: list[tuple[int, Segment]] = []
    for p, (r, a, b) in enumerate(zip(inst.rects, g.xl, g.xr)):
        if (b - a) * per_rect <= limit:
            presolved.append((r.id, _built(Segment, Fraction(a - shift, width), Fraction(b - shift, width), r.yt)))
        else:
            kept.append(p)
    sub = inst._restrict(kept)
    view = sub._grid
    xl = tuple(a - shift for a in view.xl)
    xr = tuple(b - shift for b in view.xr)
    rects = tuple(
        _built(Rect, r.id, Fraction(a, width), Fraction(b, width), r.yb, r.yt) for r, a, b in zip(sub.rects, xl, xr)
    )
    norm = Instance._viewed(rects, _Grid(width, g.dy, xl, xr, view.yb, view.yt))
    return norm, Transform(Fraction(g.dx, width), Fraction(shift, g.dx), tuple(presolved))


def denormalize(sol: Solution, t: Transform) -> Solution:
    """Map a solution on the normalized instance back to original coordinates.

    Each x end v maps to v / x_scale + x_shift, built as one Fraction from
    the numerators and denominators of v and the transform.  Presolved
    segments are appended; the cost is recomputed exactly.
    """
    p, q = t.x_scale.numerator, t.x_scale.denominator
    s, d = t.x_shift.numerator, t.x_shift.denominator

    def back(v: Fraction) -> Fraction:
        return Fraction(v.numerator * q * d + s * v.denominator * p, v.denominator * p * d)

    segments = (*sol.segments, *(seg for _, seg in t.presolved))
    return Solution(tuple(_built(Segment, back(seg.xl), back(seg.xr), seg.y) for seg in segments))


def split_independent(inst: Instance) -> list[Instance]:
    """Split into connected components of the open-overlap graph on x-projections.

    Rectangles whose x-projections share only an endpoint land in different
    components; no segment can stab rectangles of two components more cheaply
    than treating the components separately, so optima add up.  Each
    component inherits the instance's integer view.

    The exact oracle splits only at positive gaps (``oracle._x_blocks``).
    Where two components touch, a segment across the shared endpoint costs
    the same as its two pieces, and the oracle's tie-break may pick it; a
    split there keeps every cost but can change which optimum is returned.
    """
    if not inst.rects:
        return []
    rects, g = inst.rects, inst._grid
    ordered = sorted(range(len(rects)), key=lambda p: (g.xl[p], g.xr[p], rects[p].id))
    components: list[list[int]] = []
    current = [ordered[0]]
    reach = g.xr[ordered[0]]
    for p in ordered[1:]:
        a, b = g.xl[p], g.xr[p]
        if a >= reach:
            components.append(current)
            current = [p]
            reach = b
        else:
            current.append(p)
            reach = max(reach, b)
    components.append(current)
    return [inst._restrict(c) for c in components]


def shrink_solution(inst: Instance, sol: Solution) -> Solution:
    """Cosmetic post-pass: shrink each segment onto the rects it is charged with.

    Every rect is assigned to the first segment (in given order) that stabs
    it; each segment is then shrunk to the minimal x-span covering its
    assigned rects, and segments with no assignment are dropped.  Feasibility
    is preserved and the cost never increases.

    The rects are read off the instance's integer view, the segments scaled
    onto it, and the rects sorted by left edge, so a segment [a, b] scans
    only the rects with a <= xl <= b.
    """
    rects, g = inst.rects, inst._grid
    fx, fy, sx, sy = _segment_view(g, sol.segments)
    xl, xr = [a * fx for a in g.xl], [b * fx for b in g.xr]
    yb, yt = [b * fy for b in g.yb], [t * fy for t in g.yt]
    order = sorted(range(len(rects)), key=xl.__getitem__)
    lefts = [xl[p] for p in order]
    taken: set[int] = set()
    out = []
    for a, b, y, s in zip(sx[::2], sx[1::2], sy, sol.segments):
        window = order[bisect_left(lefts, a) : bisect_right(lefts, b)]
        # the rects this segment takes, by ascending left edge
        group = [p for p in window if p not in taken and xr[p] <= b and yb[p] <= y <= yt[p]]
        if group:
            taken.update(group)
            right = max(group, key=xr.__getitem__)
            out.append(_built(Segment, rects[group[0]].xl, rects[right].xr, s.y))
    return Solution(tuple(out))


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------


def instance_to_json(inst: Instance) -> dict:
    """Instance wire format: {"rects": [{"xl": "0", "xr": "4", ...}, ...]}.

    Ids are emitted only when they differ from positional 1..n.
    """
    positional = all(r.id == i for i, r in enumerate(inst.rects, start=1))
    rects = []
    for r in inst.rects:
        entry = {
            "xl": str(r.xl),
            "xr": str(r.xr),
            "yb": str(r.yb),
            "yt": str(r.yt),
        }
        if not positional:
            entry["id"] = r.id
        rects.append(entry)
    return {"rects": rects}


def _json_entries(obj, field: str, kind: str) -> list[dict]:
    """The list of objects under ``field`` of a wire-format document."""
    if not isinstance(obj, dict) or not isinstance(obj.get(field), list):
        raise ParameterError(f'{kind} JSON must be an object with a "{field}" list')
    for pos, entry in enumerate(obj[field], start=1):
        if not isinstance(entry, dict):
            raise ParameterError(f"{field[:-1]} #{pos} is not an object")
    return obj[field]


def _as_int(value, what: str, least: int | None = None) -> int:
    """An integer parameter or JSON integer, of at least ``least`` when
    given; floats, booleans, strings and every other type are rejected by
    their type, never by the value, whose text may be any length."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{what} must be an integer, not {type(value).__name__}")
    if least is not None and value < least:
        raise ParameterError(f"{what} must be at least {least}, got {value}")
    return value


def _entry_values(
    entry: dict, names: tuple[str, ...], kind: str, pos: int, parsed: dict[str, Fraction]
) -> list[Fraction]:
    """The fields ``names`` of the ``pos``-th ``kind`` entry of a wire-format
    document, as exact rationals.

    ``parsed`` maps each string already read from the document to its
    value, so a load parses each distinct string once and rects that share a
    coordinate share its ``Fraction``; the caller keeps it for one call, so
    nothing outlives the load.  Other values go through ``as_scalar`` each
    time: ``True``, ``1`` and ``1.0`` are one dict key but not one value.
    A value that fails is not recorded, so the first bad value in entry
    order raises, naming the entry and the field but never the value.
    """
    values = []
    for name in names:
        try:
            value = entry[name]
        except KeyError:
            raise ParameterError(f"{kind} #{pos} is missing field {name!r}") from None
        text = type(value) is str
        exact = parsed.get(value) if text else None
        if exact is None:
            try:
                exact = as_scalar(value)
            except ParameterError:
                raise _not_rational(value, f"{kind} #{pos} {name}") from None
            if text:
                parsed[value] = exact
        values.append(exact)
    return values


def instance_from_json(obj: dict) -> Instance:
    """The instance of a wire-format document (see ``instance_to_json``).
    Each distinct coordinate string is parsed once per call, which pays
    where coordinates repeat, as they do on any grid.  A rect that fails a
    check is named by its position, counted from 1, never by its id."""
    parsed: dict[str, Fraction] = {}
    rects = []
    for pos, rd in enumerate(_json_entries(obj, "rects", "instance"), start=1):
        rid = _as_int(rd.get("id", pos), f"rect #{pos}: id")
        values = _entry_values(rd, ("xl", "xr", "yb", "yt"), "rect", pos, parsed)
        try:
            rects.append(Rect(rid, *values))
        except ParameterError as exc:
            # "rect requires ...": the rule, for the rect at this position
            raise ParameterError(f"rect #{pos}{str(exc).removeprefix('rect')}") from None
    return Instance(tuple(rects))


def solution_to_json(sol: Solution) -> dict:
    return {
        "segments": [
            {"xl": str(s.xl), "xr": str(s.xr), "y": str(s.y)}
            for s in sol.segments
        ],
        "cost": str(sol.cost),
    }


def solution_from_json(obj: dict) -> Solution:
    """The solution of a wire-format document, its coordinates read as by
    ``instance_from_json``."""
    parsed: dict[str, Fraction] = {}
    segments = [
        Segment(*_entry_values(sd, ("xl", "xr", "y"), "segment", pos, parsed))
        for pos, sd in enumerate(_json_entries(obj, "segments", "solution"), start=1)
    ]
    # the cost field, if present, is ignored: cost is always recomputed
    return Solution(tuple(segments))
