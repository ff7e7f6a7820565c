"""Seeded instance generators for tests and benchmarks.

The generator stream is SplitMix64 with plain modulo reduction, documented
below so instances can be reproduced bit-for-bit in any language.  Every
generator draws a fixed, documented sequence of values per rectangle, so the
same (seed, parameters) pair always yields the same instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import Instance, ParameterError, Rect, _as_int, _built, _pair, _positive, _rational, _unit

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 stream: state += 0x9E3779B97F4A7C15; z = state;
    z = (z ^ z>>30) * 0xBF58476D1CE4E5B9; z = (z ^ z>>27) * 0x94D049BB133111EB;
    output z ^ z>>31 (all arithmetic mod 2^64).

    ``below(n)`` reduces with a plain modulo: biased in general but exact to
    reproduce.
    """

    def __init__(self, seed: int):
        self.state = _as_int(seed, "seed") & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ParameterError("below() needs a positive bound")
        return self.next_u64() % n


@dataclass(frozen=True)
class GenConfig:
    """Coordinate ranges for the uniform generator.

    All draws land on the grid of multiples of 1/resolution.  Heights are
    drawn from [0, h_max]; widths from [w_min, w_max].  A config checks its
    own ranges: 0 < w_min <= w_max, x and y ranges that are non-empty (lo, hi)
    pairs, h_max >= 0 and an integer resolution >= 1.
    """

    x_range: tuple[Fraction, Fraction] = (Fraction(0), Fraction(16))
    y_range: tuple[Fraction, Fraction] = (Fraction(0), Fraction(16))
    w_min: Fraction = Fraction(1, 2)
    w_max: Fraction = Fraction(4)
    h_max: Fraction = Fraction(4)
    resolution: int = 4

    def __post_init__(self):
        object.__setattr__(self, "w_min", _positive(self.w_min, "w_min"))
        for name in ("w_max", "h_max"):
            object.__setattr__(self, name, _rational(getattr(self, name), name))
        for name in ("x_range", "y_range"):
            lo, hi = _pair(getattr(self, name), name)
            if lo > hi:
                raise ParameterError(f"{name} must be non-empty")
            object.__setattr__(self, name, (lo, hi))
        _as_int(self.resolution, "resolution", 1)
        if not self.w_min <= self.w_max:
            raise ParameterError("requires w_min <= w_max")
        if self.h_max < 0:
            raise ParameterError("h_max must be non-negative")


def _size_and_seed(n, seed) -> None:
    """Integer rect count n >= 0 and integer seed, else a parameter error."""
    _as_int(n, "n", 0)
    _as_int(seed, "seed")


def _instance(rows: list[tuple[int, int, int, int]], den: int) -> Instance:
    """The instance of rects 1..n whose (xl, xr, yb, yt) are ``rows``, as
    integers over ``den``.  Each distinct integer becomes one ``Fraction``,
    which every rect with that coordinate shares.  The generators draw
    xl < xr and yb <= yt by construction, so the rects skip their checks."""
    exact = {v: Fraction(v, den) for v in {v for row in rows for v in row}}
    get = exact.__getitem__
    return Instance(tuple(_built(Rect, i, *map(get, row)) for i, row in enumerate(rows, start=1)))


def gen_uniform(n: int, seed: int, cfg: GenConfig = GenConfig()) -> Instance:
    """n rects with grid-uniform left edges, widths and y-extents.

    Per-rect draw order: xl, width, yb, height; each is uniform over
    {lo, lo + 1/resolution, ...} up to hi of its range.
    """
    _size_and_seed(n, seed)
    rng = SplitMix64(seed)
    res = cfg.resolution
    ranges = (cfg.x_range, (cfg.w_min, cfg.w_max), cfg.y_range, (0, cfg.h_max))
    # each draw is an integer over den, a common multiple of res and of every
    # lo's denominator: lo * den plus one of count multiples of den / res
    den = res * math.lcm(*(lo.denominator for lo, _ in ranges))
    grids = [(int(lo * den), den // res, int((hi - lo) * res) + 1) for lo, hi in ranges]
    rows = []
    for _ in range(n):
        xl, width, yb, height = (base + step * rng.below(count) for base, step, count in grids)
        rows.append((xl, xl + width, yb, yb + height))
    return _instance(rows, den)


def gen_laminar(n: int, seed: int) -> Instance:
    """n rects whose x-projections are dyadic intervals of [0, 2^k], hence laminar.

    Per rect: draw a depth in [0, k], then walk that many left/right halvings
    from the root interval; y is an integer range inside [0, 2n].
    Per-rect draw order: depth, one half-choice per level, yb, height.
    """
    _size_and_seed(n, seed)
    rng = SplitMix64(seed)
    k = max(3, n.bit_length() + 1)
    rows = []
    for _ in range(n):
        depth = rng.below(k + 1)
        lo = 0
        size = 1 << k
        for _ in range(depth):
            size //= 2
            if rng.below(2):
                lo += size
        yb = rng.below(2 * n + 1)
        height = rng.below(2 * n + 1 - yb)
        rows.append((lo, lo + size, yb, yb + height))
    return _instance(rows, 1)


def gen_bounded_ratio(n: int, delta, seed: int) -> Instance:
    """n rects with widths on a 9-point grid spanning [delta, 1].

    Suitable fixture for the bounded-width-ratio scheme.  Per-rect draw
    order: xl, width index, yb, height.  With delta = p/q, the left edge
    xl/4 and the width delta + index * (1 - delta)/8 are integers over 8q.
    """
    _size_and_seed(n, seed)
    p, q = _unit(delta, "delta", closed=True).as_integer_ratio()
    den = 8 * q
    rng = SplitMix64(seed)
    rows = []
    for _ in range(n):
        xl = 2 * q * rng.below(8 * max(n, 1) + 1)
        xr = xl + 8 * p + rng.below(9) * (q - p)
        yb = rng.below(2 * n + 1)
        height = rng.below(2 * n + 1 - yb)
        rows.append((xl, xr, yb * den, (yb + height) * den))
    return _instance(rows, den)
