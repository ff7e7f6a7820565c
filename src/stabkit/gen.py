"""Seeded instance generators for tests and benchmarks.

The generator stream is SplitMix64 with plain modulo reduction, documented
below so instances can be reproduced bit-for-bit in any language.  Every
generator draws a fixed, documented sequence of values per rectangle, so the
same (seed, parameters) pair always yields the same instance.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Instance, ParameterError, Rect, _as_int, _built, _unit

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


def gen_uniform(n: int, seed: int) -> Instance:
    """n rects with grid-uniform left edges, widths and y-extents.

    Every draw is a multiple of 1/4.  Per-rect draw order: xl uniform over
    [0, 16], width over [1/2, 4], yb over [0, 16] and height over [0, 4].
    """
    _size_and_seed(n, seed)
    rng = SplitMix64(seed)
    rows = []
    for _ in range(n):
        xl, width, yb, height = rng.below(65), 2 + rng.below(15), rng.below(65), rng.below(17)
        rows.append((xl, xl + width, yb, yb + height))
    return _instance(rows, 4)


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
