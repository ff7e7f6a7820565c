"""The approximation guarantees, searched where they bind.

Random instances never come close to approx8's factor 8 or greedy's
1 + ln n.  These searches steer hypothesis towards high ratios with
``hypothesis.target`` on instances of 1-7 rects on a grid of halves, and
check each ratio against its declared bound, with ``exact_opt`` as OPT.
The decomposition's two stages are searched the same way: the strip
partition's paid cover against 16 * eps * OPT (C3), and each strip's
horizontal cuts against eps * OPT of the strip (C4).  So is the PTAS
against 1 + 17 * eps on bounded widths.
"""

import math
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st, target

from stabkit import approx8, exact_opt, greedy_cover, horizontal_cuts, ptas, strip_partition

from .conftest import make_instance


@st.composite
def small_instances(draw):
    rects = []
    for _ in range(draw(st.integers(1, 7))):
        xl, width = draw(st.integers(0, 16)), draw(st.integers(1, 16))
        yb, height = draw(st.integers(0, 8)), draw(st.integers(0, 6))
        rects.append((F(xl, 2), F(xl + width, 2), yb, yb + height))
    return make_instance(rects)


@settings(max_examples=150)
@given(small_instances())
def test_approx8_within_8_opt(inst):
    ratio = approx8(inst).cost / exact_opt(inst).cost
    target(float(ratio), label="approx8 / OPT")
    assert ratio <= 8


@settings(max_examples=150)
@given(small_instances())
def test_greedy_within_1_plus_ln_n_opt(inst):
    ratio = greedy_cover(inst).cost / exact_opt(inst).cost
    target(float(ratio), label="greedy / OPT")
    assert ratio <= 1 + math.log(len(inst.rects))


@st.composite
def overlapping_runs(draw):
    """1-7 rects on a grid of halves, each overlapping the one before in x.

    The strip partition pays only when every grid shift crosses a rect;
    runs of rects that overlap in x reach that, while independent rects on
    a wide range almost never do.
    """
    rects, xl = [], 0
    for _ in range(draw(st.integers(1, 7))):
        width = draw(st.integers(4, 9))
        yb, height = draw(st.integers(0, 8)), draw(st.integers(0, 6))
        rects.append((F(xl, 2), F(xl + width, 2), yb, yb + height))
        xl += draw(st.integers(0, width - 1))
    return make_instance(rects)


@st.composite
def stacks(draw):
    """1-7 rects of near-equal width and left edge, at any heights.

    A horizontal cut needs a strip priced above 8 * w / eps^2, that is
    several rects of about the max width stacked in one strip.
    """
    rects = []
    for _ in range(draw(st.integers(1, 7))):
        xl, width = draw(st.integers(0, 1)), draw(st.integers(7, 9))
        yb, height = draw(st.integers(0, 8)), draw(st.integers(0, 6))
        rects.append((F(xl, 2), F(xl + width, 2), yb, yb + height))
    return make_instance(rects)


def cost(segments):
    return sum((s.length for s in segments), F(0))


# below eps = 1/2 the C3 bound is tighter than approx8's factor 8 alone
@settings(max_examples=100)
@given(overlapping_runs(), st.sampled_from([F(1, 4), F(1, 3), F(1, 2)]))
def test_strip_partition_paid_within_16_eps_opt(inst, eps):
    paid = cost(strip_partition(inst, eps).segments)
    ratio = paid / (eps * exact_opt(inst).cost)
    target(float(ratio), label="strip_partition paid / (eps * OPT)")
    assert ratio <= 16


# a cut needs a strip priced above 8 * w / eps^2, which 7 rects reach only
# for eps near 1; every strip spans max_width / eps, the longest cut allowed
@settings(max_examples=100)
@given(stacks(), st.sampled_from([F(3, 4), F(7, 8), F(15, 16)]))
def test_horizontal_cuts_within_eps_strip_opt(inst, eps):
    worst = F(0)
    for strip in strip_partition(inst, eps).strips:
        cuts = horizontal_cuts(strip.instance, eps, inst.max_width, (strip.x0, strip.x1)).segments
        worst = max(worst, cost(cuts) / (eps * exact_opt(strip.instance).cost))
    target(float(worst), label="horizontal_cuts / (eps * strip OPT)")
    assert worst <= 1


@st.composite
def bounded_widths(draw):
    """1-10 rects on a grid of halves with widths in [2, 4], so every
    normalized width is at least 1/2, over a range that leaves room for both
    runs of overlapping rects and gaps between them."""
    rects = []
    for _ in range(draw(st.integers(1, 10))):
        xl, width = draw(st.integers(0, 40)), draw(st.integers(4, 8))
        yb, height = draw(st.integers(0, 8)), draw(st.integers(0, 6))
        rects.append((F(xl, 2), F(xl + width, 2), yb, yb + height))
    return make_instance(rects)


@settings(max_examples=100)
@given(bounded_widths(), st.sampled_from([F(1, 8), F(1, 4), F(1, 2)]))
def test_ptas_within_1_plus_17_eps_opt(inst, eps):
    ratio = ptas(inst, eps, F(1, 2)).cost / exact_opt(inst).cost
    target(float(ratio), label="ptas / OPT")
    assert ratio <= 1 + 17 * eps
