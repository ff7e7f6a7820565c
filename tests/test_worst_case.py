"""The approximation guarantees, searched where they bind.

Random instances never come close to approx8's factor 8 or greedy's
1 + ln n.  These searches steer hypothesis towards high ratios with
``hypothesis.target`` on instances of 1-7 rects on a grid of halves, and
check each ratio against its declared bound, with ``exact_opt`` as OPT.
"""

import math
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st, target

from stabkit import approx8, exact_opt, greedy_cover

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
