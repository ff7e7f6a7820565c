"""The integer view of an instance: built once, inherited by every sub-instance.

Every layer reads ``Instance._grid`` instead of rescaling its rects' Fractions.
A fresh instance is scaled once per axis, whatever solver runs on it; a
strip, chunk, normalized instance or QPTAS residual carries its parent's view
restricted to its own rects, and that view must still read back as the rects'
own coordinates.
"""

import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import stabkit.core as core
import stabkit.schemes as schemes
from stabkit import (
    Instance,
    Rect,
    SchemeParams,
    approx8,
    decompose,
    exact_opt,
    gen_bounded_ratio,
    gen_laminar,
    gen_uniform,
    greedy_cover,
    horizontal_cuts,
    normalize,
    ptas,
    qptas,
    solve_laminar,
    strip_partition,
)

from .helpers import GENERATED_KINDS, affine_instance, generated_instance

HALF = F(1, 2)
# overridden QPTAS parameters that make small instances decompose, guess and
# recurse, as the benchmark's scheme workload does
RECURSING = {"mu": HALF, "klong": 2, "oracle_limit": 3}


@pytest.mark.parametrize(
    "make, solve",
    [
        (lambda: gen_uniform(14, 3), exact_opt),
        (lambda: gen_uniform(14, 3), greedy_cover),
        (lambda: gen_laminar(24, 3), solve_laminar),
        (lambda: gen_uniform(24, 3), approx8),
        (lambda: gen_bounded_ratio(24, HALF, 3), lambda inst: ptas(inst, HALF, F(1, 8))),
        (lambda: gen_uniform(16, 3), lambda inst: qptas(inst, HALF, SchemeParams.derive(16, HALF, **RECURSING))),
        (lambda: gen_uniform(24, 3), lambda inst: decompose(inst, HALF)),
    ],
    ids=["exact_opt", "greedy_cover", "solve_laminar", "approx8", "ptas", "qptas", "decompose"],
)
def test_a_fresh_instance_is_scaled_at_most_once_per_axis(monkeypatch, make, solve):
    inst = make()
    xs = [v for r in inst.rects for v in (r.xl, r.xr)]
    ys = [v for r in inst.rects for v in (r.yb, r.yt)]
    original = core._scaled
    calls = []

    def counted(values, *args):
        # a solution's length sums the segments' ends, not the instance's
        if sys._getframe(1).f_code is not core._length.__code__:
            calls.append(list(values))
        return original(values, *args)

    monkeypatch.setattr(core, "_scaled", counted)
    solve(inst)
    assert calls, "the solver read no integer view"
    assert all(call in (xs, ys) for call in calls), "scaled something other than the instance's coordinates"
    assert calls.count(xs) <= 1 and calls.count(ys) <= 1, f"{len(calls)} scalings"


def assert_inherited_view(inst: Instance) -> None:
    """``inst`` already carries a view, and each of its integers over its
    axis's denominator is the rect's own coordinate."""
    assert "_grid" in inst.__dict__, "a sub-instance without its parent's view"
    g = inst._grid
    assert len(g.xl) == len(g.xr) == len(g.yb) == len(g.yt) == len(inst.rects)
    for r, xl, xr, yb, yt in zip(inst.rects, g.xl, g.xr, g.yb, g.yt):
        assert (F(xl, g.dx), F(xr, g.dx), F(yb, g.dy), F(yt, g.dy)) == (r.xl, r.xr, r.yb, r.yt)


@pytest.mark.parametrize("positions", [[], [3], [4, 0], [2, 5, 1, 3]], ids=["none", "one", "two", "four"])
def test_restrict_picks_rects_and_view_for_any_count(positions):
    # one position and none take their own path, since itemgetter of one
    # index returns the bare item and of none is an error
    inst = gen_uniform(6, 1)
    sub = inst._restrict(positions)
    assert sub.rects == tuple(inst.rects[p] for p in positions)
    assert_inherited_view(sub)
    g, h = inst._grid, sub._grid
    assert (h.dx, h.dy) == (g.dx, g.dy)
    assert all(type(part) is tuple for part in (sub.rects, h.xl, h.xr, h.yb, h.yt))


def shifted(inst: Instance, shift: F) -> Instance:
    return Instance(tuple(Rect(r.id, r.xl + shift, r.xr + shift, r.yb, r.yt) for r in inst.rects))


@given(
    st.sampled_from(GENERATED_KINDS),
    st.booleans(),
    st.integers(1, 12),
    st.integers(0, 10**6),
    st.integers(-300, 0),
    st.sampled_from([HALF, F(1, 3), F(1, 4)]),
)
@settings(max_examples=60, deadline=None)
def test_every_sub_instance_inherits_an_exact_view(kind, mapped, n, seed, shift, eps):
    # the affine image puts x over denominators with factors 3 and 7, and the
    # shift by a multiple of 1/5 moves much of it below zero
    inst = generated_instance(kind, n, seed)
    if mapped:
        inst = affine_instance(inst)
    inst = shifted(inst, F(shift, 5))

    norm, _ = normalize(inst, eps)
    assert_inherited_view(norm)
    for source in (inst, norm):
        parts = strip_partition(source, eps)
        for strip in parts.strips:
            assert_inherited_view(strip.instance)
            cut = horizontal_cuts(strip.instance, eps, source.max_width, (strip.x0, strip.x1))
            for chunk in cut.chunks:
                assert_inherited_view(chunk)
        for sub in decompose(source, eps).sub_instances:
            assert_inherited_view(sub)

    # every instance the QPTAS recursion decomposes or solves exactly: the
    # normalized root, its chunks and the residuals left by its guesses
    seen = []

    def spy(function):
        def wrapper(sub, *args, **kwargs):
            seen.append(sub)
            return function(sub, *args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schemes, "decompose", spy(schemes.decompose))
        mp.setattr(schemes, "exact_opt", spy(schemes.exact_opt))
        qptas(inst, eps, SchemeParams.derive(n, eps, **RECURSING))
    assert seen
    for sub in seen:
        assert_inherited_view(sub)
