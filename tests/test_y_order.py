"""Every solver reads y only through its order.

Solving the image of an instance under a strictly increasing map of the
heights gives the same segments in the same order: the same x values, and the
map applied to each y.  ``normalize`` relies on this to leave y as it is.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from stabkit import (
    Decomposition,
    Instance,
    Rect,
    SchemeParams,
    Segment,
    Solution,
    approx8,
    decompose,
    exact_opt,
    gen_bounded_ratio,
    gen_laminar,
    gen_uniform,
    greedy_cover,
    ptas,
    qptas,
    solve_laminar,
)

HALF = F(1, 2)


def lift(y: F) -> F:
    """Strictly increasing on the rationals, and far from affine."""
    return y**3 + y


def lift_instance(inst: Instance) -> Instance:
    return Instance(tuple(Rect(r.id, r.xl, r.xr, lift(r.yb), lift(r.yt)) for r in inst.rects))


def lift_segments(segments) -> tuple[Segment, ...]:
    return tuple(Segment(s.xl, s.xr, lift(s.y)) for s in segments)


def lift_output(out):
    if isinstance(out, Solution):
        return Solution(lift_segments(out.segments))
    return Decomposition(
        lift_segments(out.paid_segments),
        tuple(lift_instance(sub) for sub in out.sub_instances),
        out.opt_upper_bounds,
    )


def bounded(n, seed):
    return gen_bounded_ratio(n, HALF, seed)


def run_qptas(inst):
    params = SchemeParams.derive(len(inst.rects), HALF, mu=HALF, klong=4, oracle_limit=4)
    return qptas(inst, HALF, params=params)


# name -> (instance generator, solver)
SOLVERS = {
    "exact": (gen_uniform, exact_opt),
    "greedy": (gen_uniform, greedy_cover),
    "approx8": (gen_uniform, approx8),
    "laminar-dp": (gen_laminar, solve_laminar),
    "ptas": (bounded, lambda inst: ptas(inst, HALF, F(1, 8))),
    "qptas": (gen_uniform, run_qptas),
    "decompose": (gen_uniform, lambda inst: decompose(inst, HALF)),
}


@pytest.mark.parametrize("name", sorted(SOLVERS))
@settings(max_examples=30)
@given(n=st.integers(1, 11), seed=st.integers(0, 10_000))
def test_solvers_read_y_only_through_its_order(name, n, seed):
    generate, solve = SOLVERS[name]
    inst = generate(n, seed)
    assert solve(lift_instance(inst)) == lift_output(solve(inst))
