from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from stabkit import (
    Instance,
    Rect,
    Segment,
    Solution,
    approx8,
    exact_opt,
    gen_uniform,
    greedy_cover,
    is_laminar,
    pow2,
    solution_to_json,
    solve_laminar,
    stabs,
    to_laminar,
    verify,
)

from stabkit.approx8 import _approx8_prices, _rounded_spans
from stabkit.laminar import _laminar_dp

from .conftest import make_instance
from .helpers import (
    GENERATED_KINDS,
    affine_instance,
    generated_instance,
    per_rect_solution,
    round_rect_fraction,
    round_segment_pow2,
    solve_laminar_full_scan,
)


def frac_rect_st(den=8, max_coord=32):
    return st.tuples(
        st.integers(-max_coord * den, max_coord * den),
        st.integers(1, 6 * den),
        st.integers(0, max_coord),
        st.integers(0, 8),
    ).map(lambda t: Rect(1, F(t[0], den), F(t[0] + t[1], den), t[2], t[2] + t[3]))


def laminar_rect(r: Rect) -> Rect:
    """``r`` as ``to_laminar`` rounds it; rounding is per rect."""
    return to_laminar(Instance((r,))).rects[0]


class TestRoundRect:
    def test_width_three(self):
        assert laminar_rect(Rect(1, 3, 6, 0, 1)) == Rect(1, 0, 4, 0, 1)

    def test_aligned_power_of_two_unchanged(self):
        assert laminar_rect(Rect(1, 0, 4, 0, 1)) == Rect(1, 0, 4, 0, 1)

    def test_width_two_shifts_left(self):
        assert laminar_rect(Rect(1, 5, 7, 0, 3)) == Rect(1, 4, 6, 0, 3)

    @given(frac_rect_st())
    def test_invariants(self, r):
        rect = laminar_rect(r)
        assert rect == round_rect_fraction(r)
        w = r.width
        assert w <= rect.width < 2 * w
        assert rect.xl <= r.xl
        assert r.xr <= rect.xl + 2 * rect.width
        assert rect.width.numerator & (rect.width.numerator - 1) == 0
        assert rect.width.denominator & (rect.width.denominator - 1) == 0
        # left edge sits on the grid of multiples of the new width
        assert (rect.xl / rect.width).denominator == 1


class TestIntegerRounding:
    @staticmethod
    def assert_rounds_as_reference(rects):
        ref = [round_rect_fraction(r) for r in rects]
        e, spans = _rounded_spans(Instance(tuple(rects)))
        assert [(a * pow2(e), b * pow2(e)) for a, b in spans] == [(r.xl, r.xr) for r in ref]
        assert to_laminar(Instance(tuple(rects))) == Instance(tuple(ref))

    @given(
        st.sampled_from(GENERATED_KINDS),
        st.booleans(),
        st.integers(1, 24),
        st.integers(0, 10**6),
        st.integers(-300, 0),
    )
    @settings(max_examples=100)
    def test_generated_matches_fraction_reference(self, kind, mapped, n, seed, shift):
        # the affine image puts x over denominators with factors 3 and 7, and
        # the shift by a multiple of 1/5 moves much of it below zero
        inst = generated_instance(kind, n, seed)
        if mapped:
            inst = affine_instance(inst)
        self.assert_rounds_as_reference(
            [Rect(r.id, r.xl + F(shift, 5), r.xr + F(shift, 5), r.yb, r.yt) for r in inst.rects]
        )

    @given(
        st.lists(
            st.tuples(
                st.integers(-8, 8),
                st.sampled_from([F(0), F(1, 2**40), F(1, 3**9), F(1, 2)]),
                st.integers(-10**4, 10**4),
                st.sampled_from([1, 3, 7, 64]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=100)
    def test_widths_at_and_just_above_a_power_of_two(self, draws):
        # width 2^t rounds to itself, and a hair above 2^t to 2^(t+1)
        rects = [
            Rect(i, F(num, den), F(num, den) + pow2(t) * (1 + above), 0, 1)
            for i, (t, above, num, den) in enumerate(draws, 1)
        ]
        self.assert_rounds_as_reference(rects)
        for r, (t, above, _, _) in zip(to_laminar(Instance(tuple(rects))).rects, draws):
            assert r.width == pow2(t if above == 0 else t + 1)


class TestToLaminar:
    def test_i1(self, i1):
        lam = to_laminar(i1)
        spans = {r.id: (r.xl, r.xr) for r in lam.rects}
        assert spans == {1: (0, 4), 2: (0, 2), 3: (4, 6)}
        assert is_laminar(lam)
        assert [(r.yb, r.yt) for r in lam.rects] == [(r.yb, r.yt) for r in i1.rects]

    def test_aligned_instance_unchanged(self):
        inst = make_instance([(0, 4, 0, 1), (4, 8, 0, 1)])
        lam = to_laminar(inst)
        assert lam == inst

    @given(st.lists(frac_rect_st(), min_size=1, max_size=12))
    def test_always_laminar(self, rects):
        inst = Instance(tuple(Rect(i, r.xl, r.xr, r.yb, r.yt) for i, r in enumerate(rects, 1)))
        lam = to_laminar(inst)
        assert is_laminar(lam)


class TestStretch:
    @pytest.mark.parametrize("sign", [-1, 1])
    @given(st.sampled_from(GENERATED_KINDS), st.integers(0, 12), st.integers(0, 10**6), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_fraction_pipeline(self, sign, kind, n, seed, size):
        # approx8's output is the rounded instance's laminar optimum, every
        # segment [a, b] stretched to [a, 2b - a], in the same order, byte for
        # byte; the reference rounds on Fractions and runs the box DP.  x is
        # scaled by a power of two so that the unit 2**e of the integer
        # spans is below 1 (sign -1) or at least 1 (sign 1): the stretch
        # builds its ends from integers either way
        inst = generated_instance(kind, n, seed)
        e, _ = _rounded_spans(inst)
        target = size if sign > 0 else -1 - size
        f = pow2(target - e) if inst.rects else F(1)
        inst = Instance(tuple(Rect(r.id, r.xl * f, r.xr * f, r.yb, r.yt) for r in inst.rects))
        assert _rounded_spans(inst)[0] == (target if inst.rects else 0)
        laminar = solve_laminar_full_scan(to_laminar(inst)).segments
        expected = Solution(tuple(Segment(s.xl, 2 * s.xr - s.xl, s.y) for s in laminar))
        sol = approx8(inst)
        assert sol.segments == expected.segments
        assert solution_to_json(sol) == solution_to_json(expected)


class TestApprox8:
    def test_i1_pipeline(self, i1):
        sol = approx8(i1)
        assert sol.cost == 12  # laminar optimum 6, doubled by stretching
        assert verify(i1, sol).feasible

    def test_single_rect_bound(self):
        inst = make_instance([(3, 6, 0, 1)])
        sol = approx8(inst)
        assert sol.segments == (Segment(0, 8, 1),)
        assert sol.cost == 8 <= 4 * exact_opt(inst).cost  # 2 * rounded width <= 4w

    def test_empty(self):
        assert approx8(Instance(())).cost == 0

    def test_deterministic_bytes(self, i1):
        assert solution_to_json(approx8(i1)) == solution_to_json(approx8(i1))

    @given(frac_rect_st(), st.integers(0, 7), st.integers(0, 6 * 8), st.integers(0, 48))
    def test_feasibility_transfer(self, r, ynum, extend_l, extend_r):
        # any segment stabbing the rounded rect, stretched, stabs the original
        rect = laminar_rect(r)
        y = rect.yb + F(ynum, 7) * (rect.yt - rect.yb) if rect.yt > rect.yb else rect.yb
        s = Segment(rect.xl - F(extend_l, 8), rect.xr + F(extend_r, 8), y)
        assert stabs(s, rect)
        assert stabs(Segment(s.xl, 2 * s.xr - s.xl, s.y), r)

    @pytest.mark.parametrize(
        "eps, ratio", [(F(1, 4), F(32, 5)), (F(1, 256), F(2048, 257)), (F(1, 10**6), F(8000000, 1000001))]
    )
    def test_tight_family(self, eps, ratio):
        # OPT is one segment [-eps, 2 + eps] at y = 16; both rects round to
        # width 4 but into the cells [0, 4] and [-4, 0], and both segments
        # are stretched to 8: the rounding's 4 and the stretch's 2 both bind
        inst = make_instance([(0, 2 + eps, 4, 16), (-eps, 2, 2, 23)])
        sol = approx8(inst)
        assert verify(inst, sol).feasible
        assert sol.cost == 16
        assert exact_opt(inst).cost == 2 + 2 * eps
        assert sol.cost / exact_opt(inst).cost == ratio == 8 / (1 + eps)

    @given(st.integers(0, 60))
    def test_ratio_at_most_eight(self, seed):
        inst = gen_uniform(seed % 12 + 1, seed)
        sol = approx8(inst)
        opt = exact_opt(inst)
        assert verify(inst, sol).feasible
        assert sol.cost <= 8 * opt.cost

    @given(st.integers(0, 40))
    @settings(max_examples=40)
    def test_rounding_any_solution_covers_laminar_at_4x(self, seed):
        # analysis direction: outward pow2-rounding of a feasible solution is
        # feasible for the rounded instance at no more than 4x the cost
        inst = gen_uniform(seed % 8 + 1, seed)
        lam = to_laminar(inst)
        for sol in (per_rect_solution(inst), greedy_cover(inst)):
            rounded = Solution(tuple(round_segment_pow2(s) for s in sol.segments))
            assert verify(lam, rounded).feasible
            assert rounded.cost <= 4 * sol.cost


def pricer_mask(bit, rects):
    """The pricer mask of ``rects``: their pricer bits ORed."""
    mask = 0
    for r in rects:
        mask |= bit[r.id]
    return mask


class TestApprox8Prices:
    @staticmethod
    def assert_prices_match(inst, data):
        # the empty and the full mask, then random ones
        unit, bit, price = _approx8_prices(inst)
        full = (1 << len(inst.rects)) - 1
        for mask in [0, full, *data.draw(st.lists(st.integers(0, full), max_size=6))]:
            subset = Instance(tuple(r for i, r in enumerate(inst.rects) if mask >> i & 1))
            assert price(pricer_mask(bit, subset.rects)) * unit == approx8(subset).cost

    @given(st.sampled_from(GENERATED_KINDS), st.integers(1, 14), st.integers(0, 10**6), st.data())
    @settings(max_examples=100)
    def test_price_is_the_subset_approx8_cost(self, kind, n, seed, data):
        self.assert_prices_match(generated_instance(kind, n, seed), data)

    @given(st.sampled_from(GENERATED_KINDS), st.integers(1, 40), st.integers(0, 10**6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_price_is_twice_the_rounded_subset_optimum(self, kind, n, seed, data):
        # a price reads the DP over the whole instance's rect sets at the
        # subset's mask; the rounded subset solved on its own, and by the
        # full-scan reference, must agree
        inst = generated_instance(kind, n, seed)
        unit, bit, price = _approx8_prices(inst)
        full = (1 << n) - 1
        for mask in data.draw(st.lists(st.integers(0, full), min_size=1, max_size=4)):
            subset = [r for i, r in enumerate(inst.rects) if mask >> i & 1]
            rounded = to_laminar(Instance(tuple(subset)))
            assert price(pricer_mask(bit, subset)) * unit == 2 * solve_laminar(rounded).cost == 2 * solve_laminar_full_scan(rounded).cost

    @given(st.sampled_from(GENERATED_KINDS), st.integers(1, 30), st.integers(0, 10**6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_prices_share_one_memo_in_any_order(self, kind, n, seed, data):
        # one pricer prices the full set first, so every later price starts
        # from states the full set reached; another prices the same masks
        # in reverse order
        inst = generated_instance(kind, n, seed)
        full = (1 << n) - 1
        masks = [full, *data.draw(st.lists(st.integers(0, full), min_size=1, max_size=6))]
        subsets = [[r for i, r in enumerate(inst.rects) if mask >> i & 1] for mask in masks]
        expected = [2 * solve_laminar_full_scan(to_laminar(Instance(tuple(sub)))).cost for sub in subsets]
        unit, bit, forward = _approx8_prices(inst)
        assert [forward(pricer_mask(bit, sub)) * unit for sub in subsets] == expected
        unit, bit, backward = _approx8_prices(inst)
        assert [backward(pricer_mask(bit, sub)) * unit for sub in reversed(subsets)] == expected[::-1]

    @given(st.sampled_from(GENERATED_KINDS), st.integers(1, 30), st.integers(0, 10**6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_price_never_falls_when_rects_are_added(self, kind, n, seed, data):
        # strip_partition skips a crossed set that holds a priced one; that
        # is exact only if a superset's price is at least its subset's
        inst = generated_instance(kind, n, seed)
        _, bit, price = _approx8_prices(inst)
        full = (1 << n) - 1
        for small, extra in data.draw(st.lists(st.tuples(st.integers(0, full), st.integers(0, full)), max_size=6)):
            subset = [r for i, r in enumerate(inst.rects) if small >> i & 1]
            superset = [r for i, r in enumerate(inst.rects) if (small | extra) >> i & 1]
            assert price(pricer_mask(bit, subset)) <= price(pricer_mask(bit, superset))

    def test_a_top_of_another_rect_moves_the_level_but_not_the_price(self):
        # rect 3's top edge 3 lies within rect 1's [0, 10], below every top
        # edge of {1, 2}: nothing is nested in rect 1, so every level costs
        # the same and the first one wins, 3 in the pricer's DP over all
        # three rects but 10 for {1, 2} solved alone
        inst = make_instance([(0, 4, 0, 10), (4, 8, 20, 21), (8, 9, 0, 3)])
        pair = list(inst.rects[:2])
        _, spans = _rounded_spans(inst)
        bits, _, stabs = _laminar_dp(inst, spans)
        heights = {inst.rects[i].id: inst.rects[j].yt for i, j in stabs(bits[0] | bits[1])}
        assert heights == {1: 3, 2: 21}
        assert {s.y for s in solve_laminar(Instance(tuple(pair))).segments} == {10, 21}
        unit, bit, price = _approx8_prices(inst)
        mask = pricer_mask(bit, pair)
        assert price(mask) * unit == 2 * solve_laminar_full_scan(to_laminar(Instance(tuple(pair)))).cost == 16
        assert price(mask) * unit == approx8(Instance(tuple(pair))).cost

    @given(
        st.lists(
            st.tuples(st.integers(0, 16), st.integers(1, 6), st.integers(0, 6), st.integers(0, 2)),
            min_size=1,
            max_size=10,
        ),
        st.data(),
    )
    @settings(max_examples=100)
    def test_price_is_the_subset_approx8_cost_on_half_integer_grid(self, draws, data):
        # edges and widths on halves: rounded rects share edges and nest,
        # and many rects share top edges
        inst = make_instance([(F(x, 2), F(x + wd, 2), y, y + h) for x, wd, y, h in draws])
        self.assert_prices_match(inst, data)
