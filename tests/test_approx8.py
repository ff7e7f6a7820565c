from fractions import Fraction as F

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
    round_rect,
    solution_to_json,
    solve_laminar,
    stabs,
    stretch_segment,
    to_laminar,
    verify,
)

from stabkit.approx8 import _approx8_prices

from .conftest import make_instance
from .helpers import (
    GENERATED_KINDS,
    generated_instance,
    per_rect_solution,
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


class TestRoundRect:
    def test_width_three(self):
        assert round_rect(Rect(1, 3, 6, 0, 1)) == Rect(1, 0, 4, 0, 1)

    def test_aligned_power_of_two_unchanged(self):
        assert round_rect(Rect(1, 0, 4, 0, 1)) == Rect(1, 0, 4, 0, 1)

    def test_width_two_shifts_left(self):
        assert round_rect(Rect(1, 5, 7, 0, 3)) == Rect(1, 4, 6, 0, 3)

    @given(frac_rect_st())
    def test_invariants(self, r):
        rounded = round_rect(r)
        w = r.width
        assert w <= rounded.width < 2 * w
        assert rounded.xl <= r.xl
        assert r.xr <= rounded.xl + 2 * rounded.width
        assert rounded.width.numerator & (rounded.width.numerator - 1) == 0
        assert rounded.width.denominator & (rounded.width.denominator - 1) == 0
        # left edge sits on the grid of multiples of the new width
        assert (rounded.xl / rounded.width).denominator == 1


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
    def test_examples(self):
        assert stretch_segment(Segment(4, 6, 3)) == Segment(4, 8, 3)
        assert stretch_segment(Segment(0, 4, 2)) == Segment(0, 8, 2)
        assert stretch_segment(Segment(1, 1, 0)) == Segment(1, 1, 0)


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
        rounded = round_rect(r)
        y = rounded.yb + F(ynum, 7) * (rounded.yt - rounded.yb) if rounded.yt > rounded.yb else rounded.yb
        s = Segment(rounded.xl - F(extend_l, 8), rounded.xr + F(extend_r, 8), y)
        assert stabs(s, rounded)
        assert stabs(stretch_segment(s), r)

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


class TestApprox8Prices:
    @staticmethod
    def assert_prices_match(inst, data):
        # the empty and the full mask, then random ones
        price = _approx8_prices(inst)
        full = (1 << len(inst.rects)) - 1
        for mask in [0, full, *data.draw(st.lists(st.integers(0, full), max_size=6))]:
            subset = Instance(tuple(r for i, r in enumerate(inst.rects) if mask >> i & 1))
            assert price(list(subset.rects)) == approx8(subset).cost

    @given(st.sampled_from(GENERATED_KINDS), st.integers(1, 14), st.integers(0, 10**6), st.data())
    @settings(max_examples=100)
    def test_price_is_the_subset_approx8_cost(self, kind, n, seed, data):
        self.assert_prices_match(generated_instance(kind, n, seed), data)

    @given(st.sampled_from(GENERATED_KINDS), st.integers(1, 40), st.integers(0, 10**6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_price_is_twice_the_rounded_subset_optimum(self, kind, n, seed, data):
        # a price runs the box DP on a subset of ranks built once; the rounded
        # subset solved on its own, and by the full-scan reference, must agree
        inst = generated_instance(kind, n, seed)
        price = _approx8_prices(inst)
        full = (1 << n) - 1
        for mask in data.draw(st.lists(st.integers(0, full), min_size=1, max_size=4)):
            subset = [r for i, r in enumerate(inst.rects) if mask >> i & 1]
            rounded = to_laminar(Instance(tuple(subset)))
            assert price(subset) == 2 * solve_laminar(rounded).cost == 2 * solve_laminar_full_scan(rounded).cost

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
