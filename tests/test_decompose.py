import importlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from stabkit import (
    Decomposition,
    Instance,
    ParameterError,
    SchemeParams,
    Solution,
    approx8,
    crossing_rects,
    decompose,
    exact_opt,
    gen_uniform,
    horizontal_cuts,
    normalize,
    stabs,
    strip_partition,
)
from stabkit.approx8 import _approx8_prices

from .conftest import make_instance
from .helpers import (
    GENERATED_KINDS,
    SPREAD,
    STACKED,
    crossing_rects_floor,
    generated_instance,
    horizontal_cuts_all_levels,
    strip_partition_all_shifts,
    strip_span,
    uniform_on_fractions,
)

# the submodule; the package's name ``decompose`` is the function
DECOMPOSE = importlib.import_module("stabkit.decompose")
SWEEP_EPS = [F(1, 2), F(1, 3), F(1, 5), F(2, 3)]


def stacked_units(count, x0=0):
    # y-separated unit-width rects; approx8 costs exactly 2 per rect
    return make_instance([(x0, x0 + 1, 2 * i, 2 * i + 1) for i in range(count)])


class TestStripPartition:
    def test_i1_lines_can_miss_everything(self, i1):
        parts = strip_partition(i1, F(1, 4))
        assert parts.segments == ()
        assert len(parts.strips) == 1
        assert parts.strips[0].instance == i1
        assert parts.spacing == 16

    def test_offset_grid_size(self, i1):
        # offsets are multiples of w*eps/n below w/eps: n/eps^2 of them
        parts = strip_partition(i1, F(1, 4))
        step = i1.max_width * F(1, 4) / 3
        assert parts.offset % step == 0
        assert 0 <= parts.offset < parts.spacing

    def test_eps_validation(self, i1):
        with pytest.raises(ParameterError):
            strip_partition(i1, F(2))
        with pytest.raises(ParameterError):
            strip_partition(i1, F(0))

    def test_empty(self):
        parts = strip_partition(Instance(()), F(1, 2))
        assert parts.segments == () and parts.strips == ()

    @given(st.integers(0, 30))
    @settings(max_examples=30)
    def test_chosen_offset_is_exhaustive_minimum(self, seed):
        inst = uniform_on_fractions(seed % 8 + 1, seed, **SPREAD)
        eps = F(1, 4)
        parts = strip_partition(inst, eps)
        w = inst.max_width
        spacing = w / eps
        step = w * eps / len(inst.rects)
        chosen_cost = sum((s.length for s in parts.segments), F(0))
        # the paid cover is the 8-approximation of the rects the chosen grid crosses
        crossed = Instance(tuple(crossing_rects(inst, parts.offset, parts.spacing)))
        assert parts.segments == approx8(crossed).segments
        k = 0
        while (z := k * step) < spacing:
            cost = approx8(Instance(tuple(crossing_rects(inst, z, spacing)))).cost
            assert chosen_cost <= cost
            if cost == chosen_cost:
                # ties go to the smallest offset
                assert parts.offset <= z
            k += 1

    @given(
        st.fractions(-8, 8, max_denominator=4),
        st.fractions(F(1, 4), 8, max_denominator=4),
        st.fractions(F(1, 4), 8, max_denominator=4),
        st.fractions(-8, 8, max_denominator=4),
    )
    def test_crossing_residue_matches_floor_reference(self, xl, width, spacing, z):
        # any shift and any positive spacing, also one below the rect's width;
        # a coarse grid makes lines on the rect's edges common
        inst = make_instance([(xl, xl + width, 0, 1)])
        assert crossing_rects(inst, z, spacing) == crossing_rects_floor(inst, z, spacing)

    @pytest.mark.parametrize(
        "z, spacing", [(0, 0), (0, -100), (0, F(-1, 2)), (0, "0"), (0.0, 100), (0, 100.0), (0, "x"), (0, True)]
    )
    def test_crossing_rejects_nonpositive_spacing_and_inexact_scalars(self, z, spacing):
        # a zero spacing would divide by zero, a negative one would cross rects
        # that the same positive spacing misses, and floats compare inexactly
        with pytest.raises(ParameterError):
            crossing_rects(gen_uniform(5, 1), z, spacing)

    @pytest.mark.parametrize("z, spacing", [(0, 100), ("1/4", "10"), (F(1, 4), 10), ("0.25", 2)])
    def test_crossing_coerces_exact_scalars(self, z, spacing):
        inst = gen_uniform(5, 1)
        exact = crossing_rects_floor(inst, F(z), F(spacing))
        assert crossing_rects(inst, z, spacing) == exact

    @given(
        st.sampled_from(GENERATED_KINDS),
        st.integers(1, 12),
        st.integers(0, 10**6),
        st.sampled_from(SWEEP_EPS),
    )
    @settings(max_examples=150)
    def test_sweep_matches_every_shift(self, kind, n, seed, eps):
        inst = generated_instance(kind, n, seed)
        assert strip_partition(inst, eps) == strip_partition_all_shifts(inst, eps)

    @given(
        st.lists(
            st.tuples(st.integers(0, 16), st.integers(1, 6), st.integers(0, 6), st.integers(0, 2)),
            min_size=1,
            max_size=10,
        ),
        st.sampled_from(SWEEP_EPS),
    )
    @settings(max_examples=150)
    def test_sweep_matches_every_shift_on_half_integer_grid(self, draws, eps):
        # edges and widths on halves: grid lines run along rect edges at many
        # shifts, and many crossed sets cost the same
        inst = make_instance(
            [(F(x, 2), F(x + wd, 2), y, y + h) for x, wd, y, h in draws]
        )
        assert strip_partition(inst, eps) == strip_partition_all_shifts(inst, eps)

    @given(
        st.sampled_from(GENERATED_KINDS),
        st.integers(1, 14),
        st.integers(0, 10**6),
        st.sampled_from(SWEEP_EPS),
        st.data(),
    )
    @settings(max_examples=100)
    def test_a_larger_instances_pricer_gives_the_same_partition(self, kind, n, seed, eps, data):
        # the sweep names a crossed set by its pricer mask; the bits of a
        # pricer of the whole instance are distinct over any of its subsets,
        # taken in any order
        inst = generated_instance(kind, n, seed)
        subset = data.draw(st.lists(st.sampled_from(range(len(inst.rects))), unique=True))
        sub = inst._restrict(subset)
        assert strip_partition(sub, eps, _price=_approx8_prices(inst)) == strip_partition(sub, eps)

    @pytest.mark.parametrize("n", [21, 30])
    def test_derived_mu_prices_at_most_4n_plus_1_sets(self, n, monkeypatch):
        # mu = 1/238 here: n/mu^2 is over a million grid shifts, so a partition
        # that tests shift by shift fails at crossing test 4n + 2 instead of
        # running for minutes
        inst, _ = normalize(gen_uniform(n, 1), F(1, 2))
        mu = SchemeParams.derive(n, F(1, 2)).mu
        priced, crossed, inside = [], [], []
        partition = DECOMPOSE.strip_partition
        prices = DECOMPOSE._approx8_prices
        crossing = DECOMPOSE.crossing_rects

        def counted_partition(*args, **kwargs):
            inside.append(True)
            try:
                return partition(*args, **kwargs)
            finally:
                inside.pop()

        def counted_prices(sub):
            unit, bit, price = prices(sub)

            def counted_price(mask):
                if inside:
                    priced.append(mask)
                return price(mask)

            return unit, bit, counted_price

        def counted_crossing(*args):
            crossed.append(args)
            assert len(crossed) <= 4 * n + 1, "strip_partition tests shift by shift"
            return crossing(*args)

        monkeypatch.setattr(DECOMPOSE, "strip_partition", counted_partition)
        monkeypatch.setattr(DECOMPOSE, "_approx8_prices", counted_prices)
        monkeypatch.setattr(DECOMPOSE, "crossing_rects", counted_crossing)
        dec = decompose(inst, mu)
        assert 0 < len(priced) <= 4 * n + 1
        assert sum(len(sub.rects) for sub in dec.sub_instances) <= n

    def test_tie_between_crossed_sets_goes_to_smallest_shift(self):
        # every shift crosses one or two of these y-separated unit rects, and
        # the three singleton sets cost the same; shift 0 crosses only rect 3
        inst = make_instance([(0, 1, 0, 1), (F(2, 3), F(5, 3), 2, 3), (F(4, 3), F(7, 3), 4, 5)])
        parts = strip_partition(inst, F(1, 2))
        assert parts.offset == 0
        assert [r.id for s in parts.strips for r in s.instance.rects] == [1, 2]

    def test_a_set_holding_a_priced_set_is_not_priced(self, monkeypatch):
        # the sweep meets {3}, {1, 3}, {1}, {1, 2}, {2}, {2, 3} in shift
        # order; each pair holds the singleton priced just before it, so it
        # cannot be strictly cheaper than the best, and only the singletons
        # are priced
        inst = make_instance([(0, 1, 0, 1), (F(2, 3), F(5, 3), 2, 3), (F(4, 3), F(7, 3), 4, 5)])
        prices = DECOMPOSE._approx8_prices
        priced = []

        def counted(sub):
            unit, bit, price = prices(sub)
            ids = {b: i for i, b in bit.items()}

            def counted_price(mask):
                priced.append({i for b, i in ids.items() if mask & b})
                return price(mask)

            return unit, bit, counted_price

        monkeypatch.setattr(DECOMPOSE, "_approx8_prices", counted)
        assert strip_partition(inst, F(1, 2)) == strip_partition_all_shifts(inst, F(1, 2))
        assert priced == [{3}, {1}, {2}]

    @given(st.integers(0, 40))
    def test_cover_and_strip_invariants(self, seed):
        inst = uniform_on_fractions(seed % 10 + 1, seed, **SPREAD)
        eps = F(1, 4)
        parts = strip_partition(inst, eps)
        w = inst.max_width
        cover = Solution(parts.segments)
        in_strips = {r.id for s in parts.strips for r in s.instance.rects}
        for r in inst.rects:
            covered = any(stabs(s, r) for s in cover.segments)
            assert covered or r.id in in_strips
        for s in parts.strips:
            assert s.x1 - s.x0 == w / eps
            for r in s.instance.rects:
                assert s.x0 <= r.xl and r.xr <= s.x1
        # paid cover is within the guaranteed factor
        assert cover.cost <= 16 * eps * exact_opt(inst).cost


class TestHorizontalCuts:
    def test_cheap_strip_single_chunk(self, i1, half):
        cut = horizontal_cuts(i1, half, i1.max_width, strip_span(i1))
        assert cut.segments == ()
        assert cut.chunks == (i1,)
        assert cut.observed_costs == (approx8(i1).cost,)

    def test_two_clusters_cut_between(self):
        # 18 stacked unit rects, threshold 8*1/(1/2)^2 = 32: the sweep prices
        # 2 per rect, triggers at the 17th top edge with value 34
        inst = stacked_units(18)
        cut = horizontal_cuts(inst, F(1, 2), inst.max_width, strip_span(inst))
        assert len(cut.segments) == 1
        assert cut.segments[0].y == 33
        assert [len(c.rects) for c in cut.chunks] == [16, 1]
        assert cut.observed_costs[0] == 34 > 32
        assert cut.observed_costs[1] == 2

    def test_cut_spans_given_range(self):
        inst = stacked_units(18)
        cut = horizontal_cuts(inst, F(1, 2), inst.max_width, (F(0), F(2)))
        assert cut.segments[0].xl == 0 and cut.segments[0].xr == 2

    def test_precondition_extent(self):
        inst = make_instance([(0, 1, 0, 1), (10, 11, 0, 1)])
        with pytest.raises(ParameterError):
            horizontal_cuts(inst, F(1, 2), inst.max_width, strip_span(inst))  # extent 11 > w/eps = 2

    def test_empty(self):
        cut = horizontal_cuts(Instance(()), F(1, 2), F(1), (F(0), F(1)))
        assert cut.segments == () and cut.chunks == ()

    @given(st.integers(0, 30))
    @settings(max_examples=30)
    def test_cut_cost_within_eps_of_opt(self, seed):
        n = 8 + seed % 3
        inst = uniform_on_fractions(n, seed, **STACKED)
        eps = F(1, 2)
        cut = horizontal_cuts(inst, eps, inst.max_width, strip_span(inst))
        total = sum((s.length for s in cut.segments), F(0))
        assert total <= eps * exact_opt(inst).cost
        threshold = 8 * inst.max_width / eps**2
        for observed in cut.observed_costs[:-1]:
            assert observed > threshold

    @given(st.integers(8, 24), st.integers(0, 10**6))
    def test_matches_all_levels_sweep(self, n, seed):
        # C4's generator on a tall strip; at these sizes most examples get cuts
        inst = uniform_on_fractions(n, seed, **STACKED)
        cut = horizontal_cuts(inst, F(1, 2), inst.max_width, strip_span(inst))
        assert cut == horizontal_cuts_all_levels(inst, F(1, 2))


def composed_stages(inst, eps):
    """decompose as its two standalone stages, each stage call building its
    own pricer."""
    parts = strip_partition(inst, eps)
    paid, subs, bounds = list(parts.segments), [], []
    for strip in parts.strips:
        cut = horizontal_cuts(strip.instance, eps, inst.max_width, (strip.x0, strip.x1))
        paid.extend(cut.segments)
        subs.extend(cut.chunks)
        bounds.extend(cut.observed_costs)
    return Decomposition(tuple(paid), tuple(subs), tuple(bounds))


class TestDecompose:
    def test_i1(self, i1):
        dec = decompose(i1, F(1, 4))
        assert dec.paid_segments == ()
        assert dec.sub_instances == (i1,)

    def test_empty(self):
        dec = decompose(Instance(()), F(1, 4))
        assert dec == type(dec)((), (), ())

    @given(st.integers(0, 40))
    def test_partition_soundness_and_bounds(self, seed):
        inst = gen_uniform(seed % 10 + 1, seed)
        eps = F(1, 4)
        dec = decompose(inst, eps)
        paid = Solution(dec.paid_segments)
        seen = {}
        for k, sub in enumerate(dec.sub_instances):
            for r in sub.rects:
                assert r.id not in seen
                seen[r.id] = k
        for r in inst.rects:
            assert any(stabs(s, r) for s in paid.segments) or r.id in seen
        assert len(dec.opt_upper_bounds) == len(dec.sub_instances)
        for sub in dec.sub_instances:
            extent = max(r.xr for r in sub.rects) - min(r.xl for r in sub.rects)
            assert extent <= inst.max_width / eps
        # paid segments stay within the composed guarantee
        assert paid.cost <= 17 * eps * exact_opt(inst).cost
        # chunk optima are independent
        total = sum((exact_opt(sub).cost for sub in dec.sub_instances), F(0))
        assert total <= exact_opt(inst).cost
        # recorded upper bounds really bound each chunk's optimum
        for sub, bound in zip(dec.sub_instances, dec.opt_upper_bounds):
            assert exact_opt(sub).cost <= bound

    @given(
        st.sampled_from(GENERATED_KINDS),
        st.integers(1, 14),
        st.integers(0, 10**6),
        st.sampled_from(SWEEP_EPS),
    )
    @settings(max_examples=100)
    def test_one_pricer_matches_the_standalone_stages(self, kind, n, seed, eps):
        # the shared pricer rounds the whole instance and prices a strip
        # subset by its rects' ids; the prices, and so every cut and bound,
        # are the same
        inst = generated_instance(kind, n, seed)
        assert decompose(inst, eps) == composed_stages(inst, eps)

    @given(
        st.lists(
            st.tuples(st.integers(0, 16), st.integers(1, 6), st.integers(0, 12), st.integers(0, 2)),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from(SWEEP_EPS),
    )
    @settings(max_examples=100)
    def test_one_pricer_matches_the_standalone_stages_on_half_integer_grid(self, draws, eps):
        inst = make_instance([(F(x, 2), F(x + wd, 2), y, y + h) for x, wd, y, h in draws])
        assert decompose(inst, eps) == composed_stages(inst, eps)

    @pytest.mark.parametrize("n", [12, 21])
    def test_one_pricer_matches_the_standalone_stages_with_derived_mu(self, n):
        inst, _ = normalize(gen_uniform(n, 1), F(1, 2))
        mu = SchemeParams.derive(n, F(1, 2)).mu
        assert decompose(inst, mu) == composed_stages(inst, mu)

    def test_one_pricer_set_up_per_call(self, monkeypatch):
        # enough stacked unit rects in two strips that both strips get cut
        inst = make_instance(
            [(0, 1, 2 * i, 2 * i + 1) for i in range(18)] + [(5, 6, 2 * i, 2 * i + 1) for i in range(18)]
        )
        eps = F(1, 2)
        parts = strip_partition(inst, eps)
        assert len(parts.strips) == 2
        set_up = []
        prices = DECOMPOSE._approx8_prices

        def counted(sub):
            set_up.append(sub)
            return prices(sub)

        monkeypatch.setattr(DECOMPOSE, "_approx8_prices", counted)
        dec = decompose(inst, eps)
        assert set_up == [inst]
        assert len(dec.paid_segments) > len(parts.segments)  # horizontal cuts were priced
