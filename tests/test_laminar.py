from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from stabkit import (
    Instance,
    ParameterError,
    Rect,
    Segment,
    Solution,
    approx8,
    exact_opt,
    gen_laminar,
    gen_uniform,
    is_laminar,
    solve_laminar,
    to_laminar,
    verify,
)

from stabkit.approx8 import _approx8_prices
from stabkit.laminar import _laminar_dp

from .conftest import make_instance
from .helpers import affine_instance, affine_solution, is_laminar_pairwise, solve_laminar_full_scan


class TestIsLaminar:
    def test_i1(self, i1):
        assert is_laminar(i1)

    def test_partial_overlap(self):
        assert not is_laminar(make_instance([(0, 4, 0, 1), (2, 6, 0, 1)]))

    def test_single_rect(self):
        assert is_laminar(make_instance([(0, 4, 0, 1)]))

    def test_shared_endpoint_counts_as_disjoint(self):
        assert is_laminar(make_instance([(0, 2, 0, 1), (2, 4, 0, 1)]))

    @given(
        st.integers(0, 200),
        st.lists(st.tuples(st.integers(0, 16), st.integers(1, 8)), max_size=3),
        st.booleans(),
    )
    @settings(max_examples=200)
    def test_matches_pairwise_reference(self, seed, extra, mapped):
        # a laminar family on the 0..16 grid plus up to three spans on the
        # same grid: nesting, shared endpoints and crossings all occur; the
        # affine map puts them over a denominator with odd factors
        base = [(r.xl, r.xr, 0, 1) for r in gen_laminar(seed % 12 + 1, seed).rects]
        inst = make_instance(base + [(a, a + w, 0, 1) for a, w in extra])
        if mapped:
            inst = affine_instance(inst)
        assert is_laminar(inst) == is_laminar_pairwise(inst)

    def test_shared_fractional_endpoint_and_crossing_across_denominators(self):
        # [0, 1/3] and [1/3, 5/7] share an endpoint; [1/2, 3/4] crosses the
        # second of them: the spans sit over denominators 3, 7, 2 and 4
        touching = [(0, F(1, 3), 0, 1), (F(1, 3), F(5, 7), 0, 1)]
        assert is_laminar(make_instance(touching))
        assert is_laminar(make_instance(touching + [(F(2, 5), F(3, 5), 0, 1)]))
        crossing = make_instance(touching + [(F(1, 2), F(3, 4), 0, 1)])
        assert not is_laminar(crossing)
        assert not is_laminar_pairwise(crossing)
        with pytest.raises(ParameterError):
            solve_laminar(crossing)


class TestSolveLaminar:
    def test_i1(self, i1):
        sol = solve_laminar(i1)
        assert sol.cost == exact_opt(i1).cost == 6
        assert verify(i1, sol).feasible

    def test_disjoint_pair(self):
        inst = make_instance([(0, 4, 0, 1), (6, 8, 0, 1)])
        assert solve_laminar(inst).cost == 6

    def test_nested_pair_shares_segment(self):
        inst = make_instance([(0, 8, 0, 2), (2, 4, 0, 2)])
        sol = solve_laminar(inst)
        assert sol.cost == 8
        assert len(sol.segments) == 1

    def test_empty(self):
        assert solve_laminar(Instance(())).cost == 0

    def test_rejects_non_laminar(self):
        with pytest.raises(ParameterError):
            solve_laminar(make_instance([(0, 4, 0, 1), (2, 6, 0, 1)]))

    def test_rejects_non_laminar_before_the_dp_runs(self, monkeypatch):
        # the DP trusts its spans to be laminar; solve_laminar checks them
        monkeypatch.setattr("stabkit.laminar._laminar_dp", lambda *args: pytest.fail("the DP ran"))
        with pytest.raises(ParameterError, match="^instance is not laminar$"):
            solve_laminar(make_instance([(0, 4, 0, 1), (2, 6, 0, 1)]))

    @pytest.mark.parametrize(
        "rect_of",
        [
            # 2,000 x-disjoint unit rects: each box's right side is the next
            # box of the chain
            lambda i: (2 * i, 2 * i + 1, 0, 1),
            # 2,000 unit rects stacked in y: each box's upper side is the next
            lambda i: (0, 1, 2 * i, 2 * i + 1),
        ],
        ids=["x-chain", "y-chain"],
    )
    def test_long_chain_needs_no_recursion(self, rect_of):
        # both chains used to raise RecursionError from n = 1,000 on
        n = 2000
        inst = make_instance([rect_of(i) for i in range(n)])
        assert solve_laminar(inst).cost == n
        assert approx8(inst).cost == 2 * n

    @given(
        st.sampled_from(["laminar", "rounded", "affine laminar", "affine rounded"]),
        st.integers(1, 56),
        st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_full_scan_reference(self, kind, n, seed):
        # the DP keys its states on rect sets and splits them by masks on
        # integers; the reference is the box DP that scans every rect per box
        # over Fraction ranks
        if kind.endswith("laminar"):
            inst = gen_laminar(n, seed)
        else:
            inst = to_laminar(gen_uniform(n, seed))
        if kind.startswith("affine"):
            inst = affine_instance(inst)
        sol = solve_laminar(inst)
        ref = solve_laminar_full_scan(inst)
        assert sol == ref
        assert sol.segments == ref.segments
        assert sol.cost == ref.cost

    @given(st.integers(0, 80))
    @settings(max_examples=80)
    def test_matches_oracle(self, seed):
        inst = gen_laminar(seed % 10 + 1, seed)
        sol = solve_laminar(inst)
        assert verify(inst, sol).feasible
        assert sol.cost == exact_opt(inst).cost

    @given(st.integers(0, 60))
    def test_affine_map_keeps_segments(self, seed):
        # x -> x/3 + 1/7 leaves the power-of-two grid of the generator: the
        # DP's integer costs then sit over a denominator with odd factors
        inst = gen_laminar(seed % 16 + 1, seed)
        sol = solve_laminar(inst)
        mapped = solve_laminar(affine_instance(inst))
        assert mapped == affine_solution(sol)
        assert mapped.cost == sol.cost / 3

    @given(st.integers(0, 40))
    def test_segments_span_some_rect(self, seed):
        inst = gen_laminar(seed % 10 + 1, seed)
        spans = {(r.xl, r.xr) for r in inst.rects}
        for s in solve_laminar(inst).segments:
            assert (s.xl, s.xr) in spans

    @given(st.integers(0, 25), st.data())
    def test_restriction_closure(self, seed, data):
        inst = gen_laminar(seed % 8 + 2, seed)
        size = data.draw(st.integers(0, len(inst.rects)))
        subset = data.draw(st.sampled_from(list(combinations(inst.rects, size))))
        sub = Instance(tuple(subset))
        assert is_laminar(sub)
        sol = solve_laminar(sub)
        assert sol.cost == exact_opt(sub).cost


# laminar instances on the closed boundaries the DP's masks are built on
EDGE_CASES = {
    # [0, 2] and [2, 4] touch, [2, 3] starts where [0, 2] ends, and [4, 6]
    # starts where [0, 4] ends
    "shared-endpoints": make_instance(
        [(0, 2, 0, 1), (2, 4, 0, 1), (0, 4, 1, 2), (4, 6, 0, 2), (2, 3, 0, 3), (3, 4, 2, 3)]
    ),
    # four rects on the span [0, 4], in an id order that is not their
    # position: equal widths go to the lower id first
    "equal-spans": Instance(
        tuple(
            Rect(i, *c)
            for i, c in zip([7, 2, 5, 1, 3], [(0, 4, 0, 1), (0, 4, 2, 3), (0, 4, 1, 2), (1, 2, 0, 3), (0, 4, 3, 3)])
        )
    ),
    # three rects share the top edge 2, two more the top edge 5
    "shared-tops": make_instance(
        [(0, 8, 0, 2), (1, 3, 1, 2), (4, 6, 0, 2), (5, 6, 3, 5), (0, 8, 4, 5), (1, 2, 0, 5)]
    ),
    # bottoms on other rects' tops: 2 on [0, 8]'s, 4 on [1, 3]'s, 5 on [4, 6]'s
    "bottom-on-a-top": make_instance(
        [(0, 8, 0, 2), (1, 3, 2, 4), (4, 6, 4, 5), (4, 5, 5, 6), (1, 2, 0, 2), (6, 8, 2, 3)]
    ),
    # flat rects, alone and on the edges of others
    "zero-height": make_instance(
        [(0, 4, 1, 1), (1, 2, 1, 1), (0, 4, 0, 1), (2, 4, 1, 3), (0, 1, 3, 3), (2, 3, 2, 2)]
    ),
}


class TestMaskEdgeCases:
    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_matches_full_scan_reference(self, name):
        inst = EDGE_CASES[name]
        assert is_laminar(inst)
        sol = solve_laminar(inst)
        assert sol.segments == solve_laminar_full_scan(inst).segments
        assert verify(inst, sol).feasible

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    @given(st.data())
    @settings(max_examples=30)
    def test_masks_match_the_references(self, name, data):
        # the DP on the instance's own spans and the approx8 pricer, each on
        # masks of a random subset, against the box DP on that subset; the
        # DP's levels are all of the instance's top edges, so on a subset
        # only its cost and the feasibility of its stabs are the reference's
        inst = EDGE_CASES[name]
        g = inst._grid
        bits, solve, stabs = _laminar_dp(inst, list(zip(g.xl, g.xr)))
        unit, bit, price = _approx8_prices(inst)
        picked = data.draw(st.lists(st.booleans(), min_size=len(inst.rects), max_size=len(inst.rects)))
        sub = Instance(tuple(r for r, keep in zip(inst.rects, picked) if keep))
        mask = sum(b for b, keep in zip(bits, picked) if keep)
        ref = solve_laminar_full_scan(sub)
        assert F(solve(mask), g.dx) == ref.cost
        rects = inst.rects
        picks = Solution(tuple(Segment(rects[i].xl, rects[i].xr, rects[j].yt) for i, j in stabs(mask)))
        assert verify(sub, picks).feasible
        assert picks.cost == ref.cost
        priced = price(sum(bit[r.id] for r in sub.rects)) * unit
        assert priced == 2 * solve_laminar_full_scan(to_laminar(sub)).cost == approx8(sub).cost
