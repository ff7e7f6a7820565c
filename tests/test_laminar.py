from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from stabkit import (
    Instance,
    ParameterError,
    exact_opt,
    gen_laminar,
    is_laminar,
    solve_laminar,
    verify,
)

from .conftest import make_instance
from .helpers import affine_instance, affine_solution, is_laminar_pairwise


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
    )
    @settings(max_examples=200)
    def test_matches_pairwise_reference(self, seed, extra):
        # a laminar family on the 0..16 grid plus up to three spans on the
        # same grid: nesting, shared endpoints and crossings all occur
        base = [(r.xl, r.xr, 0, 1) for r in gen_laminar(seed % 12 + 1, seed).rects]
        inst = make_instance(base + [(a, a + w, 0, 1) for a, w in extra])
        assert is_laminar(inst) == is_laminar_pairwise(inst)


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
