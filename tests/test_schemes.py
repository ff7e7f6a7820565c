import dataclasses
import importlib
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from stabkit import (
    BudgetError,
    InfeasibleError,
    Instance,
    OracleLimitError,
    ParameterError,
    RunStats,
    SchemeParams,
    Segment,
    Solution,
    ceil_log2,
    exact_opt,
    gen_bounded_ratio,
    gen_uniform,
    guess_long,
    normalize,
    ptas,
    qptas,
    solution_to_json,
    solve_small,
    verify,
)

from stabkit.oracle import _Budget, _candidate_table

from .conftest import make_instance
from .helpers import (
    GENERATED_KINDS,
    affine_instance,
    affine_solution,
    exact_opt_subset_dp,
    fraction_table,
    generated_instance,
    guess_long_all,
    qptas_every_guess,
)

# three y-separated pairs of narrow rects [0,1] and [3,4]; the one long
# candidate per pair is [0,4] at the pair's top edge
NARROW_PAIRS = [(x, x + 1, y, y + 1) for y in (0, 10, 20) for x in (0, 3)]


def segments(keys) -> Solution:
    """The solution of a guess's candidate-table keys."""
    return Solution(tuple(Segment(*key) for key in keys))


class TestSchemeParams:
    def test_derivation(self):
        p = SchemeParams.derive(8, F(1, 2))
        assert ceil_log2(F(8) / F(1, 2)) == 4
        assert p.mu == F(1, 2) / (17 * (4 + 1))
        assert p.klong == math.ceil(2 * (8 / p.mu**2 + 1 / p.mu))

    def test_overrides(self):
        p = SchemeParams.derive(8, F(1, 2), mu=F(1, 2), klong=6, oracle_limit=3, node_budget=10)
        assert (p.mu, p.klong, p.oracle_limit, p.node_budget) == (F(1, 2), 6, 3, 10)

    def test_validation(self):
        with pytest.raises(ParameterError):
            SchemeParams.derive(8, F(3, 2))
        with pytest.raises(ParameterError):
            SchemeParams.derive(8, F(1, 2), mu=F(2))

    @pytest.mark.parametrize("limits", [{"oracle_limit": -3}, {"node_budget": -1}])
    def test_negative_limits_rejected(self, limits):
        with pytest.raises(ParameterError):
            SchemeParams.derive(8, F(1, 2), **limits)

    @pytest.mark.parametrize("n", [2.5, -3, True, F(4)])
    def test_bad_rect_count_rejected(self, n):
        # a float n used to derive mu = 1/136, and a negative one the
        # parameters of n = 1
        with pytest.raises(ParameterError):
            SchemeParams.derive(n, "1/2")

    def test_zero_rects_derive_like_one(self):
        # the command line checks scheme options with n = 0 before any input
        assert SchemeParams.derive(0, "1/2") == SchemeParams.derive(1, "1/2")

    @pytest.mark.parametrize(
        "given",
        [
            {"klong": 2.5},
            {"klong": True},
            {"klong": F(4)},
            {"oracle_limit": 4.5},
            {"oracle_limit": "4"},
            {"node_budget": 2.5},
            {"node_budget": False},
        ],
    )
    def test_non_integer_counts_rejected(self, given):
        # a float klong used to pass here and fail later inside qptas's
        # subset enumeration with a TypeError
        with pytest.raises(ParameterError):
            SchemeParams.derive(12, F(1, 2), mu=F(1, 2), **given)

    def test_four_fields_without_defaults(self):
        # derive is the one place that sets defaults; qptas's eps is the only eps
        assert [f.name for f in dataclasses.fields(SchemeParams)] == ["mu", "klong", "oracle_limit", "node_budget"]
        with pytest.raises(TypeError):
            SchemeParams(F(1, 2))
        p = SchemeParams.derive(8, F(1, 2), mu=F(1, 2))
        assert p.klong == math.ceil(2 * (8 / F(1, 2) ** 2 + 2)) and p.node_budget is None

    def test_klong_and_ptas_cap_follow_the_cut_factor(self, monkeypatch):
        # both read the chunk bound CUT_FACTOR / eps^2 + 1 / eps from the
        # decomposition, so a changed factor moves them too
        monkeypatch.setattr(importlib.import_module("stabkit.decompose"), "CUT_FACTOR", 4)
        p = SchemeParams.derive(8, F(1, 2), mu=F(1, 2))
        assert p.klong == math.ceil(2 * (4 / F(1, 2) ** 2 + 2)) == 36
        caps = []

        def recorded(chunk, k, node_budget=None):
            caps.append(k)
            return exact_opt(chunk)

        monkeypatch.setattr(importlib.import_module("stabkit.schemes"), "solve_small", recorded)
        ptas(make_instance(NARROW_PAIRS), F(1, 2), F(1, 2))
        assert caps and set(caps) == {math.ceil((4 / F(1, 2) ** 2 + 2) / F(1, 2))}

    def test_zero_limits_kept(self):
        p = SchemeParams.derive(8, F(1, 2), oracle_limit=0, node_budget=0)
        assert (p.oracle_limit, p.node_budget) == (0, 0)


class TestSolveSmall:
    def test_i1_two_segments(self, i1):
        assert solve_small(i1, 2).cost == exact_opt(i1).cost == 6

    def test_i1_optimum_over_k_segments_raises(self, i1):
        # [0,7]x2 stabs all three rects at cost 7, but the optimum costs 6
        # with two segments: k = 1 is below it, not a cap on the search
        with pytest.raises(InfeasibleError, match="uses 2 segments, more than 1"):
            solve_small(i1, 1)

    def test_infeasible_within_k(self):
        inst = make_instance([(0, 2, 0, 1), (4, 6, 5, 6)])  # y-disjoint: no single stab
        with pytest.raises(InfeasibleError):
            solve_small(inst, 1)

    def test_single_rect(self):
        inst = make_instance([(0, 4, 0, 2)])
        assert solve_small(inst, 1).segments == (Segment(0, 4, 2),)

    def test_k_validation(self, i1):
        with pytest.raises(ParameterError):
            solve_small(i1, 0)

    @pytest.mark.parametrize("k", [2.5, True, F(2), "2"])
    def test_non_integer_k_rejected(self, i1, k):
        with pytest.raises(ParameterError):
            solve_small(i1, k)

    @pytest.mark.parametrize("node_budget", [2.5, True, -1])
    def test_bad_node_budget_rejected(self, i1, node_budget):
        # these used to run as a budget of 2.5, 1 or -1 nodes and end in BudgetError
        with pytest.raises(ParameterError):
            solve_small(i1, 3, node_budget=node_budget)

    def test_budget_error(self, i1):
        with pytest.raises(BudgetError):
            solve_small(i1, 3, node_budget=1)

    def test_memo_keeps_the_search_within_a_node_budget(self):
        # the search prunes re-entries of an uncovered mask at no lower cost:
        # 15 nodes over this instance's blocks, against 4,377 for the search
        # that capped the number of segments at 4
        inst = gen_bounded_ratio(12, F(1, 2), 1)
        sol = solve_small(inst, 12, node_budget=15)
        assert sol == exact_opt(inst)
        assert sol.cost == F(127, 16) and len(sol.segments) == 11
        with pytest.raises(BudgetError):
            solve_small(inst, 12, node_budget=14)

    @given(st.integers(0, 40))
    @settings(max_examples=40)
    def test_branch_and_bound_matches_oracle(self, seed):
        inst = gen_uniform(seed % 6 + 1, seed)
        # a minimal cover never holds more segments than rects, so k = n
        # never raises
        assert solve_small(inst, len(inst.rects)) == exact_opt(inst)

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(1, 3), st.integers(0, 3), st.integers(0, 2)),
            min_size=2,
            max_size=5,
        ),
        st.integers(1, 2),
    )
    @settings(max_examples=40)
    def test_k_below_the_optimum_raises(self, rows, k):
        # spread in x on a few y levels: one or two long segments often stab
        # everything, while the optimum uses more short ones
        inst = make_instance([(x, x + w, y, y + h) for x, w, y, h in rows])
        want = exact_opt(inst)
        if len(want.segments) > k:
            with pytest.raises(InfeasibleError):
                solve_small(inst, k)
        else:
            assert solve_small(inst, k) == want


class TestGuessLong:
    def test_no_long_candidates_yields_empty_guess_only(self):
        inst = make_instance([(0, 1, 0, 1)])
        assert guess_long(inst, F(10), 2) == [(0, 0, ())]

    def test_binomial_count_with_distinct_unions(self):
        # no rect is as wide as min_len, so every union stabs all wide rects:
        # 1 + 3 + 3 guesses, all unions distinct, none left out
        inst = make_instance(NARROW_PAIRS)
        guesses = guess_long(inst, F(2), 2)
        assert len(guesses) == 7
        assert [len(keys) for _, _, keys in guesses] == [0, 1, 1, 1, 2, 2, 2]
        assert guesses == guess_long_all(inst, F(2), 2)

    def test_only_unions_stabbing_every_wide_rect(self):
        # a wide rect [0,4] on the top pair: only the guesses holding that
        # pair's segment stab it, and they keep their enumeration order
        inst = make_instance(NARROW_PAIRS + [(0, 4, 20, 21)])
        top = (0, 4, 21)
        guesses = guess_long(inst, F(2), 2)
        assert [keys for _, _, keys in guesses] == [
            (top,),
            ((0, 4, 1), top),
            ((0, 4, 11), top),
        ]
        assert len(guess_long_all(inst, F(2), 2)) == 7

    @pytest.mark.parametrize("k", [-1, 2.5, True, F(2)])
    def test_k_validation(self, k):
        # k = -1 used to yield no guess at all, not even the empty one
        with pytest.raises(ParameterError):
            guess_long(make_instance(NARROW_PAIRS), F(2), k)

    def test_zero_k_yields_the_empty_guess_when_nothing_is_wide(self):
        assert guess_long(make_instance(NARROW_PAIRS), F(2), 0) == [(0, 0, ())]

    @given(
        st.sampled_from(["uniform", "bounded", "affine"]),
        st.integers(1, 7),
        st.integers(0, 10**6),
        st.integers(0, 3),
        st.integers(0, 6),
    )
    @settings(max_examples=80)
    def test_filters_the_full_enumeration_in_order(self, kind, n, seed, k, pick):
        inst = generated_instance(kind, n, seed)
        self.check_filtered(inst, sorted(r.width for r in inst.rects)[pick % n], k)

    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(1, 6), st.integers(0, 4), st.integers(0, 2)),
            min_size=1,
            max_size=7,
        ),
        st.integers(0, 3),
        st.integers(0, 6),
    )
    @settings(max_examples=80)
    def test_filters_the_full_enumeration_on_half_integer_grid(self, draws, k, pick):
        # edges and widths on halves: many rects share a width with min_len,
        # and many subsets share a union and a total
        inst = make_instance([(F(x, 2), F(x + wd, 2), y, y + h) for x, wd, y, h in draws])
        self.check_filtered(inst, sorted(r.width for r in inst.rects)[pick % len(draws)], k)

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(1, 6), st.integers(0, 3), st.integers(0, 2)),
            min_size=1,
            max_size=5,
        ),
        st.integers(0, 4),
        st.data(),
    )
    @settings(max_examples=60)
    def test_filters_the_full_enumeration_at_every_guess_size(self, draws, pick, data):
        # k up to the pool size and one past it, so the walk reaches every
        # subset size the pool allows, its deepest stack included
        inst = make_instance([(F(x, 2), F(x + wd, 2), y, y + h) for x, wd, y, h in draws])
        min_len = sorted(r.width for r in inst.rects)[pick % len(draws)]
        keys, _, _, _ = fraction_table(inst)
        pool = sum(1 for xl, xr, _ in keys if xr - xl >= min_len)
        self.check_filtered(inst, min_len, data.draw(st.integers(0, pool + 1), label="k"))

    def test_ticks_every_reached_subset_once(self):
        # derived klong (666,264) on normalized gen_uniform(10, 1) at half
        # the max width: no size cap binds, and the pruned walk reaches
        # 1,307 subsets, each ticked once, of which 2 unions qualify
        eps = F(1, 2)
        norm, _ = normalize(gen_uniform(10, 1), eps)
        budget = _Budget(None)
        guesses = guess_long(norm, norm.max_width / 2, SchemeParams.derive(10, eps).klong, budget)
        assert (budget.used, len(guesses)) == (1_307, 2)

    @staticmethod
    def check_filtered(inst, min_len, k):
        wide = sum(1 << i for i, r in enumerate(inst.rects) if r.width >= min_len)
        assert wide  # min_len is a rect width
        assert guess_long(inst, min_len, k) == [
            row for row in guess_long_all(inst, min_len, k) if not wide & ~row[0]
        ]

    def test_prunes_prefixes_that_cannot_stab_every_wide_rect(self):
        # three wide rects, y- and x-separated, need three segments: with
        # k = 2 no guess qualifies, and the enumeration stops every prefix
        # whose union, with all the candidates after it, misses a wide rect
        inst = make_instance(NARROW_PAIRS + [(0, 4, 30, 31), (5, 9, 40, 41), (10, 14, 50, 51)])
        k = 2
        wide = 0b111 << len(NARROW_PAIRS)
        budget = _Budget(None)
        assert guess_long(inst, F(4), k, budget) == [] == [
            row for row in guess_long_all(inst, F(4), k) if not wide & ~row[0]
        ]
        keys, _, _, _ = fraction_table(inst)
        pool = sum(1 for key in keys if key[1] - key[0] >= 4)
        full = sum(math.comb(pool, size) for size in range(min(k, pool) + 1))
        assert 0 < budget.used < full

    def test_i1_contains_covering_pair(self, i1):
        guesses = guess_long(i1, F(2), 2)
        full = (1 << 3) - 1
        covering = [keys for union, _, keys in guesses if union == full and len(keys) == 2]
        assert covering
        assert {xr - xl for xl, xr, _ in covering[0]} == {F(2), F(4)}

    def test_dedup_keeps_cheapest_per_union(self):
        inst = make_instance([(0, 4, 0, 1), (1, 3, 0, 1)])
        guesses = guess_long(inst, F(1), 2)
        by_union = {}
        for union, total, _ in guesses:
            assert union not in by_union
            by_union[union] = total

    @given(st.integers(0, 60))
    def test_affine_map_keeps_guesses(self, seed):
        # x -> x/3 + 1/7 puts the lengths over a denominator with odd factors;
        # the threshold is a rect width, so lengths equal to it occur
        inst = gen_uniform(seed % 7 + 2, seed)
        widths = sorted(r.width for r in inst.rects)
        min_len = widths[seed % len(widths)]
        moved = affine_instance(inst)
        guesses = guess_long(inst, min_len, 3)
        mapped = guess_long(moved, min_len / 3, 3)
        assert [union for union, _, _ in mapped] == [union for union, _, _ in guesses]
        assert [segments(keys) for _, _, keys in mapped] == [
            affine_solution(segments(keys)) for _, _, keys in guesses
        ]
        # each total is its keys' length over the instance's grid
        for case, rows in ((inst, guesses), (moved, mapped)):
            assert [F(total, case._grid.dx) for _, total, keys in rows] == [segments(keys).cost for _, _, keys in rows]
        assert [F(total, moved._grid.dx) for _, total, _ in mapped] == [
            F(total, inst._grid.dx) / 3 for _, total, _ in guesses
        ]


class TestPtas:
    def test_i1(self, i1, half):
        sol = ptas(i1, half, half)
        assert verify(i1, sol).feasible
        assert sol.cost == exact_opt(i1).cost  # equals the optimum on this fixture

    def test_empty(self):
        assert ptas(Instance(()), F(1, 2), F(1, 2)).cost == 0

    def test_chunk_over_k_segments_raises(self, i1, half, monkeypatch):
        # i1 is one chunk at eps = delta = 1/2, and its optimum uses two
        # segments: a chunk bound that makes k = 1 breaks the guarantee,
        # which the chunk solver reports instead of hiding
        monkeypatch.setattr(importlib.import_module("stabkit.schemes"), "_chunk_bound", lambda eps: F(1, 2))
        with pytest.raises(InfeasibleError, match="uses 2 segments, more than 1"):
            ptas(i1, half, half)

    def test_width_precondition(self):
        # scaled width 3/8 survives the eps/n presolve but violates delta
        inst = make_instance([(0, 8, 0, 1), (0, 3, 0, 1)])
        with pytest.raises(ParameterError):
            ptas(inst, F(1, 2), F(1, 2))

    def test_presolved_slivers_do_not_violate_delta(self):
        # a rect below the eps/n presolve threshold is stabbed greedily, not rejected
        inst = make_instance([(0, 8, 0, 1), (0, 1, 2, 3)])
        sol = ptas(inst, F(1, 2), F(1, 2))
        assert verify(inst, sol).feasible

    def test_parameter_validation(self, i1):
        with pytest.raises(ParameterError):
            ptas(i1, F(2), F(1, 2))
        with pytest.raises(ParameterError):
            ptas(i1, F(1, 2), F(0))

    @given(st.integers(0, 30))
    @settings(max_examples=30)
    def test_uniform_width_exact_per_chunk(self, seed):
        inst = gen_bounded_ratio(seed % 6 + 1, F(1), seed)
        sol = ptas(inst, F(1, 2), F(1))
        opt = exact_opt(inst)
        assert verify(inst, sol).feasible
        assert sol.cost <= (1 + 17 * F(1, 2)) * opt.cost

    @given(st.integers(0, 30))
    @settings(max_examples=30)
    def test_guarantee_on_bounded_ratio(self, seed):
        inst = gen_bounded_ratio(seed % 8 + 1, F(1, 2), seed)
        sol = ptas(inst, F(1, 2), F(1, 2))
        opt = exact_opt(inst)
        assert verify(inst, sol).feasible
        assert sol.cost <= (1 + 17 * F(1, 2)) * opt.cost


class TestQptas:
    def test_i1_with_oracle_base(self, i1, half):
        params = SchemeParams.derive(3, half, oracle_limit=8, node_budget=10**6)
        stats = RunStats()
        sol = qptas(i1, half, params=params, stats=stats)
        assert verify(i1, sol).feasible
        assert sol.cost == 6
        assert stats.max_depth <= ceil_log2(F(3) / half) + 1

    def test_empty(self):
        assert qptas(Instance(()), F(1, 2)).cost == 0

    def test_parameter_validation(self, i1):
        with pytest.raises(ParameterError):
            qptas(i1, F(1))

    def test_single_wide_guess_terminates_at_depth_one(self):
        # every rect is wide, so a correct guess leaves an empty residual
        inst = make_instance([(0, 4, 0, 1), (0, 4, 2, 3)])
        params = SchemeParams.derive(2, F(1, 2), mu=F(1, 2), klong=4, oracle_limit=0)
        stats = RunStats()
        sol = qptas(inst, F(1, 2), params=params, stats=stats)
        assert verify(inst, sol).feasible
        assert stats.max_depth <= 1

    def test_budget_error(self):
        inst = gen_uniform(6, 3)
        params = SchemeParams.derive(6, F(1, 2), mu=F(1, 2), oracle_limit=0, node_budget=2)
        with pytest.raises(BudgetError):
            qptas(inst, F(1, 2), params=params)

    @given(st.integers(0, 25))
    @settings(max_examples=25)
    def test_forced_recursion_stays_sound(self, seed):
        n = seed % 5 + 2
        inst = gen_uniform(n, seed)
        params = SchemeParams.derive(n, F(1, 2), mu=F(1, 2), klong=8, oracle_limit=0, node_budget=10**6)
        stats = RunStats()
        sol = qptas(inst, F(1, 2), params=params, stats=stats)
        opt = exact_opt(inst)
        assert verify(inst, sol).feasible
        assert sol.cost >= opt.cost
        assert stats.max_depth <= ceil_log2(F(n) / F(1, 2)) + 1
        # exact rational accounting: no drift between buckets and the output
        assert stats.normalized_cost == stats.paid_cost + stats.base_cost + stats.guess_cost

    @given(st.integers(0, 25))
    @settings(max_examples=25)
    def test_recursion_only_on_narrow_residuals(self, seed):
        # guess_long gets half the level's scale; below the root every rect
        # left for a level must be narrower than that level's scale
        import stabkit.schemes as schemes

        n = seed % 5 + 4
        inst = gen_uniform(n, seed)
        params = SchemeParams.derive(n, F(1, 2), mu=F(1, 2), klong=8, oracle_limit=0, node_budget=10**6)
        calls = []
        real = schemes.guess_long

        def spy(chunk, min_len, *args):
            calls.append((max(r.width for r in chunk.rects), min_len))
            return real(chunk, min_len, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(schemes, "guess_long", spy)
            qptas(inst, F(1, 2), params=params)
        root = calls[0][1]
        assert all(width < 2 * min_len for width, min_len in calls if min_len < root)

    @given(st.integers(0, 30))
    @settings(max_examples=30)
    def test_guarantee_with_oracle_base(self, seed):
        n = seed % 8 + 1
        inst = gen_uniform(n, seed)
        params = SchemeParams.derive(n, F(1, 2), oracle_limit=8, node_budget=10**6)
        sol = qptas(inst, F(1, 2), params=params)
        opt = exact_opt(inst)
        assert verify(inst, sol).feasible
        assert sol.cost <= (1 + F(1, 2)) * opt.cost

    def test_exact_fallback_when_no_guess_fits_klong(self, monkeypatch):
        # with klong = 1 some chunks need two long segments, so no guess is
        # admissible and the chunk falls back to the exact oracle; only such
        # a fallback hands the oracle a chunk above oracle_limit
        import stabkit.schemes as schemes

        params = SchemeParams.derive(11, F(1, 2), mu=F(1, 2), klong=1, oracle_limit=2)
        fallbacks = []
        real = schemes.exact_opt

        def spy(inst, *args, **kwargs):
            if len(inst.rects) > params.oracle_limit:
                fallbacks.append(len(inst.rects))
            return real(inst, *args, **kwargs)

        monkeypatch.setattr(schemes, "exact_opt", spy)
        inst = gen_uniform(11, 0)
        stats = RunStats()
        sol = qptas(inst, F(1, 2), params=params, stats=stats)
        assert fallbacks
        assert verify(inst, sol).feasible
        # the fallback's cost lands in the split next to paid and guessed parts
        assert stats.paid_cost > 0 and stats.guess_cost > 0 and stats.max_depth >= 1
        assert stats.normalized_cost == stats.paid_cost + stats.base_cost + stats.guess_cost

    def test_fallback_above_the_leaf_limit_names_the_chunk(self):
        # no guess of one long segment stabs every wide rect of a 24-rect
        # chunk, which is also too large for the exact leaf; the message
        # names that chunk and limit, not the input's 40 rects or the
        # oracle_limit of 0
        params = SchemeParams.derive(40, F(1, 2), mu=F(1, 2), klong=1, oracle_limit=0)
        with pytest.raises(OracleLimitError) as exc:
            qptas(gen_uniform(40, 2), F(1, 2), params=params)
        assert str(exc.value) == (
            "a chunk of 24 rects has no guess of at most klong=1 long segments "
            "and is above the exact leaf's limit of 20"
        )

    def test_budget_of_the_nodes_entered_does_not_finish_a_guessing_run(self):
        # the budget also ticks once per subset guess_long reaches, so a run
        # that guesses needs more than the nodes RunStats counts
        inst = gen_uniform(20, 1000)
        params = SchemeParams.derive(20, F(1, 2), mu=F(1, 2), klong=4, oracle_limit=6)
        stats = RunStats()
        qptas(inst, F(1, 2), params=params, stats=stats)
        assert stats.guesses
        with pytest.raises(BudgetError):
            qptas(inst, F(1, 2), params=dataclasses.replace(params, node_budget=stats.nodes))

    @pytest.mark.parametrize(
        "n, seed, overrides, expected",
        # RunStats(max_depth, nodes, guesses, paid, guess, base, normalized);
        # nodes count the branches entered, guesses every guess returned
        [
            (11, 0, dict(klong=1, oracle_limit=2), RunStats(1, 2, 1, F(5, 2), F(25, 16), F(27, 8), F(119, 16))),
            (16, 1, dict(klong=4, oracle_limit=6), RunStats(1, 4, 4, F(2), F(103, 16), F(21, 16), F(39, 4))),
            # perfbench's QPTAS_OVERRIDES, on an instance of its schemes size
            (20, 1000, dict(klong=4, oracle_limit=6), RunStats(1, 3, 12, F(4), F(4, 3), F(82, 15), F(54, 5))),
        ],
    )
    def test_cost_split_pins_all_three_parts(self, n, seed, overrides, expected):
        # a segment charged to the wrong part still adds up to the output
        # cost; these runs have paid, guessed and exact-leaf segments, so
        # only pinned values catch it
        stats = RunStats()
        inst = gen_uniform(n, seed)
        params = SchemeParams.derive(n, F(1, 2), mu=F(1, 2), **overrides)
        sol = qptas(inst, F(1, 2), params=params, stats=stats)
        assert stats == expected
        assert verify(inst, sol).feasible

    @given(st.integers(1, 12), st.integers(0, 10**6), st.integers(2, 8), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_guess_skip_matches_recursing_on_every_guess(self, n, seed, klong, oracle_limit):
        # a skipped guess could at best tie the best branch, and ties go to
        # the earlier guess, so the output and its cost split stay the same
        inst = gen_uniform(n, seed)
        params = SchemeParams.derive(n, F(1, 2), mu=F(1, 2), klong=klong, oracle_limit=oracle_limit)
        stats = RunStats()
        sol = qptas(inst, F(1, 2), params=params, stats=stats)
        want, every = qptas_every_guess(inst, F(1, 2), params)
        assert solution_to_json(sol) == solution_to_json(want)
        split = ("paid_cost", "guess_cost", "base_cost", "normalized_cost")
        assert [getattr(stats, name) for name in split] == [getattr(every, name) for name in split]
        # a skipped branch guesses nothing below it
        assert stats.nodes <= every.nodes and stats.guesses <= every.guesses

    @given(st.sampled_from(GENERATED_KINDS), st.integers(1, 10), st.integers(0, 10**6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_chunk_table_bound_is_at_most_the_residual_optimum(self, kind, n, seed, data):
        # every candidate of a residual is dominated by a row of its chunk's
        # full table, so the dual pass over those rows, restricted to the
        # residual, is at most the residual's optimum; the pass and its order
        # are the table's own, as qptas runs them
        chunk = generated_instance(kind, n, seed)
        table = _candidate_table(chunk)
        left = data.draw(st.integers(0, (1 << n) - 1))
        bound, _ = table.dual(left, table.order(range(n)), math.inf)
        residual = chunk._restrict([i for i in range(n) if left >> i & 1])
        assert F(bound, chunk._grid.dx) <= exact_opt_subset_dp(residual).cost
