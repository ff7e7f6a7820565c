import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stabkit import (
    BudgetError,
    Candidate,
    InfeasibleError,
    Instance,
    OracleLimitError,
    ParameterError,
    Segment,
    Solution,
    approx8,
    candidate_segments,
    exact_opt,
    gen_bounded_ratio,
    gen_laminar,
    gen_uniform,
    greedy_cover,
    reduce_candidates,
    solution_to_json,
    solve_small,
    verify,
)

from stabkit.oracle import (
    _branch_and_bound,
    _candidate_table,
    _x_blocks,
)

from .conftest import make_instance
from .helpers import (
    affine_instance,
    affine_solution,
    branch_and_bound_unmemoized,
    brute_force_opt,
    exact_opt_subset_dp,
    fraction_table,
    GENERATED_KINDS,
    generated_instance,
    greedy_scan,
    grid_key,
    stab_mask,
)

GENERATORS = {
    "uniform": gen_uniform,
    "bounded": lambda n, seed: gen_bounded_ratio(n, Fraction(1, 2), seed),
    "laminar": gen_laminar,
}


@st.composite
def generated(draw, max_n=12):
    gen = GENERATORS[draw(st.sampled_from(sorted(GENERATORS)))]
    inst = gen(draw(st.integers(0, max_n)), draw(st.integers(0, 99)))
    return affine_instance(inst) if draw(st.booleans()) else inst


@st.composite
def tie_heavy(draw):
    # a tiny integer grid: duplicate spans, flat rects (yb == yt) and
    # identical rects under different ids are all common
    rects = []
    for _ in range(draw(st.integers(0, 9))):
        xl, yb = draw(st.integers(0, 4)), draw(st.integers(0, 3))
        rects.append((xl, xl + draw(st.integers(1, 3)), yb, yb + draw(st.integers(0, 2))))
    return make_instance(rects)


@st.composite
def shared_edges(draw):
    # a few x values and one height, 0, that every rect reaches: the rects
    # alive there share left and right edges in many combinations, some end
    # where others start, and flat ones (yb == yt == 0) sit on a shared top
    xs = sorted(draw(st.sets(st.integers(0, 6), min_size=2, max_size=4)))
    rects = []
    for _ in range(draw(st.integers(1, 8))):
        i = draw(st.integers(0, len(xs) - 2))
        j = draw(st.integers(i + 1, len(xs) - 1))
        rects.append((xs[i], xs[j], -draw(st.integers(0, 2)), draw(st.integers(0, 2))))
    inst = make_instance(rects)
    return affine_instance(inst) if draw(st.booleans()) else inst


class TestReduceCandidates:
    def test_same_set_keeps_shorter(self):
        inst = make_instance([(0, 2, 0, 1), (0, 2, 0, 2)])
        cands = [Segment(-1, 4, 1), Segment(0, 2, 1)]  # both stab both rects
        reduced = reduce_candidates(inst, cands)
        assert len(reduced) == 1 and reduced[0].segment.length == 2

    def test_dominated_subset_dropped(self):
        inst = make_instance([(0, 4, 0, 1), (1, 3, 0, 1)])
        narrow = Segment(-1, 3, 1)  # stabs only rect 2, length 4
        wide = Segment(0, 4, 1)  # stabs both rects, same length
        reduced = reduce_candidates(inst, [narrow, wide])
        assert [c.stab_set for c in reduced] == [0b11]

    def test_i1_reduced_contents(self, i1):
        reduced = reduce_candidates(i1, candidate_segments(i1))
        by_set = {c.stab_set: c.segment.length for c in reduced}
        assert by_set[0b011] == 4  # stabs rects 1 and 2
        assert by_set[0b100] == 2  # stabs rect 3

    @given(st.one_of(generated(), tie_heavy()), st.randoms(use_true_random=False))
    def test_shuffled_off_grid_list_keeps_the_same_rows(self, inst, rng):
        # off-grid segments reach past rect edges or sit between levels; the
        # kept rows must not depend on the order of the list
        half = Fraction(1, 2)
        cands = candidate_segments(inst)
        cands += [Segment(s.xl - half, s.xr + half, s.y - half) for s in cands[::3]]
        ordered = sorted(cands, key=lambda s: (s.xl, s.xr, s.y))
        rng.shuffle(cands)
        assert reduce_candidates(inst, cands) == reduce_candidates(inst, ordered)

    @given(st.integers(0, 60))
    def test_every_candidate_dominated_by_a_kept_one(self, seed):
        # the reduction is sound when each useful candidate is matched by a
        # kept one stabbing a superset at no greater length: any cover then
        # maps onto the kept list at no greater cost
        inst = gen_uniform(seed % 8 + 1, seed)
        kept = reduce_candidates(inst, candidate_segments(inst))
        for c in kept:
            assert c.stab_set == stab_mask(inst, c.segment)
        for seg in candidate_segments(inst):
            mask = stab_mask(inst, seg)
            if mask:
                assert any(
                    mask | c.stab_set == c.stab_set and c.segment.length <= seg.length for c in kept
                ), seg


def rows(table):
    """A candidate table's keys, masks and lengths."""
    return table.keys, table.masks, table.lengths


def assert_table_is_reference(inst, blocks=None):
    """The table swept per block, or over the whole instance when
    ``blocks`` is None, against ``reduce_candidates``, less the rows across
    a gap between blocks; returns the rows as ``Candidate``s."""
    table = _candidate_table(inst, blocks)
    keys, masks, lengths = rows(table)
    ref = reduce_candidates(inst, candidate_segments(inst))
    if blocks is not None:
        parts = [sum(1 << p for p in block) for block in blocks]
        ref = [c for c in ref if any(c.stab_set & ~part == 0 for part in parts)]
    # integer rows on the instance's view: keys are grid integers, and the
    # lengths are over the least common denominator of the rects' x
    # coordinates, equal to the lengths the grid kernel computed, not
    # merely proportional to them
    assert all(type(v) is int for key in keys for v in key)
    assert keys == [grid_key(inst, c.segment) for c in ref]
    assert masks == [c.stab_set for c in ref]
    den = math.lcm(*(v.denominator for r in inst.rects for v in (r.xl, r.xr)))
    assert all(type(length) is int for length in lengths)
    assert lengths == [c.segment.length * den for c in ref]
    # the solvers' maps back to Fractions and to per-rect rows
    cands = [Candidate(Segment(*key), mask) for key, mask in zip(table.coords(range(len(keys))), masks)]
    assert cands == ref
    assert table.covering == [
        [ci for ci, c in enumerate(ref) if c.stab_set >> i & 1] for i in range(len(inst.rects))
    ]
    return cands


@given(st.one_of(generated(), tie_heavy(), shared_edges()))
def test_candidate_table_matches_reference(inst):
    assert_table_is_reference(inst)


class TestCandidateTableSweep:
    def test_shared_right_edge_recorded_whole(self):
        # at y = 2 three alive rects, one of them flat, end at x = 4, so
        # [0, 4] x 2 stabs all three
        inst = make_instance([(0, 4, 0, 2), (2, 4, 1, 3), (3, 4, 2, 2), (1, 6, 0, 2)])
        cands = assert_table_is_reference(inst)
        assert Candidate(Segment(0, 4, 2), 0b0111) in cands

    def test_flat_rects_on_a_shared_top(self):
        inst = make_instance([(0, 2, 1, 1), (1, 3, 1, 1), (2, 4, 0, 1), (0, 4, 1, 1)])
        cands = assert_table_is_reference(inst)
        assert [(c.segment, c.stab_set) for c in cands] == [
            (Segment(0, 2, 1), 0b0001),
            (Segment(0, 3, 1), 0b0011),
            (Segment(0, 4, 1), 0b1111),
            (Segment(1, 3, 1), 0b0010),
            (Segment(1, 4, 1), 0b0110),
            (Segment(2, 4, 1), 0b0100),
        ]

    def test_rects_touching_at_an_x_endpoint(self):
        inst = make_instance([(0, 2, 0, 1), (2, 4, 0, 1), (4, 6, 1, 2)])
        # closed boundaries: [0, 4] x 1 stabs both rects that meet at x = 2,
        # and [2, 6] x 1 the second and the third, which meet at its y = 1
        cands = assert_table_is_reference(inst)
        assert [(c.segment, c.stab_set) for c in cands] == [
            (Segment(0, 2, 1), 0b001),
            (Segment(0, 4, 1), 0b011),
            (Segment(0, 6, 1), 0b111),
            (Segment(2, 4, 1), 0b010),
            (Segment(2, 6, 1), 0b110),
            (Segment(4, 6, 1), 0b100),
        ]

    def test_one_rect(self):
        third, five_halves, seventh = Fraction(1, 3), Fraction(5, 2), Fraction(1, 7)
        inst = make_instance([(third, five_halves, 0, seventh)])
        # x over dx = 6 and y over dy = 7
        table = _candidate_table(inst)
        assert rows(table) == ([(2, 15, 1)], [1], [13])
        assert table.coords([0]) == [(third, five_halves, seventh)]
        assert table.covering == [[0]]

    def test_no_rects(self):
        table = _candidate_table(Instance(()))
        assert rows(table) == ([], [], [])
        assert table.coords([]) == []
        assert table.covering == []

    def test_level_that_keeps_no_row(self):
        # at y = 5 only the tall rect is alive, and [0, 4] x 2 stabs it too
        inst = make_instance([(0, 4, 0, 2), (0, 4, 0, 5)])
        cands = assert_table_is_reference(inst)
        assert cands == [Candidate(Segment(0, 4, 2), 0b11)]


class TestNewbornSweep:
    """Each level records only the sets that hold a rect whose first level
    it is, and tries only the left edges at or left of such a rect's."""

    @given(st.sampled_from(GENERATED_KINDS), st.integers(0, 12), st.integers(0, 99), st.booleans())
    def test_generated_table_is_reference(self, kind, n, seed, split):
        inst = generated_instance(kind, n, seed)
        assert_table_is_reference(inst, _x_blocks(inst) if split else None)

    @pytest.mark.parametrize("split", [False, True])
    def test_new_set_starting_at_a_newborn_left_edge(self, split):
        # at y = 3 the first rect is gone and the second, first alive there,
        # is the only new set; it starts at x = 2, the largest left edge of
        # a newborn, which a bound strictly below it would skip
        inst = make_instance([(0, 3, 0, 1), (2, 4, 2, 3)])
        assert len(_x_blocks(inst)) == 1
        assert_table_is_reference(inst, _x_blocks(inst) if split else None)
        assert rows(_candidate_table(inst)) == ([(0, 3, 1), (2, 4, 3)], [0b01, 0b10], [3, 2])

    @pytest.mark.parametrize("split", [False, True])
    def test_set_without_a_newborn_is_dominated_at_its_span(self, split):
        # at y = 5 the third rect is newborn and reach is its left edge 3;
        # [3, 6] x 5 stabs only the first rect, whose span [4, 6] holds the
        # first two rects together at y = 3, so that set is dominated there
        # and must not be recorded at [3, 6], where nothing dominates it
        inst = make_instance([(4, 6, 2, 5), (5, 6, 1, 3), (3, 7, 4, 6)])
        assert_table_is_reference(inst, _x_blocks(inst) if split else None)
        assert rows(_candidate_table(inst)) == ([(3, 7, 5), (4, 6, 3), (5, 6, 3)], [0b101, 0b011, 0b010], [4, 2, 1])


@pytest.mark.parametrize("solver", [exact_opt, greedy_cover])
@given(seed=st.integers(0, 60))
def test_affine_map_keeps_segments(solver, seed):
    # x -> x/3 + 1/7 leaves the power-of-two grid of the generator: the
    # integer lengths then sit over a denominator with odd factors, and every
    # tie-break must still land on the mapped segments
    inst = gen_uniform(seed % 9 + 1, seed)
    sol = solver(inst)
    mapped = solver(affine_instance(inst))
    assert mapped == affine_solution(sol)
    assert mapped.cost == sol.cost / 3


class TestExactOpt:
    def test_i1(self, i1):
        sol = exact_opt(i1)
        assert sol.cost == 6
        assert verify(i1, sol).feasible

    def test_single_rect(self):
        assert exact_opt(make_instance([(0, 4, 0, 2)])).cost == 4

    def test_empty(self):
        assert exact_opt(Instance(())).cost == 0

    def test_limit(self):
        inst = gen_uniform(6, 1)
        with pytest.raises(OracleLimitError):
            exact_opt(inst, limit=5)

    @pytest.mark.parametrize("limit", [-1, 12.5, True, Fraction(12), "12"])
    def test_limit_must_be_a_non_negative_integer(self, i1, limit):
        with pytest.raises(ParameterError):
            exact_opt(i1, limit=limit)

    def test_matches_brute_force(self, i1):
        assert exact_opt(i1).cost == brute_force_opt(i1)

    @given(st.integers(0, 40))
    @settings(max_examples=40)
    def test_brute_force_cross_check_small(self, seed):
        inst = gen_uniform(seed % 3 + 1, seed)
        assert exact_opt(inst).cost == brute_force_opt(inst)

    @given(st.one_of(generated(max_n=14), tie_heavy()))
    def test_matches_subset_dp(self, inst):
        # the whole solution, not just its cost: the search must land on the
        # optimum the DP reconstructs, ties included
        assert exact_opt(inst) == exact_opt_subset_dp(inst)

    def test_reduced_cost_skip_fires(self):
        # the search enters 84 nodes here, over three blocks, when it skips
        # children by reduced cost, and 316 without the skip
        inst = gen_uniform(20, 2)
        assert _branch_and_bound(inst, node_budget=150) == exact_opt(inst)

    def test_deterministic_bytes(self, i1):
        a = solution_to_json(exact_opt(i1))
        b = solution_to_json(exact_opt(i1))
        assert a == b


@st.composite
def one_rect(draw):
    """One rect over mixed denominators, zero height included, under the
    affine map x -> x/3 + 1/7 or not."""
    xl = Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 12)))
    width = Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 12)))
    yb = Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 12)))
    height = Fraction(draw(st.integers(0, 40)), draw(st.integers(1, 12)))
    inst = make_instance([(xl, xl + width, yb, yb + height)])
    return affine_instance(inst) if draw(st.booleans()) else inst


class TestOneRect:
    # an instance of one rect is solved without a candidate table, as the
    # table's one row: the rect's own span at its top edge, at one node

    @given(one_rect())
    def test_matches_the_table_path(self, inst):
        keys, masks, lengths, covering = fraction_table(inst, _x_blocks(inst))
        assert (masks, covering) == ([1], [[0]])
        table = Solution((Segment(*keys[0]),))
        sol = _branch_and_bound(inst)
        assert sol == table == branch_and_bound_unmemoized(inst) == exact_opt_subset_dp(inst)
        assert solution_to_json(sol) == solution_to_json(table)
        assert sol.cost == Fraction(lengths[0], inst._grid.dx)
        assert exact_opt(inst, limit=1) == solve_small(inst, 1) == sol

    def test_takes_one_node_of_the_budget(self):
        inst = make_instance([(Fraction(1, 3), Fraction(5, 2), 0, 0)])
        assert _branch_and_bound(inst, node_budget=1).segments == (Segment(Fraction(1, 3), Fraction(5, 2), 0),)
        with pytest.raises(BudgetError):
            _branch_and_bound(inst, node_budget=0)
        with pytest.raises(BudgetError):
            solve_small(inst, 1, node_budget=0)


class TestGreedy:
    def test_i1_follows_tie_breaks(self, i1):
        # ratio ties resolve to the smaller length, then lexicographic order:
        # [1,3]x2 and [5,7]x2 come before [0,4]x2, total 8 (optimum is 6)
        sol = greedy_cover(i1)
        assert verify(i1, sol).feasible
        assert sol.cost == 8
        assert sol.segments[0] == Segment(1, 3, 2)

    def test_single_rect(self):
        sol = greedy_cover(make_instance([(0, 4, 0, 2)]))
        assert sol.segments == (Segment(0, 4, 2),)

    def test_empty(self):
        assert greedy_cover(Instance(())).segments == ()

    def test_disjoint_rects_forced_cover(self):
        inst = make_instance([(6 * i, 6 * i + 2, 0, 1) for i in range(5)])
        assert greedy_cover(inst).cost == 10

    @given(st.integers(0, 50))
    def test_log_bound_and_lower_bound(self, seed):
        n = seed % 15 + 1
        inst = gen_uniform(n, seed)
        greedy = greedy_cover(inst)
        opt = exact_opt(inst)
        assert verify(inst, greedy).feasible
        assert opt.cost <= greedy.cost
        if opt.cost > 0:
            assert float(greedy.cost / opt.cost) <= 1 + math.log(n) + 1e-9


def table_scale(keys, lengths) -> Fraction:
    """The factor from segment lengths to the table's integer lengths."""
    return next((Fraction(n) / (xr - xl) for (xl, xr, _), n in zip(keys, lengths) if n), Fraction(0))


class TestDualBound:
    def test_empty_uncovered_set(self, i1):
        assert _candidate_table(i1).dual(0, range(3), math.inf)[0] == 0

    def test_i1_reaches_the_optimum(self, i1):
        keys, _, lengths, _ = fraction_table(i1)
        assert _candidate_table(i1).dual(0b111, range(3), math.inf)[0] == 6 * table_scale(keys, lengths)

    @given(st.one_of(generated(), tie_heavy()))
    def test_below_every_cover_of_the_instance(self, inst):
        keys, _, lengths, covering = fraction_table(inst)
        table = _candidate_table(inst)
        n = len(inst.rects)
        # the record's rows per rect are the reference's, and its dual order
        # sorts the rects by how few rows stab them
        assert table.covering == covering
        order = table.order(range(n))
        assert order == sorted(range(n), key=lambda i: (len(covering[i]), i))
        bound = table.dual((1 << n) - 1, order, math.inf)[0]
        scale = table_scale(keys, lengths)
        assert isinstance(bound, int)
        assert bound <= exact_opt_subset_dp(inst).cost * scale
        assert bound <= greedy_cover(inst).cost * scale
        assert bound <= approx8(inst).cost * scale

    @given(st.one_of(generated(), tie_heavy()), st.randoms(use_true_random=False))
    def test_any_order_and_subset(self, inst, rng):
        # the bound on a subset of rects holds for every visiting order, and
        # the table covers any subset as cheaply as the subset's own table
        keys, _, lengths, _ = fraction_table(inst)
        n = len(inst.rects)
        order = list(range(n))
        rng.shuffle(order)
        uncovered = rng.getrandbits(n) if n else 0
        part = Instance(tuple(r for i, r in enumerate(inst.rects) if uncovered >> i & 1))
        bound = _candidate_table(inst).dual(uncovered, order, math.inf)[0]
        assert bound <= exact_opt_subset_dp(part).cost * table_scale(keys, lengths)

    @given(st.one_of(generated(), tie_heavy(), shared_edges()), st.randoms(use_true_random=False))
    def test_early_exit_decides_as_the_full_bound(self, inst, rng):
        # the search prunes when the bound reaches the gap to the incumbent:
        # the early exit must reach it exactly when the full pass does, and
        # below it return the full pass itself
        table = _candidate_table(inst)
        n = len(inst.rects)
        order = table.order(range(n))
        for _ in range(8):
            uncovered = rng.getrandbits(n) if n else 0
            full, full_slack = table.dual(uncovered, order, math.inf)
            for gap in {0, 1, full - 1, full, full + 1, rng.randint(0, 2 * full + 2)}:
                bound, slack = table.dual(uncovered, order, gap)
                assert (bound >= gap) == (full >= gap)
                assert slack is None or (bound, slack) == (full, full_slack)
                if full < gap:
                    assert (bound, slack) == (full, full_slack)
                else:
                    assert gap <= bound <= full

    @given(st.one_of(generated(), tie_heavy(), shared_edges()))
    def test_reduced_cost_bounds_every_child(self, inst):
        # after a full root pass, the duals of the rects a candidate leaves
        # unstabbed stay feasible: a cover that picks ci costs at least
        # bound + slack[ci], which is what lets the search skip that child
        keys, masks, lengths, _ = fraction_table(inst)
        table = _candidate_table(inst)
        n = len(inst.rects)
        bound, slack = table.dual((1 << n) - 1, table.order(range(n)), math.inf)
        scale = table_scale(keys, lengths)
        for ci, mask in enumerate(masks):
            rest = Instance(tuple(r for i, r in enumerate(inst.rects) if not mask >> i & 1))
            assert 0 <= slack[ci] <= lengths[ci]
            assert bound + slack[ci] <= lengths[ci] + exact_opt_subset_dp(rest).cost * scale


def root_covers(inst):
    """Per block of ``_x_blocks``, its positions and the cover the table's
    ``cover`` reads off the root's full dual pass over the block's own dual
    order, with the reference table."""
    blocks = _x_blocks(inst)
    table, reference = _candidate_table(inst, blocks), fraction_table(inst, blocks)
    for part in blocks:
        _, slack = table.dual(sum(1 << p for p in part), table.order(part), math.inf)
        yield part, table.cover(part, slack), reference


class TestRootCover:
    """The search's incumbent comes from the cover read off its root's dual
    pass: it must stab every rect of its part, hold no redundant row and
    cost at least the optimum it seeds."""

    @given(st.one_of(generated(), tie_heavy(), shared_edges()))
    def test_block_cover_stabs_its_block_at_no_less_than_opt(self, inst):
        for part, cover, (keys, masks, lengths, _) in root_covers(inst):
            uncovered = sum(1 << p for p in part)
            union = 0
            for ci in cover:
                union |= masks[ci]
            assert union & uncovered == uncovered and union & ~uncovered == 0
            # reverse delete leaves each row a rect no other row stabs
            for ci in cover:
                others = 0
                for cj in cover:
                    if cj != ci:
                        others |= masks[cj]
                assert masks[ci] & ~others
            block = Instance(tuple(inst.rects[p] for p in part))
            cost = sum(lengths[ci] for ci in cover)
            assert cost >= exact_opt_subset_dp(block).cost * table_scale(keys, lengths)

    def test_root_cover_beats_greedy(self):
        # one block of 35 rects; started one above greedy's cost, the search
        # entered 351 nodes here, and from the root cover it enters 21
        inst = gen_uniform(35, 3)
        assert _branch_and_bound(inst, node_budget=21) == exact_opt(inst, limit=35)
        with pytest.raises(BudgetError):
            _branch_and_bound(inst, node_budget=20)

    def test_memo_return_keeps_the_search_within_budget(self):
        # one block of 45 rects; the search enters 693 nodes here, and 932
        # when a state already entered at no higher cost is entered again
        inst = gen_uniform(45, 1)
        assert _branch_and_bound(inst, node_budget=800) == exact_opt(inst, limit=45)


class TestAgainstUnmemoizedSearch:
    """The memoized search with its early-exit bound, and the lazy greedy,
    land on the very solutions of the plain search and the full scan."""

    @given(st.one_of(generated(), tie_heavy(), shared_edges()))
    def test_exact_opt(self, inst):
        assert exact_opt(inst) == branch_and_bound_unmemoized(inst)

    @given(st.one_of(generated(), tie_heavy(), shared_edges()))
    def test_solve_small_at_every_cap(self, inst):
        want = branch_and_bound_unmemoized(inst)
        for k in range(1, len(inst.rects) + 1):
            if len(want.segments) > k:
                with pytest.raises(InfeasibleError):
                    solve_small(inst, k)
            else:
                assert solve_small(inst, k) == want

    @given(st.one_of(generated(), tie_heavy(), shared_edges()))
    def test_greedy_cover(self, inst):
        assert greedy_cover(inst) == greedy_scan(inst)


@st.composite
def gapped_groups(draw):
    """1-4 groups of 1-4 rects on a grid of halves, each group placed after
    the one before with a gap of 0 (the groups touch), 1/2 or 1.  Within a
    group the rects may overlap, touch or leave gaps of their own."""
    rects, start = [], Fraction(0)
    for _ in range(draw(st.integers(1, 4))):
        group = []
        for _ in range(draw(st.integers(1, 4))):
            xl, width = draw(st.integers(0, 6)), draw(st.integers(1, 4))
            yb = draw(st.integers(0, 3))
            group.append((Fraction(xl, 2), Fraction(xl + width, 2), yb, yb + draw(st.integers(0, 2))))
        left = min(xl for xl, _, _, _ in group)
        rects += [(start + xl - left, start + xr - left, yb, yt) for xl, xr, yb, yt in group]
        start = max(xr for _, xr, _, _ in rects) + Fraction(draw(st.integers(0, 2)), 2)
    rng = draw(st.randoms(use_true_random=False))
    rng.shuffle(rects)
    inst = make_instance(rects)
    return affine_instance(inst) if draw(st.booleans()) else inst


def block_extents(inst, blocks):
    return [(min(inst.rects[p].xl for p in b), max(inst.rects[p].xr for p in b)) for b in blocks]


class TestBlocks:
    """The oracle and greedy run on the table without the rows that
    span a gap between blocks, and the search runs once per block; both must
    give the very solutions of the references on the full table."""

    @given(st.one_of(gapped_groups(), generated(), tie_heavy(), shared_edges()))
    def test_blocks_are_the_closed_overlap_components(self, inst):
        blocks = _x_blocks(inst)
        assert sorted(p for b in blocks for p in b) == list(range(len(inst.rects)))
        block_of = {p: k for k, b in enumerate(blocks) for p in b}
        for p, r in enumerate(inst.rects):
            for q, t in enumerate(inst.rects):
                if r.xl <= t.xr and t.xl <= r.xr:
                    assert block_of[p] == block_of[q]
        extents = block_extents(inst, blocks)
        assert all(hi < lo for (_, hi), (lo, _) in zip(extents, extents[1:]))

    @given(gapped_groups())
    def test_exact_opt(self, inst):
        assert exact_opt(inst) == branch_and_bound_unmemoized(inst)

    @given(gapped_groups())
    def test_greedy_cover(self, inst):
        assert greedy_cover(inst) == greedy_scan(inst)

    @given(st.one_of(gapped_groups(), generated(max_n=20), shared_edges()))
    def test_table_is_the_full_table_less_the_rows_across_a_gap(self, inst):
        blocks = _x_blocks(inst)
        keys, masks, lengths = rows(_candidate_table(inst))
        parts = [sum(1 << p for p in b) for b in blocks]
        inside = [ci for ci, mask in enumerate(masks) if any(mask & ~part == 0 for part in parts)]
        split = rows(_candidate_table(inst, blocks))
        assert split == ([keys[ci] for ci in inside], [masks[ci] for ci in inside], [lengths[ci] for ci in inside])
        g = inst._grid
        extents = [(min(g.xl[p] for p in b), max(g.xr[p] for p in b)) for b in blocks]
        gaps = [(hi, lo) for (_, hi), (lo, _) in zip(extents, extents[1:])]
        for ci in set(range(len(masks))) - set(inside):
            xl, xr, _ = keys[ci]
            assert any(xl <= hi < lo <= xr for hi, lo in gaps), keys[ci]

    def test_touching_rects_keep_the_spanning_row(self):
        # the rects share only x = 2, so they are two components of the open
        # overlap graph but one block; the full table's tie-break stabs both
        # with [0, 4] x 1, which a split at open-overlap components would drop
        inst = make_instance([(2, 4, 0, 1), (0, 2, 0, 1)])
        assert len(_x_blocks(inst)) == 1
        assert exact_opt(inst).segments == (Segment(0, 4, 1),)
        assert exact_opt(inst) == branch_and_bound_unmemoized(inst)

    def test_solve_small_takes_the_pieces_across_a_gap(self):
        # one segment would have to span the gap, and the optimum takes the
        # two pieces instead, so k = 1 raises rather than searching the
        # table with the row across the gap
        inst = make_instance([(0, 1, 0, 1), (2, 3, 0, 1)])
        assert len(_x_blocks(inst)) == 2
        with pytest.raises(InfeasibleError):
            solve_small(inst, 1)
        assert solve_small(inst, 2) == exact_opt(inst)
        assert exact_opt(inst).segments == (Segment(0, 1, 1), Segment(2, 3, 1))

    # sha256 of the sorted-key JSON of exact_opt's solution, as it was when
    # the search ran on the whole instance (2.3 / 5.1 / 7.4 s on 2 vCPUs)
    BOUNDED_120 = {
        1: (Fraction(693, 8), "d90819af22f3d1ef5ae910b7394f1a00a5a91b046d31f3273a35a2ece3c89dc0"),
        2: (Fraction(653, 8), "0fd1484133bc8b554e73b1e960dff286a1f2aabb6e059826a90079a482dab518"),
        3: (Fraction(333, 4), "3b1f1a40bab3f6134260f278e3431fb1a4ab3fdeeb69c8ba7e040e595efdc77f"),
    }

    @pytest.mark.parametrize("seed", sorted(BOUNDED_120))
    def test_bounded_120_within_a_node_budget(self, seed):
        # 82-85 blocks and 129-135 nodes in all; the search over the whole
        # instance enters 418 / 577 / 875 nodes, each a dual pass over all
        # 120 rects
        inst = gen_bounded_ratio(120, Fraction(1, 2), seed)
        sol = _branch_and_bound(inst, node_budget=250)
        cost, digest = self.BOUNDED_120[seed]
        assert sol.cost == cost
        assert hashlib.sha256(json.dumps(solution_to_json(sol), sort_keys=True).encode()).hexdigest() == digest
        assert exact_opt(inst, limit=200) == sol


@pytest.mark.parametrize("kind, n, seed", [("uniform", 24, 1), ("uniform", 30, 1), ("uniform", 30, 2), ("bounded", 30, 1)])
def test_exact_opt_matches_highs_on_the_plain_candidates(kind, n, seed):
    # ground truth that shares no code with the candidate table: the 0/1
    # program over candidate_segments, one shortest segment per set of rects
    # it stabs by the plain predicate, on lengths scaled to integers
    pytest.importorskip("scipy")
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    inst = generated_instance(kind, n, seed)
    shortest: dict[int, Segment] = {}
    for s in candidate_segments(inst):
        mask = stab_mask(inst, s)
        if mask and (mask not in shortest or s.length < shortest[mask].length):
            shortest[mask] = s
    masks, segs = list(shortest), list(shortest.values())
    scale = math.lcm(*(s.length.denominator for s in segs))
    stabbed = LinearConstraint([[mask >> p & 1 for mask in masks] for p in range(n)], lb=1)
    lengths = np.array([s.length * scale for s in segs], dtype=float)
    mip = milp(lengths, constraints=stabbed, integrality=np.ones_like(lengths), bounds=Bounds(0, 1))
    assert mip.success
    report = verify(inst, Solution(tuple(s for s, x in zip(segs, mip.x) if x > 0.5)))
    opt = exact_opt(inst, limit=200).cost
    assert report.feasible and report.recomputed_cost == opt
    assert round(mip.fun) == opt * scale


@pytest.mark.parametrize("n, seed", [(40, 1), (40, 2), (50, 1), (50, 2), (80, 1), (80, 3)])
def test_exact_opt_matches_highs_at_the_frontier(n, seed):
    # past n of about 20 no reference here reaches: HiGHS solves the 0/1
    # program over the candidate table, least total length with every
    # rect's rows summing to at least 1, and its LP relaxation lies between
    # the root dual pass and the optimum, all on the table's integer scale
    pytest.importorskip("scipy")
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    inst = gen_uniform(n, seed)
    table = _candidate_table(inst)
    lengths = np.array(table.lengths, dtype=float)
    stabbed = LinearConstraint([[mask >> p & 1 for mask in table.masks] for p in range(n)], lb=1)
    mip = milp(lengths, constraints=stabbed, integrality=np.ones_like(lengths), bounds=Bounds(0, 1))
    lp = milp(lengths, constraints=stabbed, bounds=Bounds(0, 1))
    assert mip.success and lp.success
    report = verify(inst, table.solution([ci for ci, x in enumerate(mip.x) if x > 0.5]))
    opt = exact_opt(inst, limit=200).cost
    assert report.feasible and report.recomputed_cost == opt
    scaled = opt * inst._grid.dx
    assert round(mip.fun) == scaled
    root = table.dual((1 << n) - 1, table.order(range(n)), math.inf)[0]
    assert root <= lp.fun + 1e-6 * scaled and lp.fun <= scaled * (1 + 1e-6)
