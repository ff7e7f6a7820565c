import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from stabkit import (
    Instance,
    ParameterError,
    Rect,
    Segment,
    Solution,
    Transform,
    VerifyReport,
    approx8,
    as_scalar,
    candidate_segments,
    ceil_log2,
    denormalize,
    exact_opt,
    gen_uniform,
    greedy_cover,
    instance_from_json,
    instance_to_json,
    normalize,
    pow2,
    shrink_solution,
    solution_from_json,
    solution_to_json,
    split_independent,
    stabs,
    verify,
)

from .conftest import make_instance
from .helpers import canonicalize_segment, per_rect_solution, shrink_solution_pairwise, verify_pairwise


def rect_st(max_coord=12, den=4):
    return st.tuples(
        st.integers(0, max_coord * den - 1),
        st.integers(1, 2 * den),
        st.integers(0, max_coord * den),
        st.integers(0, 2 * den),
    ).map(lambda t: (F(t[0], den), F(t[0] + t[1], den), F(t[2], den), F(t[2] + t[3], den)))


def instance_st(max_n=5):
    return st.lists(rect_st(), min_size=0, max_size=max_n).map(make_instance)


@st.composite
def touching_solution(draw, max_n=6):
    # segments on the rects' own coordinates, or half a grid step off them:
    # ends on edges and corners, zero-length segments, and empty solutions
    inst = draw(instance_st(max_n))
    xs = sorted({v for r in inst.rects for v in (r.xl, r.xr)} | {F(0)})
    ys = sorted({v for r in inst.rects for v in (r.yb, r.yt)} | {F(0)})
    off = st.sampled_from([F(0), F(0), F(1, 8), F(-1, 8)])
    segments = []
    for _ in range(draw(st.integers(0, 8))):
        a = draw(st.sampled_from(xs)) + draw(off)
        b = a if draw(st.booleans()) else max(a, draw(st.sampled_from(xs)) + draw(off))
        segments.append(Segment(a, b, draw(st.sampled_from(ys)) + draw(off)))
    return inst, Solution(tuple(segments))


class TestScalar:
    def test_parse_forms(self):
        assert as_scalar("3/4") == F(3, 4)
        assert as_scalar("0.25") == F(1, 4)
        assert as_scalar("4") == 4
        assert as_scalar(7) == 7

    def test_rejects_floats_and_junk(self):
        with pytest.raises(ParameterError):
            as_scalar(0.25)
        with pytest.raises(ParameterError):
            as_scalar("x/y")

    @pytest.mark.parametrize(
        "x,t", [(F(1), 0), (F(3), 2), (F(4), 2), (F(1, 3), -1), (F(1, 4), -2), (F(5, 2), 2)]
    )
    def test_ceil_log2(self, x, t):
        assert ceil_log2(x) == t
        assert pow2(t) >= x > pow2(t - 1)


class TestTypes:
    def test_zero_width_rect_rejected(self):
        with pytest.raises(ParameterError):
            Rect(1, 2, 2, 0, 1)

    def test_inverted_rect_rejected(self):
        with pytest.raises(ParameterError):
            Rect(1, 0, 1, 3, 2)

    def test_segment_order(self):
        with pytest.raises(ParameterError):
            Segment(3, 1, 0)
        assert Segment(1, 1, 0).length == 0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ParameterError):
            Instance((Rect(1, 0, 1, 0, 1), Rect(1, 2, 3, 0, 1)))

    def test_max_width(self, i1):
        assert i1.max_width == 4
        assert Instance(()).max_width == 0

    def test_solution_cost_is_plain_sum(self):
        # overlapping segments are not merged
        sol = Solution((Segment(0, 4, 1), Segment(0, 4, 1)))
        assert sol.cost == 8


class TestStabs:
    def test_containment(self):
        assert stabs(Segment(0, 4, 2), Rect(1, 1, 3, 1, 5))

    def test_closed_top_edge(self):
        assert stabs(Segment(0, 4, 2), Rect(1, 0, 4, 0, 2))

    def test_short_span(self):
        assert not stabs(Segment(1, 3, 2), Rect(1, 0, 4, 0, 2))

    @given(rect_st(), st.integers(0, 48), st.integers(0, 12), st.integers(0, 8))
    def test_monotone_in_span_and_height(self, coords, sxl, extend, dy):
        r = Rect(1, *coords)
        s = Segment(r.xl, r.xr, r.yb)  # always stabs
        wider = Segment(s.xl - F(sxl, 4), s.xr + F(extend, 4), s.y)
        assert stabs(wider, r)
        lifted_y = s.y + F(dy, 8) * (r.yt - r.yb)
        assert stabs(Segment(wider.xl, wider.xr, lifted_y), r)


class TestVerify:
    def test_i1_feasible(self, i1):
        sol = Solution((Segment(0, 4, 2), Segment(5, 7, 3)))
        report = verify(i1, sol)
        assert report.feasible and report.recomputed_cost == 6

    def test_empty_solution(self, i1):
        report = verify(i1, Solution(()))
        assert not report.feasible
        assert report.unstabbed_ids == (1, 2, 3)

    def test_empty_instance(self):
        report = verify(Instance(()), Solution(()))
        assert report.feasible and report.recomputed_cost == 0

    def test_edge_and_corner_touches_count(self):
        inst = make_instance([(0, 2, 0, 1), (2, 4, 1, 3), (4, 6, 3, 3)])
        # ends on the rects' sides, heights on their bottom and top edges
        sol = Solution((Segment(0, 4, 1), Segment(4, 6, 3), Segment(5, 5, 3)))
        report = verify(inst, sol)
        assert report.feasible and report.recomputed_cost == 6
        short = Solution((Segment(0, F(7, 2), 1), Segment(4, 6, F(5, 2))))
        assert verify(inst, short).unstabbed_ids == (2, 3)

    def test_zero_length_segments_stab_nothing(self, i1):
        sol = Solution(tuple(Segment(r.xl, r.xl, r.yt) for r in i1.rects))
        report = verify(i1, sol)
        assert report.unstabbed_ids == (1, 2, 3) and report.recomputed_cost == 0

    @given(touching_solution())
    def test_matches_pairwise_reference(self, case):
        inst, sol = case
        report = verify(inst, sol)
        assert report == verify_pairwise(inst, sol)
        assert isinstance(report.recomputed_cost, F)

    @pytest.mark.parametrize("gap", [0, 1])
    def test_thousand_x_disjoint_rects(self, gap):
        # one height holds every segment, the case a per-pair scan made
        # quadratic; the rects touch (gap 0) or stand apart, and dropping
        # every other segment leaves those rects unstabbed
        n = 1000
        inst = Instance(tuple(Rect(i, 2 * i, 2 * i + 2 - gap, 0, 1) for i in range(n)))
        segments = [Segment(2 * i, 2 * i + 2 - gap, 1) for i in range(n)]
        assert verify(inst, Solution(tuple(segments))) == VerifyReport(True, (), F(n * (2 - gap)))
        half = verify(inst, Solution(tuple(segments[::2])))
        assert half == VerifyReport(False, tuple(range(1, n, 2)), F(n // 2 * (2 - gap)))


class TestCandidates:
    def test_single_rect(self):
        inst = make_instance([(0, 4, 0, 2)])
        assert candidate_segments(inst) == [Segment(0, 4, 2)]

    def test_i1_contents_and_count(self, i1):
        cands = set(candidate_segments(i1))
        assert len(cands) == 21 <= 27
        for seg in (Segment(0, 4, 2), Segment(0, 4, 5), Segment(0, 4, 3),
                    Segment(1, 3, 5), Segment(5, 7, 3)):
            assert seg in cands

    def test_identical_spans_dedup(self):
        inst = make_instance([(0, 4, 0, 2), (0, 4, 3, 5)])
        assert candidate_segments(inst) == [Segment(0, 4, 2), Segment(0, 4, 5)]

    @given(instance_st(max_n=4), st.data())
    def test_rearrangement_never_costs_more(self, inst, data):
        # any feasible solution can be moved onto the candidate grid
        if not inst.rects:
            return
        base = per_rect_solution(inst)
        # jitter the per-rect solution into a sloppier feasible one
        jittered = []
        for s in base.segments:
            dx = F(data.draw(st.integers(0, 3)), 2)
            jittered.append(Segment(s.xl - dx, s.xr + dx, s.y))
        sol = Solution(tuple(jittered))
        assert verify(inst, sol).feasible
        cands = set(candidate_segments(inst))
        rebuilt = []
        for s in sol.segments:
            c = canonicalize_segment(inst, s)
            if c is not None:
                rebuilt.append(c)
                assert c in cands
        rebuilt_sol = Solution(tuple(rebuilt))
        assert verify(inst, rebuilt_sol).feasible
        assert rebuilt_sol.cost <= sol.cost


class TestNormalize:
    def test_i1_scaling(self, i1, half):
        norm, t = normalize(i1, half)
        assert sorted(r.width for r in norm.rects) == [F(1, 2), F(1, 2), F(1)]
        assert t.presolved == ()  # eps/n = 1/6 is below every width
        assert min(r.xl for r in norm.rects) == 0
        assert t.x_scale == F(1, 4)

    def test_y_left_as_is(self, i1, half):
        norm, _ = normalize(i1, half)
        assert [(r.yb, r.yt) for r in norm.rects] == [(r.yb, r.yt) for r in i1.rects]

    def test_sliver_presolved(self):
        inst = make_instance([(0, 10, 0, 1), (0, F(1, 10), 2, 3)])  # width max/100
        norm, t = normalize(inst, F(1, 2))
        assert len(norm.rects) == 1
        assert [(rect_id, s) for rect_id, s in t.presolved] == [(2, Segment(0, F(1, 100), 3))]

    def test_empty_instance(self):
        norm, t = normalize(Instance(()), F(1, 2))
        assert norm.rects == () and t == Transform.identity()

    def test_eps_validation(self, i1):
        with pytest.raises(ParameterError):
            normalize(i1, F(0))

    @given(instance_st(max_n=4), st.sampled_from([F(1, 1000), F(1, 4), F(3, 4)]))
    def test_preserves_stab_sets(self, inst, eps):
        # the x image of any candidate segment stabs exactly what the original
        # stabbed, minus the presolved rects
        if not inst.rects:
            return
        norm, t = normalize(inst, eps)
        presolved_ids = {rect_id for rect_id, _ in t.presolved}
        for seg in candidate_segments(inst):
            image = Segment((seg.xl - t.x_shift) * t.x_scale, (seg.xr - t.x_shift) * t.x_scale, seg.y)
            before = {r.id for r in inst.rects if stabs(seg, r)} - presolved_ids
            after = {r.id for r in norm.rects if stabs(image, r)}
            assert before == after


class TestDenormalize:
    def test_identity(self):
        sol = Solution((Segment(0, 4, 2),))
        assert denormalize(sol, Transform.identity()) == sol

    def test_inverse_scale(self):
        t = Transform(F(1, 4), F(0), ())
        out = denormalize(Solution((Segment(0, 1, 0),)), t)
        assert out.segments[0].length == 4

    def test_round_trip_feasible(self, i1, half):
        norm, t = normalize(i1, half)
        back = denormalize(exact_opt(norm), t)
        assert verify(i1, back).feasible
        assert back.cost == 6

    @given(instance_st(max_n=5))
    def test_any_feasible_normalized_solution_maps_back_feasible(self, inst):
        if not inst.rects:
            return
        norm, t = normalize(inst, F(1, 3))
        sol = per_rect_solution(norm)  # feasible for the normalized instance
        back = denormalize(sol, t)
        assert verify(inst, back).feasible


class TestSplitIndependent:
    def test_i1_components(self, i1):
        parts = split_independent(i1)
        assert [sorted(r.id for r in p.rects) for p in parts] == [[1, 2], [3]]

    def test_shared_interval_single_component(self):
        inst = make_instance([(0, 4, 0, 1), (0, 4, 2, 3), (0, 4, 4, 5)])
        assert len(split_independent(inst)) == 1

    def test_touching_endpoints_split(self):
        inst = make_instance([(0, 2, 0, 1), (2, 4, 0, 1)])
        assert len(split_independent(inst)) == 2

    def test_empty(self):
        assert split_independent(Instance(())) == []

    @given(instance_st(max_n=5))
    def test_component_optima_add_up(self, inst):
        parts = split_independent(inst)
        total = sum((exact_opt(p).cost for p in parts), F(0))
        assert total == exact_opt(inst).cost


class TestShrink:
    @given(instance_st(max_n=5))
    def test_preserves_feasibility_and_never_longer(self, inst):
        sol = per_rect_solution(inst)
        widened = Solution(tuple(Segment(s.xl - 1, s.xr + 1, s.y) for s in sol.segments))
        shrunk = shrink_solution(inst, widened)
        assert verify(inst, shrunk).feasible or not inst.rects
        assert shrunk.cost <= widened.cost

    @given(touching_solution(), st.data())
    def test_matches_pairwise_reference(self, case, data):
        # segments on edges and corners, zero-length ones, and repeats of
        # earlier segments, which must come out empty and be dropped
        inst, sol = case
        repeats = data.draw(st.lists(st.sampled_from(sol.segments), max_size=3)) if sol.segments else []
        sol = Solution(data.draw(st.permutations(sol.segments + tuple(repeats))))
        assert shrink_solution(inst, sol) == shrink_solution_pairwise(inst, sol)

    @pytest.mark.parametrize("solver", [greedy_cover, approx8])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_pairwise_reference_on_solver_output(self, solver, seed):
        rng = random.Random(seed)
        for n in range(1, 13):
            inst = gen_uniform(n, seed)
            segments = list(solver(inst).segments)
            rng.shuffle(segments)
            sol = Solution(tuple(segments))
            assert shrink_solution(inst, sol) == shrink_solution_pairwise(inst, sol)

    def test_first_stabbing_segment_takes_the_rect(self):
        # the first two segments stab both rects, ending on or past their
        # outer edges; the first takes both and shrinks onto them, and the
        # second, the repeat and the zero-length one are dropped
        inst = make_instance([(0, 1, 0, 1), (1, 2, 1, 2)])
        sol = Solution((Segment(-1, 3, 1), Segment(0, 2, 1), Segment(-1, 3, 1), Segment(1, 1, 1)))
        assert shrink_solution(inst, sol) == Solution((Segment(0, 2, 1),))


class TestJson:
    def test_instance_round_trip(self, i1):
        explicit_ids = Instance(tuple(Rect(7 - r.id, r.xl, r.xr, r.yb, r.yt) for r in i1.rects))
        for inst in (i1, explicit_ids):
            blob = json.dumps(instance_to_json(inst))
            assert instance_from_json(json.loads(blob)) == inst

    def test_wire_format_shape(self, i1):
        obj = instance_to_json(i1)
        assert obj["rects"][0] == {"xl": "0", "xr": "4", "yb": "0", "yt": "2"}

    def test_fraction_strings(self):
        inst = instance_from_json({"rects": [{"xl": "1/2", "xr": "0.75", "yb": "0", "yt": "1"}]})
        assert inst.rects[0].xl == F(1, 2) and inst.rects[0].xr == F(3, 4)

    def test_solution_round_trip(self):
        sol = Solution((Segment(0, 4, 2), Segment(F(1, 2), F(3, 2), F(5, 3))))
        obj = solution_to_json(sol)
        assert obj["cost"] == "5"
        assert solution_from_json(json.loads(json.dumps(obj))) == sol

    def test_missing_field_errors(self):
        with pytest.raises(ParameterError):
            instance_from_json({"rects": [{"xl": "0", "xr": "1", "yb": "0"}]})
        with pytest.raises(ParameterError):
            solution_from_json({})

    RECT = {"xl": "0", "xr": "4", "yb": "0", "yt": "2"}

    @pytest.mark.parametrize(
        "load, obj, message",
        [
            (
                instance_from_json,
                {"rects": [RECT, dict(RECT, xr=True)]},
                "rect #2 xr must be an exact rational, not bool",
            ),
            (instance_from_json, {"rects": [dict(RECT, yb=0.5)]}, "rect #1 yb must be an exact rational, not float"),
            (
                instance_from_json,
                {"rects": [dict(RECT, xl="1" * 5000)]},
                "rect #1 xl must be an exact rational, not an unparsable string",
            ),
            (instance_from_json, {"rects": [dict(RECT, id="1" * 5000)]}, "rect #1: id must be an integer, not str"),
            (instance_from_json, {"rects": [{"xl": "0", "xr": "1", "yb": "0"}]}, "rect #1 is missing field 'yt'"),
            (
                solution_from_json,
                {"segments": [{"xl": "0", "xr": "1", "y": "0"}, {"xl": "0", "xr": "1", "y": None}]},
                "segment #2 y must be an exact rational, not NoneType",
            ),
        ],
        ids=["bool", "float", "5000-digits", "5000-digit-id", "missing", "segment-none"],
    )
    def test_loader_errors_name_position_and_field_not_value(self, load, obj, message):
        # a 5,000-digit string exceeds Python's int-string digit limit; the
        # message once echoed it in full, 5,022 characters
        with pytest.raises(ParameterError) as exc:
            load(obj)
        assert str(exc.value) == message and len(message) < 100

    @pytest.mark.parametrize("bad, kind", [(True, "bool"), (1.0, "float")])
    @pytest.mark.parametrize("at", [1, 2, 3])
    def test_equal_json_values_of_other_types_are_read_by_type(self, bad, kind, at):
        # True == 1 == 1.0 == Fraction(1), and the three hash alike: a value
        # read once must not stand in for an equal one of another type
        values = [1, "1"]
        values.insert(at - 1, bad)
        rects = [dict(self.RECT, xl=v, xr="2") for v in values]
        with pytest.raises(ParameterError, match=f"^rect #{at} xl must be an exact rational, not {kind}$"):
            instance_from_json({"rects": rects})
        inst = instance_from_json({"rects": [r for i, r in enumerate(rects, start=1) if i != at]})
        assert [r.xl for r in inst.rects] == [1, 1]
        assert all(type(v) is F for r in inst.rects for v in (r.xl, r.xr, r.yb, r.yt))

    def test_loaded_rects_share_each_distinct_value(self):
        inst = instance_from_json({"rects": [self.RECT, dict(self.RECT, yb="4", yt="4"), dict(self.RECT, xl="2")]})
        first, second, third = inst.rects
        assert first.xr is second.xr is third.xr and first.yt is third.yt and second.yb is second.yt


# arbitrary JSON values, plus documents shaped like the wire formats whose
# fields hold arbitrary values, so that the per-field checks are reached
SCALAR_TEXT = st.sampled_from(["1/2", "0.75", "-3", "1/0", "1e4301", "nan", "inf", "2e-5", "", "e"])
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=8), SCALAR_TEXT
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=12,
)


def wire_document(field, keys):
    value = st.one_of(st.integers(-2, 4), SCALAR_TEXT, JSON_VALUES)
    entry = st.one_of(
        st.fixed_dictionaries({k: value for k in keys[1:]}, optional={keys[0]: value}),
        st.dictionaries(st.sampled_from(keys), value, max_size=len(keys)),
    )
    return st.one_of(
        JSON_VALUES,
        st.fixed_dictionaries({field: st.one_of(JSON_VALUES, st.lists(entry, max_size=4))}),
    )


@settings(max_examples=200)
@given(wire_document("rects", ["id", "xl", "xr", "yb", "yt"]))
def test_instance_loader_returns_or_raises_parameter_error(obj):
    try:
        inst = instance_from_json(obj)
    except ParameterError:
        return
    assert isinstance(inst, Instance)


@settings(max_examples=200)
@given(wire_document("segments", ["cost", "xl", "xr", "y"]))
def test_solution_loader_returns_or_raises_parameter_error(obj):
    try:
        sol = solution_from_json(obj)
    except ParameterError:
        return
    assert isinstance(sol, Solution)
