"""Every parameter at its bound and just past it.

Each integer parameter goes through ``core._as_int`` with its least value,
each unit-interval rational through ``core._unit`` and each positive
rational through ``core._positive``: a value at the bound is accepted, one
just past it, a boolean, a float and an integer string are parameter errors.
A rational parameter parses the string "4", which then lies outside (0, 1)
but is positive.  A record checks its fields however it is built.
"""

from fractions import Fraction as F

import pytest

from stabkit import (
    Instance,
    ParameterError,
    Rect,
    SchemeParams,
    Transform,
    ceil_log2,
    crossing_rects,
    decompose,
    exact_opt,
    gen_bounded_ratio,
    gen_laminar,
    gen_uniform,
    guess_long,
    horizontal_cuts,
    normalize,
    ptas,
    qptas,
    solve_small,
    strip_partition,
)

from .test_cli import run_cli

ONE = Instance((Rect(1, 0, 2, 0, 1),))
HALF = F(1, 2)
NOT_INT = [True, 2.5, "4"]
NOT_UNIT = [0, 1, -HALF, True, 2.5, "4"]
INSIDE = [F(1, 1000), F(999, 1000)]
POSITIVE = [F(1, 1000), "4"]
NOT_POSITIVE = [0, F(-1, 1000), True, 2.5]


def derive(**kw):
    return SchemeParams.derive(**{"n": 0, "eps": HALF, **kw})


# (id, call, accepted values, rejected values)
CASES = [
    ("exact_opt-limit", lambda v: exact_opt(Instance(()), limit=v), [0], [-1, *NOT_INT]),
    ("derive-n", lambda v: derive(n=v), [0], [-1, *NOT_INT]),
    ("derive-klong", lambda v: derive(klong=v), [1], [0, *NOT_INT]),
    ("derive-oracle_limit", lambda v: derive(oracle_limit=v), [0], [-1, *NOT_INT]),
    ("derive-node_budget", lambda v: derive(node_budget=v), [0, None], [-1, *NOT_INT]),
    ("derive-eps", lambda v: derive(eps=v), INSIDE, NOT_UNIT),
    ("derive-mu", lambda v: derive(mu=v), INSIDE, NOT_UNIT),
    ("SchemeParams-mu", lambda v: SchemeParams(v, 1, 0, None), INSIDE, NOT_UNIT),
    ("SchemeParams-klong", lambda v: SchemeParams(HALF, v, 0, None), [1], [0, *NOT_INT]),
    ("SchemeParams-oracle_limit", lambda v: SchemeParams(HALF, 1, v, None), [0], [-1, *NOT_INT]),
    ("SchemeParams-node_budget", lambda v: SchemeParams(HALF, 1, 0, v), [0, None], [-1, *NOT_INT]),
    ("Transform-x_scale", lambda v: Transform(v, 0, ()), POSITIVE, NOT_POSITIVE),
    ("Transform-x_shift", lambda v: Transform(1, v, ()), [0, F(-1, 1000), "4"], [True, 2.5]),
    ("normalize-eps", lambda v: normalize(ONE, v), INSIDE, NOT_UNIT),
    ("ceil_log2-argument", ceil_log2, POSITIVE, NOT_POSITIVE),
    ("solve_small-k", lambda v: solve_small(ONE, v), [1], [0, *NOT_INT]),
    ("guess_long-k", lambda v: guess_long(ONE, HALF, v), [0], [-1, *NOT_INT]),
    ("guess_long-min_len", lambda v: guess_long(ONE, v, 1), [0, HALF, "4"], [True, 2.5]),
    ("ptas-eps", lambda v: ptas(ONE, v, 1), [F(1, 10), F(999, 1000)], NOT_UNIT),
    ("ptas-delta", lambda v: ptas(ONE, HALF, v), [1, F(1, 1000)], [0, F(1001, 1000), True, 2.5, "4"]),
    ("qptas-eps", lambda v: qptas(ONE, v), INSIDE, NOT_UNIT),
    ("gen_uniform-n", lambda v: gen_uniform(v, 1), [0], [-1, *NOT_INT]),
    ("gen_laminar-n", lambda v: gen_laminar(v, 1), [0], [-1, *NOT_INT]),
    ("gen_bounded_ratio-n", lambda v: gen_bounded_ratio(v, HALF, 1), [0], [-1, *NOT_INT]),
    ("gen_uniform-seed", lambda v: gen_uniform(1, v), [0, -1], NOT_INT),
    ("gen_laminar-seed", lambda v: gen_laminar(1, v), [0, -1], NOT_INT),
    ("gen_bounded_ratio-seed", lambda v: gen_bounded_ratio(1, HALF, v), [0, -1], NOT_INT),
    ("gen_bounded_ratio-delta", lambda v: gen_bounded_ratio(1, v, 1), [1, F(1, 1000)], [0, F(1001, 1000), True, 2.5, "4"]),
    ("crossing_rects-z", lambda v: crossing_rects(ONE, v, 1), [0, F(-1, 1000), "4"], [True, 2.5]),
    ("crossing_rects-spacing", lambda v: crossing_rects(ONE, 0, v), POSITIVE, NOT_POSITIVE),
    ("strip_partition-eps", lambda v: strip_partition(ONE, v), INSIDE, NOT_UNIT),
    ("horizontal_cuts-eps", lambda v: horizontal_cuts(ONE, v, 2, (0, 2)), INSIDE, NOT_UNIT),
    # the positive bound on an empty strip, which no span can exceed
    ("horizontal_cuts-width", lambda v: horizontal_cuts(Instance(()), HALF, v, (0, 2)), POSITIVE, NOT_POSITIVE),
    # a span is a pair (lo, hi) with lo <= hi, on any strip
    (
        "horizontal_cuts-span",
        lambda v: horizontal_cuts(ONE, HALF, 2, v),
        [(0, 2), [0, 2]],
        [5, (0, 1, 2), (0,), (2, 0), (True, 2), (0, 2.5)],
    ),
    (
        "horizontal_cuts-span-empty_strip",
        lambda v: horizontal_cuts(Instance(()), HALF, 2, v),
        [(0, 2), (1, 1)],
        [5, (0,), (2, 0)],
    ),
    ("decompose-eps", lambda v: decompose(ONE, v), INSIDE, NOT_UNIT),
]


@pytest.mark.parametrize("call, accepted, rejected", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_parameter_at_its_bound_and_past_it(call, accepted, rejected):
    for value in accepted:
        call(value)
    for value in rejected:
        with pytest.raises(ParameterError):
            call(value)


# (case id, a value just past its bound or of another type, the whole
# message); a rational parameter's type error names the parameter and the
# type, never the value
PAST = [
    ("SchemeParams-mu", 2, "mu must lie in (0, 1)"),
    ("SchemeParams-klong", 0, "klong must be at least 1, got 0"),
    ("SchemeParams-oracle_limit", -3, "oracle_limit must be at least 0, got -3"),
    ("SchemeParams-node_budget", -1, "node_budget must be at least 0, got -1"),
    ("Transform-x_scale", 0, "x_scale must be positive"),
    ("normalize-eps", 1, "eps must lie in (0, 1)"),
    ("ceil_log2-argument", 0, "ceil_log2's argument must be positive"),
    ("crossing_rects-spacing", 0, "spacing must be positive"),
    ("horizontal_cuts-width", 0, "width must be positive"),
    ("horizontal_cuts-width", -1, "width must be positive"),
    ("SchemeParams-mu", True, "mu must be an exact rational, not bool"),
    ("derive-mu", "1/x", "mu must be an exact rational, not an unparsable string"),
    ("ptas-eps", 2.5, "eps must be an exact rational, not float"),
    ("ptas-delta", None, "delta must be an exact rational, not NoneType"),
    ("qptas-eps", [HALF], "eps must be an exact rational, not list"),
    ("Transform-x_scale", True, "x_scale must be an exact rational, not bool"),
    ("Transform-x_shift", 2.5, "x_shift must be an exact rational, not float"),
    ("ceil_log2-argument", 2.5, "ceil_log2's argument must be an exact rational, not float"),
    ("gen_bounded_ratio-delta", True, "delta must be an exact rational, not bool"),
    ("crossing_rects-z", True, "z must be an exact rational, not bool"),
    ("crossing_rects-spacing", 2.5, "spacing must be an exact rational, not float"),
    ("guess_long-min_len", 2.5, "min_len must be an exact rational, not float"),
    ("horizontal_cuts-width", True, "width must be an exact rational, not bool"),
    ("horizontal_cuts-span", 5, "span must be a pair (lo, hi)"),
    ("horizontal_cuts-span", (0, 1, 2), "span must be a pair (lo, hi)"),
    ("horizontal_cuts-span", (0,), "span must be a pair (lo, hi)"),
    ("horizontal_cuts-span", (2, 0), "span must be non-empty"),
    ("horizontal_cuts-span", (0, 2.5), "span must be an exact rational, not float"),
    ("horizontal_cuts-span-empty_strip", (2, 0), "span must be non-empty"),
]


@pytest.mark.parametrize("case, value, message", PAST, ids=[f"{case}={value}" for case, value, _ in PAST])
def test_past_the_bound_names_the_parameter(case, value, message):
    call = {c[0]: c[1] for c in CASES}[case]
    with pytest.raises(ParameterError) as exc:
        call(value)
    assert str(exc.value) == message


def test_horizontal_cuts_width_is_checked_before_the_strip():
    # a width of 0 is its own error, not a strip too wide for that width
    with pytest.raises(ParameterError, match="^width must be positive$"):
        horizontal_cuts(ONE, HALF, 0, (0, 2))


def test_qptas_rejects_a_hand_built_mu_by_its_name():
    # the record names mu before qptas could hand it to decompose as its eps
    with pytest.raises(ParameterError, match="^mu must lie in"):
        qptas(gen_uniform(8, 1), HALF, params=SchemeParams(F(2), 4, 6, None))


@pytest.mark.parametrize(
    "argv",
    [["decompose", "--eps", "1e4300"], ["solve", "--algo", "ptas", "--eps", "1/2", "--delta", "1e4300"]],
    ids=["decompose-eps", "ptas-delta"],
)
def test_out_of_range_message_does_not_echo_the_value(argv, tmp_path):
    # 1e4300 parses, but its str() has more digits than Python converts,
    # so a message echoing it would end in a traceback, not exit 2
    inst = tmp_path / "inst.json"
    inst.write_text('{"rects": [{"xl": "0", "xr": "2", "yb": "0", "yt": "1"}]}')
    res = run_cli(*argv, "-i", str(inst))
    assert res.returncode == 2
    assert res.stderr.startswith("parameter error: ") and len(res.stderr.splitlines()) == 1, res.stderr
