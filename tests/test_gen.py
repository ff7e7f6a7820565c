import hashlib
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from stabkit import (
    GenConfig,
    Instance,
    Rect,
    ParameterError,
    SplitMix64,
    exact_opt,
    gen_bounded_ratio,
    gen_laminar,
    gen_uniform,
    instance_from_json,
    instance_to_json,
    is_laminar,
    solve_laminar,
)


class TestSplitMix64:
    def test_known_stream(self):
        # reference values for seed 0 of the published SplitMix64 constants
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_below_validation(self):
        with pytest.raises(ParameterError):
            SplitMix64(1).below(0)


class TestGenUniform:
    def test_empty(self):
        assert gen_uniform(0, 1).rects == ()

    def test_determinism(self):
        a = json.dumps(instance_to_json(gen_uniform(5, 1)))
        b = json.dumps(instance_to_json(gen_uniform(5, 1)))
        assert a == b

    def test_seeds_differ(self):
        assert gen_uniform(5, 1) != gen_uniform(5, 2)

    def test_config_respected(self):
        cfg = GenConfig(x_range=(F(0), F(2)), w_min=F(1), w_max=F(2), h_max=F(1))
        inst = gen_uniform(20, 7, cfg)
        for r in inst.rects:
            assert 0 <= r.xl <= 2
            assert 1 <= r.width <= 2
            assert 0 <= r.yt - r.yb <= 1

    def test_validation(self):
        with pytest.raises(ParameterError):
            gen_uniform(-1, 0)
        with pytest.raises(ParameterError):
            gen_uniform(1, 0, GenConfig(w_min=F(3), w_max=F(2)))
        with pytest.raises(ParameterError):
            gen_uniform(1, 0, GenConfig(w_min=F(0)))


class TestGenLaminar:
    @given(st.integers(0, 100), st.integers(0, 50))
    def test_always_laminar(self, seed, n):
        assert is_laminar(gen_laminar(n % 50, seed))

    def test_single(self):
        assert len(gen_laminar(1, 3).rects) == 1

    def test_dp_matches_oracle_on_fixture(self):
        inst = gen_laminar(10, 7)
        assert solve_laminar(inst).cost == exact_opt(inst).cost

    def test_determinism(self):
        assert gen_laminar(10, 4) == gen_laminar(10, 4)


class TestGenBoundedRatio:
    def test_delta_one_means_unit_widths(self):
        inst = gen_bounded_ratio(10, F(1), 3)
        assert all(r.width == 1 for r in inst.rects)

    def test_ratio_bound(self):
        inst = gen_bounded_ratio(20, F(1, 2), 5)
        widths = [r.width for r in inst.rects]
        assert max(widths) / min(widths) <= 2
        assert all(F(1, 2) <= w <= 1 for w in widths)

    def test_determinism(self):
        assert gen_bounded_ratio(8, F(1, 2), 9) == gen_bounded_ratio(8, F(1, 2), 9)

    def test_validation(self):
        with pytest.raises(ParameterError):
            gen_bounded_ratio(5, F(0), 1)
        with pytest.raises(ParameterError):
            gen_bounded_ratio(5, F(3, 2), 1)


GENERATORS = {
    "uniform": gen_uniform,
    "laminar": gen_laminar,
    "bounded": lambda n, seed: gen_bounded_ratio(n, F(1, 2), seed),
}


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize(
    "n, seed",
    [(2.5, 1), (F(3), 1), ("3", 1), (True, 1), (None, 1), (-1, 1), (3, 1.5), (3, "1"), (3, False), (3, None)],
)
def test_rect_count_and_seed_must_be_integers(kind, n, seed):
    with pytest.raises(ParameterError):
        GENERATORS[kind](n, seed)


@pytest.mark.parametrize(
    "make",
    [
        lambda: GenConfig(resolution=2.5),
        lambda: GenConfig(resolution=0),
        lambda: GenConfig(resolution=-4),
        lambda: GenConfig(resolution=True),
        lambda: GenConfig(resolution=F(4)),
        lambda: GenConfig(resolution="4"),
        lambda: SplitMix64(1.5),
        lambda: SplitMix64(True),
        lambda: SplitMix64("1"),
        lambda: SplitMix64(None),
    ],
    ids=["res-2.5", "res-0", "res-neg", "res-True", "res-Fraction", "res-str",
         "seed-1.5", "seed-True", "seed-str", "seed-None"],
)
def test_resolution_and_stream_seed_must_be_integers(make):
    # resolution=2.5 raised TypeError from Fraction, 0 ZeroDivisionError and
    # True ran as 1; a float seed raised TypeError from the mask
    with pytest.raises(ParameterError):
        make()


# sha256 over json.dumps(instance_to_json(inst)) of every instance below, in
# the loop order of test_generated_instances_are_byte_identical; a change to
# how the generators build rects must not move any coordinate
CORPUS_SHA256 = "21cd3cdf944b86c5fc57e6e6cfe1eaf76a36c058c91e0635a470886944a929a8"


def test_generated_instances_are_byte_identical():
    digest = hashlib.sha256()
    for n in (0, 1, 5, 16, 32, 56, 100):
        for seed in range(30):
            for kind in ("uniform", "laminar", "bounded"):
                digest.update(json.dumps(instance_to_json(GENERATORS[kind](n, seed))).encode())
    assert digest.hexdigest() == CORPUS_SHA256


POSITIVE = st.builds(F, st.integers(1, 12), st.integers(1, 6))
RATIONAL = st.builds(F, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def gen_config(draw):
    x0, y0 = draw(RATIONAL), draw(RATIONAL)
    w_min = draw(POSITIVE)
    return GenConfig(
        x_range=(x0, x0 + draw(RATIONAL.map(abs))),
        y_range=(y0, y0 + draw(RATIONAL.map(abs))),
        w_min=w_min,
        w_max=w_min + draw(RATIONAL.map(abs)),
        h_max=draw(RATIONAL.map(abs)),
        resolution=draw(st.integers(1, 6)),
    )


@st.composite
def generated(draw):
    n, seed = draw(st.integers(0, 24)), draw(st.integers(0, 2**64))
    kind = draw(st.sampled_from(["uniform", "laminar", "bounded"]))
    if kind == "uniform":
        return gen_uniform(n, seed, draw(gen_config()))
    if kind == "laminar":
        return gen_laminar(n, seed)
    return gen_bounded_ratio(n, draw(st.builds(F, st.integers(1, 12), st.integers(12, 24))), seed)


@given(generated())
def test_generated_instances_round_trip_through_json(inst):
    assert instance_from_json(json.loads(json.dumps(instance_to_json(inst)))) == inst
    assert all(type(v) is F for r in inst.rects for v in (r.xl, r.xr, r.yb, r.yt))


def bounded_ratio_on_fractions(n, delta, seed):
    # gen_bounded_ratio's draws in Fraction arithmetic, as the generator was
    # first written
    rng = SplitMix64(seed)
    rects = []
    for i in range(1, n + 1):
        xl = F(rng.below(8 * max(n, 1) + 1), 4)
        width = delta + rng.below(9) * (1 - delta) / 8
        yb = rng.below(2 * n + 1)
        height = rng.below(2 * n + 1 - yb)
        rects.append(Rect(i, xl, xl + width, yb, yb + height))
    return Instance(tuple(rects))


@given(st.integers(0, 30), st.builds(F, st.integers(1, 40), st.integers(1, 40)), st.integers(0, 2**64))
def test_bounded_ratio_on_integers_matches_fraction_arithmetic(n, delta, seed):
    delta = min(delta, 1 / delta)
    assert gen_bounded_ratio(n, delta, seed) == bounded_ratio_on_fractions(n, delta, seed)
