import os
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import stabkit
from stabkit import Instance, Rect

# the CLI tests run ``python -m stabkit`` in a child process, which must
# import the package this suite imports, installed or not
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(stabkit.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])
)

settings.register_profile(
    "det",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")


def make_instance(coords) -> Instance:
    """Build an instance from (xl, xr, yb, yt) tuples; ids are positional."""
    return Instance(tuple(Rect(i, *c) for i, c in enumerate(coords, start=1)))


@pytest.fixture
def i1() -> Instance:
    # shared fixture used across modules; its optimum is 6
    return make_instance([(0, 4, 0, 2), (1, 3, 1, 5), (5, 7, 0, 3)])


@pytest.fixture
def half() -> Fraction:
    return Fraction(1, 2)
