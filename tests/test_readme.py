"""The README's example and CLI option table must match the library."""

import re
from pathlib import Path

import stabkit
from stabkit.cli import ALGO_OPTIONS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The README text under ``## title``, up to the next ``## `` heading."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : len(README) if end < 0 else end]


def test_library_example_runs():
    (code,) = re.findall(r"```python\n(.*?)```", section("Library"), re.S)
    exec(compile(code, "README.md", "exec"), {})


def test_library_section_names_the_reference_functions():
    # the tests check the fast paths against the first four, which no
    # solver calls; is_laminar is the check solve_laminar runs
    names = ("candidate_segments", "reduce_candidates", "split_independent", "to_laminar", "is_laminar")
    text = section("Library")
    for name in names:
        assert name in stabkit.__all__
        assert f"`{name}(inst" in text, name
    # the tests' definition of stabbing, which no solver calls either
    assert "stabs" in stabkit.__all__ and "`stabs(s, r)`" in text


def test_cli_option_table_lists_each_algorithms_options():
    rows = re.findall(r"^\| (`[^|]*`) \|([^|]*)\|([^|]*)\|$", section("CLI"), re.M)
    table = {}
    for algos, required, optional in rows:
        options = [re.findall(r"`--([a-z-]+)`", cell) for cell in (required, optional)]
        for algo in re.findall(r"`([a-z0-9-]+)`", algos):
            assert algo not in table, f"{algo} is listed twice"
            table[algo] = tuple({name.replace("-", "_") for name in names} for names in options)
    assert table == {
        algo: ({n for n, (_, req) in reads.items() if req}, {n for n, (_, req) in reads.items() if not req})
        for algo, reads in ALGO_OPTIONS.items()
    }
