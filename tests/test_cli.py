import csv
import importlib
import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

from stabkit import OracleLimitError, ParameterError, instance_to_json, solution_from_json
from stabkit.cli import ALGO_OPTIONS, OPTION_TYPES, main, run_bench

from .conftest import make_instance

I1_JSON = {
    "rects": [
        {"xl": "0", "xr": "4", "yb": "0", "yt": "2"},
        {"xl": "1", "xr": "3", "yb": "1", "yt": "5"},
        {"xl": "5", "xr": "7", "yb": "0", "yt": "3"},
    ]
}


@pytest.fixture
def i1_file(tmp_path):
    path = tmp_path / "i1.json"
    path.write_text(json.dumps(I1_JSON))
    return str(path)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "stabkit", *args], capture_output=True, text=True)


class TestSolve:
    @pytest.mark.parametrize(
        "algo,extra,cost",
        [
            ("exact", [], "6"),
            ("greedy", [], "8"),
            ("laminar-dp", [], "6"),
            ("approx8", [], "12"),
            ("ptas", ["--eps", "1/2", "--delta", "1/2"], "6"),
            ("qptas", ["--eps", "1/2", "--oracle-limit", "8"], "6"),
        ],
    )
    def test_algorithms(self, i1_file, tmp_path, algo, extra, cost):
        out = str(tmp_path / "sol.json")
        code = main(["solve", "--algo", algo, "-i", i1_file, "-o", out, *extra])
        assert code == 0
        sol = json.loads(open(out).read())
        assert sol["cost"] == cost

    def test_shrink_flag_keeps_feasibility(self, i1_file, tmp_path):
        out = str(tmp_path / "sol.json")
        assert main(["solve", "--algo", "approx8", "-i", i1_file, "-o", out, "--shrink"]) == 0
        sol = solution_from_json(json.loads(open(out).read()))
        assert sol.cost <= 12

    def test_shrink_on_two_thousand_x_disjoint_rects(self, tmp_path):
        # one segment per rect at one height, the case a per-pair scan made
        # quadratic; shrinking keeps every segment as it is
        n = 2000
        path = tmp_path / "row.json"
        path.write_text(json.dumps(instance_to_json(make_instance([(i, i + 1, 0, 1) for i in range(n)]))))
        out = str(tmp_path / "sol.json")
        assert main(["solve", "--algo", "laminar-dp", "-i", str(path), "-o", out, "--shrink"]) == 0
        sol = solution_from_json(json.loads(open(out).read()))
        assert len(sol.segments) == n and sol.cost == n

    @pytest.mark.parametrize("limit,code", [("0", 2), ("2", 2), ("3", 0)])
    def test_exact_oracle_limit(self, i1_file, limit, code):
        # i1 has 3 rects; a limit of 0 is a limit like any other, not "unset"
        assert main(["solve", "--algo", "exact", "-i", i1_file, "--oracle-limit", limit]) == code

    def test_cost_beyond_float_range(self, tmp_path, capsys):
        # approx8 rounds the span outward to a power of two above 2^1024, the
        # float limit; the summary line still carries the exact cost
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"rects": [{"xl": "1e308", "xr": "2e308", "yb": 0, "yt": 1}]}))
        out = str(tmp_path / "sol.json")
        assert main(["solve", "--algo", "approx8", "-i", str(path), "-o", out]) == 0
        cost = json.loads(open(out).read())["cost"]
        assert F(cost) > 2**1024
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"approx8: 1 segments, cost {cost} (3595386269724631")

    @pytest.mark.parametrize("algo,cost", [("laminar-dp", "1000"), ("approx8", "2000")])
    def test_long_x_chain_solves(self, tmp_path, algo, cost):
        # 1,000 x-disjoint unit rects used to end in a RecursionError
        # traceback and exit 1, the code for an infeasible instance
        path = tmp_path / "chain.json"
        rects = [{"xl": 2 * i, "xr": 2 * i + 1, "yb": 0, "yt": 1} for i in range(1000)]
        path.write_text(json.dumps({"rects": rects}))
        out = str(tmp_path / "sol.json")
        assert main(["solve", "--algo", algo, "-i", str(path), "-o", out]) == 0
        assert json.loads(open(out).read())["cost"] == cost

    def test_missing_scheme_params(self, i1_file, capsys):
        assert main(["solve", "--algo", "ptas", "-i", i1_file]) == 2

    def test_ptas_chunk_over_k_segments_exits_one(self, i1_file, monkeypatch, capsys):
        # k = 1 from a broken chunk bound, against i1's two-segment optimum
        monkeypatch.setattr(importlib.import_module("stabkit.schemes"), "_chunk_bound", lambda eps: F(1, 2))
        assert main(["solve", "--algo", "ptas", "-i", i1_file, "--eps", "1/2", "--delta", "1/2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "infeasible: the optimum uses 2 segments, more than 1\n"

    def test_laminar_dp_rejects_non_laminar(self, tmp_path):
        inst = make_instance([(0, 4, 0, 1), (2, 6, 0, 1)])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(instance_to_json(inst)))
        assert main(["solve", "--algo", "laminar-dp", "-i", str(path)]) == 2

    def test_budget_exit_code(self, tmp_path):
        from stabkit import gen_uniform

        inst = gen_uniform(6, 3)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(instance_to_json(inst)))
        code = main([
            "solve", "--algo", "qptas", "-i", str(path),
            "--eps", "1/2", "--mu", "1/2", "--oracle-limit", "0", "--node-budget", "2",
        ])
        assert code == 3


# every (algorithm, option) pair the option table does not list
UNREAD = [(algo, name) for algo, reads in ALGO_OPTIONS.items() for name in OPTION_TYPES if name not in reads]
# a well-formed value per option: exact scalars below 1, integers
VALUES = {name: "1/2" if kind is F else 3 for name, kind in OPTION_TYPES.items()}


def required(algo):
    return {name: VALUES[name] for name, (_, req) in ALGO_OPTIONS[algo].items() if req}


class TestOptionTable:
    """An option an algorithm does not read exits 2, naming the option."""

    def test_table_leaves_28_pairs_unread(self):
        assert len(UNREAD) == 28

    @pytest.mark.parametrize("algo,name", UNREAD)
    def test_unread_option_through_solve(self, algo, name, i1_file, tmp_path, capsys):
        flags = [
            arg
            for key, value in {**required(algo), name: VALUES[name]}.items()
            for arg in ("--" + key.replace("_", "-"), str(value))
        ]
        out = tmp_path / "sol.json"
        assert main(["solve", "--algo", algo, "-i", i1_file, "-o", str(out), *flags]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert repr(name) in line
        assert not out.exists()

    @pytest.mark.parametrize("algo,name", UNREAD)
    def test_unread_option_in_bench_algo(self, algo, name, tmp_path, capsys):
        suite = {
            "instances": [{"kind": "uniform", "n": 3, "seeds": [1]}],
            "algos": [{"name": "greedy"}, {"name": algo, **required(algo), name: VALUES[name]}],
        }
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps(suite))
        out = tmp_path / "report.csv"
        assert main(["bench", "-c", str(cfg), "-o", str(out), "-m", str(tmp_path / "s.md")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert repr(name) in line
        assert not out.exists()

    @pytest.mark.parametrize(
        "suite",
        [
            {"instances": [{"kind": "uniform", "n": 5, "seed": [3, 4]}], "algos": [{"name": "greedy"}]},
            {"instances": [{"kind": "uniform", "n": 5}], "algos": [{"name": "qptas", "eps": "1/2", "klng": 4}]},
            {"oracl_limit": 4, "instances": [{"kind": "uniform", "n": 5}], "algos": [{"name": "greedy"}]},
            {"instances": [{"kind": "uniform", "n": 5, "delta": "1/2"}], "algos": [{"name": "greedy"}]},
            {"instances": [{"kind": "uniform", "n": 5}], "algos": [{"name": "greedy"}, {"name": "simplex"}]},
            {"instances": [{"kind": "uniform", "n": 5}], "algos": [{"name": "greedy"}, {"name": "ptas", "eps": "1/2"}]},
        ],
        ids=["seed", "klng", "oracl_limit", "uniform-delta", "unknown-algo", "ptas-without-delta"],
    )
    def test_bad_suite_runs_nothing(self, suite, monkeypatch):
        import stabkit.cli

        # the entries' own checks run the solvers on an empty instance, so a
        # row, not a solver call, is what must not run
        ran = []
        monkeypatch.setattr(stabkit.cli, "_bench_row", lambda *args: ran.append(args))
        with pytest.raises(ParameterError):
            run_bench(suite)
        assert ran == []

    def test_gen_delta_only_for_bounded(self, capsys):
        assert main(["gen", "--kind", "laminar", "--n", "4", "--seed", "1", "--delta", "5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1


class TestVerify:
    def test_feasible(self, i1_file, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({
            "segments": [
                {"xl": "0", "xr": "4", "y": "2"},
                {"xl": "5", "xr": "7", "y": "3"},
            ],
            "cost": "6",
        }))
        assert main(["verify", "-i", i1_file, "-s", str(sol)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] is True and report["cost"] == "6"

    def test_infeasible_exit_one(self, i1_file, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"segments": [], "cost": "0"}))
        assert main(["verify", "-i", i1_file, "-s", str(sol)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["unstabbed_ids"] == [1, 2, 3]


class TestDecompose:
    def test_emits_json(self, i1_file, capsys):
        assert main(["decompose", "-i", i1_file, "--eps", "1/4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["paid_segments"] == []
        assert len(out["sub_instances"]) == 1
        assert out["opt_upper_bounds"] == ["12"]


class TestGen:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "inst.json"
        assert main(["gen", "--kind", "laminar", "--n", "6", "--seed", "3", "-o", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert len(obj["rects"]) == 6

    def test_bounded_uses_delta(self, tmp_path):
        out = tmp_path / "inst.json"
        assert main(["gen", "--kind", "bounded", "--n", "4", "--seed", "1", "--delta", "1", "-o", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert all(F(r["xr"]) - F(r["xl"]) == 1 for r in obj["rects"])


class TestBench:
    def test_empty_suite_header_only(self, tmp_path):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"instances": [], "algos": []}))
        out = tmp_path / "report.csv"
        assert main(["bench", "-c", str(cfg), "-o", str(out), "-m", str(tmp_path / "s.md")]) == 0
        lines = out.read_text().splitlines()
        assert lines == ["instance_id,n,seed,algo,params,cost,opt,ratio,feasible,millis"]

    def test_dash_markdown_prints_the_summary(self, tmp_path, monkeypatch, capsys):
        # "-" means stdout for -m as for -o, not a file named "-"
        monkeypatch.chdir(tmp_path)
        (tmp_path / "suite.json").write_text(json.dumps({"instances": [], "algos": []}))
        assert main(["bench", "-c", "suite.json", "-o", "out.csv", "-m", "-"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "| algo | runs | mean ratio | max ratio |",
            "| --- | --- | --- | --- |",
            "| (no oracle-checked runs) | 0 | - | - |",
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "suite.json"]

    def test_small_suite_row_count_and_bounds(self, tmp_path):
        suite = {
            "oracle_limit": 15,
            "instances": [{"kind": "uniform", "n": 6, "seeds": [1, 2, 3, 4]}],
            "algos": [
                {"name": "greedy"},
                {"name": "approx8"},
                {"name": "ptas", "eps": "1/2", "delta": "1/8"},
            ],
        }
        rows, summary = run_bench(suite)
        assert len(rows) == 12
        assert all(r["feasible"] == "true" for r in rows)
        a8 = [float(r["ratio"]) for r in rows if r["algo"] == "approx8"]
        assert max(a8) <= 8
        assert "| approx8 |" in summary

    def test_exact_oracle_limit_zero(self):
        suite = {
            "instances": [{"kind": "uniform", "n": 3, "seeds": [1]}],
            "algos": [{"name": "exact", "oracle_limit": 0}],
        }
        with pytest.raises(OracleLimitError):
            run_bench(suite)

    @pytest.mark.parametrize("n, opt", [(15, "31"), (16, "")])
    def test_suite_oracle_limit_defaults_to_15(self, n, opt):
        # the suite's own default, below exact's 20: rows above it get no opt
        suite = {"instances": [{"kind": "uniform", "n": n, "seeds": [1]}], "algos": [{"name": "greedy"}]}
        rows, _ = run_bench(suite)
        assert [row["opt"] for row in rows] == [opt]

    def test_laminar_dp_ratio_exactly_one(self):
        suite = {
            "oracle_limit": 15,
            "instances": [{"kind": "laminar", "n": 8, "seeds": [1, 2, 3]}],
            "algos": [{"name": "laminar-dp"}],
        }
        rows, _ = run_bench(suite)
        assert all(r["ratio"] == "1.000000" for r in rows)

    def test_solver_parameter_error_names_the_row(self, tmp_path, capsys):
        # the laminar DP rejects a uniform instance only once the row runs;
        # the message says which row, as an option error names its algo
        suite = {
            "instances": [{"kind": "laminar", "n": 6, "seeds": [1]}, {"kind": "uniform", "n": 6, "seeds": [1]}],
            "algos": [{"name": "greedy"}, {"name": "laminar-dp"}],
        }
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps(suite))
        out = tmp_path / "report.csv"
        assert main(["bench", "-c", str(cfg), "-o", str(out), "-m", str(tmp_path / "s.md")]) == 2
        assert capsys.readouterr().err == "parameter error: uniform-n6-s1 laminar-dp: instance is not laminar\n"
        assert not out.exists()

    def test_overridden_qptas_parameters_declare_no_bound(self, tmp_path):
        # mu and klong overridden: the 1 + eps factor is no longer certified,
        # and this row's ratio exceeds it without any fault in the solver
        suite = {
            "oracle_limit": 14,
            "instances": [{"kind": "uniform", "n": 14, "seeds": [58]}],
            "algos": [
                {"name": "greedy"},
                {"name": "qptas", "eps": "1/2", "mu": "1/2", "klong": 2, "oracle_limit": 3},
            ],
        }
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps(suite))
        out = tmp_path / "report.csv"
        assert main(["bench", "-c", str(cfg), "-o", str(out), "-m", str(tmp_path / "s.md")]) == 0
        with out.open(newline="") as f:
            rows = {row["algo"]: row for row in csv.DictReader(f)}
        assert rows["qptas"]["ratio"] == "1.582418"


class TestMalformedInput:
    """Unreadable or malformed files exit 2 with one stderr line, no traceback."""

    RECT = {"xl": "0", "xr": "4", "yb": "0", "yt": "2"}
    BAD_INSTANCES = {
        "invalid-json": "{not json",
        "not-utf8": b"\xff\xfe",
        "top-level-list": [I1_JSON],
        "rects-not-list": {"rects": {"1": RECT}},
        "rects-string": {"rects": "0 4 0 2"},
        "rect-not-object": {"rects": [RECT, ["0", "4", "0", "2"]]},
        "rect-missing-field": {"rects": [{"xl": "0", "xr": "4", "yb": "0"}]},
        "float-id": {"rects": [dict(RECT, id=1.7)]},
        "bool-id": {"rects": [dict(RECT, id=True)]},
        "string-id": {"rects": [dict(RECT, id="1")]},
        "float-coordinate": {"rects": [dict(RECT, xr=4.5)]},
        "bool-coordinate": {"rects": [RECT, dict(RECT, yt=True)]},
        "digits-5000": {"rects": [dict(RECT, xl="1" * 5000)]},
        # a decimal exponent past Python's int-string digit limit is rejected
        # before the literal is expanded
        "exponent-4301": {"rects": [dict(RECT, xl="1e4301", xr="2e4301")]},
        "exponent-minus-4301": {"rects": [dict(RECT, xl="1e-4301", xr="2e-4301")]},
        "exponent-1e9": {"rects": [dict(RECT, xl="1e1000000000", xr="2e1000000000")]},
        # edges out of order: the message names the rect and the rule, never
        # the values, whose text may pass the int-string digit limit
        "xl-above-xr-exponent-4300": {"rects": [{"xl": "1e4300", "xr": "0", "yb": "0", "yt": "1"}]},
        "xl-above-xr-digits-4000": {"rects": [dict(RECT, xl="9" * 4000)]},
        # a bad rect is named by its position, never by its id
        "xl-above-xr-id-4000": {"rects": [dict(RECT, id=int("9" * 4000), xl="5")]},
        "duplicate-id-4000": {"rects": [dict(RECT, id=int("9" * 4000)), dict(RECT, id=int("9" * 4000))]},
    }
    INSTANCE = {"kind": "uniform", "n": 3, "seeds": [1]}
    ALGO = {"name": "greedy"}
    BAD_SUITES = {
        "suite-not-object": [{"instances": [INSTANCE], "algos": [ALGO]}],
        "instances-not-list": {"instances": INSTANCE, "algos": [ALGO]},
        "algos-not-list": {"instances": [INSTANCE], "algos": ALGO},
        "instance-not-object": {"instances": [7], "algos": [ALGO]},
        "algo-not-object": {"instances": [INSTANCE], "algos": ["greedy"]},
        "missing-n": {"instances": [{"kind": "uniform"}], "algos": [ALGO]},
        "string-n": {"instances": [dict(INSTANCE, n="3")], "algos": [ALGO]},
        "float-n": {"instances": [dict(INSTANCE, n=3.5)], "algos": [ALGO]},
        "seeds-not-list": {"instances": [dict(INSTANCE, seeds=3)], "algos": [ALGO]},
        "bool-seed": {"instances": [dict(INSTANCE, seeds=[True])], "algos": [ALGO]},
        "algo-without-name": {"instances": [INSTANCE], "algos": [{"eps": "1/2"}]},
        "float-oracle-limit": {"oracle_limit": 12.5, "instances": [INSTANCE], "algos": [ALGO]},
        "string-klong": {
            "instances": [INSTANCE],
            "algos": [{"name": "qptas", "eps": "1/2", "klong": "4"}],
        },
        "bool-node-budget": {
            "instances": [INSTANCE],
            "algos": [{"name": "qptas", "eps": "1/2", "node_budget": True}],
        },
        "unknown-kind": {"instances": [dict(INSTANCE, kind="spiral")], "algos": [ALGO]},
        # an entry that generates nothing is still checked
        "unknown-kind-no-seeds": {"instances": [dict(INSTANCE, kind="spiral", seeds=[])], "algos": [ALGO]},
        "negative-n": {"instances": [dict(INSTANCE, n=-1)], "algos": [ALGO]},
        "negative-n-no-seeds": {"instances": [dict(INSTANCE, n=-1, seeds=[])], "algos": [ALGO]},
        "delta-above-one": {"instances": [dict(INSTANCE, kind="bounded", delta="3/2")], "algos": [ALGO]},
        "delta-above-one-no-seeds": {
            "instances": [dict(INSTANCE, kind="bounded", delta="3/2", seeds=[])],
            "algos": [ALGO],
        },
        "float-delta": {"instances": [dict(INSTANCE, kind="bounded", delta=0.5)], "algos": [ALGO]},
        "seeds-long-string": {"instances": [dict(INSTANCE, seeds="x" * 5000)], "algos": [ALGO]},
        "kind-long-string": {"instances": [dict(INSTANCE, kind="x" * 5000)], "algos": [ALGO]},
        "instance-key-long-string": {"instances": [dict(INSTANCE, **{"x" * 5000: 1})], "algos": [ALGO]},
        "suite-key-long-string": {"x" * 5000: 1, "instances": [INSTANCE], "algos": [ALGO]},
        "algo-option-long-string": {"instances": [INSTANCE], "algos": [dict(ALGO, **{"x" * 5000: 1})]},
        "algo-name-long-string": {"instances": [INSTANCE], "algos": [{"name": "x" * 5000}]},
        "algo-name-long-list": {"instances": [INSTANCE], "algos": [{"name": ["x" * 1000] * 6}]},
    }
    # the one line each bad name above gets: it names what is allowed,
    # never the name it was given
    NAME_ERRORS = {
        "instance-key-long-string": "instance #1 reads only the keys kind, n, seeds",
        "suite-key-long-string": "bench suite reads only the keys oracle_limit, instances, algos",
        "algo-option-long-string": "algo #1: greedy does not read an unknown option; it reads none",
        "algo-name-long-string": "algo #1: unknown algorithm; one of exact, greedy, laminar-dp, approx8, ptas, qptas",
        "algo-name-long-list": "algo #1: unknown algorithm; one of exact, greedy, laminar-dp, approx8, ptas, qptas",
    }
    # the one line each bad instance entry above gets: it names the entry,
    # and the field by its name or type, never by its value
    INSTANCE_ENTRY_ERRORS = {
        "negative-n": "n must be at least 0, got -1",
        "negative-n-no-seeds": "n must be at least 0, got -1",
        "delta-above-one": "delta must lie in (0, 1]",
        "delta-above-one-no-seeds": "delta must lie in (0, 1]",
        "float-delta": "delta must be an exact rational, not float",
        "seeds-long-string": "seeds must be a list, not str",
        "seeds-not-list": "seeds must be a list, not int",
        "unknown-kind": "kind must be one of uniform, laminar, bounded",
        "unknown-kind-no-seeds": "kind must be one of uniform, laminar, bounded",
        "kind-long-string": "kind must be one of uniform, laminar, bounded",
    }
    BAD_SOLUTIONS = {
        "invalid-json": "[",
        "segments-not-list": {"segments": {"xl": "0", "xr": "4", "y": "2"}},
        "segment-not-object": {"segments": [["0", "4", "2"]]},
        "xl-above-xr-exponent-4300": {"segments": [{"xl": "1e4300", "xr": "0", "y": "2"}]},
    }

    @staticmethod
    def write(path, content):
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content if isinstance(content, str) else json.dumps(content))
        return str(path)

    @staticmethod
    def command(name, inst, sol):
        if name == "solve":
            return ["solve", "--algo", "approx8", "-i", inst]
        if name == "verify":
            return ["verify", "-i", inst, "-s", sol]
        return ["decompose", "-i", inst, "--eps", "1/2"]

    def assert_rejected(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("command", ["solve", "verify", "decompose"])
    @pytest.mark.parametrize("case", sorted(BAD_INSTANCES))
    def test_bad_instance(self, command, case, tmp_path, capsys):
        inst = self.write(tmp_path / "inst.json", self.BAD_INSTANCES[case])
        sol = self.write(tmp_path / "sol.json", {"segments": []})
        self.assert_rejected(self.command(command, inst, sol), capsys)

    def test_bad_coordinate_message_does_not_echo_the_value(self, tmp_path, capsys):
        # the message once echoed all 5,000 digits
        inst = self.write(tmp_path / "inst.json", self.BAD_INSTANCES["digits-5000"])
        assert main(["solve", "--algo", "approx8", "-i", inst]) == 2
        err = capsys.readouterr().err
        assert err.endswith("rect #1 xl must be an exact rational, not an unparsable string\n") and len(err) < 100, err

    @pytest.mark.parametrize("case", ["xl-above-xr-exponent-4300", "xl-above-xr-digits-4000", "xl-above-xr-id-4000"])
    def test_edge_order_message_does_not_echo_the_values(self, case, tmp_path, capsys):
        # the 1e4300 case once exited 1 with a traceback: building the
        # message ran into the int-string digit limit; the id case once
        # echoed all 4,000 digits of the id
        inst = self.write(tmp_path / "inst.json", self.BAD_INSTANCES[case])
        assert main(["solve", "--algo", "approx8", "-i", inst]) == 2
        err = capsys.readouterr().err
        assert err.endswith("rect #1 requires xl < xr\n") and len(err) < 100, err

    def test_duplicate_id_message_does_not_echo_the_id(self, tmp_path, capsys):
        # the message once echoed all 4,000 digits of the id
        inst = self.write(tmp_path / "inst.json", self.BAD_INSTANCES["duplicate-id-4000"])
        assert main(["solve", "--algo", "approx8", "-i", inst]) == 2
        assert capsys.readouterr().err == "parameter error: rects #1 and #2 share an id\n"

    def test_segment_order_message_does_not_echo_the_values(self, i1_file, tmp_path, capsys):
        sol = self.write(tmp_path / "sol.json", self.BAD_SOLUTIONS["xl-above-xr-exponent-4300"])
        assert main(["verify", "-i", i1_file, "-s", sol]) == 2
        err = capsys.readouterr().err
        assert err.endswith("segment requires xl <= xr\n") and len(err) < 100, err

    @pytest.mark.parametrize("command", ["solve", "verify", "decompose"])
    @pytest.mark.parametrize("case", ["missing", "directory"])
    def test_unreadable_instance(self, command, case, tmp_path, capsys):
        inst = str(tmp_path / "absent.json") if case == "missing" else str(tmp_path)
        sol = self.write(tmp_path / "sol.json", {"segments": []})
        self.assert_rejected(self.command(command, inst, sol), capsys)

    @pytest.mark.parametrize("case", sorted(BAD_SOLUTIONS))
    def test_bad_solution(self, case, i1_file, tmp_path, capsys):
        sol = self.write(tmp_path / "sol.json", self.BAD_SOLUTIONS[case])
        self.assert_rejected(["verify", "-i", i1_file, "-s", sol], capsys)

    def test_unreadable_solution(self, i1_file, tmp_path, capsys):
        self.assert_rejected(["verify", "-i", i1_file, "-s", str(tmp_path / "absent.json")], capsys)

    @pytest.mark.parametrize("case", sorted(BAD_SUITES))
    def test_bad_bench_suite(self, case, tmp_path, capsys):
        suite = self.write(tmp_path / "suite.json", self.BAD_SUITES[case])
        report, summary = str(tmp_path / "report.csv"), str(tmp_path / "summary.md")
        self.assert_rejected(["bench", "-c", suite, "-o", report, "-m", summary], capsys)

    @pytest.mark.parametrize("case", sorted(INSTANCE_ENTRY_ERRORS))
    def test_bad_instance_entry_names_its_entry(self, case, tmp_path, capsys):
        suite = self.write(tmp_path / "suite.json", self.BAD_SUITES[case])
        assert main(["bench", "-c", suite]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"parameter error: instance #1: {self.INSTANCE_ENTRY_ERRORS[case]}"]

    @pytest.mark.parametrize("case", sorted(NAME_ERRORS))
    def test_bad_name_is_not_echoed(self, case, tmp_path, capsys):
        suite = self.write(tmp_path / "suite.json", self.BAD_SUITES[case])
        assert main(["bench", "-c", suite]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"parameter error: {self.NAME_ERRORS[case]}"]

    @pytest.mark.parametrize("flags", [["--eps", "2"], ["--eps", "1/2", "--klong", "0"]])
    def test_bad_qptas_parameters_on_empty_instance(self, flags, tmp_path, capsys):
        # an empty instance goes through the same parameter checks as any other
        inst = self.write(tmp_path / "inst.json", {"rects": []})
        self.assert_rejected(["solve", "--algo", "qptas", "-i", inst, *flags], capsys)

    @pytest.mark.parametrize("flags", [["--node-budget", "-1"], ["--oracle-limit", "-3"]])
    def test_negative_qptas_limits(self, flags, i1_file, capsys):
        self.assert_rejected(["solve", "--algo", "qptas", "-i", i1_file, "--eps", "1/2", *flags], capsys)

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_negative_oracle_limit(self, command, tmp_path, capsys, monkeypatch):
        # a parameter error even where no oracle call would be made: on an
        # empty instance, and before any bench row runs
        if command == "solve":
            inst = self.write(tmp_path / "inst.json", {"rects": []})
            argv = ["solve", "--algo", "exact", "-i", inst, "--oracle-limit", "-3"]
        else:
            suite = {"oracle_limit": -1, "instances": [self.INSTANCE], "algos": [self.ALGO]}
            argv = ["bench", "-c", self.write(tmp_path / "suite.json", suite)]
        ran = []
        monkeypatch.setattr("stabkit.cli._bench_row", lambda *args: ran.append(args))
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("parameter error: ") and len(err.splitlines()) == 1
        assert ran == []

    @pytest.mark.parametrize(
        "entry",
        [
            {"name": "qptas", "eps": "2"},
            {"name": "qptas", "eps": "1/2", "mu": "1"},
            {"name": "qptas", "eps": "1/2", "klong": 0},
            {"name": "qptas", "eps": "1/2", "oracle_limit": -2},
            {"name": "qptas", "eps": "1/2", "node_budget": -1},
            {"name": "exact", "oracle_limit": -1},
            {"name": "ptas", "eps": "1/2", "delta": "3"},
            {"name": "ptas", "eps": "0", "delta": "1/2"},
        ],
        ids=lambda entry: ";".join(f"{k}={v}" for k, v in entry.items()),
    )
    def test_out_of_range_option_runs_no_row(self, entry, tmp_path, capsys, monkeypatch):
        # option ranges are checked with the rest of the suite, so the greedy
        # row ahead of the bad entry never runs
        suite = {"instances": [self.INSTANCE], "algos": [self.ALGO, entry]}
        ran = []
        monkeypatch.setattr("stabkit.cli._bench_row", lambda *args: ran.append(args))
        self.assert_rejected(["bench", "-c", self.write(tmp_path / "suite.json", suite)], capsys)
        assert ran == []

    @pytest.mark.parametrize(
        "entry, reason",
        [
            ({"name": "qptas", "eps": "1/2", "klong": 0}, "klong must be at least 1, got 0"),
            ({"name": "ptas", "eps": "1/2", "delta": 2}, "delta must lie in (0, 1]"),
            ({"name": "exact", "oracle_limit": -1}, "oracle_limit must be at least 0, got -1"),
        ],
        ids=["qptas-klong", "ptas-delta", "exact-oracle-limit"],
    )
    def test_out_of_range_option_names_its_entry(self, entry, reason, tmp_path, capsys):
        # the solver's own check rejects the value, and the one line says
        # which entry of the suite holds it
        suite = {"instances": [self.INSTANCE], "algos": [self.ALGO, entry]}
        assert main(["bench", "-c", self.write(tmp_path / "suite.json", suite)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"parameter error: algo #2: {reason}"]

    @pytest.mark.parametrize("command", ["solve", "verify", "decompose"])
    def test_output_past_the_digit_limit(self, command, tmp_path, capsys):
        # 1e4300 loads, but 2e4300 - 1e4300 and the coordinates themselves
        # print as more digits than Python converts an int to a string
        inst = self.write(tmp_path / "inst.json", {"rects": [dict(self.RECT, xl="1e4300", xr="2e4300")]})
        sol = self.write(tmp_path / "sol.json", {"segments": [{"xl": "1e4300", "xr": "2e4300", "y": "1"}]})
        self.assert_rejected(self.command(command, inst, sol), capsys)

    def test_unwritable_output(self, i1_file, tmp_path, capsys):
        out = str(tmp_path / "no-such-dir" / "sol.json")
        self.assert_rejected(["solve", "--algo", "approx8", "-i", i1_file, "-o", out], capsys)

    def test_no_traceback_from_the_entry_point(self, tmp_path):
        res = run_cli("solve", "--algo", "approx8", "-i", str(tmp_path / "absent.json"))
        assert res.returncode == 2
        assert len(res.stderr.splitlines()) == 1 and "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["decompose", "-i", "inst.json", "--eps", "abc"], "--eps"),
            (["decompose", "-i", "inst.json", "--eps", "1e-5000"], "--eps"),
            (["gen", "--kind", "bounded", "--n", "3", "--seed", "1", "--delta", "x"], "--delta"),
        ],
        ids=["eps-abc", "eps-1e-5000", "delta-x"],
    )
    def test_bad_scalar_flag_names_its_reason(self, argv, flag):
        # argparse reports the flag and the parse error, not the private
        # name of the function that parses scalars
        res = run_cli(*argv)
        assert res.returncode == 2
        assert f"argument {flag}: cannot parse scalar" in res.stderr, res.stderr
        assert "_scalar_arg" not in res.stderr and "Traceback" not in res.stderr


class TestDeterminism:
    def test_solver_outputs_byte_identical_across_runs(self, i1_file, tmp_path):
        blobs = set()
        for attempt in range(2):
            out = tmp_path / f"sol-{attempt}.json"
            res = run_cli("solve", "--algo", "approx8", "-i", i1_file, "-o", str(out))
            assert res.returncode == 0, res.stderr
            blobs.add(out.read_bytes())
        assert len(blobs) == 1

    def test_bench_rows_stable_across_runs(self):
        suite = {
            "instances": [{"kind": "uniform", "n": 5, "seeds": [1, 2]}],
            "algos": [{"name": "greedy"}, {"name": "approx8"}],
        }
        outputs = set()
        for _ in range(2):
            rows, _summary = run_bench(suite)
            outputs.add(
                tuple((r["instance_id"], r["algo"], r["cost"], r["ratio"]) for r in rows)
            )
        assert len(outputs) == 1
