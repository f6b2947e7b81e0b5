"""CLI flags, exit codes, and byte-deterministic output."""

import dataclasses
import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from hspex import cli, families, spectral
from hspex.cli import build_parser, main
from hspex.experiments import ExperimentReport
from hspex.hypergraph import Hypergraph, serialize, complete_r_graph
from conftest import bowtie3, cycle, path3


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, g in {
        "p3": path3(),
        "k3": complete_r_graph(3, 2),
        "c4": cycle(4),
        "bowtie": bowtie3(),
    }.items():
        f = tmp_path / f"{name}.hg"
        f.write_text(serialize(g))
        paths[name] = str(f)
    two = tmp_path / "2k3.hg"
    two.write_text("2 6 6\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n")
    paths["2k3"] = str(two)
    empty = tmp_path / "empty.hg"
    empty.write_text("2 3 0\n")
    paths["empty"] = str(empty)
    bad = tmp_path / "bad.hg"
    bad.write_text("3 3 1\n0 0 1\n")
    paths["bad"] = str(bad)
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRho:
    def test_path(self, capsys, files):
        code, out, _ = run(capsys, ["rho", "--input", files["p3"], "--p", "2"])
        assert code == 0
        assert "1.41421356" in out

    def test_empty_graph(self, capsys, files):
        code, out, _ = run(capsys, ["rho", "--input", files["empty"], "--p", "2"])
        assert code == 0 and "rho = 0" in out

    def test_parse_error_exit_1(self, capsys, files):
        code, _, err = run(capsys, ["rho", "--input", files["bad"], "--p", "2"])
        assert code == 1 and "line 2" in err

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["rho", "--input", str(tmp_path / "nope.hg"), "--p", "2"]
        )
        assert code == 1

    def test_json_mode_parses(self, capsys, files):
        code, out, _ = run(
            capsys, ["rho", "--input", files["p3"], "--p", "2", "--json"]
        )
        data = json.loads(out)
        assert abs(data["rho"] - 2**0.5) < 1e-8
        assert len(data["x"]) == 3

    def test_json_default_bytes(self, capsys, files):
        """Without --stats the JSON keeps the bytes it had before the flag."""
        code, out, _ = run(
            capsys, ["rho", "--input", files["p3"], "--p", "2", "--starts", "3", "--json"]
        )
        assert code == 0
        assert out == (
            '{"rho": 1.4142135623730949, "x": [0.50000000007727696, 0.70710678118654746, '
            '0.49999999992272309], "p": 2, "residual": 1.0928613569660683e-10, '
            '"iterations": 177, "starts": 3, "flags": []}\n'
        )

    def test_json_stats(self, capsys, files):
        argv = ["rho", "--input", files["p3"], "--p", "2", "--starts", "3", "--json"]
        _, plain, _ = run(capsys, argv)
        code, out, _ = run(capsys, argv + ["--stats"])
        assert code == 0
        data = json.loads(out)
        per_start = data.pop("per_start")
        assert data == json.loads(plain)
        assert per_start == [
            {"value": 1.4142135623730949, "iterations": its, "converged": True,
             "strategy": "fixed-point-shifted"}
            for its in (30, 74, 73)
        ]
        assert sum(rec["iterations"] for rec in per_start) == data["iterations"]

    def test_text_stats(self, capsys, files):
        code, out, _ = run(
            capsys, ["rho", "--input", files["k3"], "--p", "1.5", "--starts", "2", "--stats"]
        )
        lines = out.splitlines()
        assert code == 0 and len(lines) == 3
        assert lines[1].startswith("start 0: value = ")
        assert lines[2].endswith("converged = True  strategy = projected-gradient")

    def test_no_convergence_exit_2(self, capsys, files):
        code, out, _ = run(
            capsys,
            ["rho", "--input", files["p3"], "--p", "1.5",
             "--max-iter", "2", "--starts", "1", "--json"],
        )
        assert code == 2
        assert "NoConvergence" in json.loads(out)["flags"]

    def test_nan_residual_exit_2(self, capsys, files):
        """An infinite rho with a NaN residual is not convergence."""
        with np.errstate(all="ignore"):
            code, out, _ = run(capsys, ["rho", "--input", files["k3"], "--p", "1e5",
                                        "--starts", "2", "--max-iter", "0", "--json"])
        data = json.loads(out)
        assert code == 2
        assert (data["rho"], data["residual"]) == ("inf", "nan")
        assert "NoConvergence" in data["flags"]

    def test_stats_stagnant_start_not_converged(self, capsys, tmp_path):
        """A start that gives up on a stagnating residual is reported as not
        converged, in both the JSON and the text statistics."""
        f = tmp_path / "stagnant.hg"
        f.write_text(serialize(Hypergraph(7, 3, ((0, 1, 2), (0, 5, 6), (3, 4, 6)))))
        argv = ["rho", "--input", str(f), "--p", "2", "--starts", "1", "--stats"]
        code, out, _ = run(capsys, argv + ["--json"])
        data = json.loads(out)
        assert code == 2 and data["flags"] == ["NoConvergence"]
        assert [(rec["iterations"], rec["converged"]) for rec in data["per_start"]] == [
            (3536, False)
        ]
        code, out, _ = run(capsys, argv)
        assert code == 2
        assert out.splitlines()[1].endswith("converged = False  strategy = projected-gradient")

    @pytest.mark.parametrize("flag", [["--starts", "0"], ["--tol", "0"], ["--tol", "inf"],
                                      ["--tol", "nan"], ["--seed", "-1"]])
    def test_bad_solver_setting_exit_1(self, capsys, files, flag):
        """An infinite tol would accept the first iterate, a NaN one would
        never be met and still exit 0, and a negative seed would end in
        numpy's traceback."""
        code, out, err = run(capsys, ["rho", "--input", files["p3"], "--p", "2"] + flag)
        assert code == 1 and out == ""
        message = {"inf": "tol must be finite, got inf", "nan": "tol must be finite, got nan",
                   "-1": "seed must be >= 0"}.get(flag[1], "tol must be positive and starts >= 1")
        assert err == f"error: {message}\n"

    def test_solver_flag_defaults_are_solver_config_defaults(self):
        rho = build_parser().parse_args(["rho", "--input", "g.hg", "--p", "2"])
        cfg = spectral.SolverConfig()
        assert (rho.tol, rho.starts, rho.seed, rho.max_iter) == (
            cfg.tol, cfg.starts, cfg.seed, cfg.max_iter
        )

    def test_missing_p_exit_1(self, capsys, files):
        """A usage error is an input error: exit 1, not 2 (which means the
        solver did not converge), and one line, not a usage block."""
        code, out, err = run(capsys, ["rho", "--input", files["p3"]])
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: the following arguments are required: --p"]

    def test_negative_max_iter_exit_1(self, capsys, files):
        code, out, err = run(
            capsys, ["rho", "--input", files["p3"], "--p", "2", "--max-iter", "-1"]
        )
        assert code == 1 and out == ""
        assert err == "error: max_iter must be >= 0\n"


class TestCheck:
    def test_tight_failure_exit_3(self, capsys, files):
        code, out, _ = run(
            capsys, ["check", "tight", "--input", files["2k3"], "--k", "1"]
        )
        assert code == 3
        assert json.loads(out)["witness"] == [0, 1, 2]

    def test_bridge_holds_exit_0(self, capsys, files):
        code, out, _ = run(
            capsys,
            ["check", "bridge", "--input", files["p3"], "--edge", "0,1", "--k", "1"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["A"] == [0] and data["B"] == [1, 2]

    def test_plateau_exit_0(self, capsys, files):
        code, out, _ = run(
            capsys,
            [
                "check", "plateau", "--input", files["bowtie"],
                "--edge", "0,1,2", "--lambda", "2,1",
            ],
        )
        assert code == 0 and json.loads(out)["result"] is True

    def test_missing_flag_exit_1(self, capsys, files):
        code, out, err = run(capsys, ["check", "tight", "--input", files["2k3"]])
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: the following arguments are required: --k"]

    def test_unknown_edge_exit_1(self, capsys, files):
        code, _, err = run(
            capsys,
            ["check", "bridge", "--input", files["p3"], "--edge", "0,2", "--k", "1"],
        )
        assert code == 1

    def test_non_integer_edge_exit_1(self, capsys, files):
        code, out, err = run(
            capsys,
            ["check", "bridge", "--input", files["p3"], "--edge", "0,x", "--k", "1"],
        )
        assert code == 1 and out == ""
        assert err == "error: argument --edge: not an integer: 'x'\n"


class TestExtremalSaturate:
    def test_extremal_lambda(self, capsys, files):
        code, out, _ = run(
            capsys,
            ["extremal", "--forbid", files["k3"], "--n", "5", "--p", "2",
             "--starts", "4"],
        )
        assert code == 0
        data = json.loads(out)
        assert abs(data["value"] - 6**0.5) < 1e-8
        assert data["argmax_keys"]

    def test_extremal_pi(self, capsys, files):
        code, out, _ = run(capsys, ["extremal", "--forbid", files["k3"], "--n", "5"])
        data = json.loads(out)
        assert data["value"] == 6.0

    def test_extremal_nonconverged_exit_2(self, capsys, files, monkeypatch):
        """A failed solve may hide the true argmax: exit 2, same JSON bytes."""
        argv = ["extremal", "--forbid", files["k3"], "--n", "4", "--p", "2",
                "--starts", "4"]
        _, clean, _ = run(capsys, argv)
        solve = families.solve_rho_p

        def failing(g, p, config=None):
            sol = solve(g, p, config)
            return dataclasses.replace(sol, flags=sol.flags + ("NoConvergence",))

        monkeypatch.setattr(families, "solve_rho_p", failing)
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == clean
        assert err == "did not converge: 2 of 2 classes\n"

    def test_extremal_nan_residual_exit_2(self, capsys, files):
        """The one class solves to an infinite rho with a NaN residual: exit 2."""
        with np.errstate(all="ignore"):
            code, out, err = run(capsys, ["extremal", "--forbid", files["k3"], "--n", "3",
                                          "--p", "1e5", "--starts", "2"])
        assert code == 2
        assert json.loads(out)["value"] == "inf"
        assert err == "did not converge: 1 of 1 classes\n"

    def test_extremal_zero_starts_exit_1(self, capsys, files):
        code, out, err = run(
            capsys,
            ["extremal", "--forbid", files["k3"], "--n", "5", "--p", "2", "--starts", "0"],
        )
        assert code == 1 and out == ""
        assert err == "error: tol must be positive and starts >= 1\n"

    @pytest.mark.parametrize("p_args", [[], ["--p", "2"]], ids=["pi", "lambda"])
    def test_extremal_negative_n_exit_1(self, capsys, files, p_args):
        code, out, err = run(capsys, ["extremal", "--forbid", files["k3"], "--n", "-1"] + p_args)
        assert code == 1 and out == ""
        assert err == "error: vertex count -1 < 0\n"

    @pytest.mark.parametrize("full", [[], ["--full"]], ids=["maximal", "full"])
    def test_extremal_bad_p_before_the_sweep_exit_1(self, capsys, files, full):
        """p is checked before the member walk: an edgeless forbidden graph
        (no members) still gives the p error, not exit 4."""
        argv = ["extremal", "--forbid", files["empty"], "--n", "4", "--p", "0.5"] + full
        assert run(capsys, argv) == (1, "", "error: p=0.5 outside (1, inf)\n")

    def test_extremal_full_without_p_exit_1(self, capsys, files):
        code, out, err = run(capsys, ["extremal", "--forbid", files["k3"], "--n", "5", "--full"])
        assert code == 1 and out == ""
        assert err == "error: --full requires --p\n"

    @pytest.mark.parametrize("flag", [["--starts", "0"], ["--seed", "3"], ["--starts", "8"]])
    def test_extremal_solver_flag_without_p_exit_1(self, capsys, files, flag):
        code, out, err = run(capsys, ["extremal", "--forbid", files["k3"], "--n", "5"] + flag)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {flag[0]} requires --p"]

    def test_extremal_negative_seed_exit_1(self, capsys, files):
        argv = ["extremal", "--forbid", files["k3"], "--n", "5", "--p", "2", "--seed", "-1"]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (1, "", "error: seed must be >= 0\n")

    def test_extremal_solver_flag_defaults(self, capsys, files):
        """With --p, --starts 8 --seed 0 is the default."""
        argv = ["extremal", "--forbid", files["k3"], "--n", "5", "--p", "2"]
        _, plain, _ = run(capsys, argv)
        _, explicit, _ = run(capsys, argv + ["--starts", "8", "--seed", "0"])
        assert plain == explicit

    def test_extremal_default_bytes(self, capsys, files):
        """Without --stats the JSON keeps the bytes it had before the flag."""
        code, out, _ = run(
            capsys,
            ["extremal", "--forbid", files["k3"], "--n", "4", "--p", "2", "--starts", "4"],
        )
        assert code == 0
        assert out == (
            r'{"n": 4, "p": 2, "value": 2, "argmax": ["2 4 4\n0 1\n0 2\n1 3\n2 3\n"], '
            r'"count_members": 41, "elapsed_ms": 0, "argmax_keys": ["4:2:4:0:1:0:3:1:2:2:3"]}'
            "\n"
        )

    def test_extremal_stats(self, capsys, files):
        argv = ["extremal", "--forbid", files["k3"], "--n", "5", "--p", "2", "--starts", "4"]
        _, plain, _ = run(capsys, argv)
        code, out, _ = run(capsys, argv + ["--stats"])
        assert code == 0
        data = json.loads(out)
        assert (data.pop("non_converged"), data.pop("classes_solved")) == (0, 3)
        solves = data.pop("solves")
        assert data == json.loads(plain)
        assert len(solves) == len(data["argmax"]) == 1
        assert solves[0]["flags"] == [] and solves[0]["iterations"] > 0
        assert 0.0 <= solves[0]["residual"] <= 1e-10 * data["value"]

    def test_extremal_stats_names_failed_solves(self, capsys, files, monkeypatch):
        solve = families.solve_rho_p

        def failing(g, p, config=None):
            sol = solve(g, p, config)
            return dataclasses.replace(sol, flags=sol.flags + ("NoConvergence",))

        monkeypatch.setattr(families, "solve_rho_p", failing)
        code, out, _ = run(
            capsys,
            ["extremal", "--forbid", files["k3"], "--n", "4", "--p", "2",
             "--starts", "4", "--stats"],
        )
        data = json.loads(out)
        assert code == 2
        assert (data["non_converged"], data["classes_solved"]) == (2, 2)
        assert [s["flags"] for s in data["solves"]] == [["NoConvergence"]]

    def test_too_large_exit_4(self, capsys, files):
        code, _, err = run(
            capsys, ["extremal", "--forbid", files["k3"], "--n", "20", "--p", "2"]
        )
        assert code == 4 and "guard" in err

    def test_extremal_full_audit(self, capsys, files):
        code, out, _ = run(
            capsys,
            ["extremal", "--forbid", files["k3"], "--n", "4", "--p", "2",
             "--starts", "4", "--full"],
        )
        assert code == 0
        assert abs(json.loads(out)["value"] - 2.0) < 1e-8

    def test_saturate(self, capsys, files):
        code, out, _ = run(
            capsys, ["saturate", "--forbid", files["k3"], "--n", "4", "--order", "lex"]
        )
        assert code == 0
        assert out == "2 4 3\n0 1\n0 2\n0 3\n"

    def test_saturate_random_seeded(self, capsys, files):
        argv = ["saturate", "--forbid", files["k3"], "--n", "5",
                "--order", "random", "--seed", "3"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_saturate_lex_seed_exit_1(self, capsys, files):
        code, out, err = run(
            capsys, ["saturate", "--forbid", files["k3"], "--n", "4", "--seed", "3"]
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: --seed requires --order random"]

    def test_saturate_negative_seed_exit_1(self, capsys, files):
        argv = ["saturate", "--forbid", files["k3"], "--n", "5", "--order", "random"]
        code, out, err = run(capsys, argv + ["--seed", "-3"])
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: seed must be >= 0"]

    def test_saturate_random_default_seed_0(self, capsys, files):
        argv = ["saturate", "--forbid", files["k3"], "--n", "6", "--order", "random"]
        _, plain, _ = run(capsys, argv)
        _, explicit, _ = run(capsys, argv + ["--seed", "0"])
        assert plain == explicit

    def test_saturate_input_vertex_count_must_match_n(self, capsys, files):
        code, out, err = run(
            capsys, ["saturate", "--forbid", files["k3"], "--n", "9", "--input", files["c4"]]
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: --n 9 but {files['c4']} has 4 vertices"]

    def test_saturate_input_on_n_vertices(self, capsys, files):
        code, out, _ = run(
            capsys, ["saturate", "--forbid", files["k3"], "--n", "4", "--input", files["c4"]]
        )
        assert (code, out) == (0, "2 4 4\n0 1\n0 3\n1 2\n2 3\n")


class TestExperiment:
    def test_density_trend_files(self, capsys, files, tmp_path):
        out_dir = str(tmp_path / "reports")
        code, _, err = run(
            capsys,
            ["experiment", "density-trend", "--forbid", files["k3"],
             "--n", "4..6", "--out", out_dir],
        )
        assert code == 0
        assert (tmp_path / "reports" / "density-trend-0.json").exists()
        assert (tmp_path / "reports" / "density-trend-0.csv").exists()

    def test_byte_identical_json(self, capsys, files, tmp_path):
        argv = [
            "experiment", "ratio-scaling", "--forbid", files["k3"],
            "--p", "2", "--n", "4..5", "--seed", "7",
            "--out", str(tmp_path), "--json",
        ]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_plateau_construct(self, capsys, files, tmp_path):
        code, _, err = run(
            capsys,
            ["experiment", "plateau-construct", "--forbid", files["bowtie"],
             "--k", "2", "--ell", "2", "--out", str(tmp_path)],
        )
        assert code == 0 and "pass" in err

    def test_degree_bound_small(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["experiment", "degree-bound", "--count", "3", "--seed", "5",
             "--out", str(tmp_path)],
        )
        assert code == 0
        assert (tmp_path / "degree-bound-5.json").exists()

    def test_coarseness_probe(self, capsys, files, tmp_path):
        code, _, err = run(
            capsys,
            ["experiment", "coarseness-probe", "--forbid", files["k3"],
             "--p", "2", "--n", "4..5", "--out", str(tmp_path)],
        )
        assert code == 0 and "exploratory" in err

    @pytest.mark.parametrize("name", ["ratio-scaling", "coarseness-probe"])
    def test_report_carries_seed(self, capsys, files, tmp_path, name):
        code, _, _ = run(
            capsys,
            ["experiment", name, "--forbid", files["k3"], "--p", "2",
             "--n", "4..5", "--seed", "7", "--out", str(tmp_path)],
        )
        assert code == 0
        assert (tmp_path / f"{name}-7.csv").exists()
        report = json.loads((tmp_path / f"{name}-7.json").read_text())
        assert report["seed"] == 7

    @pytest.mark.parametrize("name", ["ratio-scaling", "bridgeless-tight",
                                      "plateau-construct", "coarseness-probe",
                                      "density-trend"])
    def test_missing_forbid_exit_1(self, capsys, tmp_path, name):
        out_dir = tmp_path / "reports"
        code, _, err = run(capsys, ["experiment", name, "--out", str(out_dir)])
        assert code == 1
        missing = "--forbid, --n" if name == "bridgeless-tight" else "--forbid"
        assert err.splitlines() == [f"error: the following arguments are required: {missing}"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("name", ["degree-bound", "ratio-scaling", "bridgeless-tight",
                                      "plateau-construct", "coarseness-probe",
                                      "density-trend"])
    def test_empty_n_range_exit_1(self, capsys, files, tmp_path, name):
        """An empty range is refused where --n is a range, is not an int
        where it is a single n, and --n is unknown where no --n is read."""
        out_dir = tmp_path / "reports"
        code, _, err = run(capsys, ["experiment", name, "--forbid", files["k3"],
                                    "--n", "5..3", "--out", str(out_dir)])
        assert code == 1
        expected = {
            "degree-bound": f"unrecognized arguments: --forbid {files['k3']} --n 5..3",
            "plateau-construct": "unrecognized arguments: --n 5..3",
            "bridgeless-tight": "argument --n: invalid int value: '5..3'",
        }.get(name, "argument --n: empty range: '5..3'")
        assert err.splitlines() == [f"error: {expected}"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("name, flag", [("degree-bound", "--count"),
                                            ("bridgeless-tight", "--trials")])
    def test_negative_count_or_trials_exit_1(self, capsys, files, tmp_path, name, flag):
        out_dir = tmp_path / "reports"
        required = [] if name == "degree-bound" else ["--forbid", files["k3"], "--n", "5"]
        code, _, err = run(capsys, ["experiment", name, *required,
                                    flag, "-1", "--out", str(out_dir)])
        assert code == 1
        assert err.splitlines() == [f"error: argument {flag}: must be >= 0, got -1"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("name", ["ratio-scaling", "coarseness-probe"])
    def test_negative_solver_seed_exit_1(self, capsys, files, tmp_path, name):
        out_dir = tmp_path / "reports"
        code, _, err = run(capsys, ["experiment", name, "--forbid", files["k3"], "--n", "4",
                                    "--seed", "-1", "--out", str(out_dir)])
        assert code == 1
        assert err.splitlines() == ["error: seed must be >= 0"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("name, seed", [("degree-bound", "-5"), ("bridgeless-tight", "-1")])
    def test_negative_suite_seed_exit_1(self, capsys, files, tmp_path, name, seed):
        out_dir = tmp_path / "reports"
        required = ["--count", "1"] if name == "degree-bound" else [
            "--forbid", files["c4"], "--n", "5", "--trials", "1"]
        code, out, err = run(capsys, ["experiment", name, *required,
                                      "--seed", seed, "--out", str(out_dir)])
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: seed must be >= 0"]
        assert not out_dir.exists()

    def test_bridgeless_tight_n_range_exit_1(self, capsys, files, tmp_path):
        out_dir = tmp_path / "reports"
        argv = ["experiment", "bridgeless-tight", "--forbid", files["k3"],
                "--trials", "1", "--out", str(out_dir)]
        code, _, err = run(capsys, argv + ["--n", "4..6"])
        assert code == 1
        assert err.splitlines() == ["error: argument --n: invalid int value: '4..6'"]
        assert not out_dir.exists()
        code, _, _ = run(capsys, argv + ["--n", "5"])
        assert code == 0 and (out_dir / "bridgeless-tight-0.json").exists()

    def test_bridgeless_tight_without_n_exit_1(self, capsys, files, tmp_path):
        out_dir = tmp_path / "reports"
        code, _, err = run(capsys, ["experiment", "bridgeless-tight", "--forbid", files["k3"],
                                    "--trials", "1", "--out", str(out_dir)])
        assert code == 1
        assert err.splitlines() == ["error: the following arguments are required: --n"]
        assert not out_dir.exists()

    def test_range_suites_default_n_4_to_6(self, capsys, files, tmp_path):
        code, out, _ = run(capsys, ["experiment", "density-trend", "--forbid", files["k3"],
                                    "--out", str(tmp_path), "--json"])
        assert code == 0
        assert [row["n"] for row in json.loads(out)["rows"]] == [4, 5, 6]

    def test_plateau_construct_two_forbid_exit_1(self, capsys, files, tmp_path):
        out_dir = tmp_path / "reports"
        code, _, err = run(capsys, ["experiment", "plateau-construct", "--forbid", files["bowtie"],
                                    "--forbid", files["k3"], "--k", "2", "--out", str(out_dir)])
        assert code == 1
        assert err.splitlines() == [
            "error: experiment plateau-construct takes a single --forbid, got 2"
        ]
        assert not out_dir.exists()

    def test_degree_bound_starts_reach_solver(self, capsys, tmp_path, monkeypatch):
        starts = []
        solve = spectral.solve_rho_p

        def spy(g, p, config=None):
            starts.append(config.starts)
            return solve(g, p, config)

        monkeypatch.setattr(spectral, "solve_rho_p", spy)
        run(
            capsys,
            ["experiment", "degree-bound", "--count", "2", "--seed", "5",
             "--starts", "2", "--out", str(tmp_path)],
        )
        assert starts == [2] * 8


# Which flags each command reads.  Kept here, apart from cli's own tables, so
# that a flag added to or dropped from a command fails one of the tests below.
SUITE_FLAGS = {
    "degree-bound": "count seed starts out json",
    "ratio-scaling": "forbid p n seed starts out json",
    "bridgeless-tight": "forbid k n trials seed out json",
    "plateau-construct": "forbid k ell out json",
    "coarseness-probe": "forbid p n seed starts out json",
    "density-trend": "forbid n out json",
}
CHECK_FLAGS = {"tight": "input k", "bridge": "input edge k", "plateau": "input edge lambda"}
EXPERIMENT_ALL = "forbid p n k ell count trials seed starts out json".split()
CHECK_ALL = "input k edge lambda".split()
RUNNERS = ["run_degree_bound_suite", "run_ratio_scaling", "run_bridgeless_tight_suite",
           "run_plateau_construction", "run_coarseness_probe", "run_density_trend"]


def _flag_argv(files, flag, value_index):
    """``--flag value`` with the first or the second of two values; the
    first of an optional flag is its default, so it is left out."""
    values = {
        "forbid": [files["k3"], files["c4"]], "input": [files["p3"], files["c4"]],
        "n": [None, "5"], "p": [None, "3"], "k": [None, "2"], "ell": [None, "3"],
        "count": [None, "7"], "trials": [None, "7"], "seed": [None, "9"],
        "starts": [None, "2"], "out": [None, "elsewhere"], "json": [None, ""],
        "edge": ["0,1", "1,2"], "lambda": ["2,1", "1,1,1"],
    }[flag]
    value = values[value_index]
    if value is None:
        return []
    return [f"--{flag}"] + ([value] if value else [])


def _suite_argv(files, name, changed=None, extra=()):
    argv = ["experiment", name]
    for flag in SUITE_FLAGS[name].split():
        if name == "bridgeless-tight" and flag == "n":  # required: two values
            argv += ["--n", "6" if flag == changed else "5"]
        else:
            argv += _flag_argv(files, flag, int(flag == changed))
    return argv + list(extra)


def _check_argv(files, prop, changed=None, extra=()):
    argv = ["check", prop]
    for flag in CHECK_FLAGS[prop].split():
        if flag == "k":  # required: two values
            argv += ["--k", "2" if flag == changed else "1"]
        else:
            argv += _flag_argv(files, flag, int(flag == changed))
    return argv + list(extra)


@pytest.fixture
def observe(capsys, monkeypatch, tmp_path):
    """Run argv in a fresh working directory with the suite runners and the
    check deciders replaced by recorders; return (exit code, recorded calls,
    stdout, stderr lines, report files written)."""
    runs = itertools.count()
    calls = []

    def recorder(name, result):
        def record(*args, **kwargs):
            calls.append((name, args, kwargs))
            return result
        return record

    for runner in RUNNERS:
        monkeypatch.setattr(cli, runner, recorder(runner, ExperimentReport("x", {}, 0)))
    cert = SimpleNamespace(result=True, to_json_dict=dict)
    monkeypatch.setattr(cli, "is_k_tight", recorder("tight", cert))
    monkeypatch.setattr(cli, "is_k_bridge", recorder("bridge", cert))
    monkeypatch.setattr(cli, "is_lambda_plateau", recorder("plateau", (True, None)))

    def run_recorded(argv):
        calls.clear()
        work = tmp_path / f"run{next(runs)}"
        work.mkdir()
        monkeypatch.chdir(work)
        code = main(argv)
        out = capsys.readouterr()
        written = sorted(str(f.relative_to(work)) for f in work.rglob("*") if f.is_file())
        return code, list(calls), out.out, out.err.splitlines(), written

    return run_recorded


@pytest.mark.parametrize("name, flag", [
    (name, flag) for name, flags in SUITE_FLAGS.items() for flag in flags.split()
])
def test_each_suite_flag_is_read(observe, files, name, flag):
    """Changing one declared flag from its default (or a required flag from
    one value to another) changes the runner's arguments, the report files
    or stdout."""
    default = observe(_suite_argv(files, name))
    changed = observe(_suite_argv(files, name, changed=flag))
    assert default[0] == changed[0] == 0
    assert len(default[1]) == len(changed[1]) == 1
    assert default[1:3] + default[4:] != changed[1:3] + changed[4:]


@pytest.mark.parametrize("prop, flag", [
    (prop, flag) for prop, flags in CHECK_FLAGS.items() for flag in flags.split()
])
def test_each_check_flag_is_read(observe, files, prop, flag):
    default = observe(_check_argv(files, prop))
    changed = observe(_check_argv(files, prop, changed=flag))
    assert default[0] == changed[0] == 0
    assert len(default[1]) == len(changed[1]) == 1 and default[1] != changed[1]


@pytest.mark.parametrize("name, flag", [
    (name, flag) for name, flags in SUITE_FLAGS.items()
    for flag in EXPERIMENT_ALL if flag not in flags.split()
])
def test_undeclared_suite_flag_exit_1(observe, files, name, flag):
    extra = ["--" + flag] + ([] if flag == "json" else [files["k3"] if flag == "forbid" else "5"])
    code, calls, out, err, written = observe(_suite_argv(files, name, extra=extra))
    assert (code, calls, out, written) == (1, [], "", [])
    assert len(err) == 1 and err[0].startswith("error: unrecognized arguments: --" + flag)


@pytest.mark.parametrize("prop, flag", [
    (prop, flag) for prop, flags in CHECK_FLAGS.items()
    for flag in CHECK_ALL if flag not in flags.split()
])
def test_undeclared_check_flag_exit_1(observe, files, prop, flag):
    code, calls, out, err, _ = observe(_check_argv(files, prop, extra=["--" + flag, "1"]))
    assert (code, calls, out) == (1, [], "")
    assert err == [f"error: unrecognized arguments: --{flag} 1"]


@pytest.mark.parametrize("name, flag", [
    (name, flag) for name, flags in SUITE_FLAGS.items()
    for flag in flags.split() if flag not in ("forbid", "json")
])
def test_repeated_suite_flag_exit_1(observe, files, name, flag):
    """A single-valued flag given twice is a usage error, not its last value."""
    extra = _flag_argv(files, flag, 1) * 2
    code, calls, out, err, written = observe(_suite_argv(files, name, extra=extra))
    assert (code, calls, out, written) == (1, [], "", [])
    assert err == [f"error: argument --{flag}: given more than once"]


@pytest.mark.parametrize("prop, flag", [
    (prop, flag) for prop, flags in CHECK_FLAGS.items() for flag in flags.split()
])
def test_repeated_check_flag_exit_1(observe, files, prop, flag):
    extra = ["--k", "2"] if flag == "k" else _flag_argv(files, flag, 1)
    code, calls, out, err, _ = observe(_check_argv(files, prop, extra=extra))
    assert (code, calls, out) == (1, [], "")
    assert err == [f"error: argument --{flag}: given more than once"]


@pytest.mark.parametrize("argv, message", [
    (["experiment", "degree-bound", "--count", "1", "--seed", "1", "--seed", "2"],
     "argument --seed: given more than once"),
    (["experiment", "degree-bound", "--cou", "1", "--se", "4"],
     "unrecognized arguments: --cou 1 --se 4"),
    (["rho", "--input", "g.hg", "--p", "2", "--p", "3"], "argument --p: given more than once"),
    (["rho", "--inp", "g.hg", "--p", "2"], "the following arguments are required: --input"),
    (["extremal", "--forbid", "h.hg", "--n", "4", "--n", "5"],
     "argument --n: given more than once"),
    (["saturate", "--forbid", "h.hg", "--n", "4", "--ord", "random"],
     "unrecognized arguments: --ord random"),
])
def test_repeated_or_abbreviated_flag_exit_1(observe, argv, message):
    """Flags match whole names only, and a single-valued flag is read once:
    no report is written and no runner is called."""
    code, calls, out, err, written = observe(argv)
    assert (code, calls, out, written) == (1, [], "", [])
    assert err == [f"error: {message}"]


def test_forbid_stays_repeatable(observe, files):
    argv = ["experiment", "density-trend", "--forbid", files["k3"], "--forbid", files["c4"]]
    code, calls, _, _, _ = observe(argv)
    assert code == 0 and [name for name, _, _ in calls] == ["run_density_trend"]
    assert len(calls[0][1][0].forbidden) == 2


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["experiment"], "the following arguments are required: name"),
    (["check"], "the following arguments are required: property"),
    (["experiment", "nope"], "argument name: invalid choice: 'nope' (choose from "
     "'degree-bound', 'ratio-scaling', 'bridgeless-tight', 'plateau-construct', "
     "'coarseness-probe', 'density-trend')"),
    (["rho", "--input", "g.hg", "--p", "two"], "argument --p: invalid float value: 'two'"),
])
def test_usage_error_exit_1(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {message}"]
