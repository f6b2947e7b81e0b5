"""CLI flags, exit codes, and byte-deterministic output."""

import dataclasses
import json

import pytest

from hspex import families, spectral
from hspex.cli import main
from hspex.hypergraph import serialize, complete_r_graph
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

    @pytest.mark.parametrize("flag", [["--starts", "0"], ["--tol", "0"]])
    def test_bad_solver_setting_exit_1(self, capsys, files, flag):
        code, out, err = run(capsys, ["rho", "--input", files["p3"], "--p", "2"] + flag)
        assert code == 1 and out == ""
        assert err == "error: tol must be positive and starts >= 1\n"

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
        code, _, err = run(capsys, ["check", "tight", "--input", files["2k3"]])
        assert code == 1

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
        assert err == "error: not an integer: 'x'\n"


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

    def test_extremal_full_without_p_exit_1(self, capsys, files):
        code, out, err = run(capsys, ["extremal", "--forbid", files["k3"], "--n", "5", "--full"])
        assert code == 1 and out == ""
        assert err == "error: --full requires --p\n"

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
        assert err.splitlines() == [f"error: experiment {name} requires --forbid"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("name", ["degree-bound", "ratio-scaling", "bridgeless-tight",
                                      "plateau-construct", "coarseness-probe",
                                      "density-trend"])
    def test_empty_n_range_exit_1(self, capsys, files, tmp_path, name):
        out_dir = tmp_path / "reports"
        code, _, err = run(capsys, ["experiment", name, "--forbid", files["k3"],
                                    "--n", "5..3", "--out", str(out_dir)])
        assert code == 1
        assert err.splitlines() == ["error: empty range: '5..3'"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("name, flag", [("degree-bound", "--count"),
                                            ("bridgeless-tight", "--trials")])
    def test_negative_count_or_trials_exit_1(self, capsys, files, tmp_path, name, flag):
        out_dir = tmp_path / "reports"
        code, _, err = run(capsys, ["experiment", name, "--forbid", files["k3"],
                                    flag, "-1", "--out", str(out_dir)])
        assert code == 1
        assert err.splitlines() == [f"error: {flag} must be >= 0, got -1"]
        assert not out_dir.exists()

    def test_bridgeless_tight_n_range_exit_1(self, capsys, files, tmp_path):
        out_dir = tmp_path / "reports"
        argv = ["experiment", "bridgeless-tight", "--forbid", files["k3"],
                "--trials", "1", "--out", str(out_dir)]
        code, _, err = run(capsys, argv + ["--n", "4..6"])
        assert code == 1
        assert err.splitlines() == [
            "error: experiment bridgeless-tight takes a single --n, got '4..6'"
        ]
        assert not out_dir.exists()
        code, _, _ = run(capsys, argv + ["--n", "5"])
        assert code == 0 and (out_dir / "bridgeless-tight-0.json").exists()

    def test_bridgeless_tight_without_n_exit_1(self, capsys, files, tmp_path):
        out_dir = tmp_path / "reports"
        code, _, err = run(capsys, ["experiment", "bridgeless-tight", "--forbid", files["k3"],
                                    "--trials", "1", "--out", str(out_dir)])
        assert code == 1
        assert err.splitlines() == ["error: experiment bridgeless-tight requires a single --n"]
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
