"""Suite determinism, verdict logic, and report emission."""

import dataclasses
import json
import math
from itertools import combinations

import numpy as np
import pytest

from hspex import families
from hspex.errors import (
    BadConfig,
    HypothesisFailed,
    Infeasible,
    OutOfRange,
    TooLarge,
    WrongArity,
)
from hspex.families import ForbiddenFamily
from hspex.hypergraph import Hypergraph, complete_r_graph, new_hypergraph
from hspex.spectral import SolverConfig
from hspex.experiments import (
    ExperimentReport,
    connected_graph_classes,
    is_r_partite,
    random_connected_hypergraph,
    run_bridgeless_tight_suite,
    run_coarseness_probe,
    run_degree_bound_suite,
    run_density_trend,
    run_plateau_construction,
    run_ratio_scaling,
)
from conftest import bowtie3, cycle, path3, path4
from oracles import classes_by_key


class TestGenerators:
    def test_random_connected_postcondition(self):
        g = random_connected_hypergraph(5, 2, 4, seed=1)
        assert g.is_connected() and g.m == 4
        h = random_connected_hypergraph(4, 3, 2, seed=7)
        assert h.is_connected() and h.r == 3

    def test_determinism(self):
        a = random_connected_hypergraph(6, 2, 7, seed=42)
        b = random_connected_hypergraph(6, 2, 7, seed=42)
        assert a == b

    def test_negative_seed_rejected(self):
        with pytest.raises(BadConfig, match="^seed must be >= 0$"):
            random_connected_hypergraph(5, 2, 4, seed=-1)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(BadConfig, match="^seed must be an integer, got 2.5$"):
            random_connected_hypergraph(5, 2, 5, 2.5)

    def test_numpy_integer_seed(self):
        """random.Random refuses a numpy integer; the seed check hands it the
        plain int."""
        assert random_connected_hypergraph(6, 2, 7, np.int64(42)) == random_connected_hypergraph(
            6, 2, 7, 42
        )

    @pytest.mark.parametrize("n, r, error", [
        (-1, 2, OutOfRange), (2.5, 2, OutOfRange), (3, 1, WrongArity), (3, 0, WrongArity),
        (3, 2.5, WrongArity),
    ])
    def test_bad_n_or_r_rejected(self, n, r, error):
        """n and r follow the Hypergraph constructor's rule; r = 1 used to
        divide by r - 1 = 0."""
        with pytest.raises(error):
            random_connected_hypergraph(n, r, 2, 0)

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            random_connected_hypergraph(6, 2, 2, seed=0)
        with pytest.raises(Infeasible):
            random_connected_hypergraph(4, 2, 10, seed=0)

    def test_connected_classes_small(self):
        assert len(connected_graph_classes(3)) == 2  # path, triangle
        assert len(connected_graph_classes(4)) == 6

    @pytest.mark.parametrize("v, r", [(8, 2), (7, 3)])
    def test_connected_classes_guard(self, v, r):
        """It holds all 2^C(v, r) masks: C(8, 2) = 28 would ask for 2 GiB."""
        with pytest.raises(TooLarge, match=rf"C\({v},{r}\) = {math.comb(v, r)} .* guard \(24\)"):
            connected_graph_classes(v, r)

    @pytest.mark.parametrize("v, r", [(v, 2) for v in range(6)] + [(4, 3)])
    def test_connected_classes_match_key_oracle(self, v, r):
        pool = list(combinations(range(v), r))
        graphs = [
            Hypergraph(v, r, tuple(pool[i] for i in range(len(pool)) if mask >> i & 1))
            for mask in range(1 << len(pool))
        ]
        expected = classes_by_key(g for g in graphs if g.is_connected())
        assert [g.edges for g in connected_graph_classes(v, r)] == [g.edges for g in expected]

    def test_r_partite(self):
        assert is_r_partite(cycle(4))
        assert not is_r_partite(complete_r_graph(3, 2))
        assert is_r_partite(new_hypergraph(6, 3, [(0, 2, 4), (1, 3, 5)]))
        assert not is_r_partite(complete_r_graph(4, 3))


class TestDegreeBoundSuite:
    def test_small_run_passes(self):
        rep = run_degree_bound_suite(10, seed=1)
        assert rep.verdict in ("pass", "pass-with-exclusions")
        assert len(rep.rows) == 40
        assert not any(r["violated"] for r in rep.rows)

    def test_negative_seed_rejected(self):
        """random.Random(-5) draws seed 5's instances, so -5 is refused."""
        with pytest.raises(BadConfig, match="^seed must be >= 0$"):
            run_degree_bound_suite(1, seed=-5)

    def test_negative_count_rejected(self):
        """A negative count would run no instance and pass."""
        with pytest.raises(BadConfig, match="^count must be >= 0$"):
            run_degree_bound_suite(-1)
        with pytest.raises(BadConfig, match="^count must be an integer, got 2.5$"):
            run_degree_bound_suite(2.5)

    @pytest.mark.parametrize("r_set, error", [
        ((), BadConfig), ([], BadConfig), ((1,), WrongArity), ((2, 0), WrongArity),
    ])
    def test_bad_r_set_rejected(self, r_set, error):
        """An empty r_set divided by its length, and r = 1 by r - 1."""
        with pytest.raises(error):
            run_degree_bound_suite(2, r_set=r_set)

    def test_non_integer_seed_rejected(self):
        """A float seed would be reported as given, with a passing verdict."""
        with pytest.raises(BadConfig, match="^seed must be an integer, got 1.5$"):
            run_degree_bound_suite(1, seed=1.5)

    def test_numpy_integer_seed(self):
        """A numpy integer seed draws the plain int's instances, and the
        report stores the plain int."""
        got = run_degree_bound_suite(2, seed=np.int64(9))
        want = run_degree_bound_suite(2, seed=9)
        assert type(got.seed) is int and got.to_json() == want.to_json()

    def test_determinism(self):
        a = run_degree_bound_suite(5, seed=9)
        b = run_degree_bound_suite(5, seed=9)
        assert a.rows == b.rows

    def test_config_keeps_instance_stream(self):
        """A config changes how instances are solved, not which are drawn."""
        plain = run_degree_bound_suite(5, seed=9)
        tuned = run_degree_bound_suite(5, seed=9, config=SolverConfig(starts=2))
        shape = lambda rep: [(row["n"], row["r"], row["m"]) for row in rep.rows]
        assert shape(tuned) == shape(plain)

    def test_rows_have_slack(self):
        rep = run_degree_bound_suite(4, seed=2)
        for row in rep.rows:
            if row["converged"] and row["positive"]:
                assert row["gamma"] + 1e-9 >= row["bound"]


class TestRatioScaling:
    def test_triangle_free_small(self):
        fam = ForbiddenFamily((complete_r_graph(3, 2),))
        rep = run_ratio_scaling(fam, 2.0, range(4, 7), SolverConfig(starts=4))
        assert rep.verdict == "pass"
        by_n = {r["n"]: r for r in rep.rows}
        assert by_n[4]["gamma"] == pytest.approx(1.0, abs=1e-8)
        assert by_n[5]["gamma"] == pytest.approx(math.sqrt(1.5), abs=1e-8)
        assert by_n[5]["scaled"] == pytest.approx(5 * (math.sqrt(1.5) - 1), abs=1e-6)

    def test_failed_class_solve_is_excluded(self, monkeypatch):
        """One non-converged class solve may hide the argmax: pass-with-exclusions."""
        solve = families.solve_rho_p
        calls = []

        def fail_first(g, p, config=None):
            sol = solve(g, p, config)
            calls.append(g)
            if len(calls) > 1:
                return sol
            return dataclasses.replace(sol, flags=sol.flags + ("NoConvergence",))

        monkeypatch.setattr(families, "solve_rho_p", fail_first)
        fam = ForbiddenFamily((complete_r_graph(3, 2),))
        rep = run_ratio_scaling(fam, 2.0, range(4, 6), SolverConfig(starts=4))
        assert rep.excluded == 1
        assert rep.verdict == "pass-with-exclusions"

    def test_warns_on_bad_hypotheses(self):
        fam = ForbiddenFamily((path3(),))  # bipartite and not 2-covering
        with pytest.warns(UserWarning):
            run_ratio_scaling(fam, 2.0, [3], SolverConfig(starts=2))


class TestBridgelessTight:
    def test_c4_saturations_are_tight(self):
        rep = run_bridgeless_tight_suite([cycle(4)], 1, 7, trials=10, seed=3)
        assert rep.verdict == "pass"
        assert len(rep.rows) == 10
        assert all(r["tight"] for r in rep.rows)

    def test_bridged_pattern_skipped(self):
        rep = run_bridgeless_tight_suite([path3()], 1, 6, trials=3, seed=1)
        assert rep.rows == []
        assert any("bridge" in note for note in rep.notes)

    def test_negative_seed_rejected(self):
        with pytest.raises(BadConfig, match="^seed must be >= 0$"):
            run_bridgeless_tight_suite([cycle(4)], 1, 6, trials=1, seed=-1)

    def test_negative_trials_rejected(self):
        """Negative trials would run no saturation and pass."""
        with pytest.raises(BadConfig, match="^trials must be >= 0$"):
            run_bridgeless_tight_suite([complete_r_graph(3, 2)], 1, 5, -2)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(BadConfig, match="^seed must be an integer, got 0.5$"):
            run_bridgeless_tight_suite([cycle(4)], 1, 6, trials=1, seed=0.5)

    def test_numpy_integer_seed(self):
        got = run_bridgeless_tight_suite([cycle(4)], 1, 6, trials=3, seed=np.uint16(3))
        want = run_bridgeless_tight_suite([cycle(4)], 1, 6, trials=3, seed=3)
        assert type(got.seed) is int and got.to_json() == want.to_json()

    def test_disconnected_pattern_skipped(self):
        two = new_hypergraph(4, 2, [(0, 1), (2, 3)])
        rep = run_bridgeless_tight_suite([two], 1, 6, trials=3, seed=1)
        assert rep.rows == [] and any("disconnected" in n for n in rep.notes)


class TestPlateauConstruction:
    def test_bowtie(self):
        rep = run_plateau_construction(bowtie3(), 2, 2)
        assert rep.verdict == "pass"
        row = rep.rows[0]
        assert row["edge_maximal"] and not row["tight"]
        assert row["j1_witness_validates"]

    def test_path4(self):
        rep = run_plateau_construction(path4(), 1, 2)
        assert rep.verdict == "pass"

    def test_triangle_fails_hypothesis(self):
        with pytest.raises(HypothesisFailed):
            run_plateau_construction(complete_r_graph(3, 2), 1, 2)

    def test_single_clique_rejected(self):
        with pytest.raises(HypothesisFailed):
            run_plateau_construction(path4(), 1, 1)


class TestTables:
    def test_density_trend_triangle_free(self):
        fam = ForbiddenFamily((complete_r_graph(3, 2),))
        rep = run_density_trend(fam, range(4, 8))
        assert rep.verdict is None
        assert [r["pi"] for r in rep.rows] == [4, 6, 9, 12]
        assert rep.rows[0]["density"] == pytest.approx(4 / 6)

    def test_density_k4_3(self):
        fam = ForbiddenFamily((complete_r_graph(4, 3),))
        rep = run_density_trend(fam, [4])
        assert rep.rows[0]["density"] == pytest.approx(0.75)

    def test_density_forbidden_edge_is_zero(self):
        fam = ForbiddenFamily((new_hypergraph(2, 2, [(0, 1)]),))
        rep = run_density_trend(fam, [3, 4])
        assert all(r["pi"] == 0 and r["density"] == 0.0 for r in rep.rows)

    def test_coarseness_probe_rows(self):
        fam = ForbiddenFamily((complete_r_graph(3, 2),))
        rep = run_coarseness_probe(fam, 2.0, [4, 5], SolverConfig(starts=4))
        assert rep.verdict is None
        spreads = {r["n"]: r["spread"] for r in rep.rows}
        assert spreads[4] == 0 and spreads[5] == 1


class TestReportEmission:
    def test_save_and_reload(self, tmp_path):
        fam = ForbiddenFamily((complete_r_graph(3, 2),))
        rep = run_density_trend(fam, [4, 5])
        jpath, cpath = rep.save(tmp_path)
        assert jpath.name == "density-trend-0.json"
        data = json.loads(jpath.read_text())
        assert data["experiment"] == "density-trend"
        assert len(data["rows"]) == 2
        csv_lines = cpath.read_text().splitlines()
        assert csv_lines[0] == "n,pi,binom,density"
        assert len(csv_lines) == 3

    def test_json_keys_in_field_order_and_rows_shared(self):
        fam = ForbiddenFamily((complete_r_graph(3, 2),))
        rep = run_density_trend(fam, [4, 5])
        d = rep.to_json_dict()
        assert list(d) == [
            "experiment", "parameters", "seed", "verdict", "excluded", "notes", "rows"]
        assert d["rows"] is rep.rows

    @pytest.mark.parametrize("failed, excluded, verdict", [
        (True, 0, "fail"), (True, 3, "fail"),
        (False, 3, "pass-with-exclusions"), (False, 0, "pass"),
    ])
    def test_judge(self, failed, excluded, verdict):
        rep = ExperimentReport("x", {}, 0, excluded=excluded)
        rep.judge(failed)
        assert rep.verdict == verdict

    def test_json_deterministic(self):
        fam = ForbiddenFamily((complete_r_graph(3, 2),))
        a = run_density_trend(fam, [4, 5]).to_json()
        b = run_density_trend(fam, [4, 5]).to_json()
        assert a == b
