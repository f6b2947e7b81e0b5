"""Lagrangian values, gradients, the solver, its oracles, and identities."""

import math
from itertools import combinations

import numpy as np
import pytest

from hspex.errors import (
    AllZero,
    BadConfig,
    BadP,
    DimensionMismatch,
    IsolatedVertex,
    SameVertex,
)
from hspex.hypergraph import Hypergraph, complete_r_graph, ell_cliques
from hspex.spectral import (
    SolverConfig,
    adjacency_spectral_radius,
    cloning_lagrangian_delta,
    degree_ratio_lower_bound,
    eigen_residual,
    lagrangian,
    lagrangian_gradient,
    principal_ratio,
    rho_infinity,
    rho_upper_bound,
    solve_rho_p,
)
from conftest import (
    cycle,
    path3,
    random_graph,
    random_positive_weights,
    triple_edge,
)
from oracles import (
    eigen_residual_percolumn,
    lagrangian_gradient_percolumn,
    lagrangian_percolumn,
    p_norm,
    rho_p_bruteforce,
)


class TestLagrangian:
    def test_single_triple(self):
        assert lagrangian(triple_edge(), [1, 1, 1]) == 6.0

    def test_triangle_uniform(self, k3):
        assert lagrangian(k3, [3**-0.5] * 3) == pytest.approx(2.0, abs=1e-15)

    def test_zero_entry_kills_edges(self):
        assert lagrangian(path3(), [0, 1, 1]) == 2.0

    def test_dimension_mismatch(self, k3):
        with pytest.raises(DimensionMismatch):
            lagrangian(k3, [1, 1])

    def test_gradient_values(self):
        assert list(lagrangian_gradient(triple_edge(), [1, 1, 1])) == [2, 2, 2]
        assert list(lagrangian_gradient(path3(), [1, 1, 1])) == [1, 2, 1]

    def test_gradient_finite_differences(self, rng):
        h = 1e-6
        for _ in range(60):
            r = rng.choice([2, 3])
            g = random_graph(rng.randint(3, 8), r, 0.5, rng)
            x = np.array(random_positive_weights(g.n, rng))
            grad = lagrangian_gradient(g, x)
            for v in range(g.n):
                up = x.copy(); up[v] += h
                dn = x.copy(); dn[v] -= h
                fd = (lagrangian(g, up) - lagrangian(g, dn)) / (2 * h) / g.r
                assert fd == pytest.approx(grad[v], rel=1e-6, abs=1e-9)

    def test_euler_identity(self, rng):
        for _ in range(100):
            r = rng.choice([2, 3])
            g = random_graph(rng.randint(2, 8), r, 0.5, rng)
            x = np.array(random_positive_weights(g.n, rng))
            lhs = float(np.dot(x, lagrangian_gradient(g, x)))
            assert lhs == pytest.approx(lagrangian(g, x), rel=1e-12)


def _every_labeled_graph(r: int, max_n: int):
    for n in range(max_n + 1):
        cand = list(combinations(range(n), r))
        for mask in range(1 << len(cand)):
            yield Hypergraph(n, r, tuple(e for i, e in enumerate(cand) if mask >> i & 1))


def _weights_with_zeros(n: int, rng) -> list[float]:
    return [0.0 if rng.random() < 0.3 else rng.uniform(0.05, 1.0) for _ in range(n)]


class TestKernelOracle:
    """The gather-once kernel is bit-equal to the per-column np.prod oracle."""

    @staticmethod
    def check(g, x, p):
        val = lagrangian(g, x)
        ref = lagrangian_percolumn(g, x)
        assert np.float64(val).tobytes() == np.float64(ref).tobytes()
        grad = lagrangian_gradient(g, x)
        assert grad.tobytes() == lagrangian_gradient_percolumn(g, x).tobytes()
        res = eigen_residual(g, x, p, val)
        ref = eigen_residual_percolumn(g, x, p, val)
        assert np.float64(res).tobytes() == np.float64(ref).tobytes()

    @pytest.mark.parametrize("r", [2, 3])
    def test_every_labeled_graph_n_le_5(self, r, rng):
        for g in _every_labeled_graph(r, 5):
            self.check(g, random_positive_weights(g.n, rng), 2.0)
            self.check(g, _weights_with_zeros(g.n, rng), 1.5)

    @pytest.mark.parametrize("r", [4, 5])
    def test_random_graphs_n_le_9(self, r, rng):
        for i in range(150):
            g = random_graph(rng.randint(r, 9), r, rng.uniform(0.1, 0.9), rng)
            for p in (1.5, 2.0, 3.0):
                x = (_weights_with_zeros if i % 3 == 0 else random_positive_weights)(g.n, rng)
                self.check(g, x, p)

    def test_no_edges_and_no_vertices(self, rng):
        for g in (Hypergraph(0, 2, ()), Hypergraph(0, 4, ()), Hypergraph(6, 3, ())):
            self.check(g, random_positive_weights(g.n, rng), 2.0)
            self.check(g, [0.0] * g.n, 3.0)


class TestResidualAndRatios:
    def test_symmetric_solutions_have_zero_residual(self, k3):
        assert eigen_residual(k3, [3**-0.5] * 3, 2, 2.0) < 1e-15
        u = 3 ** (-1 / 3)
        assert eigen_residual(triple_edge(), [u] * 3, 3, 2.0) < 1e-12

    def test_perturbed_vector_has_large_residual(self, k3):
        x = [0.9, 0.3, math.sqrt(1 - 0.81 - 0.09)]
        assert eigen_residual(k3, x, 2, 2.0) > 0.1

    def test_principal_ratio(self):
        assert principal_ratio([0.5, 0.5, 0.5]) == 1.0
        assert principal_ratio([1.0, math.sqrt(2), 1.0]) == pytest.approx(math.sqrt(2))
        assert principal_ratio([0.0, 1.0]) == math.inf
        with pytest.raises(AllZero):
            principal_ratio([0.0, 0.0])

    def test_degree_ratio_bound(self, k3):
        assert degree_ratio_lower_bound(path3(), 2) == pytest.approx(math.sqrt(2))
        assert degree_ratio_lower_bound(k3, 3) == 1.0
        g = complete_r_graph(4, 3).remove_edge((0, 1, 2))
        assert degree_ratio_lower_bound(g, 3) == pytest.approx((3 / 2) ** 0.25)
        with pytest.raises(IsolatedVertex):
            degree_ratio_lower_bound(Hypergraph(3, 2, ((0, 1),)), 2)

    def test_rho_upper_bound(self):
        assert rho_upper_bound(4, 2, 2) == pytest.approx(4.0)
        assert rho_upper_bound(3, 3, 3) == pytest.approx(9.0)
        assert rho_upper_bound(5, 2, 1.0001) == pytest.approx(1.0, abs=2e-3)

    def test_rho_infinity(self, k3):
        assert rho_infinity(triple_edge()) == 6.0
        assert rho_infinity(k3) == 6.0
        assert rho_infinity(Hypergraph(4, 2, ())) == 0.0


class TestSolver:
    def test_single_triple_p3(self):
        sol = solve_rho_p(triple_edge(), 3.0)
        assert sol.rho == pytest.approx(2.0, abs=1e-8)
        assert sol.converged
        assert np.allclose(sol.x, 3 ** (-1 / 3), atol=1e-8)

    def test_path_p2_matches_classical(self):
        sol = solve_rho_p(path3(), 2.0)
        assert sol.rho == pytest.approx(math.sqrt(2), abs=1e-8)

    def test_cycle_p2(self):
        sol = solve_rho_p(cycle(4), 2.0)
        assert sol.rho == pytest.approx(2.0, abs=1e-8)

    def test_empty_graph(self):
        sol = solve_rho_p(Hypergraph(4, 2, ()), 2.0)
        assert sol.rho == 0.0 and sol.residual == 0.0 and sol.converged

    def test_no_vertices(self):
        sol = solve_rho_p(Hypergraph(0, 2, ()), 2.0)
        assert sol.rho == 0.0

    def test_bad_p(self, k3):
        with pytest.raises(BadP):
            solve_rho_p(k3, 1.0)
        with pytest.raises(BadP):
            solve_rho_p(k3, math.inf)

    def test_rho_hat_equals_lagrangian_of_x(self, rng):
        for _ in range(10):
            g = random_graph(6, 2, 0.5, rng)
            sol = solve_rho_p(g, 2.0, SolverConfig(starts=2, seed=1))
            assert sol.rho == lagrangian(g, sol.x)

    def test_unit_norm_output(self, rng):
        for p in (1.5, 2.0, 3.0):
            g = random_graph(6, 2, 0.5, rng)
            sol = solve_rho_p(g, p, SolverConfig(starts=2, seed=1))
            if g.m:
                assert p_norm(sol.x, p) == pytest.approx(1.0, abs=1e-12)

    def test_solution_sandwich(self, rng):
        for _ in range(25):
            r = rng.choice([2, 3])
            g = random_graph(rng.randint(3, 7), r, 0.5, rng)
            p = rng.choice([1.5, 2.0, 3.0, 4.0])
            sol = solve_rho_p(g, p, SolverConfig(starts=3, seed=2))
            uniform = np.full(g.n, g.n ** (-1.0 / p))
            assert sol.rho >= lagrangian(g, uniform) - 1e-12
            assert sol.rho <= rho_upper_bound(g.n, r, p) + 1e-9

    def test_converged_residual_bound(self, rng):
        for _ in range(25):
            r = rng.choice([2, 3])
            g = random_graph(rng.randint(3, 7), r, 0.5, rng)
            p = rng.choice([1.5, 2.0, 3.0, 4.0])
            sol = solve_rho_p(g, p, SolverConfig(starts=3, seed=4))
            if sol.converged:
                assert sol.residual <= 1e-10 * max(1.0, sol.rho)

    def test_edge_monotonicity_with_warm_start(self, rng):
        from itertools import combinations

        for _ in range(15):
            g = random_graph(6, 2, 0.4, rng)
            non_edges = [
                e for e in combinations(range(6), 2) if e not in set(g.edges)
            ]
            if not non_edges:
                continue
            bigger = g.add_edge(non_edges[0])
            p = rng.choice([1.5, 2.0, 3.0])
            lo = solve_rho_p(g, p, SolverConfig(starts=2, seed=5))
            hi = solve_rho_p(
                bigger, p, SolverConfig(starts=2, seed=5, warm_start=lo.x)
            )
            assert hi.rho >= lo.rho - 1e-9

    def test_disconnected_low_p_flags(self):
        sol = solve_rho_p(ell_cliques(2, 3, 2), 1.5)
        assert sol.rho == pytest.approx(6 * 3 ** (-2 / 1.5), abs=1e-8)
        assert "ZeroEntries" in sol.flags
        assert "NonUniqueSuspected" in sol.flags  # symmetric twin maximizers
        assert sol.agreement_gap > 1e-6
        assert principal_ratio(sol.x) == math.inf

    def test_flat_maximizer_instance_stays_fast_and_correct(self):
        # three nearly-disjoint triples: the optimum concentrates on one edge
        # and the maximizer set is flat, the worst case for the iteration
        from hspex.hypergraph import parse_hypergraph

        g = parse_hypergraph("3 7 3\n0 1 3\n0 4 5\n1 2 6\n")
        sol = solve_rho_p(g, 2.0, SolverConfig(starts=4, seed=1))
        assert sol.rho == pytest.approx(2 / math.sqrt(3), abs=1e-8)
        assert sol.iterations < 40_000

    @pytest.mark.parametrize(
        "t,r,p",
        [(3, 2, 2.0), (4, 2, 2.5), (5, 2, 3.0), (4, 3, 3.0), (4, 3, 4.0), (5, 3, 3.5)],
    )
    def test_complete_graph_closed_form_high_p(self, t, r, p):
        # p >= r: the maximizer is unique, so symmetry forces the uniform
        # vector and rho = r! * C(t, r) * t^(-r/p)
        g = complete_r_graph(t, r)
        want = (
            math.factorial(r) * math.comb(t, r) * t ** (-r / p)
        )
        sol = solve_rho_p(g, p, SolverConfig(starts=3, seed=2))
        assert sol.rho == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 4), (4, 4)])
    def test_complete_bipartite_p2(self, a, b):
        from conftest import complete_bipartite

        sol = solve_rho_p(complete_bipartite(a, b), 2.0, SolverConfig(starts=3, seed=3))
        assert sol.rho == pytest.approx(math.sqrt(a * b), abs=1e-8)

    def test_rho_nondecreasing_in_p(self, rng):
        for _ in range(8):
            r = rng.choice([2, 3])
            g = random_graph(rng.randint(3, 6), r, 0.6, rng)
            if g.m == 0:
                continue
            values = [
                solve_rho_p(g, p, SolverConfig(starts=3, seed=6)).rho
                for p in (1.5, 2.0, 3.0, 4.0)
            ]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
            assert values[-1] <= rho_infinity(g) + 1e-9

    def test_json_shape(self):
        sol = solve_rho_p(path3(), 2.0, SolverConfig(starts=2))
        d = sol.to_json_dict()
        assert set(d) == {"rho", "x", "p", "residual", "iterations", "starts", "flags"}

    def test_strategy_override(self, k3):
        pg = solve_rho_p(k3, 2.0, SolverConfig(starts=2, strategy="projected-gradient"))
        assert pg.rho == pytest.approx(2.0, abs=1e-8)
        fp = solve_rho_p(
            triple_edge(), 2.0, SolverConfig(starts=2, strategy="fixed-point-shifted")
        )
        assert fp.rho == pytest.approx(6 * 3**-1.5, abs=1e-8)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(starts=0)

    def test_negative_max_iter_rejected(self):
        with pytest.raises(BadConfig, match="max_iter"):
            SolverConfig(max_iter=-1)
        assert SolverConfig(max_iter=0).max_iter == 0


class TestOracles:
    def test_adjacency_oracle_values(self, k3):
        assert adjacency_spectral_radius(path3()) == pytest.approx(math.sqrt(2))
        assert adjacency_spectral_radius(k3) == pytest.approx(2.0)
        assert adjacency_spectral_radius(cycle(4)) == pytest.approx(2.0)
        assert adjacency_spectral_radius(Hypergraph(3, 2, ())) == 0.0

    def test_grid_oracle_values(self, k3):
        assert rho_p_bruteforce(triple_edge(), 3.0) == pytest.approx(2.0, abs=1e-4)
        assert rho_p_bruteforce(k3, 2.0) == pytest.approx(2.0, abs=1e-4)

    def test_grid_oracle_matches_solver_on_all_2graphs_n4(self):
        from itertools import combinations

        pool = list(combinations(range(4), 2))
        for mask in range(64):
            g = Hypergraph(4, 2, tuple(pool[i] for i in range(6) if mask >> i & 1))
            sol = solve_rho_p(g, 2.0, SolverConfig(starts=6, seed=9))
            assert rho_p_bruteforce(g, 2.0, grid_depth=16) == pytest.approx(
                sol.rho, abs=1e-4
            )

    def test_grid_oracle_matches_solver_low_p(self, rng):
        from itertools import combinations

        pool = list(combinations(range(4), 2))
        for mask in rng.sample(range(64), 12):
            g = Hypergraph(4, 2, tuple(pool[i] for i in range(6) if mask >> i & 1))
            sol = solve_rho_p(g, 1.5, SolverConfig(starts=6, seed=9))
            assert rho_p_bruteforce(g, 1.5, grid_depth=16) == pytest.approx(
                sol.rho, abs=1e-4
            )


class TestCloningIdentity:
    def test_triangle_example(self, k3):
        x = [1.0, 1.0, 1.0]
        assert cloning_lagrangian_delta(k3, 0, 1, x) == 4.0

    def test_zero_weight_leaves_value(self, rng):
        for _ in range(20):
            g = random_graph(6, 2, 0.5, rng)
            x = np.array(random_positive_weights(6, rng))
            u, z = rng.sample(range(6), 2)
            x[u] = 0.0
            assert cloning_lagrangian_delta(g, u, z, x) == pytest.approx(
                lagrangian(g, x), rel=1e-12
            )

    def test_same_vertex_rejected(self, k3):
        with pytest.raises(SameVertex):
            cloning_lagrangian_delta(k3, 1, 1, [1, 1, 1])

    def test_bitwise_identity_with_cloned_graph(self, rng):
        for _ in range(120):
            r = rng.choice([2, 3])
            g = random_graph(rng.randint(3, 7), r, 0.5, rng)
            u, z = rng.sample(range(g.n), 2)
            x = np.array(random_positive_weights(g.n, rng))
            assert cloning_lagrangian_delta(g, u, z, x) == lagrangian(
                g.clone_vertex(u, z), x
            )

    def test_matches_three_sum_formula(self, rng):
        """The textbook three-term form agrees to 1e-12 relative."""
        for _ in range(100):
            r = rng.choice([2, 3])
            g = random_graph(rng.randint(3, 7), r, 0.5, rng)
            u, z = rng.sample(range(g.n), 2)
            x = np.array(random_positive_weights(g.n, rng))
            rfact = math.factorial(r)
            drop = sum(
                math.prod(x[w] for w in e if w != u) for e in g.edges if u in e
            )
            gain = sum(
                math.prod(x[w] for w in e if w != z)
                for e in g.edges
                if z in e and u not in e
            )
            naive = lagrangian(g, x) - rfact * x[u] * drop + rfact * x[u] * gain
            assert cloning_lagrangian_delta(g, u, z, x) == pytest.approx(
                naive, rel=1e-12, abs=1e-12
            )
