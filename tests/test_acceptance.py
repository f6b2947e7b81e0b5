"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (visible with -s or in the
captured-output section); shared heavyweight computations live in
session-scoped fixtures so the whole gate stays inside its time budget.
"""

import math
import random
import time
from itertools import combinations

import numpy as np
import pytest

from hspex.canonical import canonical_key
from hspex.embedding import contains_subgraph
from hspex.families import (
    ForbiddenFamily,
    check_clonal_on,
    check_multiplicative_witness,
    extremal_lambda_p,
    extremal_pi,
    is_edge_maximal,
    is_member,
    isomorphic,
)
from hspex.hypergraph import (
    Hypergraph,
    complete_r_graph,
    ell_cliques,
    l_gadget,
    new_hypergraph,
)
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
from hspex.structure import find_k_bridges, find_plateaus
from hspex.experiments import (
    connected_graph_classes,
    random_connected_hypergraph,
    run_bridgeless_tight_suite,
    run_degree_bound_suite,
    run_plateau_construction,
)
from conftest import (
    bowtie3,
    complete_bipartite,
    cycle,
    path3,
    path4,
    random_graph,
    random_positive_weights,
)
from oracles import rho_p_bruteforce_by_class

K3 = complete_r_graph(3, 2)
K4 = complete_r_graph(4, 2)
K4_3 = complete_r_graph(4, 3)
TRIANGLE_FREE = ForbiddenFamily((K3,))


def report(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: PASS - {detail}")


# --- shared heavy computations -----------------------------------------------


@pytest.fixture(scope="session")
def classical_cross():
    """Criterion 1 data: solver vs classical adjacency oracle at p = 2."""
    t0 = time.monotonic()
    solutions = []
    worst = 0.0
    cfg = SolverConfig(starts=4, seed=101)
    for n in range(1, 5):
        pool = list(combinations(range(n), 2))
        for mask in range(1 << len(pool)):
            edges = tuple(pool[i] for i in range(len(pool)) if mask >> i & 1)
            g = Hypergraph(n, 2, edges)
            sol = solve_rho_p(g, 2.0, cfg)
            worst = max(worst, abs(sol.rho - adjacency_spectral_radius(g)))
            solutions.append((g, sol))
    rng = random.Random(2026)
    for _ in range(100):
        n = rng.randint(5, 12)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 2 * n))
        g = random_connected_hypergraph(n, 2, m, seed=rng.randrange(2**31))
        sol = solve_rho_p(g, 2.0, cfg)
        worst = max(worst, abs(sol.rho - adjacency_spectral_radius(g)))
        solutions.append((g, sol))
    return {"worst": worst, "elapsed": time.monotonic() - t0, "solutions": solutions}


@pytest.fixture(scope="session")
def grid_cross():
    """Criterion 2 data: solver vs grid oracle on every 3-graph with n <= 4.

    The solver runs on every labeled graph; the oracle runs once per
    isomorphism class and p.
    """
    solutions = []
    worst = 0.0
    oracle_memo: dict = {}
    pool = list(combinations(range(4), 3))
    for n, subsets in ((3, [(), ((0, 1, 2),)]), (4, None)):
        masks = subsets if subsets is not None else range(16)
        for item in masks:
            if subsets is None:
                edges = tuple(pool[i] for i in range(4) if item >> i & 1)
            else:
                edges = item
            g = Hypergraph(n, 3, edges)
            for p in (1.5, 2.0, 3.0, 4.0):
                sol = solve_rho_p(g, p, SolverConfig(starts=8, seed=7))
                oracle = rho_p_bruteforce_by_class(oracle_memo, g, p)
                worst = max(worst, abs(sol.rho - oracle))
                solutions.append((g, sol))
    return {"worst": worst, "solutions": solutions}


@pytest.fixture(scope="session")
def degree_bound_report():
    """Criterion 6 data: the 1000-instance degree-ratio suite."""
    t0 = time.monotonic()
    rep = run_degree_bound_suite(1000, seed=606)
    return {"report": rep, "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="session")
def lambda_sweep():
    """Criteria 7/14 data: spectral-extremal sweep of F({K3}) at p=2, n=4..8."""
    cfg = SolverConfig(starts=4, seed=303)
    return {n: extremal_lambda_p(TRIANGLE_FREE, n, 2.0, cfg) for n in range(4, 9)}


@pytest.fixture(scope="session")
def pi_sweep():
    return {n: extremal_pi(TRIANGLE_FREE, n) for n in range(4, 9)}


@pytest.fixture(scope="session")
def tetra_sweep():
    """Criterion 14 r=3 coverage: F({K4^(3)}) sweep at p=2, n=4..6."""
    fam = ForbiddenFamily((K4_3,))
    cfg = SolverConfig(starts=4, seed=404)
    return {n: extremal_lambda_p(fam, n, 2.0, cfg) for n in (4, 5, 6)}


# --- criteria -------------------------------------------------------------------


def test_criterion_01_solver_matches_classical_oracle(classical_cross):
    assert classical_cross["worst"] <= 1e-8
    assert classical_cross["elapsed"] < 60.0
    report(
        1,
        f"solver vs classical power iteration, worst |diff| = "
        f"{classical_cross['worst']:.2e} over {len(classical_cross['solutions'])} "
        f"graphs in {classical_cross['elapsed']:.1f}s",
    )


def test_criterion_02_solver_matches_grid_oracle(grid_cross):
    assert grid_cross["worst"] <= 1e-4
    report(
        2,
        f"solver vs refined-grid oracle on all 3-graphs with n <= 4, "
        f"p in {{1.5, 2, 3, 4}}, worst |diff| = {grid_cross['worst']:.2e}",
    )


def test_criterion_03_converged_solutions_satisfy_eigenequation(
    classical_cross, grid_cross, degree_bound_report, lambda_sweep, tetra_sweep
):
    checked = 0
    for g, sol in classical_cross["solutions"] + grid_cross["solutions"]:
        if sol.converged:
            res = eigen_residual(g, sol.x, sol.p, sol.rho)
            assert res <= 1e-10 * max(1.0, sol.rho)
            checked += 1
    for row in degree_bound_report["report"].rows:
        if row["converged"]:
            assert row["residual"] <= 1e-10 * max(1.0, row["rho"])
            checked += 1
    for sweep in (lambda_sweep, tetra_sweep):
        for res in sweep.values():
            for g, sol in zip(res.argmax, res.solutions):
                if sol.converged:
                    assert eigen_residual(g, sol.x, sol.p, sol.rho) <= 1e-10 * max(
                        1.0, sol.rho
                    )
                    checked += 1
    report(3, f"eigenequation residual <= 1e-10*max(1, rho) on {checked} solutions")


def test_criterion_04_euler_and_finite_difference_gradient():
    rng = random.Random(808)
    h = 1e-6
    for i in range(500):
        r = rng.choice([2, 3])
        g = random_graph(rng.randint(3, 8), r, 0.5, rng)
        x = np.array(random_positive_weights(g.n, rng))
        grad = lagrangian_gradient(g, x)
        val = lagrangian(g, x)
        euler = float(np.dot(x, grad))
        assert euler == pytest.approx(val, rel=1e-12, abs=1e-12)
        v = rng.randrange(g.n)
        up = x.copy(); up[v] += h
        dn = x.copy(); dn[v] -= h
        fd = (lagrangian(g, up) - lagrangian(g, dn)) / (2 * h) / g.r
        assert fd == pytest.approx(grad[v], rel=1e-6, abs=1e-9)
    report(4, "Euler identity (1e-12 rel) and central differences (1e-6 rel), 500 cases")


def test_criterion_05_cloning_identity_bit_exact():
    rng = random.Random(505)
    for i in range(500):
        r = rng.choice([2, 3])
        g = random_graph(rng.randint(3, 8), r, 0.5, rng)
        u, z = rng.sample(range(g.n), 2)
        x = np.array(random_positive_weights(g.n, rng))
        assert cloning_lagrangian_delta(g, u, z, x) == lagrangian(
            g.clone_vertex(u, z), x
        )
    report(5, "cloning delta == Lagrangian of cloned graph, bit-exact, 500 cases")


def test_criterion_06_degree_ratio_bound_suite(degree_bound_report):
    rep = degree_bound_report["report"]
    assert rep.verdict in ("pass", "pass-with-exclusions")
    assert not any(row["violated"] for row in rep.rows)
    assert degree_bound_report["elapsed"] < 600.0
    sol = solve_rho_p(path3(), 2.0, SolverConfig(starts=4, seed=1))
    gamma = principal_ratio(sol.x)
    bound = degree_ratio_lower_bound(path3(), 2.0)
    assert gamma == pytest.approx(math.sqrt(2), abs=1e-8)
    assert bound == pytest.approx(math.sqrt(2), abs=1e-12)
    report(
        6,
        f"zero violations in {len(rep.rows)} rows "
        f"({rep.excluded} non-converged excluded) in "
        f"{degree_bound_report['elapsed']:.0f}s; equality case reproduced",
    )


def test_criterion_07_extremal_ratio_scaling(lambda_sweep):
    for n, res in lambda_sweep.items():
        a, b = n // 2, n - n // 2
        expected = complete_bipartite(a, b)
        assert len(res.argmax) == 1
        assert canonical_key(res.argmax[0]) == canonical_key(expected)
        sol = res.solutions[0]
        gamma = principal_ratio(sol.x)
        if n % 2 == 0:
            assert gamma == pytest.approx(1.0, abs=1e-8)
        else:
            assert gamma == pytest.approx(math.sqrt(b / a), abs=1e-8)
            assert (gamma - 1.0) * n <= 2.0
    report(7, "balanced bipartite argmaxes; gamma values exact to 1e-8 for n=4..8")


def test_criterion_08_bridgeless_patterns_give_tight_saturations():
    patterns = []
    for v in (3, 4, 5):
        for g in connected_graph_classes(v):
            if g.m >= 1 and not find_k_bridges(g, 1):
                patterns.append(g)
    assert len(patterns) >= 10  # triangle, C4, diamond, K4, C5, K5, ...
    rep = run_bridgeless_tight_suite(patterns, 1, 8, trials=50, seed=88)
    assert rep.verdict == "pass"
    assert len(rep.rows) == 50 * len(patterns)
    assert all(row["tight"] for row in rep.rows)
    assert rep.notes == []

    for k in (1, 2):
        assert find_k_bridges(K4_3, k) == []
        rep3 = run_bridgeless_tight_suite([K4_3], k, 6, trials=50, seed=99)
        assert rep3.verdict == "pass" and len(rep3.rows) == 50
    report(
        8,
        f"{len(patterns)} bridgeless 2-graph patterns x 50 saturations all 1-tight; "
        "tetrahedron pattern k in {1,2} all k-tight",
    )


def test_criterion_09_plateau_construction_defeats_tightness():
    for h, k in ((bowtie3(), 2), (path4(), 1)):
        rep = run_plateau_construction(h, k, 2)
        assert rep.verdict == "pass"
        row = rep.rows[0]
        assert row["start_member"] and row["edge_maximal"]
        assert not row["tight"] and row["j1_witness_validates"]
    report(9, "both plateau fixtures: saturation edge-maximal, not k-tight, J1 validated")


GADGET_FIXTURES = [
    (path3(), (1, 1)),
    (path4(), (1, 1)),
    (new_hypergraph(6, 2, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]),
     (1, 1)),  # two triangles joined by an edge
    (bowtie3(), (2, 1)),
    (bowtie3(), (1, 1, 1)),
    (new_hypergraph(5, 3, [(0, 1, 2), (2, 3, 4)]), (2, 1)),
    (new_hypergraph(5, 3, [(0, 1, 2), (2, 3, 4)]), (1, 1, 1)),
]


def test_criterion_10_gadget_contains_plateaued_patterns():
    rs = set()
    for h, lam in GADGET_FIXTURES:
        assert find_plateaus(h, lam), f"fixture lacks a {lam}-plateau"
        gadget = l_gadget(len(lam), lam, h.n)
        found, _ = contains_subgraph(gadget, h)
        assert found
        rs.add(h.r)
    assert rs == {2, 3}
    report(10, f"{len(GADGET_FIXTURES)} (pattern, partition) gadget checks, r in {sorted(rs)}")


def _random_member(fam: ForbiddenFamily, n: int, rng: random.Random) -> Hypergraph:
    g = random_graph(n, fam.r, 0.5, rng)
    while True:
        offending = None
        for h in fam.forbidden:
            found, phi = contains_subgraph(g, h)
            if found:
                offending = tuple(tuple(sorted(phi[v] for v in e)) for e in h.edges)
                break
        if offending is None:
            return g
        g = g.remove_edge(offending[rng.randrange(len(offending))])


def test_criterion_11_two_covering_families_are_clonal():
    for fixture, n in ((K3, 6), (K4, 6), (K4_3, 6)):
        assert fixture.is_2_covering()
        fam = ForbiddenFamily((fixture,))
        rng = random.Random(1100 + fixture.n + fixture.r)
        for _ in range(100):
            g = _random_member(fam, n, rng)
            ok, witness = check_clonal_on(fam, g)
            assert ok, (fixture, g, witness)
    bad_fam = ForbiddenFamily((path3(),))
    g = new_hypergraph(3, 2, [(0, 1)])
    ok, witness = check_clonal_on(bad_fam, g)
    assert not ok and witness == (2, 0)
    report(11, "300 random members clonal for 2-covering patterns; non-2-covering violates")


def test_criterion_12_blowup_counterexample_witnesses():
    blow = new_hypergraph(2, 2, [(0, 1)]).blow_up((2, 2))
    assert canonical_key(blow) == canonical_key(cycle(4))
    fam = ForbiddenFamily((cycle(4),), induced=True)
    k2 = new_hypergraph(2, 2, [(0, 1)])
    assert is_member(fam, k2)
    assert not check_multiplicative_witness(fam, k2, (2, 2))
    report(12, "K2 blow-up is C4 (equal keys); induced-C4-free family rejects it")


def test_criterion_13_edge_extrema_match_known_values(pi_sweep):
    for n, res in pi_sweep.items():
        assert res.value == n * n // 4
        for g in res.argmax:
            assert rho_infinity(g) == 2 * res.value
            assert is_edge_maximal(TRIANGLE_FREE, g)[0]
    report(13, "pi values floor(n^2/4) for n=4..8; 2*pi = rho_infinity of argmaxes")


def test_criterion_14_bounds_sandwich(lambda_sweep, tetra_sweep, pi_sweep):
    checked = 0
    tetra_fam = ForbiddenFamily((K4_3,))
    for fam, sweep, r in ((TRIANGLE_FREE, lambda_sweep, 2), (tetra_fam, tetra_sweep, 3)):
        for n, res in sweep.items():
            pi = extremal_pi(fam, n).value
            lower = math.factorial(r) * pi * float(n) ** (-r / res.p)
            upper = rho_upper_bound(n, r, res.p)
            assert lower - 1e-9 <= res.value <= upper + 1e-9
            checked += 1
    report(14, f"r!*pi*n^(-r/p) <= lambda_p <= n^(r(1-1/p)) on {checked} sweep points")
