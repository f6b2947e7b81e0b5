"""Lagrangian values, gradients, the solver, its oracles, and identities."""

import inspect
import math
import sys
import warnings
from dataclasses import fields, replace
from itertools import combinations

import numpy as np
import pytest

from hspex.errors import (
    AllZero,
    BadConfig,
    BadP,
    BadWeights,
    DimensionMismatch,
    IsolatedVertex,
    OutOfRange,
    SameVertex,
    WrongArity,
)
from hspex import spectral
from hspex.hypergraph import Hypergraph, complete_r_graph, ell_cliques
from hspex.spectral import (
    BATCH_ENTRIES,
    SolverConfig,
    _Lagrangian,
    _fixed_point_run,
    _normalize_p,
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
    labeled_graphs,
    path3,
    random_graph,
    random_positive_weights,
    relabel,
    triple_edge,
)
from oracles import (
    _fixed_point_start,
    _Lagrangian1D,
    eigen_residual_percolumn,
    solve_rho_p_perstart,
    lagrangian_gradient_percolumn,
    lagrangian_percolumn,
    p_norm,
    rho_p_bruteforce,
    rho_p_bruteforce_by_class,
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


# RUN_ENTRIES forced so that every batch sums position 0's runs, or none does
CUTOFFS = (0, 1 << 62)


def _kernel(g, rows: int, monkeypatch) -> _Lagrangian:
    """g's kernel with blocks of `rows` rows, set through BATCH_ENTRIES."""
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "BATCH_ENTRIES", rows * (g.r * g.m or 1))
        kernel = _Lagrangian(g)
    assert kernel.rows == rows
    return kernel


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
        for n in range(6):
            for g in labeled_graphs(n, r):
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

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_edgeless_gradient_is_float(self, r):
        """bincount of no entries gives int64 zeros; the gradient is float64
        zeros, for one row and for several, and L is zeros with the gradient
        and without it."""
        g = Hypergraph(6, r, ())
        assert lagrangian_gradient(g, [0.5] * 6).dtype == np.float64
        kernel = _Lagrangian(g)
        for b in (4, 1, 3):
            x = np.full((b, 6), 0.5)
            val, grad = kernel.evaluate(x)
            assert grad.dtype == np.float64 and grad.shape == (b, 6) and not grad.any()
            for got in (val, kernel.evaluate(x, grad=False)[0]):
                assert got.tobytes() == np.zeros(b).tobytes()

    @pytest.mark.parametrize("cutoff", CUTOFFS)
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_batch_rows_on_each_scatter_path(self, r, cutoff, rng, monkeypatch):
        """test_batch_rows_match_single_rows with position 0's run sums taken
        by every batch (cutoff 0) and by none."""
        monkeypatch.setattr(spectral, "RUN_ENTRIES", cutoff)
        self.test_batch_rows_match_single_rows(r, rng, monkeypatch)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_batch_rows_match_single_rows(self, r, rng, monkeypatch):
        """Each row of a batched evaluation, walked in blocks of 1 to 16
        rows, has the bits of its one-row call."""
        for _ in range(40):
            g = random_graph(rng.randint(r, 9), r, rng.uniform(0.1, 0.9), rng)
            rows = rng.randint(1, 16)
            x = np.array([_weights_with_zeros(g.n, rng) for _ in range(rows)]).reshape(rows, g.n)
            kernel = _kernel(g, rng.randint(1, 16), monkeypatch)
            val, grad = kernel.evaluate(x)
            rho, res = kernel.euler_residual(x, np.power(x, 1.5), grad)
            for b in range(rows):
                xb = x[b : b + 1]
                val_b, grad_b = _Lagrangian(g).evaluate(xb)
                assert val[b].tobytes() == val_b.tobytes()
                assert grad[b].tobytes() == grad_b.tobytes()
                assert grad[b].tobytes() == lagrangian_gradient_percolumn(g, x[b]).tobytes()
                rho_b, res_b = kernel.euler_residual(xb, np.power(xb, 1.5), grad_b)
                assert (rho[b].tobytes(), res[b].tobytes()) == (rho_b.tobytes(), res_b.tobytes())
                assert rho[b] == np.dot(x[b], lagrangian_gradient(g, x[b]))


class TestKernelScratch:
    """The kernel's own buffers: gathers and prefix products written into
    them, and views rebuilt when the block size changes, all with the
    per-column oracle's bits."""

    @staticmethod
    def check(g, x, val, grad):
        """val and grad have the oracle's bits for each row of x; grad may be
        None, when the call did not ask for it."""
        for b, xb in enumerate(x):
            assert val[b].tobytes() == np.float64(lagrangian_percolumn(g, xb)).tobytes()
            if grad is not None:
                assert grad[b].tobytes() == lagrangian_gradient_percolumn(g, xb).tobytes()

    @staticmethod
    def batch(g, b, rng):
        return np.array([_weights_with_zeros(g.n, rng) for _ in range(b)]).reshape(b, g.n)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_every_batch_size(self, r, rng, monkeypatch):
        """b runs up from 1 to rows, so the index grows, back down to 1, and
        from rows + 1 to 2 * rows + 1, where the batch is walked in blocks,
        the last of them short.  At each b two combined calls, a value-only
        call and another combined call alternate between two batches, so
        each finds the buffers as another batch, or another block size, left
        them; and the first calls' results still hold their bits after the
        later calls.
        At r = 2 too, the gradient scatters one position at a time on the
        row index, whose views are rebuilt for each b."""
        for _ in range(12):
            g = random_graph(rng.randint(r, 8), r, rng.uniform(0.2, 0.9), rng)
            rows = rng.randint(1, 7)
            kernel = _kernel(g, rows, monkeypatch)
            sizes = [*range(1, rows + 1), *range(rows - 1, 0, -1), *range(rows + 1, 2 * rows + 2)]
            for b in sizes:
                x, y = self.batch(g, b, rng), self.batch(g, b, rng)
                first = kernel.evaluate(y)
                val, grad = kernel.evaluate(x)
                only, none = kernel.evaluate(y, grad=False)
                assert none is None
                self.check(g, y, only, None)
                self.check(g, y, *first)
                self.check(g, x, *kernel.evaluate(x))
                self.check(g, x, val, grad)

    @pytest.mark.parametrize("cutoff", CUTOFFS)
    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_every_batch_size_on_each_scatter_path(self, r, cutoff, rng, monkeypatch):
        """test_every_batch_size with position 0's run sums taken by every
        batch (cutoff 0) and by none."""
        monkeypatch.setattr(spectral, "RUN_ENTRIES", cutoff)
        self.test_every_batch_size(r, rng, monkeypatch)

    @staticmethod
    def owned(values) -> dict[int, int]:
        """id -> nbytes of the arrays that hold the data of every array among
        values, or in a tuple or list among them."""
        out = {}
        for v in values:
            for a in v if isinstance(v, (tuple, list)) else (v,):
                if isinstance(a, np.ndarray):
                    while a.base is not None:
                        a = a.base
                    out[id(a)] = a.nbytes
        return out

    @pytest.mark.parametrize("t, r, parts, rows", [
        (4, 2, (8,) * 4, 4), (4, 2, (8,) * 4, 2), (5, 3, (2, 3, 3, 4, 4), 5),
        (5, 4, (2, 2, 3, 3, 3), 6), (6, 5, (2,) * 6, 7),
    ])
    def test_scatter_choice_and_scratch_at_every_r(self, t, r, parts, rows, rng, monkeypatch):
        """With the default RUN_ENTRIES, a block of b rows sums position 0's
        runs exactly when b * (m - K) reaches it, K runs per row, and these
        blow-ups cross it as b grows, except with 2 rows.  The index and
        the run tables grow for the largest block s so far, the tables once
        a block reaches the cutoff.  The kernel's arrays stay within the
        `_Lagrangian` docstring's bound for every r: 32E bytes, E = r * rows
        * m here, plus run tables of s * m float64 (at most E/r) and two
        intp per run and row."""
        g = complete_r_graph(t, r).blow_up(parts)
        m, k = g.m, len({e[0] for e in g.edges})
        sums = [b * (m - k) >= spectral.RUN_ENTRIES for b in range(1, rows + 1)]
        assert not sums[0] and sums[-1] == (rows > 2)
        kernel = _kernel(g, rows, monkeypatch)
        entries = r * rows * m
        seen = 0
        for b in [*range(1, rows + 1), *range(rows - 1, 0, -1)]:
            x = self.batch(g, b, rng)
            self.check(g, x, *kernel.evaluate(x))
            seen = max(seen, b)
            assert kernel._seen == seen
            assert (kernel._block_runs is not None) == sums[b - 1]
            assert (kernel._runs is not None) == sums[seen - 1]
            if kernel._runs is not None:
                assert len(kernel._runs[2]) == seen
            runs = self.owned(kernel._runs or ())
            scratch = self.owned(vars(kernel).values())
            assert sum(runs.values()) <= 8 * seen * m + 16 * seen * k
            assert sum(n for a, n in scratch.items() if a not in runs) <= 32 * entries
        assert (kernel._runs is not None) == (rows > 2)

    def test_scratch_stays_at_one_row(self):
        """A solve on a graph with r * m > BATCH_ENTRIES walks its batch of
        starts in blocks of one row, so its kernel holds one row of scratch:
        the edge index (r * m intp) and the gather, prefix and leave-one-out
        buffers (2 * r * m float64), and the tuple-to-array conversion of
        the edges (2 * r * m intp at its peak) is done before they exist.
        512 KiB covers the per-start arrays of the whole batch and the run
        tables; a second row of scratch would add 3 * r * m entries."""
        import tracemalloc

        g = complete_r_graph(10, 2).blow_up((20,) * 10)
        assert g.r * g.m > BATCH_ENTRIES
        for p in (1.5, 3.0):  # both strategies; the first call also warms numpy up
            solve_rho_p(complete_r_graph(3, 2), p)
            tracemalloc.start()
            try:
                sol = solve_rho_p(g, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sol.converged
            assert peak < 8 * 3 * g.r * g.m + 2**19

    @pytest.mark.parametrize("g, starts, rows", [
        (complete_r_graph(4, 3), 2, 2730),
        (complete_r_graph(10, 2).blow_up((20,) * 10), 16, 1),
    ])
    def test_kernel_holds_one_chunk(self, monkeypatch, g, starts, rows):
        """A solve's kernel holds one block of max(1, BATCH_ENTRIES // (r * m))
        rows, however many starts its batch holds."""
        assert rows == max(1, BATCH_ENTRIES // (g.r * g.m))
        built = []
        init = _Lagrangian.__init__

        def spy(self, graph):
            init(self, graph)
            built.append(self.rows)

        monkeypatch.setattr(_Lagrangian, "__init__", spy)
        for p in (1.5, 3.0):  # both strategies
            solve_rho_p(g, p, SolverConfig(starts=starts, max_iter=0))
        assert built == [rows, rows]


def _sunflower(r: int, petals: int) -> Hypergraph:
    """Edges {0, ..., r-2} + {r - 1 + i}: vertex 0 is position 0 of every edge."""
    core = tuple(range(r - 1))
    return Hypergraph(r - 1 + petals, r, tuple((*core, r - 1 + i) for i in range(petals)))


def _signed_weights(n: int, rng) -> list[float]:
    """Entries that are 0.0, -0.0, negative or positive."""
    return [rng.choice((0.0, -0.0, rng.uniform(-1.0, -0.05), rng.uniform(0.05, 1.0)))
            for _ in range(n)]


class TestPosition0Runs:
    """Position 0's scatter as one sum per run, forced on (cutoff 0) and off,
    on graphs whose position-0 runs are long, against the per-column oracle
    bit for bit: weights with zeros, negative entries and -0.0, runs whose
    first term is -0.0 and whose others are +-0, and batches of several rows."""

    GRAPHS = [
        *(complete_r_graph(t, r).blow_up(parts) for t, r, parts in [
            (4, 2, (5, 3, 4, 6)), (6, 2, (3, 5, 7, 9, 11, 13)), (4, 3, (3, 2, 4, 3)),
            (5, 3, (2, 4, 6, 8, 10)), (5, 4, (2, 3, 5, 7, 9)), (6, 5, (2,) * 6),
        ]),
        *(_sunflower(r, 40) for r in (2, 3, 4, 5)),
    ]

    @staticmethod
    def zero_runs(g) -> list[float]:
        """+-0 weights, so every term is +-0, with -0.0 as the first term of
        the first run: -0.0 at position 1 of the first edge, +0.0 after it."""
        x = [-0.0 if v % 2 else 0.0 for v in range(g.n)]
        first = g.edges[0]
        for v in first[2:]:
            x[v] = 0.0
        x[first[1]] = -0.0
        return x

    @pytest.mark.parametrize("cutoff", CUTOFFS)
    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"r{g.r}m{g.m}")
    def test_gradient_bits(self, g, cutoff, rng, monkeypatch):
        monkeypatch.setattr(spectral, "RUN_ENTRIES", cutoff)
        rows = 5
        kernel = _kernel(g, rows, monkeypatch)
        xs = [self.zero_runs(g), [-0.0] * g.n, [1.0] * g.n]
        xs += [_signed_weights(g.n, rng) for _ in range(2 * rows)]
        for x in xs:
            assert lagrangian_gradient(g, x).tobytes() == lagrangian_gradient_percolumn(g, x).tobytes()
        # blocks of 5, 5 and 3 rows, one call per block and one for them all
        for lo, hi in ((0, rows), (rows, 2 * rows), (2 * rows, len(xs)), (0, len(xs))):
            batch = np.array(xs[lo:hi])
            val, grad = kernel.evaluate(batch)
            assert (kernel._block_runs is not None) == (cutoff == 0)
            for x, row in zip(batch, grad):
                assert row.tobytes() == lagrangian_gradient_percolumn(g, x).tobytes()
            # L alone has the bits of L beside the gradient
            assert kernel.evaluate(batch, grad=False)[0].tobytes() == val.tobytes()

    @pytest.mark.parametrize("cutoff", CUTOFFS)
    def test_zero_runs_sum_to_positive_zero(self, cutoff, monkeypatch):
        """A run of +-0 terms led by -0.0 can sum to -0.0; the vertex's
        gradient entry is +0.0 on both paths, as in the oracle."""
        monkeypatch.setattr(spectral, "RUN_ENTRIES", cutoff)
        g = _sunflower(2, 6)  # vertex 0's run has the terms x_1 .. x_6
        for x in ([0.5, -0.0, 0.0, -0.0, -0.0, 0.0, -0.0], [0.5] + [-0.0] * 6):
            grad = lagrangian_gradient(g, x)
            assert grad.tobytes() == lagrangian_gradient_percolumn(g, x).tobytes()
            assert math.copysign(1.0, grad[0]) == 1.0

    @pytest.mark.parametrize("parts", [(10, 2, (20,) * 10), (5, 4, (2, 3, 5, 7, 9))])
    def test_solutions_equal_on_both_paths(self, parts, monkeypatch):
        """The default cutoff sends these blow-ups' batches through the run
        sums; with the bincount scatter everywhere, the solutions have the
        same bits."""
        t, r, sizes = parts
        g = complete_r_graph(t, r).blow_up(sizes)
        kernel = _Lagrangian(g)
        kernel.evaluate(np.ones((1, g.n)))
        assert kernel._block_runs is not None
        for p in (1.5, 3.0):  # both strategies
            got = solve_rho_p(g, p)
            monkeypatch.setattr(spectral, "RUN_ENTRIES", CUTOFFS[1])
            want = solve_rho_p(g, p)
            monkeypatch.undo()
            _same_solution(got, want)


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

    @pytest.mark.parametrize("x", [[1.0, -2.0], [-1.0, -2.0], [1.0, math.nan], [0.0, -1.0]])
    def test_principal_ratio_rejects_negative_or_nan_weights(self, x):
        with pytest.raises(BadWeights):
            principal_ratio(x)

    @pytest.mark.parametrize("p", [0.5, 0.0, 1.0, math.nan, math.inf])
    def test_bad_p_rejected(self, k3, p):
        with pytest.raises(BadP):
            degree_ratio_lower_bound(k3, p)
        with pytest.raises(BadP):
            rho_upper_bound(3, 2, p)
        with pytest.raises(BadP):
            eigen_residual(k3, [0.5] * 3, p, 1.0)

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

    @pytest.mark.parametrize("n, r, error", [
        (-1, 2, OutOfRange), (2.5, 2, OutOfRange), (3, 1, WrongArity), (3, 0, WrongArity),
        (3, 2.5, WrongArity),
    ])
    def test_rho_upper_bound_rejects_bad_n_or_r(self, n, r, error):
        """n and r follow the Hypergraph constructor's rule: n = -1 used to
        give the complex number (-0.5+0.866j)."""
        with pytest.raises(error):
            rho_upper_bound(n, r, 1.5)

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

    def test_edge_monotonicity(self, rng):
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
            hi = solve_rho_p(bigger, p, SolverConfig(starts=2, seed=5))
            assert hi.rho >= lo.rho - 1e-9
            # the added edge only adds a nonnegative term to the Lagrangian
            assert lagrangian(bigger, lo.x) >= lo.rho * (1 - 1e-12)

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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(starts=0)
        # an infinite tol would accept the first iterate as converged, and a
        # NaN one would never be met yet set no NoConvergence flag
        for tol in (math.inf, math.nan, -math.inf):
            with pytest.raises(BadConfig, match="finite"):
                SolverConfig(tol=tol)
        with pytest.raises(BadConfig, match="seed"):
            SolverConfig(seed=-1)

    def test_nan_residual_is_not_convergence(self):
        """At p = 1e5 a random start's sum(x**p) underflows to 0, so the
        best iterate is infinite and its residual NaN, which fails every
        comparison: the solve is flagged, not passed."""
        with np.errstate(all="ignore"):
            sol = solve_rho_p(complete_r_graph(4, 2), 1e5, SolverConfig(starts=2, max_iter=0))
        assert sol.rho == math.inf and math.isnan(sol.residual)
        assert "NoConvergence" in sol.flags and not sol.converged

    def test_negative_max_iter_rejected(self):
        with pytest.raises(BadConfig, match="max_iter"):
            SolverConfig(max_iter=-1)
        assert SolverConfig(max_iter=0).max_iter == 0

    @pytest.mark.parametrize("name, value", [
        ("seed", 1.5), ("seed", 2.0), ("seed", np.float64(3.0)), ("seed", "3"),
        ("starts", 2.5), ("starts", 2.0), ("max_iter", 10.5), ("max_iter", 10.0),
        ("starts", True), ("max_iter", True), ("seed", True), ("seed", False),
    ])
    def test_integer_settings_must_be_integers(self, name, value):
        """A float seed or starts would fail inside numpy at solve time, and a
        float max_iter would run rounded up; starts=True would run one start
        and keep True.  Each is refused at construction."""
        with pytest.raises(BadConfig, match=f"^{name} must be an integer, got "):
            SolverConfig(**{name: value})

    def test_numpy_integer_settings_accepted(self):
        cfg = SolverConfig(starts=np.int64(3), max_iter=np.int32(5000), seed=np.uint8(7))
        sol = solve_rho_p(complete_r_graph(4, 2), 2.0, cfg)
        assert sol.starts_used == 3 and sol.converged
        want = solve_rho_p(complete_r_graph(4, 2), 2.0, SolverConfig(max_iter=5000, starts=3, seed=7))
        _same_solution(sol, want)
        assert type(cfg.seed) is int and cfg.seed == 7

    def test_settings(self):
        """p and r pick the strategy; the config holds only what a caller sets."""
        assert [f.name for f in fields(SolverConfig)] == ["tol", "max_iter", "starts", "seed"]
        for name in ("strategy", "warm_start"):
            with pytest.raises(TypeError):
                SolverConfig(**{name: None})

    def test_per_start_records(self):
        g = complete_r_graph(4, 3)
        for p, strategy in ((4.0, "fixed-point-shifted"), (2.0, "projected-gradient")):
            sol = solve_rho_p(g, p, SolverConfig(starts=3, seed=1))
            assert [rec.strategy for rec in sol.per_start] == [strategy] * 3
            assert sum(rec.iterations for rec in sol.per_start) == sol.iterations
            assert all(rec.converged for rec in sol.per_start)
            assert max(rec.value for rec in sol.per_start) == pytest.approx(sol.rho, abs=1e-12)
            stats = sol.to_json_dict(stats=True)
            assert stats.pop("per_start") == [rec._asdict() for rec in sol.per_start]
            assert stats == sol.to_json_dict()

    @pytest.mark.parametrize("seed, edges", [
        (2020873835, ((0, 1, 5), (0, 3, 5), (0, 5, 6), (1, 2, 3), (1, 2, 6), (1, 3, 6),
                      (2, 4, 5), (4, 5, 6))),
        (476207344, ((0, 2, 4), (0, 2, 5), (0, 2, 6), (0, 3, 5), (1, 3, 4), (1, 3, 6),
                     (1, 4, 6))),
        (2080298437, ((0, 1, 3), (0, 1, 4), (1, 2, 3), (2, 4, 5), (3, 4, 5), (4, 5, 6))),
    ], ids=("instance-321", "instance-701", "instance-981"))
    def test_converged_answers_below_lambda_p(self, seed, edges):
        """Three p = 1.5 answers of run_degree_bound_suite(1000, seed=0), each
        solved with its instance's seed and 4 starts, are converged, carry
        no flag and are positive vectors, yet lie more than 5% below
        lambda_p.  For
        any nonzero y >= 0, L_G(y) / ||y||_p^r is at most lambda_p; at the
        solve y of G less its first edge, that floor is at least 1.05 rho,
        a margin no rounding reaches.  The test records these cases and
        changes no output: mending the answers would change reported
        results, which is a contract decision."""
        g, p = Hypergraph(7, 3, edges), 1.5
        cfg = SolverConfig(starts=4, seed=seed)
        sol = solve_rho_p(g, p, cfg)
        assert sol.converged and sol.flags == () and (sol.x > 0.0).all()
        y = solve_rho_p(g.remove_edge(edges[0]), p, cfg).x
        assert lagrangian(g, y) / p_norm(y, p) ** g.r >= 1.05 * sol.rho


def _same_solution(got, want) -> None:
    """Field by field, bit for bit."""
    assert float(got.rho).hex() == float(want.rho).hex()
    assert got.x.tobytes() == want.x.tobytes()
    assert float(got.residual).hex() == float(want.residual).hex()
    assert (got.iterations, got.starts_used) == (want.iterations, want.starts_used)
    assert float(got.agreement_gap).hex() == float(want.agreement_gap).hex()
    assert got.flags == want.flags
    assert got.per_start == want.per_start


# p >= r runs the fixed point and p < r projected gradient, so both
# strategies run at r = 2, 3 and 4
P_CYCLE = (1.5, 2.0, 2.5, 3.0, 4.0)


def _cycled_case(i: int) -> tuple[float, SolverConfig]:
    """The i-th (p, config), each part cycling at its own period: p, and
    1-16 starts on every fourth case (2-4 on the others, which keeps the
    per-start oracle cheap)."""
    starts = 1 + (i // 4) % 16 if i % 4 == 0 else 1 + i % 4
    return P_CYCLE[i % 5], SolverConfig(starts=starts, seed=i)


class TestBatchedSolverOracle:
    """The batched multi-start solve equals the per-start loop bit for bit."""

    def test_every_labeled_2graph_n_le_5(self):
        for i, g in enumerate(g for n in range(6) for g in labeled_graphs(n, 2)):
            p, cfg = _cycled_case(i)
            _same_solution(solve_rho_p(g, p, cfg), solve_rho_p_perstart(g, p, cfg))

    @pytest.mark.parametrize("r", [3, 4])
    def test_seeded_random_graphs(self, r, rng):
        for i in range(60):
            g = random_graph(rng.randint(r, 7), r, rng.uniform(0.2, 0.9), rng)
            p, cfg = _cycled_case(i)
            _same_solution(solve_rho_p(g, p, cfg), solve_rho_p_perstart(g, p, cfg))

    def test_small_budgets(self, rng):
        """Rows that run out of budget leave the batch with their best iterate."""
        for i in range(40):
            g = random_graph(rng.randint(3, 6), 3, 0.6, rng)
            p, cfg = _cycled_case(i)
            cfg = replace(cfg, max_iter=i % 9)
            _same_solution(solve_rho_p(g, p, cfg), solve_rho_p_perstart(g, p, cfg))

    def test_rows_with_own_budget_and_shift(self, rng):
        """Each row of one fixed-point batch runs with its own budget and
        shift, as the per-start run does; a large shift stalls its row
        until the residual checkpoints end it at iteration 1536."""
        budgets = np.array([1100, 50, 2000, 7, 1100, 300])
        alphas = np.array([1.0, 1e9 / 4 + 1, 1e9 / 16 + 1, 0.5, 2.0, 1e9 / 64 + 1])
        stalled = 0
        for t in range(8):
            g = random_graph(rng.randint(4, 7), 3, 0.5, rng)
            if g.m == 0:
                continue
            p = (1.5, 2.0, 2.5)[t % 3]
            x0 = _normalize_p(np.random.default_rng(t).uniform(0.1, 1.0, (6, g.n)), p)
            kernel = _Lagrangian(g)
            xs, vals, its, oks = _fixed_point_run(kernel, x0, p, 1e-10, budgets, alphas)
            for b in range(6):
                want = _fixed_point_start(
                    _Lagrangian1D(g), x0[b], p, 1e-10, int(budgets[b]), float(alphas[b])
                )
                assert xs[b].tobytes() == want[0].tobytes()
                assert (float(vals[b]).hex(), its[b], oks[b]) == (float(want[1]).hex(), *want[2:])
            stalled += its[2] == 1536 and not oks[2]
        assert stalled > 0

    def test_edge_paths_right_after_an_all_improved_step(self):
        """A step in which every row improved makes its iterate the best one
        without a copy, so the paths that follow such a step must leave each
        row as the per-start oracle leaves it: a collapse at a 512-step
        checkpoint, a shift reset after a value drop and a stop on budget.
        Here vertex 1 is isolated, its entry decays, and row 2 collapses it
        at the checkpoint of iteration 1024 and drops in value at the next
        step; rows 2 and 4 then stop on budget."""
        g = Hypergraph(5, 4, ((0, 2, 3, 4),))
        p = 1.3
        budgets = np.array([1100, 513, 2000, 1025, 700, 1600])
        alphas = np.array([1.0, 0.5, 2.0, 0.25, 4.0, 1.5])
        x0 = _normalize_p(np.random.default_rng(370).uniform(0.0, 1.0, (6, g.n)) ** 4, p)
        kernel = _Lagrangian(g)
        xs, vals, its, oks = _fixed_point_run(kernel, x0, p, 1e-10, budgets, alphas)
        events = []
        for b in range(6):
            ev = []
            want = _fixed_point_start(
                _Lagrangian1D(g), x0[b], p, 1e-10, int(budgets[b]), float(alphas[b]), ev
            )
            assert xs[b].tobytes() == want[0].tobytes()
            assert (float(vals[b]).hex(), its[b], oks[b]) == (float(want[1]).hex(), *want[2:])
            events.append(set(ev))

        def all_up(k):
            """Every row still in the batch at the step ending at iteration k
            improved there."""
            return all((k, "up") in ev for ev, it in zip(events, its) if it >= k)

        ended = [(k, what) for ev in events for k, what in ev]
        assert any(all_up(k) for k, what in ended if what == "collapse")
        assert any(all_up(k - 1) for k, what in ended if what == "reset")
        assert any(all_up(it) for it, ok, cap in zip(its, oks, budgets) if not ok and it == cap)

    def test_collapsed_row_steps_from_its_new_gradient(self):
        """A row that collapses at a checkpoint takes its next step from the
        gradient of its collapsed iterate: here row 0 collapses at iteration
        1024 and converges at 1025, beside rows that do not collapse, with
        the per-start oracle's bits."""
        g = Hypergraph(5, 4, ((0, 1, 2, 3), (0, 2, 3, 4), (1, 2, 3, 4)))
        p = 1.2
        x0 = np.concatenate([
            _normalize_p(np.random.default_rng(seed).uniform(0.0, 1.0, (1, g.n)) ** 4, p)
            for seed in (1938, 1, 2)
        ])
        kernel = _Lagrangian(g)
        xs, vals, its, oks = _fixed_point_run(kernel, x0, p, 1e-10, 3000, 1.0)
        events = []
        for b in range(3):
            want = _fixed_point_start(_Lagrangian1D(g), x0[b], p, 1e-10, 3000, 1.0, events)
            assert xs[b].tobytes() == want[0].tobytes()
            assert (float(vals[b]).hex(), its[b], oks[b]) == (float(want[1]).hex(), *want[2:])
            if b == 0:
                assert (1024, "collapse") in events and (its[0], oks[0]) == (1025, True)

    def test_shift_past_1e9_ends_a_row(self):
        """A row whose shift passes 1e9 in a reset returns its best iterate at
        once: here every evaluation is lower than the last, so every step is
        reset, and a row needs k resets to pass 1e9 from 1e9 / 4^k + 1."""

        class Falling(_Lagrangian):
            calls = 0

            def _block(self, x, grad):
                self.calls += 1
                return np.full(len(x), -float(self.calls)), super()._block(x, grad)[1]

        g = complete_r_graph(4, 3)
        x0 = _normalize_p(np.random.default_rng(3).uniform(0.1, 1.0, (3, 4)), 3.0)
        kernel = Falling(g)
        alphas = 1e9 / np.array([4.0, 4.0**3, 4.0**5]) + 1
        xs, vals, its, oks = _fixed_point_run(kernel, x0, 3.0, 1e-10, 100, alphas)
        assert its.tolist() == [1, 3, 5] and not oks.any()
        assert xs.tobytes() == x0.tobytes() and vals.tolist() == [-1.0] * 3

    def test_stagnant_rows_collapse_onto_a_face(self, monkeypatch):
        """Rows whose residual stagnates with near-dead entries collapse onto
        a boundary face at the 512-step checkpoints, each as it would alone.
        Here three polish rows collapse at every checkpoint from 1024 to 8192
        and the solve ends NoConvergence.  Should another numpy build never
        collapse here, a seeded search over small 4-graphs at p = 1.3 finds a
        new instance."""
        from hspex import spectral

        source, first = inspect.getsourcelines(spectral._fixed_point_run)
        line = first + next(i for i, s in enumerate(source) if "x[collapse] = _normalize_p(" in s)
        collapsed = []

        def spy(x, p):
            caller = sys._getframe(1)
            if caller.f_code is spectral._fixed_point_run.__code__ and caller.f_lineno == line:
                collapsed.append(caller.f_locals["it"])
            return _normalize_p(x, p)

        g = Hypergraph(8, 4, [(0, 3, 4, 7), (0, 4, 5, 7), (1, 2, 6, 7), (1, 3, 4, 7), (2, 4, 5, 7)])
        cfg = SolverConfig(starts=4, seed=1173)
        monkeypatch.setattr(spectral, "_normalize_p", spy)
        got = solve_rho_p(g, 1.3, cfg)
        monkeypatch.undo()
        assert collapsed and all(it % 512 == 0 for it in collapsed), "no row collapsed"
        assert not got.converged
        _same_solution(got, solve_rho_p_perstart(g, 1.3, cfg))

    @pytest.mark.parametrize("cfg", [SolverConfig(starts=1), SolverConfig(starts=4, seed=358488241)])
    def test_stagnant_start_is_not_converged(self, cfg):
        """A start that gives up on a stagnating residual, here the polish
        of start 0 at iteration 3536, returns its best iterate unconverged,
        as the per-start oracle's does."""
        g = Hypergraph(7, 3, ((0, 1, 2), (0, 5, 6), (3, 4, 6)))
        got = solve_rho_p(g, 2.0, cfg)
        assert got.per_start[0][1:3] == (3536, False)
        _same_solution(got, solve_rho_p_perstart(g, 2.0, cfg))

    def test_non_finite_row_ends_at_a_checkpoint(self):
        """At p = 1e5 the random start's sum(x**p) underflows to 0, so its
        value is infinite from the start: it cannot recover, and it ends at
        the first 512-step checkpoint, unconverged, as the per-start
        oracle's does; the uniform start converges at once."""
        g = complete_r_graph(3, 2)
        cfg = SolverConfig(starts=2)
        with np.errstate(all="ignore"):
            got = solve_rho_p(g, 1e5, cfg)
            want = solve_rho_p_perstart(g, 1e5, cfg)
        assert [rec[1:3] for rec in got.per_start] == [(0, True), (512, False)]
        assert got.rho == math.inf and got.flags == ("NoConvergence", "NonUniqueSuspected")
        _same_solution(got, want)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_graph_split_into_chunks(self, p):
        """A graph whose kernel blocks hold fewer rows than the solve has
        starts: the one batch is walked in several blocks per step."""
        g = complete_r_graph(6, 2).blow_up((11, 13, 15, 17, 19, 21))
        cfg = SolverConfig(starts=6, seed=8)
        assert BATCH_ENTRIES // (g.r * g.m) < cfg.starts  # more than one block
        _same_solution(solve_rho_p(g, p, cfg), solve_rho_p_perstart(g, p, cfg))


class TestLineSearchLadder:
    """The lock-step ascent's halving ladders, tried as kernel rows, against
    the per-start oracle's sequential line search, bit for bit.  Both run
    with every warning an error and every floating-point fault but
    underflow raised, so a speculative candidate that warns or raises where
    the sequential search does not fails the test."""

    @staticmethod
    def solve_both(g, p, cfg) -> list:
        """The oracle's line searches past their first trial, after checking
        that both solves agree."""
        searches = []
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            want = solve_rho_p_perstart(g, p, cfg, searches)
            got = solve_rho_p(g, p, cfg)
        _same_solution(got, want)
        return searches

    def test_chunked_graph_ladders_span_kernel_batches(self):
        """A 3-graph's kernel block holds fewer rows than its solve has
        starts and than a ladder has halvings: some search takes a halving
        past the first block, and some runs down to the 1e-18 floor."""
        g = complete_r_graph(5, 3).blow_up((3, 4, 5, 6, 9))
        cfg = SolverConfig(starts=8, seed=3)
        rows = BATCH_ENTRIES // (g.r * g.m)
        assert rows < cfg.starts  # more than one block, of at most `rows` kernel rows
        searches = [s for p in (1.5, 2.0) for s in self.solve_both(g, p, cfg)]
        assert max(tried for _, tried, won in searches if won) > rows
        assert any(not won for _, _, won in searches)

    @pytest.mark.parametrize("r, p", [(2, 1.5), (3, 1.5), (4, 3.0)])
    def test_budget_cap_inside_a_ladder(self, r, p, rng):
        """An ascent stops at its budget // 2 only between steps, so a cap
        that falls inside a line search's halvings lets the search run to
        its end; each start's polish then gets the budget that is left."""
        capped = 0
        for i in range(40):
            g = random_graph(rng.randint(r + 1, 7), r, rng.uniform(0.3, 0.9), rng)
            cfg = SolverConfig(starts=1 + i % 4, seed=i)
            inside = [(before, tried) for before, tried, _ in self.solve_both(g, p, cfg)
                      if tried >= 2]
            if inside:
                # the search's trials are before + 1 .. before + 1 + tried
                before, _ = inside[i % len(inside)]
                self.solve_both(g, p, replace(cfg, max_iter=2 * (before + 2)))
                capped += 1
        assert capped >= 10


# small blow-ups and exponents that run both strategies at r = 2, 3 and 4
BLOCKED_SOLVES = [
    (complete_r_graph(4, 2).blow_up((2, 1, 2, 3)), (1.5, 3.0)),
    (complete_r_graph(5, 3).blow_up((1, 2, 1, 2, 1)), (2.0, 3.0)),
    (complete_r_graph(5, 4).blow_up((1, 1, 2, 1, 2)), (2.5, 4.0)),
]


class TestOneBatchInBlocks:
    """A solve steps all its starts as one batch, which the kernel walks in
    blocks of BATCH_ENTRIES // (r * m) rows; here BATCH_ENTRIES is set so
    that blocks hold 1, 2 or 3 rows of 7 starts: one-row blocks, or blocks
    whose last is short."""

    STARTS = 7

    @staticmethod
    def set_rows(monkeypatch, g, rows: int) -> None:
        monkeypatch.setattr(spectral, "BATCH_ENTRIES", rows * g.r * g.m)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("g, ps", BLOCKED_SOLVES, ids=("r2", "r3", "r4"))
    def test_short_last_block_matches_perstart(self, g, ps, rows, monkeypatch):
        """Bit for bit against the per-start oracle, with every warning an
        error and every floating-point fault but underflow raised."""
        self.set_rows(monkeypatch, g, rows)
        for p in ps:
            for seed in range(3):
                cfg = SolverConfig(starts=self.STARTS, seed=seed)
                TestLineSearchLadder.solve_both(g, p, cfg)

    @pytest.mark.parametrize("g, ps", BLOCKED_SOLVES, ids=("r2", "r3", "r4"))
    def test_one_runner_call_and_gathers_of_one_block(self, g, ps, monkeypatch):
        """One solve makes one runner call, which holds all its starts (a
        p < r ascent also polishes its unconverged rows with one nested
        fixed-point call), and no gather holds more than a block; some
        steps gather several blocks, the last of them short."""
        rows = 3
        self.set_rows(monkeypatch, g, rows)
        calls, gathered = [], []
        depth = [0]

        def spy_runner(run):
            def call(kernel, x, *args, **kwargs):
                calls.append((run.__name__, depth[0], len(x), kernel.rows))
                depth[0] += 1
                try:
                    return run(kernel, x, *args, **kwargs)
                finally:
                    depth[0] -= 1
            return call

        block = _Lagrangian._block

        def spy_block(self, x, grad):
            gathered.append(len(x))
            assert len(x) <= self.rows
            return block(self, x, grad)

        monkeypatch.setattr(_Lagrangian, "_block", spy_block)
        for name in ("_fixed_point_run", "_projected_gradient_run"):
            monkeypatch.setattr(spectral, name, spy_runner(getattr(spectral, name)))
        for p in ps:
            calls.clear()
            solve_rho_p(g, p, SolverConfig(starts=self.STARTS, seed=1))
            runner = "_fixed_point_run" if p >= g.r else "_projected_gradient_run"
            assert calls[0] == (runner, 0, self.STARTS, rows)
            assert all(depth == 1 and name == "_fixed_point_run" for name, depth, _, _ in calls[1:])
            assert len(calls) <= 1 + (runner == "_projected_gradient_run")
        assert 1 in gathered and max(gathered) == rows


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
        memo: dict = {}  # the oracle runs once per isomorphism class
        for mask in range(64):
            g = Hypergraph(4, 2, tuple(pool[i] for i in range(6) if mask >> i & 1))
            sol = solve_rho_p(g, 2.0, SolverConfig(starts=6, seed=9))
            assert rho_p_bruteforce_by_class(memo, g, 2.0, grid_depth=16) == pytest.approx(
                sol.rho, abs=1e-4
            )
        assert len(memo) == 11

    @pytest.mark.parametrize(
        "g,p,depth",
        [
            (Hypergraph(4, 3, ((0, 1, 2), (0, 1, 3))), 1.5, 20),
            (Hypergraph(4, 2, ((0, 1), (1, 2), (1, 3), (2, 3))), 2.0, 16),
        ],
        ids=["two-triples", "paw"],
    )
    def test_grid_oracle_is_relabeling_invariant(self, g, p, depth):
        """The fact `rho_p_bruteforce_by_class` rests on, on a sample."""
        value = rho_p_bruteforce(g, p, grid_depth=depth)
        image = relabel(g, [2, 3, 0, 1])
        assert image.edges != g.edges
        assert abs(rho_p_bruteforce(image, p, grid_depth=depth) - value) <= 1e-12

    def test_grid_oracle_matches_solver_low_p(self, rng):
        from itertools import combinations

        pool = list(combinations(range(4), 2))
        memo: dict = {}  # the oracle runs once per isomorphism class
        for mask in rng.sample(range(64), 12):
            g = Hypergraph(4, 2, tuple(pool[i] for i in range(6) if mask >> i & 1))
            sol = solve_rho_p(g, 1.5, SolverConfig(starts=6, seed=9))
            assert rho_p_bruteforce_by_class(memo, g, 1.5, grid_depth=16) == pytest.approx(
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

    @pytest.mark.parametrize("u, z", [(1, 5), (-1, 2), (5, 1), (5, 5)])
    def test_vertex_out_of_range_rejected(self, u, z):
        """As `clone_vertex` does: no value read through a negative index,
        no bare IndexError, and a range error before u == z is looked at."""
        g = complete_r_graph(4, 3)
        with pytest.raises(OutOfRange):
            g.clone_vertex(u, z)
        with pytest.raises(OutOfRange):
            cloning_lagrangian_delta(g, u, z, [0.5] * 4)

    def test_wrong_length_weights_rejected(self):
        g = complete_r_graph(4, 3)
        for x in ([0.5] * 3, [0.5] * 5, [[0.5] * 4]):
            with pytest.raises(DimensionMismatch):
                cloning_lagrangian_delta(g, 0, 1, x)

    def test_clone_without_edges_is_zero(self):
        """u meets every edge and z meets none: every edge is deleted and
        none is cloned."""
        star = Hypergraph(5, 3, ((0, 1, 2), (0, 1, 3), (0, 2, 3)))
        assert cloning_lagrangian_delta(star, 0, 4, [0.4, 0.3, 0.2, 0.5, 0.6]) == 0.0

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
