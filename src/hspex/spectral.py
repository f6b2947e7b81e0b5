"""Lagrangian polynomial machinery and the p-spectral radius solver.

The objective is the degree-r homogeneous polynomial

    L_G(x) = r! * sum over edges e of prod_{v in e} x_v,

maximized over the nonnegative part of the unit l^p sphere (1 < p < inf).
A maximizer satisfies the stationarity (eigenequation) condition

    rho * x_v^(p-1) = (r-1)! * sum_{e : v in e} prod_{w in e, w != v} x_w

for every vertex v, which is what the residual here measures.

Summation order is pinned everywhere: edges in stored sorted order,
vertices ascending within an edge.  `cloning_lagrangian_delta` is the
Lagrangian of the cloned graph, so the cloning identity holds bit for bit.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass, field
from itertools import chain
from numbers import Integral
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    AllZero,
    BadConfig,
    BadP,
    BadWeights,
    DimensionMismatch,
    IsolatedVertex,
    SameVertex,
    UniformityMismatch,
)
from .hypergraph import Hypergraph, _check_size

CLAMP_EPS = 1e-14  # output entries below this are reported as exact zeros
GAP_EPS = 1e-6     # multi-start disagreement threshold
# No kernel call (a block of a step, of a halving ladder, of the polish or
# of the final pass) gathers more than E = max(BATCH_ENTRIES, r * m)
# entries; `_Lagrangian` states the memory this bounds.
BATCH_ENTRIES = 1 << 15
# A block sums position 0's runs once b * (m - K) of its position-0 entries,
# those after a run's first, reach this.  The measured crossover against
# bincount is 620-950 entries at r = 3, 4 (BENCH_run_sums.json) and 720-890
# at r = 2 (BENCH_one_scatter.json); no graph with m <= 13 reaches it, even
# in the longest (80-row) halving ladder.
RUN_ENTRIES = 1024


def _as_weights(g: Hypergraph, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (g.n,):
        raise DimensionMismatch(f"expected {g.n} weights, got shape {arr.shape}")
    return arr


class _Lagrangian:
    """L and its gradient over one graph g for a batch of iterates: the one
    evaluation path.

    `evaluate(x, value, grad)` returns, for a (b, n) batch x of any size, L
    per row and (1/r) dL/dx_v per row and vertex, None for what is not
    asked for.  It walks x in blocks of at most `rows` = max(1,
    BATCH_ENTRIES // (r * m)) rows: a small graph's batch is one block, and
    a graph with many edges is evaluated a few rows, or one, at a time.

    Memory, with E = max(BATCH_ENTRIES, r * m).  The gather, prefix and
    leave-one-out buffers, allocated once, hold 2E float64, and the block
    index at most E intp; a short block's gather copies its part of the
    index for the call, under E intp more, so at most 32E bytes in all.  A
    kernel whose blocks sum runs adds run tables for its largest block s:
    s * m float64 (at most E/r) and two intp per run and row.

    Per block.  The (r, b, m) index holds the edge positions offset by i*n
    in row i, their place in the flattened block; it is built for the
    largest block seen, its row 0 is the positions, and a smaller block is
    gathered through its row prefix.  The block is gathered once, X = x
    over each edge position, and its prefixes P_k = X_0 * ... * X_k are
    built up to P_{r-1} when L is asked for, else up to P_{r-2}.  L is r!
    times the row sums of P_{r-1}.  The gradient scatters loo_j = P_{j-1} *
    X_{j+1} * ... * X_{r-1} onto the vertices in position j with bincount,
    adds the positions in order and multiplies by (r-1)!.  Products
    multiply positions left to right, np.prod's factor order over an (m, r)
    index, so the bits match it for every r (prefix times suffix would
    regroup them for r >= 4); edges are summed in g's sorted order.

    Run sums.  Position 0's entries are sorted, one run per vertex and row,
    which bincount adds into one bin back to back.  A block with
    RUN_ENTRIES entries past a run's first sums each run instead: loo_0
    times a sign table (+1 on a run's first entry, -1 on the rest; exact),
    then np.subtract.reduceat over the run starts, which adds in bincount's
    order, ((w1 + w2) + ...) + wL, where np.add.reduceat would sum
    pairwise, and one bincount of the run sums, so each bin still starts at
    +0.0.  Positions >= 1 keep bincount.  The run tables grow with the
    index, once a block reaches RUN_ENTRIES.

    Every row gets the bits it would get alone: elementwise products,
    np.add.reduce along a contiguous row, run sums within a row and
    bincount on offset indices add in the one-row order.
    """

    def __init__(self, g: Hypergraph):
        self.n, r, m = g.n, g.r, g.m
        self.rows = rows = max(1, BATCH_ENTRIES // (r * m or 1))
        self.rfact = math.factorial(r)
        self.rm1fact = math.factorial(r - 1)
        edges = chain.from_iterable(g.edges)
        self.positions = np.fromiter(edges, np.intp, count=r * m).reshape(m, r).T.copy()
        self._index = self.positions[:, None, :]  # one row needs no offsets, nor a copy
        self._seen = 0  # the largest block so far, which the index and run tables serve
        self._runs = None  # position 0's run tables, once a block reaches RUN_ENTRIES
        self._gathered = np.empty(r * rows * m)
        self._prefix = np.empty((r - 1) * rows * m)
        self._loo = np.empty(rows * m)
        self._b = None

    def _batch(self, b: int) -> None:
        """Point the views at block size b: row prefixes of the buffers, and of
        the index and run tables, which grow for a block larger than any before."""
        r, m = self.positions.shape
        self._block_runs = None
        if b > self._seen:
            self._seen = b
            self._runs = None  # the old tables are freed before new ones are built
            i = np.arange(b, dtype=np.intp)[:, None]
            if b > 1:
                self._index = self.positions[:, None, :] + self.n * i
                self.positions = self._index[:, 0]  # a view: no second copy of the positions
            if b * m >= RUN_ENTRIES:  # else fewer than m entries of a row follow a run's first
                first = self.positions[0]
                starts = np.flatnonzero(np.diff(first, prepend=-1))
                if b * (m - len(starts)) >= RUN_ENTRIES:
                    sign = np.full((b, m), -1.0)
                    sign[:, starts] = 1.0
                    vertices = first[starts] + self.n * i
                    self._runs = ((starts + m * i).ravel(), vertices.ravel(), sign)
        self._b = b
        # each [j] is contiguous, the whole only at the largest b: one take of
        # a prefix, which copies it, beat r takes of its contiguous [j] rows
        # on small blocks and matched them on large ones
        self._row_index = self._index[:, :b]
        self._X = X = self._gathered[: r * b * m].reshape(r, b, m)
        self._flat_index = [row.reshape(-1) for row in self._row_index]
        self._P = (X[0], *self._prefix[: (r - 1) * b * m].reshape(r - 1, b, m))
        self._L = self._loo[: b * m].reshape(b, m)
        if self._runs is not None:
            starts, vertices, sign = self._runs
            k = len(starts) // len(sign)
            if b * (m - k) >= RUN_ENTRIES:
                self._block_runs = starts[: b * k], vertices[: b * k], sign[:b]

    def _block(
        self, x: np.ndarray, value: bool, grad: bool
    ) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """`evaluate` of a block x of at most `rows` rows."""
        b = len(x)
        if b != self._b:
            self._batch(b)
        # the indices are in range by construction; mode="raise" would copy out
        X = x.ravel().take(self._row_index, out=self._X, mode="clip")
        r, _, m = X.shape
        P = self._P  # P[k] = P_k, P[0] = X_0
        for k in range(1, r if value else r - 1):
            np.multiply(P[k - 1], X[k], out=P[k])
        val = None
        if value:
            val = np.add.reduce(P[r - 1], axis=1)
            np.multiply(val, self.rfact, out=val)
        if not grad:
            return val, None
        if not m:  # bincount of no entries gives int64 zeros
            return val, np.zeros((b, self.n))
        runs = self._block_runs
        out = None
        for j in range(r):
            # loo_j = P_{j-1} * X_{j+1} * ... * X_{r-1}, left to right
            loo = P[j - 1] if j else X[1]
            for k in range(max(j + 1, 2), r):
                loo = np.multiply(loo, X[k], out=self._L)
            if j or runs is None:
                part = np.bincount(self._flat_index[j], weights=loo.ravel(), minlength=b * self.n)
            else:  # each run's sum in bincount's order, then one entry per run
                starts, vertices, sign = runs
                signed = np.multiply(loo, sign, out=self._L).ravel()
                sums = np.subtract.reduceat(signed, starts)
                part = np.bincount(vertices, weights=sums, minlength=b * self.n)
            if out is None:
                out = part
            else:
                out += part
        if r > 2:
            np.multiply(out, self.rm1fact, out=out)
        return val, out.reshape(b, self.n)

    def evaluate(
        self, x: np.ndarray, value: bool = True, grad: bool = True
    ) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """(L per row or None, (1/r) dL/dx per row or None) of a (b, n) batch
        x of any size, in blocks of at most `rows` rows."""
        rows = self.rows
        if len(x) <= rows:
            return self._block(x, value, grad)
        # each block's results go straight into the batch's: one block's held at a time
        out = (np.empty(len(x)) if value else None), (np.empty(x.shape) if grad else None)
        for lo in range(0, len(x), rows):
            for whole, part in zip(out, self._block(x[lo : lo + rows], value, grad)):
                if part is not None:
                    whole[lo : lo + rows] = part
        return out

    def residual(self, xp: np.ndarray, grad: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """Per row, max over vertices of |rho * x_v^(p-1) - grad_v|, given xp = x^(p-1)."""
        d = rho[:, None] * xp
        return np.maximum.reduce(np.abs(np.subtract(d, grad, out=d), out=d), axis=1, initial=0.0)

    def euler_residual(
        self, x: np.ndarray, xp: np.ndarray, grad: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per row, (rho estimate, residual) with Euler's rho = sum x_v grad_v = L
        on the sphere."""
        rho_est = (x[:, None, :] @ grad[:, :, None]).ravel()
        return rho_est, self.residual(xp, grad, rho_est)


def lagrangian(g: Hypergraph, x) -> float:
    """L_G(x) = r! * sum over edges of the product of the edge's weights."""
    return float(_Lagrangian(g).evaluate(_as_weights(g, x)[None], grad=False)[0][0])


def lagrangian_gradient(g: Hypergraph, x) -> np.ndarray:
    """Per-vertex (1/r) dL/dx_v = (r-1)! * sum_{e : v in e} prod_{w in e - v} x_w."""
    return _Lagrangian(g).evaluate(_as_weights(g, x)[None], value=False)[1][0]


def eigen_residual(g: Hypergraph, x, p: float, rho: float) -> float:
    """max over vertices of |rho * x_v^(p-1) - gradient_v|."""
    _check_p(p)
    arr = _as_weights(g, x)[None]
    ev = _Lagrangian(g)
    grad = ev.evaluate(arr, value=False)[1]
    return float(ev.residual(np.power(arr, p - 1.0), grad, np.array([rho], dtype=float))[0])


def principal_ratio(x) -> float:
    """max entry / min entry of a nonnegative vector; +inf if any entry is 0."""
    arr = np.asarray(x, dtype=float)
    if arr.size == 0 or not np.any(arr):
        raise AllZero("principal ratio undefined for the zero vector")
    lo = float(arr.min())
    if not lo >= 0.0:  # a negative entry, or a NaN one, which fails every comparison
        raise BadWeights(f"principal ratio needs nonnegative weights, got min entry {lo}")
    if lo == 0.0:
        return math.inf
    return float(arr.max()) / lo


def degree_ratio_lower_bound(g: Hypergraph, p: float) -> float:
    """(max degree / min degree)^(1/(p+r-2)); requires min degree >= 1."""
    _check_p(p)
    dmax, dmin = g.degree_extremes()
    if dmin == 0:
        raise IsolatedVertex("graph has an isolated vertex (or no vertices)")
    return (dmax / dmin) ** (1.0 / (p + g.r - 2.0))


def rho_upper_bound(n: int, r: int, p: float) -> float:
    """n^(r(1-1/p)), the universal upper bound for the p-spectral radius."""
    n, r = _check_size(n, r)
    _check_p(p)
    return float(n) ** (r * (1.0 - 1.0 / p))


def rho_infinity(g: Hypergraph) -> float:
    """The p -> infinity limit value r! * |E(G)| (exact integer-valued)."""
    return float(math.factorial(g.r) * g.m)


def cloning_lagrangian_delta(g: Hypergraph, u: int, z: int, x) -> float:
    """Lagrangian after cloning z onto u: lagrangian(g.clone_vertex(u, z), x).

    A vertex outside g raises OutOfRange before u == z raises SameVertex.
    """
    clone = g.clone_vertex(u, z)
    if u == z:
        raise SameVertex(f"u == z == {u}")
    return lagrangian(clone, x)


# --- solver ------------------------------------------------------------------


def _check_integer(name: str, value) -> None:
    # numpy integers are Integral too; a float would run truncated or rounded,
    # or fail inside numpy at solve time
    if not isinstance(value, Integral):
        raise BadConfig(f"{name} must be an integer, got {value!r}")


def _check_count(name: str, value: int) -> int:
    # the one rule of every seed, instance count and trial count:
    # random.Random(-s) seeds like random.Random(s), so a negative seed would
    # silently run as its absolute value, and a negative count would run no
    # instance and pass; the plain int it returns is what random.Random and
    # reports take (random.Random refuses a numpy integer)
    _check_integer(name, value)
    if value < 0:
        raise BadConfig(f"{name} must be >= 0")
    return operator.index(value)


def _check_p(p: float) -> None:
    # the one p rule of every solving path; a NaN p fails both comparisons
    if not 1.0 < p < math.inf:
        raise BadP(f"p={p} outside (1, inf)")


@dataclass
class SolverConfig:
    """Knobs for solve_rho_p; defaults favor accuracy over speed."""

    tol: float = 1e-10
    max_iter: int = 100_000
    starts: int = 16
    seed: int = 0
    # not a setting: perfbench/spans.py reads cfg.strategy; it goes with the
    # next benchmark revision (ROADMAP item 1)
    strategy = None

    def __post_init__(self):
        if not math.isfinite(self.tol):
            raise BadConfig(f"tol must be finite, got {self.tol}")
        _check_integer("starts", self.starts)
        _check_integer("max_iter", self.max_iter)
        if self.tol <= 0 or self.starts < 1:
            raise BadConfig("tol must be positive and starts >= 1")
        if self.max_iter < 0:
            raise BadConfig("max_iter must be >= 0")
        self.seed = _check_count("seed", self.seed)


class StartRecord(NamedTuple):
    """How one start of a solve ended: its best value, iterations, whether it
    met the tolerance, and the strategy that ran it."""

    value: float
    iterations: int
    converged: bool
    strategy: str


@dataclass
class SpectralSolution:
    """Best maximizer found: value, vector, eigenequation defect, diagnostics.

    `per_start` holds one StartRecord per start, in start order (uniform
    vector, random starts).
    """

    rho: float
    x: np.ndarray
    p: float
    residual: float
    iterations: int
    starts_used: int
    agreement_gap: float
    flags: tuple[str, ...] = field(default=())
    per_start: tuple[StartRecord, ...] = field(default=())

    @property
    def converged(self) -> bool:
        return "NoConvergence" not in self.flags

    def to_json_dict(self, stats: bool = False) -> dict:
        out = {
            "rho": self.rho,
            "x": [float(v) for v in self.x],
            "p": self.p,
            "residual": self.residual,
            "iterations": self.iterations,
            "starts": self.starts_used,
            "flags": list(self.flags),
        }
        if stats:
            out["per_start"] = [rec._asdict() for rec in self.per_start]
        return out


def _normalize_p(x: np.ndarray, p: float) -> np.ndarray:
    """Each row of x scaled to unit l^p norm, in place; returns x.

    The root is a scalar pow per row: numpy's SIMD array power can round the
    last bit differently from libm's pow, and a row's bits must not depend on
    its batch.
    """
    root = 1.0 / p
    x /= np.array([s**root for s in np.add.reduce(x**p, axis=1).tolist()])[:, None]
    return x


def _fixed_point_run(
    kernel: _Lagrangian, x: np.ndarray, p: float, tol: float, budget, alpha
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shifted nonlinear power iteration on every row of the (b, n) batch x.

    Returns (best x, best L, iterations, converged), one row or entry per
    start.  Update: y_v = grad_v + alpha * x_v^(p-1), then x <- y^(1/(p-1))
    renormalized.  The shift alpha keeps the objective monotone for p >= r;
    as a local polisher for p < r it is retried with larger alpha if L ever
    drops.  `budget` and `alpha` are scalars or one entry per row.

    Each row keeps its own shift, best iterate and checkpoint state, and
    leaves the batch when it returns, so it ends exactly as it would alone.
    All rows start at iteration 0 and step together, so one counter serves;
    below the smallest budget no row can be out of budget, and a step in
    which every row improved needs no monotonicity test: its iterate becomes
    the best one by reference, so a collapse, the one write into x that can
    follow such a step, copies x first.  Each step makes one kernel
    evaluation, value and gradient, of all live rows; a row that a collapse
    or a reset moves gets its gradient anew.
    """
    n_rows = len(x)
    out_x, out_val = np.empty_like(x), np.empty(n_rows)
    out_it, out_ok = np.empty(n_rows, dtype=np.int64), np.zeros(n_rows, dtype=bool)
    live = np.arange(n_rows)  # the input row of each batch row
    budget = np.full(n_rows, budget)
    floor = int(budget.min())  # no row is out of budget while it < floor
    alpha = np.full(x.shape, np.reshape(alpha, (-1, 1)), dtype=float)  # x's shape: no broadcast
    evaluate, euler = kernel.evaluate, kernel.euler_residual
    val, grad = evaluate(x)  # L and its gradient at the current iterate
    best_x, best_val = x.copy(), val
    pm1, exp = p - 1.0, 1.0 / (p - 1.0)
    it = 0
    res_checkpoint = np.full(n_rows, math.inf)
    stagnant = np.zeros(n_rows, dtype=np.int64)
    while True:
        xp = np.power(x, pm1)
        rho_est, res = euler(x, xp, grad)
        ok = res <= tol * np.fmax(1.0, rho_est)
        if it < floor:
            stop = ok
        else:
            # a row out of budget returns its best iterate unchecked
            spent = it >= budget
            ok &= ~spent
            stop = spent | ok
        if it and it % 512 == 0:
            # Stagnating residual means a flat maximizer direction (possible
            # for p < r): near-dead entries then decay only algebraically.
            # Collapse them onto the boundary face, which is itself optimal
            # (a wrongly collapsed vertex resurrects via its gradient); when
            # nothing is collapsible the flatness is interior, and grinding
            # further cannot improve the value, so give up on this start.  A
            # row whose value is inf or NaN cannot recover: it gives up too.
            slow = ~stop & (res > 0.5 * res_checkpoint)
            tiny = slow[:, None] & (x > 0.0) & (x < 1e-6)
            collapse = tiny.any(axis=1)
            stagnant = np.where(slow & ~collapse, stagnant + 1, 0)
            stop = stop | (stagnant >= 2) | ~np.isfinite(val)  # stop may be ok itself
            if np.count_nonzero(collapse):
                x = x.copy()  # best_x may be x itself
                x[collapse] = _normalize_p(np.where(tiny, 0.0, x)[collapse], p)
                grad[collapse] = evaluate(x[collapse], value=False)[1]
                xp = np.power(x, pm1)
            res_checkpoint = res
        y = np.add(np.multiply(alpha, xp, out=xp), grad, out=xp)  # xp is not read again
        if np.count_nonzero(stop):
            rows = live[stop]
            out_x[rows] = np.where(ok[stop, None], x[stop], best_x[stop])
            out_val[rows] = np.where(ok[stop], val[stop], best_val[stop])
            out_it[rows] = it
            out_ok[rows] = ok[stop]
            keep = ~stop
            x, y, best_x, best_val, alpha, budget, res_checkpoint, stagnant, live = (
                a[keep] for a in
                (x, y, best_x, best_val, alpha, budget, res_checkpoint, stagnant, live)
            )
            if not len(x):
                break
        x = _normalize_p(np.power(y, exp, out=y), p)
        it += 1
        val, grad = evaluate(x)
        up = val > best_val
        if np.count_nonzero(up) == len(up):
            best_x, best_val = x, val
            continue
        np.copyto(best_x, x, where=up[:, None])
        np.copyto(best_val, val, where=up)
        down = val < best_val - 1e-12 * np.fmax(1.0, best_val)
        if np.count_nonzero(down):
            # non-monotone: shift too small for this regime; enlarge and restart
            alpha[down] *= 4.0
            x[down] = best_x[down]
            val[down] = best_val[down]
            grad[down] = evaluate(x[down], value=False)[1]
            hopeless = alpha[:, 0] > 1e9
            if np.count_nonzero(hopeless):
                budget[hopeless] = it  # return the best iterate now
                floor = it
    return out_x, out_val, out_it, out_ok


# a failed trial step eta is followed by eta/2, eta/4, ... while above 1e-18;
# eta <= 1e6, so 80 halvings cover every line search
_HALVINGS = np.array([math.ldexp(1.0, -k) for k in range(1, 81)])


def _halving_ladder(
    kernel: _Lagrangian, x: np.ndarray, direction: np.ndarray, val: float, eta: float,
    p: float,
) -> tuple[int, Optional[float], np.ndarray, float]:
    """The rest of one start's line search after its trial step eta failed.

    Its halvings eta/2, eta/4, ... above 1e-18, projected and normalized,
    are evaluated as kernel rows, one block (`kernel.rows` rows) per call,
    and the search ends with the first block that holds a winner.
    Returns (trials, step, x, L) of the first that improves on val, or of
    x itself with step None when none does; trials counts the halvings the
    one-by-one search tries, and each candidate has the bits of its trial
    there.
    """
    ladder = eta * _HALVINGS
    ladder = ladder[ladder > 1e-18]
    for lo in range(0, len(ladder), kernel.rows):
        steps = ladder[lo : lo + kernel.rows]
        cand = _normalize_p(np.maximum(x + steps[:, None] * direction, 0.0), p)
        cand_val = kernel.evaluate(cand, grad=False)[0]
        wins = np.flatnonzero(cand_val > val)
        if len(wins):
            w = wins[0]
            return lo + w + 1, steps[w], cand[w], cand_val[w]
    return len(ladder), None, x, val


def _projected_gradient_run(
    kernel: _Lagrangian, x: np.ndarray, p: float, tol: float, budget: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Projected-gradient ascent with halving line search on every row of
    the (b, n) batch x, then one fixed-point polish batch of the rows it
    left unconverged; returns (best x, best L, iterations, converged), one
    row or entry per start.  The ascent's iterate is always its best one.

    The rows step in lock step: each step makes one residual call for the
    live rows and one kernel evaluation of all their trials, value and
    gradient, whose gradient the next step uses; a row whose trial fails
    goes on down its halvings in `_halving_ladder` and, if it goes on, gets
    the gradient of its new iterate anew.  Each row keeps its own step size
    and trial count and leaves the batch when it returns, so it ends exactly
    as it would alone.

    The line search stalls once gains fall under float resolution; the
    polish, whose small shift its monotonicity guard enlarges as needed,
    pushes the residual of each unconverged row's incumbent to tolerance.
    """
    n_rows = len(x)
    out_x, out_val = np.empty_like(x), np.empty(n_rows)
    out_it, out_ok = np.empty(n_rows, dtype=np.int64), np.empty(n_rows, dtype=bool)
    live = np.arange(n_rows)  # the input row of each batch row
    eta = np.full(n_rows, 0.25)  # direction is sup-normalized, so steps live on the entry scale
    steps = 0  # trial steps: each live row's trials, less its halvings in `extra`
    extra = np.zeros(n_rows, dtype=np.int64)
    most = 0  # the largest entry of extra
    ascent_cap = min(budget // 2, 2000)

    def retire(stop, ok):
        """Return the stopping rows' iterates; the mask of the rows that go on."""
        rows = live[stop]
        out_x[rows], out_val[rows], out_it[rows] = x[stop], val[stop], steps + extra[stop]
        out_ok[rows] = ok
        return ~stop

    evaluate, euler = kernel.evaluate, kernel.euler_residual
    val, grad = evaluate(x)
    # a row whose gain fell below float resolution, or that reached the cap,
    # hands off to the fixed-point polish
    done = np.full(n_rows, ascent_cap <= 0)
    while True:
        if np.count_nonzero(done):
            keep = retire(done, False)
            x, val, grad, eta, extra, live = (a[keep] for a in (x, val, grad, eta, extra, live))
            if not len(x):
                break
        rho_est, res = euler(x, np.power(x, p - 1.0), grad)
        top = np.maximum.reduce(grad, axis=1)
        ok = res <= tol * np.fmax(1.0, rho_est)
        stop = ok | (top <= 0.0)
        if np.count_nonzero(stop):
            keep = retire(stop, ok[stop])
            x, val, eta, extra, live, grad, top = (
                a[keep] for a in (x, val, eta, extra, live, grad, top)
            )
            if not len(x):
                break
        direction = np.divide(grad, top[:, None], out=grad)  # sup-normalized ascent direction
        cand = eta[:, None] * direction
        cand = _normalize_p(np.maximum(np.add(cand, x, out=cand), 0.0, out=cand), p)
        cand_val, cand_grad = evaluate(cand)
        steps += 1
        up = cand_val > val
        searched = np.count_nonzero(up) != len(up)
        if searched:
            for i in np.flatnonzero(~up):
                trials, step, cand[i], cand_val[i] = _halving_ladder(
                    kernel, x[i], direction[i], val[i], eta[i], p
                )
                extra[i] += trials
                most = max(most, int(extra[i]))
                if step is not None:
                    eta[i] = step
        done = cand_val - val <= 1e-13 * np.fmax(1.0, cand_val)
        if steps + most >= ascent_cap:
            done |= steps + extra >= ascent_cap
        if searched:  # a searched row that goes on needs the gradient at its new iterate
            moved = ~up & ~done
            if np.count_nonzero(moved):
                cand_grad[moved] = evaluate(cand[moved], value=False)[1]
        x, val, grad = cand, cand_val, cand_grad
        del cand, cand_grad, direction  # a retire then frees the rows that leave
        np.minimum(np.multiply(eta, 1.5, out=eta), 1e6, out=eta)

    todo = ~out_ok
    if todo.any():
        px, pval, pit, pok = _fixed_point_run(
            kernel, out_x[todo], p, tol, budget - out_it[todo], np.fmax(1.0, out_val[todo])
        )
        won = pval >= out_val[todo]
        out_x[todo] = np.where(won[:, None], px, out_x[todo])
        out_val[todo] = np.where(won, pval, out_val[todo])
        out_it[todo] += pit
        out_ok[todo] = won & pok
    return out_x, out_val, out_it, out_ok


def solve_rho_p(
    g: Hypergraph, p: float, config: Optional[SolverConfig] = None
) -> SpectralSolution:
    """Maximize the Lagrangian over the nonnegative unit p-sphere.

    Multi-start: start 0 is the uniform vector, the rest are seeded positive
    random vectors.  Best objective wins (ties broken by lexicographically
    largest vector); disagreement among converged starts beyond 1e-6 sets
    the NonUniqueSuspected flag.  Entries below 1e-14 are clamped to zero on
    output (ZeroEntries flag).  A failed tolerance sets NoConvergence rather
    than raising; the best iterate so far is still returned.

    The starts iterate together in lock step as one (starts, n) batch, each
    step one kernel evaluation of all live starts, and each start ends
    exactly as it would alone.
    """
    _check_p(p)
    cfg = config or SolverConfig()
    n = g.n
    if n == 0:
        return SpectralSolution(0.0, np.zeros(0), p, 0.0, 0, 0, 0.0, ())
    uniform = np.full(n, n ** (-1.0 / p))
    if g.m == 0:
        return SpectralSolution(0.0, uniform, p, 0.0, 0, 1, 0.0, ())

    if p >= g.r:
        strategy = "fixed-point-shifted"
        alpha = float(math.factorial(g.r) * g.degree_extremes()[0])  # r! * dmax
        run = functools.partial(_fixed_point_run, alpha=alpha)
    else:
        strategy, run = "projected-gradient", _projected_gradient_run
    # one draw of all random starts: the doubles of one draw per start, in order
    extra = np.random.default_rng(cfg.seed).uniform(0.1, 1.0, (cfg.starts - 1, n))
    initials = np.concatenate((uniform[None], _normalize_p(extra, p)))
    del extra  # the run holds only the initials

    kernel = _Lagrangian(g)
    xs, vals, iters, oks = run(kernel, initials, p, cfg.tol, cfg.max_iter)

    val_list, x_list = vals.tolist(), xs.tolist()
    best = max(range(len(val_list)), key=lambda i: (val_list[i], x_list[i]))
    converged_vals = vals[oks]
    gap = float(vals[best] - converged_vals.min()) if len(converged_vals) else 0.0

    x_out = np.where(xs[best] < CLAMP_EPS, 0.0, xs[best])
    rho, grad = kernel.evaluate(x_out[None])
    residual = float(kernel.residual(np.power(x_out, p - 1.0)[None], grad, rho)[0])
    rho = float(rho[0])
    flags = []
    if not residual <= cfg.tol * max(1.0, rho):  # a NaN residual fails too
        flags.append("NoConvergence")
    if gap > GAP_EPS:
        flags.append("NonUniqueSuspected")
    if np.count_nonzero(x_out == 0.0):
        flags.append("ZeroEntries")
    per_start = tuple(
        StartRecord(v, i, o, strategy) for v, i, o in zip(val_list, iters.tolist(), oks.tolist())
    )
    return SpectralSolution(
        rho, x_out, p, residual, int(iters.sum()), len(initials), gap, tuple(flags), per_start
    )


# --- independent oracles ------------------------------------------------------


def adjacency_spectral_radius(g: Hypergraph) -> float:
    """Classical shifted power iteration on the adjacency matrix of a 2-graph.

    Independent of solve_rho_p: dense matrix-vector products with a diagonal
    shift by the maximum degree, from a seeded start to a relative residual
    of 1e-12; it warns if 500,000 iterations do not get there.
    """
    if g.r != 2:
        raise UniformityMismatch("classical oracle is for 2-graphs")
    if g.n == 0 or g.m == 0:
        return 0.0
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    shift = float(max(g.degrees()))
    rng = np.random.default_rng(12345)
    v = rng.uniform(0.5, 1.0, g.n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(500_000):
        w = a @ v + shift * v
        w /= np.linalg.norm(w)
        av = a @ w
        lam = float(w @ av)
        if np.max(np.abs(av - lam * w)) <= 1e-12 * max(1.0, abs(lam)):
            return lam
        v = w
    warnings.warn("adjacency power iteration hit max_iter")
    return lam
