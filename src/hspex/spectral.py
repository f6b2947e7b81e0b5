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

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    AllZero,
    BadConfig,
    BadP,
    DimensionMismatch,
    IsolatedVertex,
    SameVertex,
    UniformityMismatch,
)
from .hypergraph import Hypergraph

CLAMP_EPS = 1e-14  # output entries below this are reported as exact zeros
GAP_EPS = 1e-6     # multi-start disagreement threshold
# A solve iterates at most this many gathered entries (rows * r * m) at once,
# or one start's if that is more: a graph with many edges runs its starts a
# few rows, or one row, at a time, so memory stays at the one-start level.
# The kernel sizes its scratch from it once per solve: with
# E = max(BATCH_ENTRIES, r * m), the gather, prefix and leave-one-out buffers
# hold 2E float64 and the edge positions and the batch's index at most 2E
# intp; for r = 2 there is no leave-one-out buffer (1.5E float64) and the
# swapped scatter index adds E intp (2.5E), so at most 32E bytes in all.
BATCH_ENTRIES = 1 << 15
# A line search tries its halvings as kernel rows, so a solve's kernel holds
# at least this many gathered entries' worth of rows (but no more than a
# chunk): on a small graph one call then tries a whole halving ladder, and
# the call, not the arithmetic, is the cost.
LADDER_ENTRIES = 1 << 11


def _as_weights(g: Hypergraph, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (g.n,):
        raise DimensionMismatch(f"expected {g.n} weights, got shape {arr.shape}")
    return arr


class _Lagrangian:
    """L and its gradient over one graph, for a batch of iterates; the one
    evaluation path.

    Built from a graph g and a row count `rows`; caches r!, (r-1)! and the
    (r, m) edge positions, whose [j] row holds the j-th vertex of each edge
    of g.  The kernel owns its scratch, sized once from (r, rows, m): the
    gather buffer, the prefix products P_k = X_0 * ... * X_k for k = 1..r-1
    and, for r >= 3, one leave-one-out buffer.  For the current batch size b
    it holds an (r, b, m) index, the positions offset by i*n in row i, their
    place in a flattened (b, n) batch, and contiguous views of the buffers;
    they are rebuilt only when b changes.

    A batch x of up to `rows` iterates is gathered once, ``X = gather(x)``,
    for both `value` and `grad`; X stays valid until the next gather.
    `value` builds the prefixes of X and `grad` of the same X reuses them,
    loo_j = P_{j-1} * X_{j+1} * ... * X_{r-1}; `grad` of any other X builds
    its own, and a gather invalidates them.  Every product multiplies
    positions left to right: the factor order of np.prod over an (m, r)
    index, so the bits match it for every r (prefix times suffix would
    regroup them for r >= 4).  For r = 2 the leave-one-out products are X_1
    and X_0 themselves, so `grad` is one bincount of X on a swapped index,
    which sends X_0 to the vertices in position 1 and X_1, offset by b*n,
    to those in position 0; the two parts are then added, the per-position
    sum in the other order.  Edges are summed in g's sorted order.
    Every row gets the bits it would get alone: `np.add.reduce` along a
    contiguous row and `bincount` on offset indices add in the one-row
    order, and a stacked matmul makes one dot product per row.
    """

    def __init__(self, g: Hypergraph, rows: int = 1):
        self.n, r = g.n, g.r
        self.rows = rows
        self.rfact = math.factorial(r)
        self.rm1fact = math.factorial(r - 1)
        self.positions = np.array(g.edges, dtype=np.intp).reshape(-1, r).T.copy()
        m = self.positions.shape[1]
        self._gathered = np.empty(r * rows * m)
        self._prefix = np.empty((r - 1) * rows * m)
        self._loo = np.empty(rows * m if r > 2 else 0)
        self._b = None
        self._valid = None  # the gather whose products the prefix buffer holds

    def _batch(self, b: int) -> None:
        """Point the views and the row index at a batch of b rows."""
        if b != self._b:
            r, m = self.positions.shape
            self._b = b
            self._index = self.positions[:, None, :]  # one row needs no offsets, nor a copy
            if b != 1:
                self._index = self._index + self.n * np.arange(b, dtype=np.intp)[:, None]
            self._flat_index = [row.reshape(-1) for row in self._index]
            self._swapped = None  # r = 2: built by the first grad at this b
            self._X = self._gathered[: r * b * m].reshape(r, b, m)
            self._P = tuple(self._prefix[: (r - 1) * b * m].reshape(r - 1, b, m))
            if r > 2:
                self._L = self._loo[: b * m].reshape(b, m)

    def gather(self, x: np.ndarray) -> np.ndarray:
        """The (r, b, m) array of a (b, n) batch x over each edge position,
        written into the gather buffer."""
        self._batch(len(x))
        self._valid = None
        # the indices are in range by construction; mode="raise" would copy out
        return x.reshape(-1).take(self._index, out=self._X, mode="clip")

    def _prefixes(self, X: np.ndarray) -> tuple[np.ndarray, ...]:
        """P_1 .. P_{r-1} of a gather X into the prefix buffer, left to right."""
        self._batch(X.shape[1])
        prev = X[0]
        for j in range(1, len(X)):
            prev = np.multiply(prev, X[j], out=self._P[j - 1])
        self._valid = X
        return self._P

    def value(self, X: np.ndarray) -> np.ndarray:
        """Per row, r! * sum of per-edge products, from a gather X."""
        return self.rfact * np.add.reduce(self._prefixes(X)[-1], axis=1)

    def grad(self, X: np.ndarray) -> np.ndarray:
        """Per row and vertex, (1/r) dL/dx_v, from a gather X."""
        r, b = X.shape[:2]
        if r == 2:
            self._batch(b)
            if self._swapped is None:
                first, second = self._flat_index
                self._swapped = np.empty(2 * len(first), dtype=np.intp)
                self._swapped[: len(first)] = second
                np.add(first, b * self.n, out=self._swapped[len(first) :])
            parts = np.bincount(self._swapped, weights=X.reshape(-1), minlength=2 * b * self.n)
            return self.rm1fact * np.add.reduce(parts.reshape(2, b, self.n), axis=0)
        P = self._P if X is self._valid else self._prefixes(X)
        prefix = (X[0], *P)  # prefix[k] = P_k
        out = None
        for j in range(r):
            # loo_j = P_{j-1} * X_{j+1} * ... * X_{r-1}, left to right
            loo = prefix[j - 1] if j else X[1]
            for k in range(max(j + 1, 2), r):
                loo = np.multiply(loo, X[k], out=self._L)
            part = np.bincount(
                self._flat_index[j], weights=loo.reshape(-1), minlength=b * self.n
            )
            if out is None:
                out = part
            else:
                out += part
        return self.rm1fact * out.reshape(b, self.n)

    def residual(self, xp: np.ndarray, grad: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """Per row, max over vertices of |rho * x_v^(p-1) - grad_v|, given xp = x^(p-1)."""
        return np.maximum.reduce(np.abs(rho[:, None] * xp - grad), axis=1, initial=0.0)

    def euler_residual(
        self, x: np.ndarray, xp: np.ndarray, grad: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per row, (rho estimate, residual) with Euler's rho = sum x_v grad_v = L
        on the sphere."""
        rho_est = (x[:, None, :] @ grad[:, :, None])[:, 0, 0]
        return rho_est, self.residual(xp, grad, rho_est)


def lagrangian(g: Hypergraph, x) -> float:
    """L_G(x) = r! * sum over edges of the product of the edge's weights."""
    ev = _Lagrangian(g)
    return float(ev.value(ev.gather(_as_weights(g, x)[None]))[0])


def lagrangian_gradient(g: Hypergraph, x) -> np.ndarray:
    """Per-vertex (1/r) dL/dx_v = (r-1)! * sum_{e : v in e} prod_{w in e - v} x_w."""
    ev = _Lagrangian(g)
    return ev.grad(ev.gather(_as_weights(g, x)[None]))[0]


def eigen_residual(g: Hypergraph, x, p: float, rho: float) -> float:
    """max over vertices of |rho * x_v^(p-1) - gradient_v|."""
    arr = _as_weights(g, x)[None]
    ev = _Lagrangian(g)
    grad = ev.grad(ev.gather(arr))
    return float(ev.residual(np.power(arr, p - 1.0), grad, np.array([rho], dtype=float))[0])


def principal_ratio(x) -> float:
    """max entry / min entry of a nonnegative vector; +inf if any entry is 0."""
    arr = np.asarray(x, dtype=float)
    if arr.size == 0 or not np.any(arr):
        raise AllZero("principal ratio undefined for the zero vector")
    lo = float(arr.min())
    if lo == 0.0:
        return math.inf
    return float(arr.max()) / lo


def degree_ratio_lower_bound(g: Hypergraph, p: float) -> float:
    """(max degree / min degree)^(1/(p+r-2)); requires min degree >= 1."""
    dmax, dmin = g.degree_extremes()
    if dmin == 0:
        raise IsolatedVertex("graph has an isolated vertex (or no vertices)")
    return (dmax / dmin) ** (1.0 / (p + g.r - 2.0))


def rho_upper_bound(n: int, r: int, p: float) -> float:
    """n^(r(1-1/p)), the universal upper bound for the p-spectral radius."""
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


def _check_seed(seed: int) -> None:
    # the one seed rule of every seeded path: random.Random(-s) seeds like
    # random.Random(s), so a negative seed would silently run as its absolute value
    if seed < 0:
        raise BadConfig("seed must be >= 0")


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
        if self.tol <= 0 or self.starts < 1:
            raise BadConfig("tol must be positive and starts >= 1")
        if self.max_iter < 0:
            raise BadConfig("max_iter must be >= 0")
        _check_seed(self.seed)


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
    """Each row of x scaled to unit l^p norm.

    The root is a scalar pow per row: numpy's SIMD array power can round the
    last bit differently from libm's pow, and a row's bits must not depend on
    its batch.
    """
    nrm = np.array([s ** (1.0 / p) for s in np.add.reduce(x**p, axis=1).tolist()])
    return x / nrm[:, None]


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
    which every row improved needs no monotonicity test.
    """
    n_rows = len(x)
    out_x, out_val = np.empty_like(x), np.empty(n_rows)
    out_it, out_ok = np.empty(n_rows, dtype=np.int64), np.zeros(n_rows, dtype=bool)
    live = np.arange(n_rows)  # the input row of each batch row
    budget = np.full(n_rows, budget)
    floor = int(budget.min())  # no row is out of budget while it < floor
    alpha = np.full(n_rows, alpha, dtype=float)[:, None]
    X = kernel.gather(x)
    val = kernel.value(X)  # L at the current iterate
    best_x, best_val = x.copy(), val.copy()
    exp = 1.0 / (p - 1.0)
    it = 0
    res_checkpoint = np.full(n_rows, math.inf)
    stagnant = np.zeros(n_rows, dtype=np.int64)
    while len(x):
        grad = kernel.grad(X)
        xp = np.power(x, p - 1.0)
        rho_est, res = kernel.euler_residual(x, xp, grad)
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
            # further cannot improve the value, so give up on this start.
            slow = ~stop & (res > 0.5 * res_checkpoint)
            tiny = slow[:, None] & (x > 0.0) & (x < 1e-6)
            collapse = tiny.any(axis=1)
            stagnant = np.where(slow & ~collapse, stagnant + 1, 0)
            stop |= stagnant >= 2
            if collapse.any():
                x[collapse] = _normalize_p(np.where(tiny, 0.0, x)[collapse], p)
                X = kernel.gather(x)
                grad = kernel.grad(X)
                xp = np.power(x, p - 1.0)
            res_checkpoint = res
        y = grad + alpha * xp
        if stop.any():
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
        x = _normalize_p(np.power(y, exp), p)
        X = kernel.gather(x)
        it += 1
        val = kernel.value(X)
        up = val > best_val
        if up.all():
            np.copyto(best_x, x)
            np.copyto(best_val, val)
            continue
        np.copyto(best_x, x, where=up[:, None])
        np.copyto(best_val, val, where=up)
        down = val < best_val - 1e-12 * np.fmax(1.0, best_val)
        if down.any():
            # non-monotone: shift too small for this regime; enlarge and restart
            alpha[down] *= 4.0
            x[down] = best_x[down]
            val[down] = best_val[down]
            X = kernel.gather(x)
            hopeless = alpha[:, 0] > 1e9
            if hopeless.any():
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
    are evaluated as kernel rows, as many per call as the kernel holds.
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
        cand_val = kernel.value(kernel.gather(cand))
        wins = np.flatnonzero(cand_val > val)
        if len(wins):
            w = wins[0]
            return lo + w + 1, steps[w], cand[w], cand_val[w]
    return len(ladder), None, x, val


def _ascent(
    kernel: _Lagrangian, x: np.ndarray, p: float, tol: float, budget: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Projected-gradient ascent with halving line search on every row of
    the (b, n) batch x; returns (best x, best L, iterations, converged), one
    row or entry per start.  The iterate is always the best one so far.

    The rows step in lock step: each step makes one gradient and residual
    call for the live rows and one trial gather and value for all of them,
    whose gather the next gradient reuses when every trial improved; a row
    whose trial fails goes on down its halvings in `_halving_ladder`.  Each
    row keeps its own step size and trial count and leaves the batch when
    it returns, so it ends exactly as it would alone.
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

    X = kernel.gather(x)
    val = kernel.value(X)
    # a row whose gain fell below float resolution, or that reached the cap,
    # hands off to the fixed-point polish
    done = np.full(n_rows, ascent_cap <= 0)
    while True:
        if done.any():
            keep = retire(done, False)
            x, val, eta, extra, live = (a[keep] for a in (x, val, eta, extra, live))
            if not len(x):
                break
            X = None
        if X is None:
            X = kernel.gather(x)
        grad = kernel.grad(X)
        rho_est, res = kernel.euler_residual(x, np.power(x, p - 1.0), grad)
        top = np.maximum.reduce(grad, axis=1)
        ok = res <= tol * np.fmax(1.0, rho_est)
        stop = ok | (top <= 0.0)
        if stop.any():
            keep = retire(stop, ok[stop])
            x, val, eta, extra, live, grad, top = (
                a[keep] for a in (x, val, eta, extra, live, grad, top)
            )
            if not len(x):
                break
        direction = grad / top[:, None]  # sup-normalized ascent direction
        cand = _normalize_p(np.maximum(x + eta[:, None] * direction, 0.0), p)
        X = kernel.gather(cand)
        cand_val = kernel.value(X)
        steps += 1
        up = cand_val > val
        if not up.all():
            for i in np.flatnonzero(~up):
                trials, step, cand[i], cand_val[i] = _halving_ladder(
                    kernel, x[i], direction[i], val[i], eta[i], p
                )
                extra[i] += trials
                most = max(most, int(extra[i]))
                if step is not None:
                    eta[i] = step
            X = None  # the gather buffer holds the last halvings
        done = cand_val - val <= 1e-13 * np.fmax(1.0, cand_val)
        if steps + most >= ascent_cap:
            done |= steps + extra >= ascent_cap
        x, val = cand, cand_val
        eta = np.minimum(eta * 1.5, 1e6)
    return out_x, out_val, out_it, out_ok


def _projected_gradient_run(
    kernel: _Lagrangian, x: np.ndarray, p: float, tol: float, budget: int, alpha
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ascent on the p-sphere of every start, then one fixed-point polish
    batch of the starts it left unconverged, if any.

    The line search alone stalls once objective increments fall under float
    resolution, so after the ascent phase the shifted fixed-point map is run
    from each unconverged start's incumbent to push the eigenequation
    residual to tolerance.  Returns what `_fixed_point_run` returns.
    """
    best_x, best_val, its, ok = _ascent(kernel, x, p, tol, budget)
    todo = ~ok
    if not todo.any():
        return best_x, best_val, its, ok
    # polish with a small adaptive shift: the monotonicity guard inside the
    # fixed-point run enlarges it if this regime turns out to need more
    px, pval, pit, pok = _fixed_point_run(
        kernel, best_x[todo], p, tol, budget - its[todo], np.fmax(1.0, best_val[todo])
    )
    won = pval >= best_val[todo]
    best_x[todo] = np.where(won[:, None], px, best_x[todo])
    best_val[todo] = np.where(won, pval, best_val[todo])
    its[todo] += pit
    ok[todo] = won & pok
    return best_x, best_val, its, ok


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

    The starts iterate together as one (starts, n) batch, split into chunks
    of at most BATCH_ENTRIES // (r * m) rows (at least one), each step one
    kernel call for all of a chunk's live starts; for p < r the halvings of
    a failed line search are tried as kernel rows, as many per call as the
    kernel holds (see LADDER_ENTRIES).  Each start ends exactly as it would
    alone.
    """
    if not (1.0 < p < math.inf) or math.isnan(p):
        raise BadP(f"p={p} outside (1, inf)")
    cfg = config or SolverConfig()
    n = g.n
    if n == 0:
        return SpectralSolution(0.0, np.zeros(0), p, 0.0, 0, 0, 0.0, ())
    uniform = np.full(n, n ** (-1.0 / p))
    if g.m == 0:
        return SpectralSolution(0.0, uniform, p, 0.0, 0, 1, 0.0, ())

    strategy = "fixed-point-shifted" if p >= g.r else "projected-gradient"
    dmax, _ = g.degree_extremes()
    alpha = float(math.factorial(g.r) * dmax)
    rng = np.random.default_rng(cfg.seed)
    run = _fixed_point_run if strategy == "fixed-point-shifted" else _projected_gradient_run

    extra = [rng.uniform(0.1, 1.0, n) for _ in range(cfg.starts - 1)]
    initials = np.concatenate((uniform[None], _normalize_p(np.array(extra).reshape(-1, n), p)))

    chunk = max(1, BATCH_ENTRIES // (g.r * g.m))
    kernel = _Lagrangian(g, rows=min(chunk, max(len(initials), LADDER_ENTRIES // (g.r * g.m))))
    parts = [
        run(kernel, initials[lo : lo + chunk], p, cfg.tol, cfg.max_iter, alpha)
        for lo in range(0, len(initials), chunk)
    ]
    xs, vals, iters, oks = (np.concatenate(column) for column in zip(*parts))

    best = max(range(len(vals)), key=lambda i: (vals[i], tuple(xs[i])))
    best_val, best_x = vals[best], xs[best]
    converged_vals = vals[oks]
    gap = float(best_val - converged_vals.min()) if len(converged_vals) else 0.0

    x_out = np.where(best_x < CLAMP_EPS, 0.0, best_x)
    X_out = kernel.gather(x_out[None])
    rho = kernel.value(X_out)
    residual = float(
        kernel.residual(np.power(x_out, p - 1.0)[None], kernel.grad(X_out), rho)[0]
    )
    rho = float(rho[0])
    flags = []
    if residual > cfg.tol * max(1.0, rho):
        flags.append("NoConvergence")
    if gap > GAP_EPS:
        flags.append("NonUniqueSuspected")
    if np.any(x_out == 0.0):
        flags.append("ZeroEntries")
    per_start = tuple(
        StartRecord(float(v), int(i), bool(o), strategy) for v, i, o in zip(vals, iters, oks)
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
