"""Lagrangian polynomial machinery and the p-spectral radius solver.

The objective is the degree-r homogeneous polynomial

    L_G(x) = r! * sum over edges e of prod_{v in e} x_v,

maximized over the nonnegative part of the unit l^p sphere (1 < p < inf).
A maximizer satisfies the stationarity (eigenequation) condition

    rho * x_v^(p-1) = (r-1)! * sum_{e : v in e} prod_{w in e, w != v} x_w

for every vertex v, which is what the residual here measures.

Summation order is pinned everywhere: edges in stored sorted order,
vertices ascending within an edge.  `cloning_lagrangian_delta` reuses the
exact same term ordering so the cloning identity is bit-stable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    AllZero,
    BadConfig,
    BadP,
    DimensionMismatch,
    IsolatedVertex,
    OutOfRange,
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
# hold 2E float64 and the index and its b-row copy at most 2E intp, so at
# most 32E bytes in all.
BATCH_ENTRIES = 1 << 15


def _as_weights(g: Hypergraph, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (g.n,):
        raise DimensionMismatch(f"expected {g.n} weights, got shape {arr.shape}")
    return arr


class _Lagrangian:
    """L and its gradient over one edge list, for a batch of iterates; the
    one evaluation path.

    Built from (edges, n, r, rows); caches r!, (r-1)! and an (r, rows, m)
    index whose [j, b] row holds each edge's j-th vertex offset by b*n, its
    place in row b of a flattened (b, n) batch.  The kernel owns its scratch,
    sized once from (r, rows, m): the gather buffer, the prefix products
    P_k = X_0 * ... * X_k for k = 1..r-1 and one leave-one-out buffer.
    Contiguous views of them and the index for the current batch size b are
    rebuilt only when b changes.

    A batch x of up to `rows` iterates is gathered once, ``X = gather(x)``,
    for both `value` and `grad`; X stays valid until the next gather.
    `value` keeps its prefixes and `grad` of the same X reuses them,
    loo_j = P_{j-1} * X_{j+1} * ... * X_{r-1}; a gather invalidates them, and
    `grad` of any other X computes its own.  Every product multiplies
    positions left to right: the factor order of np.prod over an (m, r)
    index, so the bits match it for every r (prefix times suffix would
    regroup them for r >= 4).  Edges are summed in the order given, which
    callers keep sorted.  Every row gets the bits it would get alone:
    `np.add.reduce` along a contiguous row and `bincount` on offset indices
    add in the one-row order, and a stacked matmul makes one dot product per
    row.
    """

    def __init__(self, edges: Sequence[tuple[int, ...]], n: int, r: int, rows: int = 1):
        self.n = n
        self.rfact = math.factorial(r)
        self.rm1fact = math.factorial(r - 1)
        position = np.array(edges, dtype=np.intp).reshape(-1, r).T.copy()
        self.index = position[:, None, :] + n * np.arange(rows, dtype=np.intp)[:, None]
        m = position.shape[1]
        del position  # not held while the scratch below is allocated
        self._gathered = np.empty(r * rows * m)
        self._prefix = np.empty((r - 1) * rows * m)
        self._loo = np.empty(rows * m)
        self._b = None
        self._valid = None  # the gather whose products the prefix buffer holds

    def _batch(self, b: int) -> None:
        """Point the views and the row index at a batch of b rows."""
        if b != self._b:
            r, _, m = self.index.shape
            self._b = b
            self._index = np.ascontiguousarray(self.index[:, :b])
            self._flat_index = [row.reshape(-1) for row in self._index]
            self._X = self._gathered[: r * b * m].reshape(r, b, m)
            self._P = tuple(self._prefix[: (r - 1) * b * m].reshape(r - 1, b, m))
            self._L = self._loo[: b * m].reshape(b, m)

    def gather(self, x: np.ndarray) -> np.ndarray:
        """The (r, b, m) array of a (b, n) batch x over each edge position,
        written into the gather buffer."""
        self._batch(len(x))
        self._valid = None
        # the indices are in range by construction; mode="raise" would copy out
        return x.reshape(-1).take(self._index, out=self._X, mode="clip")

    def _prefixes(self, X: np.ndarray, k: int) -> np.ndarray:
        """P_1 .. P_k of a gather X into the prefix buffer, left to right."""
        self._batch(X.shape[1])
        self._valid = None
        prev = X[0]
        for j in range(1, k + 1):
            prev = np.multiply(prev, X[j], out=self._P[j - 1])
        return self._P

    def value(self, X: np.ndarray) -> np.ndarray:
        """Per row, r! * sum of per-edge products, from a gather X."""
        P = self._prefixes(X, len(X) - 1)
        self._valid = X
        return self.rfact * np.add.reduce(P[-1], axis=1)

    def grad(self, X: np.ndarray) -> np.ndarray:
        """Per row and vertex, (1/r) dL/dx_v, from a gather X."""
        r, b = X.shape[:2]
        P = self._P if X is self._valid else self._prefixes(X, r - 2)
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
        if not self.n:
            return np.zeros(len(xp))
        return np.maximum.reduce(np.abs(rho[:, None] * xp - grad), axis=1)

    def euler_residual(
        self, x: np.ndarray, xp: np.ndarray, grad: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per row, (rho estimate, residual) with Euler's rho = sum x_v grad_v = L
        on the sphere."""
        rho_est = (x[:, None, :] @ grad[:, :, None])[:, 0, 0]
        return rho_est, self.residual(xp, grad, rho_est)


def lagrangian(g: Hypergraph, x) -> float:
    """L_G(x) = r! * sum over edges of the product of the edge's weights."""
    ev = _Lagrangian(g.edges, g.n, g.r)
    return float(ev.value(ev.gather(_as_weights(g, x)[None]))[0])


def lagrangian_gradient(g: Hypergraph, x) -> np.ndarray:
    """Per-vertex (1/r) dL/dx_v = (r-1)! * sum_{e : v in e} prod_{w in e - v} x_w."""
    ev = _Lagrangian(g.edges, g.n, g.r)
    return ev.grad(ev.gather(_as_weights(g, x)[None]))[0]


def eigen_residual(g: Hypergraph, x, p: float, rho: float) -> float:
    """max over vertices of |rho * x_v^(p-1) - gradient_v|."""
    arr = _as_weights(g, x)[None]
    ev = _Lagrangian(g.edges, g.n, g.r)
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
    """Lagrangian after cloning z onto u, via term bookkeeping on E(G).

    Edges avoiding u survive with their own product; each edge through z
    avoiding u contributes the product with x_z swapped for x_u.  Terms are
    sorted and summed exactly like `lagrangian` on the cloned graph, so the
    identity with lagrangian(clone_vertex(g, u, z), x) holds bit-for-bit.
    """
    for w in (u, z):
        if not 0 <= w < g.n:
            raise OutOfRange(f"vertex {w} outside [0, {g.n})")
    if u == z:
        raise SameVertex(f"u == z == {u}")
    arr = _as_weights(g, x)
    terms = {e for e in g.edges if u not in e}
    for e in g.edges:
        if z in e and u not in e:
            terms.add(tuple(sorted(w for w in e if w != z)) + (u,))
    ordered = sorted(tuple(sorted(t)) for t in terms)
    ev = _Lagrangian(ordered, g.n, g.r)
    return float(ev.value(ev.gather(arr[None]))[0])


# --- solver ------------------------------------------------------------------


@dataclass
class SolverConfig:
    """Knobs for solve_rho_p; defaults favor accuracy over speed.

    A warm start, when given, is run as one extra start after the uniform
    vector (useful for re-solving after an edge addition).  Its negative
    entries are clipped to zero; solve_rho_p raises DimensionMismatch if its
    length is not the vertex count, BadConfig if an entry is NaN or
    infinite, and AllZero if no entry is positive.
    """

    tol: float = 1e-10
    max_iter: int = 100_000
    starts: int = 16
    seed: int = 0
    strategy: Optional[str] = None  # "fixed-point-shifted" | "projected-gradient"
    warm_start: Optional[Sequence[float]] = None

    def __post_init__(self):
        if self.tol <= 0 or self.starts < 1:
            raise BadConfig("tol must be positive and starts >= 1")
        if self.max_iter < 0:
            raise BadConfig("max_iter must be >= 0")


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
    vector, warm start, random starts).
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
    All rows start at iteration 0 and step together, so one counter serves.
    """
    n_rows = len(x)
    out_x, out_val = np.empty_like(x), np.empty(n_rows)
    out_it, out_ok = np.empty(n_rows, dtype=np.int64), np.zeros(n_rows, dtype=bool)
    live = np.arange(n_rows)  # the input row of each batch row
    budget = np.full(n_rows, budget)
    alpha = np.full(n_rows, alpha, dtype=float)
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
        # a row out of budget returns its best iterate unchecked
        spent = it >= budget
        ok = ~spent & (res <= tol * np.fmax(1.0, rho_est))
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
        y = grad + alpha[:, None] * xp
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
        np.copyto(best_x, x, where=up[:, None])
        np.copyto(best_val, val, where=up)
        down = val < best_val - 1e-12 * np.fmax(1.0, best_val)
        if down.any():
            # non-monotone: shift too small for this regime; enlarge and restart
            alpha[down] *= 4.0
            x[down] = best_x[down]
            val[down] = best_val[down]
            X = kernel.gather(x)
            budget[alpha > 1e9] = it  # hopeless: return the best iterate now
    return out_x, out_val, out_it, out_ok


def _ascent(
    kernel: _Lagrangian, x: np.ndarray, p: float, tol: float, budget: int
) -> tuple[np.ndarray, float, int, bool]:
    """Projected-gradient ascent of one start, a (1, n) batch, with halving
    line search; returns (best x, best L, iters, converged).  The iterate is
    always the best one so far."""
    X = kernel.gather(x)
    val = kernel.value(X)[0]
    eta = 0.25  # direction is sup-normalized, so steps live on the entry scale
    it = 0
    ascent_cap = min(budget // 2, 2000)
    while it < ascent_cap:
        grad = kernel.grad(X)
        rho_est, res = kernel.euler_residual(x, np.power(x, p - 1.0), grad)
        if res[0] <= tol * max(1.0, rho_est[0]):
            return x[0], val, it, True
        top = np.maximum.reduce(grad, axis=1)[0]
        if top <= 0.0:
            break
        direction = grad / top  # sup-normalized ascent direction
        gain = 0.0
        while eta > 1e-18:
            cand = _normalize_p(np.maximum(x + eta * direction, 0.0), p)
            cand_X = kernel.gather(cand)
            it += 1
            cand_val = kernel.value(cand_X)[0]
            if cand_val > val:
                gain = cand_val - val
                x, X, val = cand, cand_X, cand_val
                eta = min(eta * 1.5, 1e6)
                break
            eta *= 0.5
        if gain <= 1e-13 * max(1.0, val):
            break  # below float resolution; hand off to the fixed-point polish
    return x[0], val, it, False


def _projected_gradient_run(
    kernel: _Lagrangian, x: np.ndarray, p: float, tol: float, budget: int, alpha
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ascent on the p-sphere per start, then one fixed-point polish batch.

    The line search alone stalls once objective increments fall under float
    resolution, so after the ascent phase the shifted fixed-point map is run
    from each unconverged start's incumbent to push the eigenequation
    residual to tolerance.  Returns what `_fixed_point_run` returns.
    """
    best_x = np.empty_like(x)
    best_val = np.empty(len(x))
    its = np.empty(len(x), dtype=np.int64)
    ok = np.zeros(len(x), dtype=bool)
    for i in range(len(x)):
        best_x[i], best_val[i], its[i], ok[i] = _ascent(kernel, x[i : i + 1], p, tol, budget)
    todo = ~ok
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
    of at most BATCH_ENTRIES // (r * m) rows (at least one); each start ends
    exactly as it would alone.
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

    strategy = cfg.strategy or (
        "fixed-point-shifted" if p >= g.r else "projected-gradient"
    )
    dmax, _ = g.degree_extremes()
    alpha = float(math.factorial(g.r) * dmax)
    rng = np.random.default_rng(cfg.seed)
    run = (
        _fixed_point_run
        if strategy == "fixed-point-shifted"
        else _projected_gradient_run
    )

    extra = []
    if cfg.warm_start is not None:
        warm = np.maximum(_as_weights(g, cfg.warm_start), 0.0)
        if not np.isfinite(warm).all():
            raise BadConfig("warm start has a non-finite entry")
        if not (warm > 0.0).any():
            raise AllZero("warm start has no positive entry")
        extra.append(warm)
    extra += [rng.uniform(0.1, 1.0, n) for _ in range(cfg.starts - 1)]
    initials = np.concatenate((uniform[None], _normalize_p(np.array(extra).reshape(-1, n), p)))

    chunk = max(1, BATCH_ENTRIES // (g.r * g.m))
    kernel = _Lagrangian(g.edges, n, g.r, rows=min(chunk, len(initials)))
    parts = [
        run(kernel, initials[lo : lo + chunk], p, cfg.tol, cfg.max_iter, alpha)
        for lo in range(0, len(initials), chunk)
    ]
    xs, vals, iters, oks = (np.concatenate(column) for column in zip(*parts))

    best_val, best_x = vals[0], xs[0]
    for val, x in zip(vals[1:], xs[1:]):
        if val > best_val or (val == best_val and tuple(x) > tuple(best_x)):
            best_val, best_x = val, x
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
