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
from functools import reduce
from typing import Optional, Sequence

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


def _as_weights(g: Hypergraph, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (g.n,):
        raise DimensionMismatch(f"expected {g.n} weights, got shape {arr.shape}")
    return arr


class _Lagrangian:
    """L and its gradient over one edge list; the one evaluation path.

    Built from (edges, n, r); caches r!, (r-1)! and the edge index as
    contiguous rows, row j holding each edge's j-th vertex.  An iterate is
    gathered once, ``X = gather(x)``, for both `value` and `grad`, whose
    products multiply rows left to right: the factor order of np.prod over
    an (m, r) index, so the bits match it for every r (prefix times suffix
    would regroup them for r >= 4).  Edges are summed in the order given,
    which callers keep sorted.
    """

    def __init__(self, edges: Sequence[tuple[int, ...]], n: int, r: int):
        self.n = n
        self.rfact = math.factorial(r)
        self.rm1fact = math.factorial(r - 1)
        self.rows = np.array(edges, dtype=np.intp).reshape(-1, r).T.copy()

    def gather(self, x: np.ndarray) -> np.ndarray:
        """The (r, m) array of x over each edge position."""
        return x[self.rows]

    def value(self, X: np.ndarray) -> float:
        """r! * sum of per-edge products, from a gather X."""
        return float(self.rfact * np.sum(reduce(np.multiply, X)))

    def grad(self, X: np.ndarray) -> np.ndarray:
        """Per-vertex (1/r) dL/dx_v, from a gather X."""
        out = np.zeros(self.n)
        for j, row in enumerate(self.rows):
            loo = reduce(np.multiply, [X[k] for k in range(len(X)) if k != j])
            out += np.bincount(row, weights=loo, minlength=self.n)
        return self.rm1fact * out

    def residual(self, xp: np.ndarray, grad: np.ndarray, rho: float) -> float:
        """max over vertices of |rho * x_v^(p-1) - grad_v|, given xp = x^(p-1)."""
        return float(np.max(np.abs(rho * xp - grad))) if self.n else 0.0

    def euler_residual(
        self, x: np.ndarray, xp: np.ndarray, grad: np.ndarray
    ) -> tuple[float, float]:
        """(rho estimate, residual) with Euler's rho = sum x_v grad_v = L on the sphere."""
        rho_est = float(np.dot(x, grad))
        return rho_est, self.residual(xp, grad, rho_est)


def lagrangian(g: Hypergraph, x) -> float:
    """L_G(x) = r! * sum over edges of the product of the edge's weights."""
    ev = _Lagrangian(g.edges, g.n, g.r)
    return ev.value(ev.gather(_as_weights(g, x)))


def lagrangian_gradient(g: Hypergraph, x) -> np.ndarray:
    """Per-vertex (1/r) dL/dx_v = (r-1)! * sum_{e : v in e} prod_{w in e - v} x_w."""
    ev = _Lagrangian(g.edges, g.n, g.r)
    return ev.grad(ev.gather(_as_weights(g, x)))


def eigen_residual(g: Hypergraph, x, p: float, rho: float) -> float:
    """max over vertices of |rho * x_v^(p-1) - gradient_v|."""
    arr = _as_weights(g, x)
    ev = _Lagrangian(g.edges, g.n, g.r)
    return ev.residual(np.power(arr, p - 1.0), ev.grad(ev.gather(arr)), rho)


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
    if u == z:
        raise SameVertex(f"u == z == {u}")
    arr = _as_weights(g, x)
    terms = {e for e in g.edges if u not in e}
    for e in g.edges:
        if z in e and u not in e:
            terms.add(tuple(sorted(w for w in e if w != z)) + (u,))
    ordered = sorted(tuple(sorted(t)) for t in terms)
    ev = _Lagrangian(ordered, g.n, g.r)
    return ev.value(ev.gather(arr))


# --- solver ------------------------------------------------------------------


@dataclass
class SolverConfig:
    """Knobs for solve_rho_p; defaults favor accuracy over speed.

    A warm start, when given, is run as one extra start after the uniform
    vector (useful for re-solving after an edge addition).
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


@dataclass
class SpectralSolution:
    """Best maximizer found: value, vector, eigenequation defect, diagnostics."""

    rho: float
    x: np.ndarray
    p: float
    residual: float
    iterations: int
    starts_used: int
    agreement_gap: float
    flags: tuple[str, ...] = field(default=())

    @property
    def converged(self) -> bool:
        return "NoConvergence" not in self.flags

    def to_json_dict(self) -> dict:
        return {
            "rho": self.rho,
            "x": [float(v) for v in self.x],
            "p": self.p,
            "residual": self.residual,
            "iterations": self.iterations,
            "starts": self.starts_used,
            "flags": list(self.flags),
        }


def _normalize_p(x: np.ndarray, p: float) -> np.ndarray:
    nrm = np.sum(x**p) ** (1.0 / p)
    return x / nrm


def _fixed_point_run(
    kernel: _Lagrangian, x: np.ndarray, p: float, tol: float, budget: int, alpha: float
) -> tuple[np.ndarray, float, int, bool]:
    """Shifted nonlinear power iteration; returns (best x, best L, iters, converged).

    Update: y_v = grad_v + alpha * x_v^(p-1), then x <- y^(1/(p-1)) renormalized.
    The shift alpha keeps the objective monotone for p >= r; as a local
    polisher for p < r it is retried with larger alpha if L ever drops.
    """
    X = kernel.gather(x)
    best_x, best_val = x, kernel.value(X)
    exp = 1.0 / (p - 1.0)
    it = 0
    res_checkpoint = math.inf
    stagnant = 0
    while it < budget:
        grad = kernel.grad(X)
        xp = np.power(x, p - 1.0)
        rho_est, res = kernel.euler_residual(x, xp, grad)
        if res <= tol * max(1.0, rho_est):
            return x, kernel.value(X), it, True
        if it and it % 512 == 0:
            # Stagnating residual means a flat maximizer direction (possible
            # for p < r): near-dead entries then decay only algebraically.
            # Collapse them onto the boundary face, which is itself optimal
            # (a wrongly collapsed vertex resurrects via its gradient); when
            # nothing is collapsible the flatness is interior, and grinding
            # further cannot improve the value, so give up on this start.
            if res > 0.5 * res_checkpoint:
                tiny = (x > 0.0) & (x < 1e-6)
                if tiny.any():
                    x = _normalize_p(np.where(tiny, 0.0, x), p)
                    X = kernel.gather(x)
                    grad = kernel.grad(X)
                    xp = np.power(x, p - 1.0)
                    stagnant = 0
                else:
                    stagnant += 1
                    if stagnant >= 2:
                        break
            else:
                stagnant = 0
            res_checkpoint = res
        y = grad + alpha * xp
        if not np.any(y):
            break  # stuck at an all-dead point (no edges reachable)
        x = _normalize_p(np.power(y, exp), p)
        X = kernel.gather(x)
        it += 1
        val = kernel.value(X)
        if val > best_val:
            best_x, best_val = x, val
        elif val < best_val - 1e-12 * max(1.0, best_val):
            # non-monotone: shift too small for this regime; enlarge and restart
            alpha *= 4.0
            x = best_x
            X = kernel.gather(x)
            if alpha > 1e9:
                break
    return best_x, best_val, it, False


def _projected_gradient_run(
    kernel: _Lagrangian, x: np.ndarray, p: float, tol: float, budget: int, alpha: float
) -> tuple[np.ndarray, float, int, bool]:
    """Ascent on the p-sphere with halving line search, then fixed-point polish.

    The line search alone stalls once objective increments fall under float
    resolution, so after the ascent phase the shifted fixed-point map is run
    from the incumbent to push the eigenequation residual to tolerance.
    """
    X = kernel.gather(x)
    best_x, best_val = x, kernel.value(X)
    eta = 0.25  # direction is sup-normalized, so steps live on the entry scale
    it = 0
    ascent_cap = min(budget // 2, 2000)
    while it < ascent_cap:
        grad = kernel.grad(X)
        rho_est, res = kernel.euler_residual(x, np.power(x, p - 1.0), grad)
        if res <= tol * max(1.0, rho_est):
            return x, kernel.value(X), it, True
        top = float(np.max(grad))
        if top <= 0.0:
            break
        direction = grad / top  # sup-normalized ascent direction
        gain = 0.0
        while eta > 1e-18:
            cand = _normalize_p(np.maximum(x + eta * direction, 0.0), p)
            cand_X = kernel.gather(cand)
            it += 1
            val = kernel.value(cand_X)
            if val > best_val:
                gain = val - best_val
                x, X, best_x, best_val = cand, cand_X, cand, val
                eta = min(eta * 1.5, 1e6)
                break
            eta *= 0.5
        if gain <= 1e-13 * max(1.0, best_val):
            break  # below float resolution; hand off to the fixed-point polish
    # polish with a small adaptive shift: the monotonicity guard inside the
    # fixed-point run enlarges it if this regime turns out to need more
    polish_alpha = max(1.0, best_val)
    px, pval, pit, ok = _fixed_point_run(
        kernel, best_x, p, tol, budget - it, polish_alpha
    )
    if pval >= best_val:
        return px, pval, it + pit, ok
    return best_x, best_val, it + pit, False


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

    kernel = _Lagrangian(g.edges, g.n, g.r)
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

    initials = [uniform.copy()]
    if cfg.warm_start is not None:
        warm = np.maximum(np.asarray(cfg.warm_start, dtype=float), 0.0)
        if warm.shape == (n,) and np.any(warm):
            initials.append(_normalize_p(warm, p))
    while len(initials) < cfg.starts + (cfg.warm_start is not None):
        initials.append(_normalize_p(rng.uniform(0.1, 1.0, n), p))

    results = []  # (value, x, iters, converged)
    total_iters = 0
    for x0 in initials:
        x, val, iters, ok = run(kernel, x0, p, cfg.tol, cfg.max_iter, alpha)
        total_iters += iters
        results.append((val, x, ok))

    best_val, best_x, _ = results[0]
    for val, x, ok in results[1:]:
        if val > best_val or (val == best_val and tuple(x) > tuple(best_x)):
            best_val, best_x = val, x
    converged_vals = [val for val, _, ok in results if ok]
    gap = (best_val - min(converged_vals)) if converged_vals else 0.0

    x_out = np.where(best_x < CLAMP_EPS, 0.0, best_x)
    X_out = kernel.gather(x_out)
    rho = kernel.value(X_out)
    residual = kernel.residual(np.power(x_out, p - 1.0), kernel.grad(X_out), rho)
    flags = []
    if residual > cfg.tol * max(1.0, rho):
        flags.append("NoConvergence")
    if gap > GAP_EPS:
        flags.append("NonUniqueSuspected")
    if np.any(x_out == 0.0):
        flags.append("ZeroEntries")
    return SpectralSolution(
        rho, x_out, p, residual, total_iters, len(initials), gap, tuple(flags)
    )


# --- independent oracles ------------------------------------------------------


def adjacency_spectral_radius(
    g: Hypergraph, tol: float = 1e-12, max_iter: int = 500_000, seed: int = 12345
) -> float:
    """Classical shifted power iteration on the adjacency matrix of a 2-graph.

    Independent of solve_rho_p: dense matrix-vector products with a diagonal
    shift by the maximum degree, converging to the largest eigenvalue.
    """
    if g.r != 2:
        raise UniformityMismatch("classical oracle is for 2-graphs")
    if g.n == 0 or g.m == 0:
        return 0.0
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    shift = float(max(g.degrees()))
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.5, 1.0, g.n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = a @ v + shift * v
        w /= np.linalg.norm(w)
        av = a @ w
        lam = float(w @ av)
        if np.max(np.abs(av - lam * w)) <= tol * max(1.0, abs(lam)):
            return lam
        v = w
    warnings.warn("adjacency power iteration hit max_iter")
    return lam
