"""The four workloads: seeded inputs, the ops that call hspex, and output checks.

A round is a fixed list of ops made from one seed.  Each workload function
builds a round's inputs and returns its ops; an op's ``call`` runs the
program and returns its outputs, and ``check`` later grades them as one of:

  "ok"            the output passed every check;
  "nonconverged"  the program itself reported a failed solve;
  "wrong"         the program reported success, but a check failed.

Only the public functions of ``hspex`` are called, always through the
module attribute, so that a traced round can wrap them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable

import hspex
from hspex import experiments, jsonio, spectral

P_VALUES = (1.5, 2.0, 3.0, 4.0)
SOLVER_TOL = hspex.SolverConfig().tol
FLOAT_SLACK = 1e-12  # relative rounding room for inequalities between floats


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str]


def _build(span, make: Callable[[], hspex.Hypergraph]) -> hspex.Hypergraph:
    with span("hypergraph.build") as sp:
        g = make()
        sp[4] = {"edges": g.m}
    return g


# --- degree-bound -------------------------------------------------------------

DEGREE_OPS = 40


class _SolveLog:
    """Keeps the (graph, p, solution) of each solve the suite makes.

    The suite imports ``solve_rho_p`` from ``hspex.spectral`` at call time, so
    replacing that attribute sees every solve; the checks need the graphs.
    """

    def __init__(self):
        self.inner = spectral.solve_rho_p
        self.calls: list[tuple] = []
        spectral.solve_rho_p = self

    def __call__(self, g, p, config=None):
        sol = self.inner(g, p, config)
        self.calls.append((g, p, sol))
        return sol


def degree_bound(seed: int, span) -> list[Op]:
    log = _SolveLog()
    rng = random.Random(seed)

    def op(r: int, s: int):
        start = len(log.calls)
        report = experiments.run_degree_bound_suite(1, r_set=(r,), seed=s)
        report.to_json()
        return report, log.calls[start:]

    def check(out) -> str:
        report, solves = out
        if report.excluded or any(not sol.converged for _, _, sol in solves):
            return "nonconverged"
        if report.verdict != "pass" or len(solves) != len(P_VALUES):
            return "wrong"
        for g, p, sol in solves:
            if g.r == 2 and p == 2.0:
                if abs(sol.rho - hspex.adjacency_spectral_radius(g)) > 1e-8:
                    return "wrong"
        return "ok"

    ops = []
    for i in range(DEGREE_OPS):
        r = 2 + i % 2
        s = rng.randrange(2**31)
        ops.append(Op(f"r{r}", lambda r=r, s=s: op(r, s), check))
    return ops


# --- rho-large ----------------------------------------------------------------

# (t, r, part sizes): blow-ups of K_t^(r), m from about 10^3 to 2*10^4
BALANCED = [(10, 2, (10,) * 10), (10, 2, (20,) * 10), (6, 3, (5,) * 6), (5, 4, (4,) * 5)]
UNBALANCED = [(6, 2, (3, 5, 7, 9, 11, 13)), (5, 3, (2, 4, 6, 8, 10)), (5, 4, (2, 3, 5, 7, 9))]
DENSE = [(14, 3), (11, 4)]  # (n, r): 60% of all r-sets, drawn from the seed
DENSE_SHARE = 0.6


def _balanced_rho(t: int, r: int, s: int, p: float) -> float:
    """rho_p of the balanced blow-up K_t^(r)(s): the uniform vector is optimal."""
    return math.factorial(r) * math.comb(t, r) * s**r * (t * s) ** (-r / p)


def rho_large(seed: int, span) -> list[Op]:
    rng = random.Random(seed)
    instances = []  # (label, graph, exact rho_p or None)
    for t, r, parts in BALANCED + UNBALANCED:
        g = _build(span, lambda: hspex.complete_r_graph(t, r).blow_up(parts))
        exact = None
        if len(set(parts)) == 1:
            exact = lambda p, t=t, r=r, s=parts[0]: _balanced_rho(t, r, s, p)
        instances.append((f"K{t}^{r}{parts}", g, exact))
    for n, r in DENSE:
        pool = list(combinations(range(n), r))
        edges = rng.sample(pool, round(DENSE_SHARE * len(pool)))
        instances.append((f"dense{n}^{r}", _build(span, lambda: hspex.Hypergraph(n, r, tuple(edges))), None))

    def op(g, p):
        sol = hspex.solve_rho_p(g, p)
        jsonio.dumps(sol.to_json_dict())
        return sol

    def checker(g, p, exact):
        def check(sol) -> str:
            if not sol.converged:
                return "nonconverged"
            rho = sol.rho
            if exact is not None and abs(rho - exact(p)) > 1e-9 * exact(p):
                return "wrong"
            if hspex.eigen_residual(g, sol.x, p, rho) > SOLVER_TOL * max(1.0, rho):
                return "wrong"
            uniform = [g.n ** (-1.0 / p)] * g.n
            if hspex.lagrangian(g, uniform) > rho * (1 + FLOAT_SLACK):
                return "wrong"
            if rho > hspex.rho_upper_bound(g.n, g.r, p) * (1 + FLOAT_SLACK):
                return "wrong"
            return "ok"

        return check

    return [
        Op(f"{label} p={p}", lambda g=g, p=p: op(g, p), checker(g, p, exact))
        for label, g, exact in instances
        for p in P_VALUES
    ]


# --- sweep --------------------------------------------------------------------

# (forbidden graph, n, labeled members, pi): exact values for the checks
K3 = hspex.complete_r_graph(3, 2)
K4_3 = hspex.complete_r_graph(4, 3)
SWEEPS = [(K3, 8, 4_682_270, 16), (K4_3, 6, 477_965, 14)]
K3_N8_LAMBDA = {2.0: 4.0, 3.0: 8.0}  # attained by K_{4,4}
SWEEP_PS = (2.0, 3.0)
SWEEP_STARTS = 8  # as the extremal CLI


def _is_k44(g: hspex.Hypergraph) -> bool:
    """Complete bipartite with sides of 4: 16 edges, 4-regular, 2-colourable."""
    if g.n != 8 or g.r != 2 or g.m != 16 or set(g.degrees()) != {4}:
        return False
    side = {0: 0}
    for _ in range(g.n):
        for u, v in g.edges:
            for a, b in ((u, v), (v, u)):
                if a in side and b not in side:
                    side[b] = 1 - side[a]
    return len(side) == 8 and all(side[u] != side[v] for u, v in g.edges)


def sweep(seed: int, span) -> list[Op]:
    cfg = hspex.SolverConfig(starts=SWEEP_STARTS, seed=random.Random(seed).randrange(2**31))
    ops = []
    for h, n, members, pi in SWEEPS:
        fam = hspex.ForbiddenFamily((h,))
        name = f"K{h.n}^{h.r} n={n}"

        def pi_op(fam=fam, n=n):
            res = hspex.extremal_pi(fam, n)
            jsonio.dumps(res.to_json_dict())
            return res

        def pi_check(res, members=members, pi=pi) -> str:
            ok = res.count_members == members and res.value == pi
            return "ok" if ok else "wrong"

        ops.append(Op(f"pi {name}", pi_op, pi_check))
        for p in SWEEP_PS:
            def lambda_op(fam=fam, n=n, p=p):
                res = hspex.extremal_lambda_p(fam, n, p, cfg)
                jsonio.dumps(res.to_json_dict())
                return res

            def lambda_check(res, h=h, n=n, p=p, members=members) -> str:
                if res.non_converged or not all(s.converged for s in res.solutions):
                    return "nonconverged"
                if res.count_members != members or not res.argmax:
                    return "wrong"
                if any(abs(s.rho - res.value) > 1e-9 for s in res.solutions):
                    return "wrong"
                if h is K3 and n == 8:
                    if abs(res.value - K3_N8_LAMBDA[p]) > 1e-9:
                        return "wrong"
                    if len(res.argmax) != 1 or not _is_k44(res.argmax[0]):
                        return "wrong"
                return "ok"

            ops.append(Op(f"lambda p={p} {name}", lambda_op, lambda_check))
    return ops


# --- certify ------------------------------------------------------------------

C5 = hspex.new_hypergraph(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
CERTIFY_MIX = [("K3", K3, 1, 12), ("C5", C5, 1, 11), ("K4^3", K4_3, 1, 9), ("K4^3", K4_3, 2, 9)]
CERTIFY_CYCLES = 5


def _bridge_witness_holds(g: hspex.Hypergraph, cert) -> bool:
    """(A, B) splits V, and the edge is the only one with >= k in A and >= 1 in B."""
    a, b = set(cert.witness_a), set(cert.witness_b)
    if a & b or a | b != set(range(g.n)):
        return False
    return [e for e in g.edges
            if len(a.intersection(e)) >= cert.k and b.intersection(e)] == [cert.edge]


def certify(seed: int, span) -> list[Op]:
    rng = random.Random(seed)

    def op(fam, k, n, s):
        g = hspex.saturate(fam, hspex.Hypergraph(n, fam.r), order="random", seed=s)
        tight = hspex.is_k_tight(g, k)
        bridges = hspex.find_k_bridges(g, k)
        jsonio.dumps([c.to_json_dict() for c in [tight, *bridges]])
        return g, k, tight, bridges

    def check(out) -> str:
        g, k, tight, bridges = out
        # every H here is bridgeless, so each saturation in F({H}) is k-tight:
        # a "not tight" answer is wrong whether or not its witness re-validates
        # (structure.tightness_violation_holds)
        if not tight.result:
            return "wrong"
        if not all(_bridge_witness_holds(g, c) for c in bridges):
            return "wrong"
        return "ok"

    ops = []
    for _ in range(CERTIFY_CYCLES):
        for name, h, k, n in CERTIFY_MIX:
            fam = hspex.ForbiddenFamily((h,))
            s = rng.randrange(2**31)
            ops.append(Op(f"{name} k={k} n={n}", lambda fam=fam, k=k, n=n, s=s: op(fam, k, n, s), check))
    return ops


WORKLOADS = {
    "degree-bound": degree_bound,
    "rho-large": rho_large,
    "sweep": sweep,
    "certify": certify,
}
