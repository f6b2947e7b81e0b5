"""Reproducible theorem-check suites and instance generators.

Every suite is deterministic given (parameters, seed): instance streams,
solver starts, and saturation orders all derive from the one seed, and the
report embeds it.  Verdicts are "pass", "fail", or "pass-with-exclusions"
(non-converged solves never silently pass; they are excluded and counted);
exploratory tables carry no verdict.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field, fields, replace
from itertools import combinations
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .canonical import canonical_key_string
from .errors import BadConfig, HypothesisFailed, Infeasible, TooSmall
from .families import (
    ALL_MASKS_GUARD_BITS,
    ForbiddenFamily,
    _check_guard,
    _mask_classes,
    extremal_lambda_p,
    extremal_pi,
    is_edge_maximal,
    is_member,
    saturate,
)
from .hypergraph import Hypergraph, _check_size, _integers, ell_cliques
from .jsonio import dumps, rows_to_csv
from .spectral import (
    SolverConfig,
    _check_count,
    _check_p,
    degree_ratio_lower_bound,
    principal_ratio,
)
from .structure import (
    find_k_bridges,
    is_k_plateaued,
    is_k_tight,
    tightness_violation_holds,
)

DEGREE_BOUND_P = (1.5, 2.0, 3.0, 4.0)  # the exponents of every degree-bound instance
RATIO_CAP = 2.0  # ratio-scaling's pass cap on (gamma - 1) * n


@dataclass
class ExperimentReport:
    """Per-instance rows plus a verdict; serializes to JSON and CSV."""

    experiment: str
    parameters: dict
    seed: int
    verdict: Optional[str] = None
    excluded: int = 0
    notes: list[str] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)

    def judge(self, failed: bool) -> None:
        """The verdict rule: fail, else pass-with-exclusions when instances
        were excluded, else pass."""
        self.verdict = "fail" if failed else "pass-with-exclusions" if self.excluded else "pass"

    def to_json_dict(self) -> dict:
        """The fields in declaration order, sharing their objects (no copy)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return dumps(self.to_json_dict()) + "\n"

    def to_csv(self) -> str:
        if not self.rows:
            return "\n"
        return rows_to_csv(list(self.rows[0].keys()), self.rows)

    def save(self, outdir: str | Path) -> tuple[Path, Path]:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        jpath = out / f"{self.experiment}-{self.seed}.json"
        cpath = out / f"{self.experiment}-{self.seed}.csv"
        jpath.write_text(self.to_json(), encoding="utf-8", newline="\n")
        cpath.write_text(self.to_csv(), encoding="utf-8", newline="\n")
        return jpath, cpath


# --- instance generation --------------------------------------------------------


def random_connected_hypergraph(n: int, r: int, m: int, seed: int) -> Hypergraph:
    """Uniform-ish random connected r-graph with m edges, deterministic per seed.

    Samples m distinct edges and resamples until one component covers all n
    vertices; raises Infeasible when m is not an integer or cannot support
    connectivity, BadConfig for a negative seed, and OutOfRange or
    WrongArity for an n or r that the Hypergraph constructor refuses.
    """
    n, r = _check_size(n, r)
    (m,) = _integers((m,), Infeasible, "edge count")
    seed = _check_count("seed", seed)
    total = math.comb(n, r)
    if m < math.ceil((n - 1) / (r - 1)) or m > total:
        raise Infeasible(f"m={m} cannot connect n={n} vertices with r={r}")
    rng = random.Random(seed)
    pool = list(combinations(range(n), r))
    for _ in range(200_000):
        edges = rng.sample(pool, m)
        g = Hypergraph(n, r, tuple(edges))
        if g.is_connected():
            return g
    raise Infeasible(f"no connected sample found for n={n}, r={r}, m={m}")


def connected_graph_classes(v: int, r: int = 2) -> list[Hypergraph]:
    """All connected r-graphs on exactly v labeled vertices, one per iso class:
    the first in ascending edge-mask order.  It holds all 2^C(v, r) masks,
    so C(v, r) > ALL_MASKS_GUARD_BITS raises TooLarge."""
    v, r = _check_guard(v, r, ALL_MASKS_GUARD_BITS)
    # connectivity is invariant under relabeling: testing one graph per class
    # keeps the same first-seen representatives
    masks = np.arange(1 << math.comb(v, r), dtype=np.int64)
    return [g for g in _mask_classes(masks, v, r) if g.is_connected()]


def is_r_partite(h: Hypergraph) -> bool:
    """Can V(H) be split into r classes so every edge is rainbow?"""
    if h.m == 0:
        return True
    colors = [-1] * h.n
    incident = h.incidence

    def ok(v: int) -> bool:
        for i in incident[v]:
            used = [colors[w] for w in h.edges[i] if colors[w] >= 0]
            if len(used) != len(set(used)):
                return False
        return True

    def assign(v: int) -> bool:
        if v == h.n:
            return True
        limit = min(h.r, v + 1)  # symmetry break: first use of a color is canonical
        for c in range(limit):
            colors[v] = c
            if ok(v) and assign(v + 1):
                return True
        colors[v] = -1
        return False

    return assign(0)


# --- suites -----------------------------------------------------------------------


def run_degree_bound_suite(
    count: int,
    r_set: Sequence[int] = (2, 3),
    seed: int = 0,
    config: Optional[SolverConfig] = None,
) -> ExperimentReport:
    """Random connected instances vs the degree-ratio lower bound on gamma.

    For each instance and exponent in DEGREE_BOUND_P, solve rho_p; whenever
    the returned eigenvector is strictly positive, check
    principal_ratio + 1e-9 >= (max_deg/min_deg)^(1/(p+r-2)).
    Non-converged solves are recorded, excluded from the verdict, counted.
    Each solve's seed is drawn from `seed`, replacing the seed of `config`
    (default: 4 starts), so the instance stream does not depend on `config`.
    A negative count or an empty r_set raises BadConfig, and an r below 2
    WrongArity.
    """
    from .spectral import solve_rho_p

    count = _check_count("count", count)
    if not len(r_set):
        raise BadConfig("r_set must hold at least one uniformity")
    r_set = [_check_size(0, r)[1] for r in r_set]  # the constructor's rule for r
    seed = _check_count("seed", seed)
    rng = random.Random(seed)
    report = ExperimentReport(
        "degree-bound",
        {"count": count, "r_set": list(r_set), "p_set": list(DEGREE_BOUND_P)},
        seed,
    )
    violations = 0
    for i in range(count):
        r = r_set[i % len(r_set)]
        n = rng.randint(4, 9 if r == 2 else 7)
        m_lo = math.ceil((n - 1) / (r - 1))
        m_hi = min(math.comb(n, r), max(m_lo + 1, 3 * n // 2))
        m = rng.randint(m_lo, m_hi)
        g = random_connected_hypergraph(n, r, m, rng.randrange(2**31))
        for p in DEGREE_BOUND_P:
            cfg = replace(config or SolverConfig(starts=4), seed=rng.randrange(2**31))
            sol = solve_rho_p(g, p, cfg)
            positive = bool((sol.x > 0).all())
            gamma = principal_ratio(sol.x)
            bound = degree_ratio_lower_bound(g, p)
            violated = bool(positive and sol.converged and gamma + 1e-9 < bound)
            if not sol.converged:
                report.excluded += 1
            elif violated:
                violations += 1
            report.rows.append(
                {
                    "instance": i,
                    "n": n,
                    "r": r,
                    "m": m,
                    "p": p,
                    "rho": sol.rho,
                    "residual": sol.residual,
                    "converged": sol.converged,
                    "positive": positive,
                    "gamma": gamma,
                    "bound": bound,
                    "slack": (gamma - bound) if math.isfinite(gamma) else math.inf,
                    "violated": violated,
                }
            )
    report.judge(violations > 0)
    return report


def run_ratio_scaling(
    fam: ForbiddenFamily,
    p: float,
    n_range: Iterable[int],
    config: Optional[SolverConfig] = None,
) -> ExperimentReport:
    """Principal ratio of spectral-extremal members: gamma - 1 should scale like 1/n.

    The pass cap on (gamma - 1) * n, RATIO_CAP = 2, is calibrated for the
    triangle-free p=2 sweep where the exact odd-n value is
    (sqrt((a+1)/a) - 1) * n < 2; it is a suite constant, not a theorem.
    """
    _check_p(p)
    for h in fam.forbidden:
        if not h.is_2_covering():
            warnings.warn("hypothesis: a forbidden graph is not 2-covering")
        if is_r_partite(h):
            warnings.warn("hypothesis: a forbidden graph is r-partite")
    report = ExperimentReport(
        "ratio-scaling",
        {"p": p, "n_range": list(n_range), "cap": RATIO_CAP},
        seed=(config or SolverConfig()).seed,
    )
    worst = 0.0
    for n in report.parameters["n_range"]:
        res = extremal_lambda_p(fam, n, p, config)
        report.excluded += res.non_converged  # a failed class solve may hide the argmax
        for g, sol in zip(res.argmax, res.solutions):
            if not sol.converged:
                continue  # counted in res.non_converged
            if sol.residual > 1e-10 * max(1.0, sol.rho):
                report.excluded += 1
                continue
            gamma = principal_ratio(sol.x)
            scaled = (gamma - 1.0) * n if math.isfinite(gamma) else math.inf
            worst = max(worst, scaled)
            report.rows.append(
                {
                    "n": n,
                    "p": p,
                    "value": res.value,
                    "gamma": gamma,
                    "gamma_minus_1": gamma - 1.0 if math.isfinite(gamma) else math.inf,
                    "scaled": scaled,
                    "dmax": g.degree_extremes()[0],
                    "dmin": g.degree_extremes()[1],
                    "argmax_key": canonical_key_string(g),
                }
            )
    report.judge(not worst <= RATIO_CAP)
    return report


def run_bridgeless_tight_suite(
    h_list: Sequence[Hypergraph],
    k: int,
    n: int,
    trials: int,
    seed: int = 0,
) -> ExperimentReport:
    """Random-order saturations of the empty graph must be k-tight when the
    forbidden graph has no k-bridge; bridged or disconnected graphs are
    skipped and listed.  A negative trials or seed raises BadConfig."""
    trials = _check_count("trials", trials)
    seed = _check_count("seed", seed)
    rng = random.Random(seed)
    report = ExperimentReport(
        "bridgeless-tight",
        {"k": k, "n": n, "trials": trials, "graphs": len(h_list)},
        seed,
    )
    failures = 0
    for hi, h in enumerate(h_list):
        if not h.is_connected():
            report.notes.append(f"H#{hi} skipped: disconnected")
            continue
        if find_k_bridges(h, k):
            report.notes.append(f"H#{hi} skipped: has a {k}-bridge")
            continue
        fam = ForbiddenFamily((h,))
        empty = Hypergraph(n, h.r, ())
        for t in range(trials):
            g = saturate(fam, empty, order="random", seed=rng.randrange(2**31))
            cert = is_k_tight(g, k)
            valid_witness = (
                tightness_violation_holds(g, k, cert.witness)
                if cert.witness is not None
                else None
            )
            if not cert.result:
                failures += 1
            report.rows.append(
                {
                    "h_index": hi,
                    "h_n": h.n,
                    "h_m": h.m,
                    "trial": t,
                    "edges": g.m,
                    "tight": cert.result,
                    "witness_validates": valid_witness,
                }
            )
    report.judge(failures > 0)
    return report


def run_plateau_construction(h: Hypergraph, k: int, ell: int) -> ExperimentReport:
    """Build the known non-k-tight saturated graph from a k-plateaued pattern.

    With t = |V(H)|: start from ell disjoint complete r-graphs on t-1
    vertices, saturate inside F({H}) in lex order, and verify the result is
    edge-maximal, H-free, and not k-tight, the first clique's vertex block
    witnessing the failure.
    """
    (ell,) = _integers((ell,), TooSmall, "clique count")  # ell_cliques' rule for it
    if ell < 2:
        raise HypothesisFailed("need at least two cliques (ell >= 2)")
    plateaued, missing = is_k_plateaued(h, k)
    if not plateaued:
        raise HypothesisFailed(f"H is not {k}-plateaued; missing partitions {missing}")
    if h.n < h.r + 1:
        raise HypothesisFailed(f"|V(H)|={h.n} < r+1={h.r + 1}")
    t = h.n
    g0 = ell_cliques(ell, t - 1, h.r)
    fam = ForbiddenFamily((h,))
    member = is_member(fam, g0)
    g = saturate(fam, g0)
    maximal, augmenting = is_edge_maximal(fam, g)
    cert = is_k_tight(g, k)
    j1 = tuple(range(t - 1))
    witness_ok = tightness_violation_holds(g, k, j1)
    report = ExperimentReport(
        "plateau-construct",
        {"k": k, "ell": ell, "t": t, "r": h.r, "order": "lex"},
        seed=0,
    )
    report.rows.append(
        {
            "n": g.n,
            "start_edges": g0.m,
            "saturated_edges": g.m,
            "start_member": member,
            "edge_maximal": maximal,
            "tight": cert.result,
            "j1_witness_validates": witness_ok,
        }
    )
    report.judge(not (member and maximal and not cert.result and witness_ok))
    if augmenting is not None:
        report.notes.append(f"augmenting edge {augmenting} after saturation")
    return report


def run_coarseness_probe(
    fam: ForbiddenFamily,
    p: float,
    n_range: Iterable[int],
    config: Optional[SolverConfig] = None,
) -> ExperimentReport:
    """Degree spread of spectral-extremal members; exploratory, no verdict."""
    _check_p(p)
    report = ExperimentReport(
        "coarseness-probe", {"p": p, "n_range": list(n_range)}, (config or SolverConfig()).seed
    )
    for n in report.parameters["n_range"]:
        res = extremal_lambda_p(fam, n, p, config)
        for g in res.argmax:
            dmax, dmin = g.degree_extremes()
            scale = float(n) ** (fam.r - 2)
            report.rows.append(
                {
                    "n": n,
                    "p": p,
                    "value": res.value,
                    "dmax": dmax,
                    "dmin": dmin,
                    "spread": dmax - dmin,
                    "scaled_spread": (dmax - dmin) / scale,
                    "argmax_key": canonical_key_string(g),
                }
            )
    return report


def run_density_trend(fam: ForbiddenFamily, n_range: Iterable[int]) -> ExperimentReport:
    """Edge-density trend Pi(F, n) / C(n, r); exploratory, no verdict."""
    report = ExperimentReport("density-trend", {"n_range": list(n_range)}, seed=0)
    for n in report.parameters["n_range"]:
        res = extremal_pi(fam, n)
        total = math.comb(n, fam.r)
        report.rows.append(
            {
                "n": n,
                "pi": int(res.value),
                "binom": total,
                "density": res.value / total if total else 0.0,
            }
        )
    return report
