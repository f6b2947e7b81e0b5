"""Print one sha256 per layer of hspex's results, to compare two source trees.

    python3 scripts/fingerprint.py [--src DIR]

Runs a fixed, seeded set of inputs through the public API of the hspex
package found in DIR (default: this checkout's src/) and hashes the exact
bytes of what comes back, layer by layer:

  solver     every SpectralSolution field, x as x.tobytes(), floats as hex:
             random 2-, 3- and 4-graphs at p in {1.5, 2, 3, 4} (both
             strategies at each r), K_t^(r) blow-ups, two blow-ups
             whose batch of 16 starts the kernel walks in one-row blocks
             and in blocks with a short last one, and a 30-instance
             run_degree_bound_suite report as JSON
  kernel     lagrangian, lagrangian_gradient, eigen_residual and
             cloning_lagrangian_delta bytes on random 2- to 5-graphs, with
             weight vectors that hold exact zeros, and the classical oracle
             adjacency_spectral_radius (value and any warning) on the
             random 2-graphs among them; value, gradient and residuals of
             vertexless and edgeless r-graphs for r = 2..5; cloning with u
             isolated, with z isolated and with u meeting every edge, and
             the error type and message for u == z and for a vertex out of
             range; value and gradient of K_t^(r) blow-ups for r = 2..4,
             whose long position-0 runs the kernel sums run by run, with
             negative, 0.0 and -0.0 weights, one row through the public API
             and batches of 1, 3 and 4 rows through the kernel's
             `evaluate`; and value
             and gradient of batches of 4, 1 and 3 rows, below the run-sum
             cutoff, of weights with exact zeros on random 2- to 5-graphs
  structure  is_k_tight, find_k_bridges and is_k_plateaued certificates,
             components, is_connected and find_plateaus for one lambda per
             graph on random 2-, 3- and 4-graphs, and components,
             is_connected and the decider outcomes of graphs with isolated
             vertices and of edgeless graphs
  extremal   extremal_pi and extremal_lambda_p results with solution bytes
             (K3 and K4^(3) free, K3 free at n = 8 as in the sweep benchmark,
             C4, C5 and {K3, C4} free at n = 6, 7, whose maximal members
             have mixed sizes, the same at n = 6 for {C4, K3} and for {K3, C4}
             and {C4} with C4 relabeled, which are other family values with
             equal results, and P5 free at n = 7, whose 240 completions
             per edge fill several gap blocks), enumerate_family edge lists and
             extremal_lambda_p(full=True) results, so every consumer of the
             member walk is covered, and calls that share a sweep record in
             both orders (the audit before enumerate_family for C5 at n = 6,
             extremal_pi after the audit on an equal family value built anew
             for C5 at n = 5); connected_graph_classes edge lists for
             v = 1..6 with r = 2 and v = 4 with r = 3, the other consumer of
             the class reduction
  membership contains_subgraph and contains_induced_subgraph witnesses,
             creates_copy on every non-edge, is_member, is_edge_maximal and
             isomorphic on random 2- and 3-graphs; the same witnesses and
             copy checks on random 4-graphs; lex and random saturate runs,
             the benchmark's certify-mix saturations for seeds 401-403, and
             creates_copy on every non-edge of seeded hosts and random
             saturate for patterns whose edge stabilizers are trivial,
             proper and full
  construction  every graph constructor's value (repr, which holds n, r and
             the edges): blow-ups, complete r-graphs, disjoint unions, clique
             families and gadgets, canonical relabelings, random connected
             graphs and parse_hypergraph of a serialized blow-up; the
             canonical key strings of the symmetric graphs K_{4,4}, K_{4,5},
             K_6^(3), K_7^(3), K_7 and K3(3,3,3); and the exception type and
             message of constructor calls on invalid arguments
  cli        exit code, stdout and report files (not stderr, which names
             paths) of hspex.cli.main on a fixed set of invocations in a
             temporary directory: rho --json --stats, check tight, bridge
             and plateau, extremal with and without --p, lex and random
             saturate, and every experiment suite at small sizes; and the
             JSON writer's bytes (jsonio.dumps) for a string of every code
             point below U+0100 plus astral and lone surrogate ones, a dict
             keyed by the 32 control characters, and an ExperimentReport
             with every field set and control characters in a note

Equal digests on two trees mean byte-identical results on these inputs.
Digests depend on the numpy build and the CPU, so compare trees on one
machine; they are not constants to check in.  Uses only the stdlib and numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import random
import sys
import tempfile
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np

P_VALUES = (1.5, 2.0, 3.0, 4.0)


def _random_graph(hspex, rng: random.Random, n: int, r: int, density: float):
    edges = [e for e in combinations(range(n), r) if rng.random() < density]
    return hspex.Hypergraph(n, r, tuple(edges))


def _weights(rng: random.Random, n: int, zeros: bool) -> list[float]:
    return [0.0 if zeros and rng.random() < 0.3 else rng.uniform(0.05, 1.0) for _ in range(n)]


def _signed_weights(rng: random.Random, n: int) -> list[float]:
    return [rng.choice((0.0, -0.0, -rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)))
            for _ in range(n)]


def _solution(sol) -> tuple:
    return (
        float(sol.rho).hex(),
        sol.x.tobytes(),
        float(sol.p).hex(),
        float(sol.residual).hex(),
        sol.iterations,
        sol.starts_used,
        float(sol.agreement_gap).hex(),
        sol.flags,
    )


def _outcome(call) -> tuple:
    try:
        return ("ok", repr(call()))
    except Exception as exc:
        return (type(exc).__name__, str(exc))


def _extremal(res) -> tuple:
    return (res.to_json_dict(), res.non_converged, res.classes_solved,
            [_solution(s) for s in res.solutions])


def solver_layer(hspex, emit) -> None:
    rng = random.Random(620)
    for i in range(150):
        r = (2, 3, 4)[i % 3]
        n = rng.randint(r + 1, 9 if r == 2 else 7)
        g = _random_graph(hspex, rng, n, r, rng.uniform(0.3, 0.9))
        for p in P_VALUES:
            cfg = hspex.SolverConfig(starts=3, seed=rng.randrange(2**31))
            emit(("solve", g.n, g.r, g.edges, p), _solution(hspex.solve_rho_p(g, p, cfg)))
        if i % 6 == 0:
            _weights(rng, g.n, zeros=False)  # keeps the later cases' inputs
    for t, r, parts in [(4, 2, (3, 1, 2, 5)), (5, 2, (2,) * 5), (4, 3, (2, 3, 1, 4)),
                        (5, 3, (2,) * 5), (5, 4, (1, 2, 2, 3, 1)), (6, 3, (3,) * 6)]:
        g = hspex.complete_r_graph(t, r).blow_up(parts)
        for p in P_VALUES:
            cfg = hspex.SolverConfig(starts=2, seed=t * 10 + r)
            emit(("blow-up", t, r, parts, p), _solution(hspex.solve_rho_p(g, p, cfg)))
    # solves in several kernel blocks: K10 blown up to 18,000 edges walks its
    # 16 starts in one-row blocks, and K5^(4)(2, 3, 5, 7, 9) in blocks of 3
    # with a short last one of 1; the case key "chunked" stays, so digests
    # compare with older trees
    for t, r, parts in [(10, 2, (20,) * 10), (5, 4, (2, 3, 5, 7, 9))]:
        g = hspex.complete_r_graph(t, r).blow_up(parts)
        for p in P_VALUES:
            cfg = hspex.SolverConfig(starts=16, seed=t * 10 + r)
            emit(("chunked", t, r, parts, p), _solution(hspex.solve_rho_p(g, p, cfg)))
    for g in (hspex.Hypergraph(0, 2, ()), hspex.Hypergraph(4, 3, ())):
        emit(("trivial", g.n, g.r), _solution(hspex.solve_rho_p(g, 2.0)))
    from hspex.experiments import run_degree_bound_suite

    emit(("degree-bound",), run_degree_bound_suite(30, seed=11).to_json())


def kernel_layer(hspex, emit) -> None:
    rng = random.Random(621)
    for i in range(400):
        r = 2 + i % 4
        n = rng.randint(0, 9) if i % 50 == 0 else rng.randint(r, 9)
        g = _random_graph(hspex, rng, n, r, rng.uniform(0.1, 1.0))
        x = _weights(rng, n, zeros=i % 2 == 1)
        val = hspex.lagrangian(g, x)
        grad = hspex.lagrangian_gradient(g, x)
        res = hspex.eigen_residual(g, x, 2.0 + i % 3, val)
        emit(("kernel", g.n, g.r, g.edges), (val.hex(), grad.tobytes(), res.hex()))
        if n >= 2:
            u, z = rng.sample(range(n), 2)
            emit(("clone", u, z), hspex.cloning_lagrangian_delta(g, u, z, x).hex())
        if r == 2:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                lam = hspex.adjacency_spectral_radius(g)
            emit(("adjacency", g.n, g.edges), (lam.hex(), [str(w.message) for w in caught]))
    for r in range(2, 6):
        for g in (hspex.Hypergraph(0, r, ()), hspex.Hypergraph(r + 2, r, ())):
            x = _weights(rng, g.n, zeros=True)
            val = hspex.lagrangian(g, x)
            grad = hspex.lagrangian_gradient(g, x)
            res = [hspex.eigen_residual(g, x, p, rho).hex()
                   for p in P_VALUES for rho in (0.0, 1.5)]
            emit(("no-edges", g.n, r), (val.hex(), grad.tobytes(), res))
    # vertex 0 meets every edge of `star`; vertex 5 is isolated in both graphs
    g = hspex.Hypergraph(6, 3, ((0, 1, 2), (0, 1, 3), (0, 2, 4), (1, 2, 4), (1, 3, 4)))
    star = hspex.Hypergraph(6, 3, ((0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 4)))
    for h, u, z in ((g, 5, 1), (g, 5, 0), (g, 1, 5), (g, 0, 5), (star, 0, 1), (star, 0, 5),
                    (star, 3, 0), (g, 2, 2), (g, 6, 1), (g, 1, -1), (g, 6, 6), (star, 0, 0)):
        for zeros in (False, True):
            x = _weights(rng, 6, zeros)
            emit(("clone-fixed", h.edges, u, z),
                 _outcome(lambda: hspex.cloning_lagrangian_delta(h, u, z, x).hex()))
    # blow-ups with long position-0 runs, which the kernel sums run by run
    # once a batch has RUN_ENTRIES entries past a run's first: one row through
    # the public API and batches of several rows through the kernel, with
    # signed weights (negative entries, 0.0 and -0.0) and with weights of
    # +-0 only whose first position-0 run starts with -0.0
    for t, r, parts in [(10, 2, (10,) * 10), (6, 2, (3, 5, 7, 9, 11, 13)), (4, 2, (8,) * 4),
                        (6, 3, (5,) * 6), (5, 3, (2, 4, 6, 8, 10)), (5, 4, (4,) * 5),
                        (5, 4, (2, 3, 5, 7, 9))]:
        g = hspex.complete_r_graph(t, r).blow_up(parts)
        zeros = [-0.0 if v % 2 else 0.0 for v in range(g.n)]
        zeros[g.edges[0][1]] = -0.0
        for v in g.edges[0][2:]:
            zeros[v] = 0.0
        xs = [zeros, *(_signed_weights(rng, g.n) for _ in range(7))]
        for x in xs[:3]:
            emit(("run-sums", t, r, parts),
                 (hspex.lagrangian(g, x).hex(), hspex.lagrangian_gradient(g, x).tobytes()))
        kernel = hspex.spectral._Lagrangian(g)
        for lo, b in ((0, 4), (4, 1), (5, 3)):
            val, grad = kernel.evaluate(np.array(xs[lo : lo + b]))
            emit(("run-sums batch", t, r, parts, b), (val.tobytes(), grad.tobytes()))
    # batches below RUN_ENTRIES on small random graphs: batches of 4, 1 and
    # 3 rows of weights with exact zeros through one kernel's `evaluate`
    for i in range(60):
        r = 2 + i % 4
        g = _random_graph(hspex, rng, rng.randint(r, 9), r, rng.uniform(0.2, 1.0))
        kernel = hspex.spectral._Lagrangian(g)
        for b in (4, 1, 3):
            x = np.array([_weights(rng, g.n, zeros=True) for _ in range(b)]).reshape(b, g.n)
            val, grad = kernel.evaluate(x)
            emit(("small batch", g.n, r, g.edges, b), (val.tobytes(), grad.tobytes()))


def structure_layer(hspex, emit) -> None:
    rng = random.Random(622)
    for i in range(150):
        r = (2, 3, 4)[i % 3]
        n = rng.randint(r + 1, 8)
        g = _random_graph(hspex, rng, n, r, rng.uniform(0.2, 0.8))
        emit(("components", g.edges), (g.components(), g.is_connected()))
        if g.m == 0:
            continue
        for k in range(1, r):
            emit(("tight", g.edges, k), hspex.is_k_tight(g, k).to_json_dict())
            emit(("bridges", k), [c.to_json_dict() for c in hspex.find_k_bridges(g, k)])
            emit(("plateaued", k), hspex.is_k_plateaued(g, k))
        lams = hspex.partitions_of(r, 1, r - 1)
        lam = lams[i % len(lams)]
        emit(("plateaus", lam), hspex.find_plateaus(g, lam))
    sparse = [hspex.Hypergraph(0, 2), hspex.Hypergraph(1, 3), hspex.Hypergraph(5, 2),
              hspex.Hypergraph(6, 2, ((1, 4),)),
              hspex.Hypergraph(9, 3, ((0, 2, 3), (3, 4, 6), (7, 8, 5)))]
    for g in sparse:
        emit(("sparse", g.n, g.r, g.edges), (g.components(), g.is_connected()))
        lam = hspex.partitions_of(g.r, 1, g.r - 1)[0]
        emit(("sparse plateaus", lam), _outcome(lambda: hspex.find_plateaus(g, lam)))
        for k in range(1, g.r):
            emit(("sparse tight", k), _outcome(lambda: hspex.is_k_tight(g, k)))
            emit(("sparse bridges", k), _outcome(lambda: hspex.find_k_bridges(g, k)))


def extremal_layer(hspex, emit) -> None:
    k3 = hspex.complete_r_graph(3, 2)
    k4_3 = hspex.complete_r_graph(4, 3)
    for h, ns in ((k3, range(3, 8)), (k4_3, range(4, 7))):
        fam = hspex.ForbiddenFamily((h,))
        for n in ns:
            emit(("pi", h.r, n), hspex.extremal_pi(fam, n).to_json_dict())
            for p in (2.0, 3.0):
                res = hspex.extremal_lambda_p(fam, n, p, hspex.SolverConfig(starts=4, seed=n))
                emit(("lambda", h.r, n, p), _extremal(res))
    emit(("pi", k3.r, 8), hspex.extremal_pi(hspex.ForbiddenFamily((k3,)), 8).to_json_dict())
    c4 = hspex.new_hypergraph(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)])
    c5 = hspex.new_hypergraph(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    c4_relabeled = hspex.new_hypergraph(4, 2, [(0, 2), (2, 1), (1, 3), (0, 3)])
    for name, forbidden, ns in (("C4", (c4,), (6, 7)), ("C5", (c5,), (6, 7)),
                                ("K3+C4", (k3, c4), (6, 7)), ("C4+K3", (c4, k3), (6,)),
                                ("K3+C4'", (k3, c4_relabeled), (6,)),
                                ("C4'", (c4_relabeled,), (6,))):
        fam = hspex.ForbiddenFamily(forbidden)
        for n in ns:
            emit(("pi", name, n), hspex.extremal_pi(fam, n).to_json_dict())
            for p in (2.0, 3.0):
                res = hspex.extremal_lambda_p(fam, n, p, hspex.SolverConfig(starts=4, seed=n))
                emit(("lambda", name, n, p), _extremal(res))
    p5 = hspex.new_hypergraph(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4)])
    fam = hspex.ForbiddenFamily((p5,))  # 240 completions per edge at n = 7
    emit(("pi", "P5", 7), hspex.extremal_pi(fam, 7).to_json_dict())
    res = hspex.extremal_lambda_p(fam, 7, 2.0, hspex.SolverConfig(starts=4, seed=7))
    emit(("lambda", "P5", 7, 2.0), _extremal(res))
    for h, enum_ns, full_ns in ((k3, range(3, 7), range(3, 7)), (k4_3, range(4, 6), (5,))):
        fam = hspex.ForbiddenFamily((h,))
        for n in enum_ns:
            emit(("enumerate", h.r, n), [g.edges for g in hspex.enumerate_family(fam, n)])
        for n in full_ns:
            res = hspex.extremal_lambda_p(fam, n, 2.0, hspex.SolverConfig(starts=4, seed=n),
                                          full=True)
            emit(("full", h.r, n), _extremal(res))
    # orders of calls that share one sweep record: the audit before
    # enumerate_family on one value (C5 at n = 6), and extremal_pi after the
    # audit on an equal value built anew (C5 at n = 5, not swept before)
    fam = hspex.ForbiddenFamily((c5,))
    for n in (6, 5):
        res = hspex.extremal_lambda_p(fam, n, 2.0, hspex.SolverConfig(starts=4, seed=n),
                                      full=True)
        emit(("full", "C5", n), _extremal(res))
    emit(("enumerate", "C5", 6), [g.edges for g in hspex.enumerate_family(fam, 6)])
    c5_again = hspex.new_hypergraph(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    emit(("pi", "C5", 5), hspex.extremal_pi(hspex.ForbiddenFamily((c5_again,)), 5).to_json_dict())
    from hspex.experiments import connected_graph_classes

    for v, r in [(v, 2) for v in range(1, 7)] + [(4, 3)]:
        emit(("connected", v, r), [g.edges for g in connected_graph_classes(v, r)])


def membership_layer(hspex, emit) -> None:
    from hspex.embedding import creates_copy

    rng = random.Random(623)
    for i in range(300):
        r = 2 + i % 2
        host = _random_graph(hspex, rng, rng.randint(r, 7), r, rng.uniform(0.2, 0.8))
        pattern = _random_graph(hspex, rng, rng.randint(1, 5), r, rng.uniform(0.2, 0.9))
        emit(("contains", host.n, host.edges, pattern.n, pattern.edges),
             (hspex.contains_subgraph(host, pattern),
              hspex.contains_induced_subgraph(host, pattern)))
        present = set(host.edges)
        emit(("creates", i), [creates_copy(host, e, pattern)
                              for e in combinations(range(host.n), r) if e not in present])
        perm = list(range(host.n))
        rng.shuffle(perm)
        relabeled = hspex.Hypergraph(host.n, r, tuple(
            tuple(sorted(perm[v] for v in e)) for e in host.edges))
        emit(("isomorphic", i), (hspex.isomorphic(host, relabeled),
                                 hspex.isomorphic(host, pattern)))
        if pattern.m == 0:
            continue
        fam = hspex.ForbiddenFamily((pattern,))
        member = hspex.is_member(fam, host)
        emit(("member", i), member)
        if member:
            emit(("maximal", i), hspex.is_edge_maximal(fam, host))
            for order in ("lex", "random"):
                emit(("saturate", i, order), hspex.saturate(fam, host, order, seed=i).edges)
    rng = random.Random(624)
    for i in range(60):
        host = _random_graph(hspex, rng, rng.randint(4, 7), 4, rng.uniform(0.2, 0.7))
        pattern = _random_graph(hspex, rng, rng.randint(1, 6), 4, rng.uniform(0.3, 0.9))
        emit(("contains4", host.n, host.edges, pattern.n, pattern.edges),
             (hspex.contains_subgraph(host, pattern),
              hspex.contains_induced_subgraph(host, pattern)))
        emit(("creates4", i), [creates_copy(host, e, pattern)
                               for e in combinations(range(host.n), 4) if e not in host.edge_set])
    k3, k4_3 = hspex.complete_r_graph(3, 2), hspex.complete_r_graph(4, 3)
    c5 = hspex.new_hypergraph(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    mix = ((k3, 12), (c5, 11), (k4_3, 9), (k4_3, 9))  # perfbench/workloads.py CERTIFY_MIX
    for seed in (401, 402, 403):
        rng = random.Random(seed)
        for cycle in range(5):
            for h, n in mix:
                s = rng.randrange(2**31)
                g = hspex.saturate(hspex.ForbiddenFamily((h,)), hspex.Hypergraph(n, h.r),
                                   order="random", seed=s)
                emit(("certify", seed, cycle, h.edges, n), g.edges)
    # copy checks and saturations for each kind of edge stabilizer, which sets
    # how many placements of the new edge a check tries: trivial (a rigid
    # 3-graph), proper ({012, 013}: 3; P4: 2 and 1) and full (K4^(3), K5^(4))
    kinds = [hspex.new_hypergraph(6, 3, [(0, 1, 3), (0, 2, 4), (0, 4, 5), (2, 3, 4)]),
             hspex.new_hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)]),
             hspex.new_hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)]),
             k4_3, hspex.complete_r_graph(5, 4)]
    rng = random.Random(625)
    for h in kinds:
        fam = hspex.ForbiddenFamily((h,))
        for i in range(12):
            host = _random_graph(hspex, rng, rng.randint(h.r + 1, 8), h.r, rng.uniform(0.1, 0.6))
            emit(("creates", h.edges, i), [creates_copy(host, e, h) for e in
                                           combinations(range(host.n), h.r)
                                           if e not in host.edge_set])
            emit(("saturate", h.edges, i),
                 hspex.saturate(fam, hspex.Hypergraph(host.n, h.r), "random", seed=i).edges)


def construction_layer(hspex, emit) -> None:
    from hspex.canonical import canonical_key_string
    from hspex.experiments import random_connected_hypergraph

    rng = random.Random(624)
    for i in range(90):
        r = (2, 3, 4)[i % 3]
        g = _random_graph(hspex, rng, rng.randint(r, r + 3), r, rng.uniform(0.2, 0.9))
        h = _random_graph(hspex, rng, rng.randint(0, r + 3), r, rng.uniform(0.2, 0.9))
        t = [rng.randint(1, 4) for _ in range(g.n)]
        emit(("blow-up", g.edges, t), repr(g.blow_up(t)))
        emit(("union", g.edges, h.n, h.edges), repr(hspex.disjoint_union(g, h)))
        emit(("canonical", g.n, g.edges), repr(hspex.canonical_relabeling(g)))
    for t in range(9):
        for r in (2, 3, 4, 5):
            emit(("complete", t, r), repr(hspex.complete_r_graph(t, r)))
    for ell, t, r in [(0, 3, 2), (1, 4, 3), (3, 3, 2), (2, 5, 4), (4, 4, 3)]:
        emit(("cliques", ell, t, r), repr(hspex.ell_cliques(ell, t, r)))
    for lam, t in [((1, 1), 2), ((2, 1), 4), ((2, 2), 4), ((1, 1, 1), 3), ((3, 1), 5)]:
        emit(("gadget", lam, t), repr(hspex.l_gadget(len(lam), lam, t)))
    for n, r, m in [(6, 2, 5), (8, 2, 12), (6, 3, 4), (7, 3, 12), (6, 4, 6)]:
        for seed in range(4):
            emit(("connected", n, r, m, seed), repr(random_connected_hypergraph(n, r, m, seed)))
    edge, k3 = hspex.complete_r_graph(2, 2), hspex.complete_r_graph(3, 2)
    symmetric = [edge.blow_up((4, 4)), edge.blow_up((4, 5)), hspex.complete_r_graph(6, 3),
                 hspex.complete_r_graph(7, 3), hspex.complete_r_graph(7, 2), k3.blow_up((3, 3, 3))]
    for g in symmetric:
        emit(("canonical key", g.n, g.r, g.edges), canonical_key_string(g))
    big = hspex.complete_r_graph(6, 3).blow_up((3, 1, 4, 1, 5, 2))
    emit(("parse", "blow-up"), repr(hspex.parse_hypergraph(hspex.serialize(big))))
    bad_args = [
        lambda: hspex.complete_r_graph(-1, 2),
        lambda: hspex.complete_r_graph(4, 1),
        lambda: hspex.complete_r_graph(4, -1),
        lambda: k3.blow_up([1, 0, 2]),
        lambda: k3.blow_up([1, 2]),
        lambda: hspex.disjoint_union(k3, hspex.complete_r_graph(3, 3)),
        lambda: hspex.ell_cliques(-1, 3, 2),
        lambda: hspex.ell_cliques(2, 3, 1),
        lambda: hspex.l_gadget(3, (1, 1), 2),
        lambda: hspex.l_gadget(1, (3,), 5),
        lambda: hspex.l_gadget(2, (1, 2), 5),
        lambda: hspex.l_gadget(2, (2, 1), 2),
        lambda: random_connected_hypergraph(6, 2, 4, 0),
        lambda: random_connected_hypergraph(4, 2, 7, 0),
    ]
    for i, call in enumerate(bad_args):
        emit(("bad-args", i), _outcome(call))


# {d} is the directory of the input graphs, {out} a fresh report directory;
# every invocation uses only flags its command reads
CLI_RUNS = [
    "rho --input {d}/p3.hg --p 2 --json --stats",
    "rho --input {d}/c5.hg --p 3 --starts 3 --seed 1 --json --stats",
    "check tight --input {d}/2k3.hg --k 1",
    "check tight --input {d}/c5.hg --k 1",
    "check bridge --input {d}/p3.hg --edge 0,1 --k 1",
    "check plateau --input {d}/bowtie.hg --edge 0,1,2 --lambda 2,1",
    "extremal --forbid {d}/k3.hg --n 6",
    "extremal --forbid {d}/k3.hg --forbid {d}/c5.hg --n 6 --p 2 --starts 4 --seed 1 --stats",
    "saturate --forbid {d}/k3.hg --n 6 --order lex",
    "saturate --forbid {d}/k3.hg --n 7 --order random --seed 7",
    "experiment degree-bound --count 4 --seed 3 --starts 2 --out {out} --json",
    "experiment ratio-scaling --forbid {d}/k3.hg --p 2 --n 4..5 --seed 7 --starts 2 --out {out}",
    "experiment bridgeless-tight --forbid {d}/k3.hg --k 1 --n 5 --trials 3 --seed 2 --out {out}",
    "experiment plateau-construct --forbid {d}/bowtie.hg --k 2 --ell 2 --out {out} --json",
    "experiment coarseness-probe --forbid {d}/k3.hg --p 3 --n 4,6 --seed 1 --starts 2 --out {out}",
    "experiment density-trend --forbid {d}/c5.hg --n 4..6 --out {out} --json",
]


def cli_layer(hspex, emit) -> None:
    from hspex.cli import main
    from hspex.experiments import ExperimentReport
    from hspex.jsonio import dumps

    graphs = {
        "p3": hspex.new_hypergraph(3, 2, [(0, 1), (1, 2)]),
        "k3": hspex.complete_r_graph(3, 2),
        "2k3": hspex.new_hypergraph(6, 2, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
        "c5": hspex.new_hypergraph(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
        "bowtie": hspex.new_hypergraph(6, 3, [(0, 1, 2), (0, 1, 3), (2, 4, 5)]),
    }
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, g in graphs.items():
            (d / f"{name}.hg").write_text(hspex.serialize(g), encoding="utf-8")
        for i, template in enumerate(CLI_RUNS):
            out = d / f"out{i}"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main(template.format(d=d, out=out).split())
            reports = sorted((f.name, f.read_bytes()) for f in out.glob("*"))
            emit(("cli", template), (code, stdout.getvalue(), reports))
    report = ExperimentReport(
        experiment="writer", parameters={"p": 2.0, "n_range": [4, 5]}, seed=3,
        rows=[{"n": 4, "gamma": 1.25, "flag": None}, {"n": 5, "gamma": math.inf, "flag": True}],
        verdict="pass-with-exclusions", excluded=1,
        notes=["tab\there", "bell\x07 nul\x00 esc\x1b"],
    )
    code_points = "".join(map(chr, range(0x100))) + "\U0001f600\U0010ffff\ud800\udfff"
    emit(("dumps", "code points"), dumps(code_points))
    emit(("dumps", "control keys"), dumps({chr(c): c for c in range(0x20)}))
    emit(("dumps", "report"), dumps(report.to_json_dict()))


LAYERS = [
    ("solver", solver_layer),
    ("kernel", kernel_layer),
    ("structure", structure_layer),
    ("extremal", extremal_layer),
    ("membership", membership_layer),
    ("construction", construction_layer),
    ("cli", cli_layer),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                    help="directory that holds the hspex package")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    import hspex

    print(f"# hspex from {Path(hspex.__file__).parent}")
    for name, layer in LAYERS:
        digest = hashlib.sha256()
        count = 0

        def emit(key, value) -> None:
            nonlocal count
            count += 1
            digest.update(repr((key, value)).encode())

        layer(hspex, emit)
        print(f"{name:<10} {count:>6} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
