"""Count the solver's and the embedding search's work by function name.

    python3 scripts/work_calls.py [--src DIR]

Imports hspex from DIR (default: this checkout's src/) and counts the calls
made in its files by name, through one ``sys.setprofile`` hook that assigns
nothing into the package.  Per set of solves (degree-bound:
run_degree_bound_suite(50, seed=0); sweep: extremal_lambda_p, 8 starts, for
K3 at n = 8 and K4^(3) at n = 6, p = 2 and 3; rho-large: solve_rho_p on four
K_t^(r) blow-ups at p = 1.5, 2, 3 and 4) it prints the solves and iterations
solve_rho_p returns, the lock steps (`euler_residual` calls) and the kernel
blocks (`_block` calls: `gather` all, each of which computes L, and
`grad` those asked for the gradient), in all and (fp.) inside
`_fixed_point_run`.  Per seed 401-410 of the benchmark's certify mix
(five cycles of random-order saturate of the empty graph in F({H}),
is_k_tight and find_k_bridges for H = K3, C5, K4^(3) on 12, 11, 9
vertices) it prints the calls of `creates_copy` (copy checks), `_run`
(search plan runs), `extend` (search nodes), `_normalize_edge` (edge
validations) and `_k_closure`, then their mean.  Solves and iterations
are results, the rest the work done for them; no count depends on the
machine.  Uses only the stdlib.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

BLOW_UPS = [(6, 2, (3, 5, 7, 9, 11, 13)), (5, 3, (2, 4, 6, 8, 10)),
            (5, 4, (2, 3, 5, 7, 9)), (10, 2, (20,) * 10)]
KERNEL = ("steps", "gather", "grad")  # lock steps, then kernel blocks
SOLVER = ("solves", "iterations", *KERNEL, *(f"fp.{k}" for k in KERNEL))
SEARCH = ("creates_copy", "_run", "extend", "_normalize_edge", "_k_closure")
COUNTED = ("solve_rho_p", "euler_residual", "_block", "_fixed_point_run", *SEARCH)


def counted(run, package: str) -> Counter:
    """SOLVER's and SEARCH's counts of run(): its calls in `package` of COUNTED's names."""
    counts: Counter = Counter()
    depth = 0  # how many _fixed_point_run calls are running

    def profile(frame, event, arg):
        nonlocal depth
        code = frame.f_code
        name = code.co_name
        if event not in ("call", "return") or name not in COUNTED:
            return  # a c_call event's frame is its caller's
        if not code.co_filename.startswith(package):
            return
        if name == "_fixed_point_run":
            depth += 1 if event == "call" else -1
        elif event == "return":
            if name == "solve_rho_p" and arg is not None:  # None: it raised
                counts.update(solves=1, iterations=arg.iterations)
        elif name in ("euler_residual", "_block"):
            kinds = (("steps",) if name == "euler_residual"
                     else ("gather", "grad") if frame.f_locals["grad"] else ("gather",))
            counts.update(kinds)
            if depth:
                counts.update("fp." + k for k in kinds)
        else:
            counts[name] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def solve_sets(hspex):
    def sweep():
        cfg = hspex.SolverConfig(starts=8, seed=0)
        for h, n in ((hspex.complete_r_graph(3, 2), 8), (hspex.complete_r_graph(4, 3), 6)):
            for p in (2.0, 3.0):
                hspex.extremal_lambda_p(hspex.ForbiddenFamily((h,)), n, p, cfg)

    def rho_large():
        for t, r, parts in BLOW_UPS:
            g = hspex.complete_r_graph(t, r).blow_up(parts)
            for p in (1.5, 2.0, 3.0, 4.0):
                hspex.solve_rho_p(g, p)

    return [("degree-bound", lambda: hspex.experiments.run_degree_bound_suite(50, seed=0)),
            ("sweep", sweep), ("rho-large", rho_large)]


def certify_round(hspex, mix: list, seed: int) -> None:
    """One round of the benchmark's certify workload for this seed, unchecked."""
    rng = random.Random(seed)
    for _ in range(5):
        for h, k, n in mix:
            g = hspex.saturate(hspex.ForbiddenFamily((h,)), hspex.Hypergraph(n, h.r),
                               order="random", seed=rng.randrange(2**31))
            hspex.is_k_tight(g, k)
            hspex.find_k_bridges(g, k)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                    help="directory that holds the hspex package")
    sys.path.insert(0, ap.parse_args(argv).src)
    import hspex.experiments

    package = str(Path(hspex.__file__).parent)
    print(f"# hspex from {package}")
    print(f"{'set':13s}" + "".join(f"{k:>12s}" for k in SOLVER))
    for name, run in solve_sets(hspex):
        counts = counted(run, package)
        print(f"{name:13s}" + "".join(f"{counts[k]:12d}" for k in SOLVER))
    # (H, k, n) per op of a cycle, built outside the rounds as in perfbench/workloads.py
    k3, k4_3 = hspex.complete_r_graph(3, 2), hspex.complete_r_graph(4, 3)
    c5 = hspex.new_hypergraph(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    mix = [(k3, 1, 12), (c5, 1, 11), (k4_3, 1, 9), (k4_3, 2, 9)]
    seeds = range(401, 411)
    rounds = {seed: counted(lambda: certify_round(hspex, mix, seed), package) for seed in seeds}
    print(f"\n{'seed':6s}" + "".join(f"{k:>17s}" for k in SEARCH))
    for seed, counts in rounds.items():
        print(f"{seed:<6d}" + "".join(f"{counts[k]:17d}" for k in SEARCH))
    mean = {k: sum(counts[k] for counts in rounds.values()) / len(rounds) for k in SEARCH}
    print(f"{'mean':6s}" + "".join(f"{mean[k]:17.1f}" for k in SEARCH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
