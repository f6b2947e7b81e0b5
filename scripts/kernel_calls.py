"""Count the solver's Lagrangian kernel calls on a fixed, seeded set of solves.

    python3 scripts/kernel_calls.py [--src DIR]

Imports the hspex package found in DIR (default: this checkout's src/),
wraps the `gather`, `value` and `grad` methods of its kernel,
``hspex.spectral._Lagrangian``, with counters, and runs three sets of
solves through the public API:

  degree-bound  run_degree_bound_suite(50, seed=0): 50 random connected
                2- and 3-graphs, each solved at p = 1.5, 2, 3 and 4 with
                4 starts
  sweep         extremal_lambda_p with 8 starts (seed 0) for K3-free graphs
                on 8 vertices and K4^(3)-free graphs on 6 vertices, at
                p = 2 and 3: one solve per class of edge-maximal members
  rho-large     solve_rho_p with the default config on K6^(2)(3,5,7,9,11,13),
                K5^(3)(2,4,6,8,10), K5^(4)(2,3,5,7,9) and K10^(2)(20^10), at
                p = 1.5, 2, 3 and 4

For each set it prints the solves, their iterations (the sum of
SpectralSolution.iterations: fixed-point steps and line-search trials, per
start) and the kernel calls.  The solves and iterations are results, the
same on any tree that solves alike; the calls are the work done for them.
None of these counts depends on the machine.  Uses only the stdlib.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

P_VALUES = (1.5, 2.0, 3.0, 4.0)
KERNEL_CALLS = ("gather", "value", "grad")
BLOW_UPS = [(6, 2, (3, 5, 7, 9, 11, 13)), (5, 3, (2, 4, 6, 8, 10)),
            (5, 4, (2, 3, 5, 7, 9)), (10, 2, (20,) * 10)]


def counted(hspex, counts: Counter) -> None:
    """Wrap the kernel's methods and the solution's constructor with counters."""
    spectral = hspex.spectral

    def wrap(name, inner):
        def call(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        return call

    for name in KERNEL_CALLS:
        setattr(spectral._Lagrangian, name, wrap(name, getattr(spectral._Lagrangian, name)))
    init = spectral.SpectralSolution.__init__

    def solution(self, *args, **kwargs):
        init(self, *args, **kwargs)
        counts["solves"] += 1
        counts["iterations"] += self.iterations

    spectral.SpectralSolution.__init__ = solution


def solve_sets(hspex):
    yield "degree-bound", lambda: hspex.experiments.run_degree_bound_suite(50, seed=0)

    def sweep():
        cfg = hspex.SolverConfig(starts=8, seed=0)
        for h, n in ((hspex.complete_r_graph(3, 2), 8), (hspex.complete_r_graph(4, 3), 6)):
            for p in (2.0, 3.0):
                hspex.extremal_lambda_p(hspex.ForbiddenFamily((h,)), n, p, cfg)

    yield "sweep", sweep

    def rho_large():
        for t, r, parts in BLOW_UPS:
            g = hspex.complete_r_graph(t, r).blow_up(parts)
            for p in P_VALUES:
                hspex.solve_rho_p(g, p)

    yield "rho-large", rho_large


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                    help="directory that holds the hspex package")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    import hspex
    import hspex.experiments
    import hspex.spectral

    counts: Counter = Counter()
    counted(hspex, counts)
    keys = ("solves", "iterations", *KERNEL_CALLS)
    print(f"# hspex from {Path(hspex.__file__).parent}")
    print(f"{'set':13s}" + "".join(f"{k:>12s}" for k in keys))
    for name, run in solve_sets(hspex):
        counts.clear()
        run()
        print(f"{name:13s}" + "".join(f"{counts[k]:12d}" for k in keys))
    return 0


if __name__ == "__main__":
    sys.exit(main())
