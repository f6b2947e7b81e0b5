"""Count the solver's Lagrangian kernel calls on a fixed, seeded set of solves.

    python3 scripts/kernel_calls.py [--src DIR]

Imports the hspex package found in DIR (default: this checkout's src/),
wraps the `_block` and `euler_residual` methods of its kernel,
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
start), the lock steps (`euler_residual` calls: one per step of a batch of
starts, however many starts it holds) and the kernel blocks, first in all
and then (the fp. columns) those made inside
``hspex.spectral._fixed_point_run``: every p >= r solve and every p < r
polish.  `gather` counts the blocks (one gather each), and `value` and
`grad` the blocks that computed L and the gradient.  The solves and iterations are results, the same on any tree that
solves alike; the steps and calls are the work done for them.  None of these
counts depends on the machine.  Uses only the stdlib.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

P_VALUES = (1.5, 2.0, 3.0, 4.0)
# lock steps, then kernel blocks in all, with L, and with the gradient
KERNEL_CALLS = ("steps", "gather", "value", "grad")
BLOW_UPS = [(6, 2, (3, 5, 7, 9, 11, 13)), (5, 3, (2, 4, 6, 8, 10)),
            (5, 4, (2, 3, 5, 7, 9)), (10, 2, (20,) * 10)]


def counted(hspex, counts: Counter) -> None:
    """Wrap the kernel's methods, the fixed-point run and the solution's
    constructor with counters."""
    spectral = hspex.spectral
    depth = [0]  # how many _fixed_point_run calls are running

    def tick(name):
        counts[name] += 1
        if depth[0]:
            counts["fp." + name] += 1

    kernel = spectral._Lagrangian
    euler_residual, block = kernel.euler_residual, kernel._block

    def steps(self, *args):
        tick("steps")
        return euler_residual(self, *args)

    def blocks(self, x, value, grad):
        tick("gather")
        if value:
            tick("value")
        if grad:
            tick("grad")
        return block(self, x, value, grad)

    kernel.euler_residual, kernel._block = steps, blocks
    fixed_point_run = spectral._fixed_point_run

    def inside_fixed_point(*args, **kwargs):
        depth[0] += 1
        try:
            return fixed_point_run(*args, **kwargs)
        finally:
            depth[0] -= 1

    spectral._fixed_point_run = inside_fixed_point
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
    keys = ("solves", "iterations", *KERNEL_CALLS, *(f"fp.{name}" for name in KERNEL_CALLS))
    print(f"# hspex from {Path(hspex.__file__).parent}")
    print(f"{'set':13s}" + "".join(f"{k:>12s}" for k in keys))
    for name, run in solve_sets(hspex):
        counts.clear()
        run()
        print(f"{name:13s}" + "".join(f"{counts[k]:12d}" for k in keys))
    return 0


if __name__ == "__main__":
    sys.exit(main())
