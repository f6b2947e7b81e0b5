"""Count the embedding search's work on the benchmark's certify mix.

    python3 scripts/search_calls.py [--src DIR]

Imports the hspex package found in DIR (default: this checkout's src/) and
runs, for each seed 401-410, one round of the certify mix through the
public API: five cycles of random-order saturate of the empty graph in
F({H}), then is_k_tight and find_k_bridges, for H = K3 on 12 vertices
(k = 1), C5 on 11 (k = 1) and K4^(3) on 9 (k = 1 and k = 2), each
saturation seeded from random.Random(seed) as the benchmark seeds it.

Per round it prints the Python calls, counted by function name among the
package's own frames (``sys.setprofile``), of:

  creates_copy     the incremental copy checks saturate makes
  _run             plan runs of the embedding search
  extend           search nodes (the recursive step of ``_run``)
  _normalize_edge  edge validations
  _k_closure       k-closures of the structure deciders

and then the mean over the rounds.  Counting by name, not by wrapping,
works on any tree, whatever the signatures.  None of these counts depends
on the machine.  Uses only the stdlib.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

SEEDS = range(401, 411)
CYCLES = 5
NAMES = ("creates_copy", "_run", "extend", "_normalize_edge", "_k_closure")


def certify_mix(hspex) -> list:
    """(H, k, n) per op of a cycle, as in perfbench/workloads.py CERTIFY_MIX."""
    k3, k4_3 = hspex.complete_r_graph(3, 2), hspex.complete_r_graph(4, 3)
    c5 = hspex.new_hypergraph(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    return [(k3, 1, 12), (c5, 1, 11), (k4_3, 1, 9), (k4_3, 2, 9)]


def certify_round(hspex, mix: list, seed: int) -> None:
    """One round of the benchmark's certify workload for this seed, unchecked."""
    rng = random.Random(seed)
    for _ in range(CYCLES):
        for h, k, n in mix:
            fam = hspex.ForbiddenFamily((h,))
            g = hspex.saturate(fam, hspex.Hypergraph(n, h.r), order="random",
                               seed=rng.randrange(2**31))
            hspex.is_k_tight(g, k)
            hspex.find_k_bridges(g, k)


def counted(run, package: str) -> Counter:
    """The calls of NAMES that run() makes in files under `package`."""
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_name in NAMES and code.co_filename.startswith(package):
                counts[code.co_name] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                    help="directory that holds the hspex package")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    import hspex

    package = str(Path(hspex.__file__).parent)
    mix = certify_mix(hspex)  # built outside the counted rounds, as the benchmark does
    total: Counter = Counter()
    print(f"# hspex from {package}")
    print(f"{'seed':6s}" + "".join(f"{k:>17s}" for k in NAMES))
    for seed in SEEDS:
        counts = counted(lambda: certify_round(hspex, mix, seed), package)
        total.update(counts)
        print(f"{seed:<6d}" + "".join(f"{counts[k]:17d}" for k in NAMES))
    print(f"{'mean':6s}" + "".join(f"{total[k] / len(SEEDS):17.1f}" for k in NAMES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
