"""Canonical keys: relabeling invariance and exact separation at small n."""

import random

from hspex.canonical import (
    canonical_key,
    canonical_relabeling,
    refinement_signature,
)
from hspex.hypergraph import Hypergraph, complete_r_graph
from conftest import cycle, path3, random_graph, relabel
from oracles import isomorphic_bruteforce


def test_key_invariant_under_relabeling():
    rng = random.Random(5)
    for _ in range(50):
        r = rng.choice([2, 3])
        g = random_graph(6, r, 0.4, rng)
        perm = list(range(6))
        rng.shuffle(perm)
        assert canonical_key(g) == canonical_key(relabel(g, perm))


def test_key_separates_small_cases():
    p3 = path3()
    plus_isolated = Hypergraph(3, 2, ((0, 1),))
    assert canonical_key(p3) != canonical_key(plus_isolated)
    assert canonical_key(cycle(4)) != canonical_key(path3())
    assert canonical_key(complete_r_graph(3, 2)) != canonical_key(p3)


def test_key_encodes_size():
    a = Hypergraph(3, 2, ())
    b = Hypergraph(4, 2, ())
    assert canonical_key(a) != canonical_key(b)


def test_key_matches_bruteforce_on_random_pairs():
    """500 random pairs at n <= 6: key equality iff permutation isomorphism."""
    rng = random.Random(99)
    for _ in range(500):
        n = rng.randint(3, 6)
        g = random_graph(n, 2, rng.uniform(0.2, 0.8), rng)
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabel(g, perm)
        else:
            h = random_graph(n, 2, rng.uniform(0.2, 0.8), rng)
        assert (canonical_key(g) == canonical_key(h)) == isomorphic_bruteforce(g, h)


def test_key_matches_bruteforce_n7_sample():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(7, 2, 0.45, rng)
        h = random_graph(7, 2, 0.45, rng)
        assert (canonical_key(g) == canonical_key(h)) == isomorphic_bruteforce(g, h)


def test_key_matches_bruteforce_3uniform():
    rng = random.Random(13)
    for _ in range(120):
        g = random_graph(5, 3, 0.35, rng)
        h = random_graph(5, 3, 0.35, rng)
        assert (canonical_key(g) == canonical_key(h)) == isomorphic_bruteforce(g, h)


def test_key_matches_bruteforce_3uniform_n6():
    rng = random.Random(29)
    for _ in range(50):
        g = random_graph(6, 3, 0.25, rng)
        if rng.random() < 0.5:
            perm = list(range(6))
            rng.shuffle(perm)
            h = relabel(g, perm)
        else:
            h = random_graph(6, 3, 0.25, rng)
        assert (canonical_key(g) == canonical_key(h)) == isomorphic_bruteforce(g, h)


def test_canonical_relabeling_is_isomorphic_representative():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(6, 2, 0.5, rng)
        rep = canonical_relabeling(g)
        assert canonical_key(rep) == canonical_key(g)
        assert isomorphic_bruteforce(rep, g)


def test_refinement_signature_is_invariant():
    rng = random.Random(17)
    for _ in range(50):
        g = random_graph(6, 2, 0.5, rng)
        perm = list(range(6))
        rng.shuffle(perm)
        assert refinement_signature(g) == refinement_signature(relabel(g, perm))
