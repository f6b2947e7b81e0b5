"""Canonical keys: relabeling invariance and exact separation at small n;
the pruned search against the unpruned one, and the automorphisms it finds."""

import random
from itertools import combinations, permutations

import pytest

from hspex import canonical
from hspex.canonical import (
    canonical_form,
    canonical_key,
    canonical_relabeling,
    close_orbits,
    refinement_signature,
)
from hspex.hypergraph import Hypergraph, complete_r_graph
from conftest import cycle, path3, random_graph, relabel
from oracles import canonical_form_unpruned, canonical_key_unpruned, isomorphic_bruteforce


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


def all_small_graphs():
    """Every labeled r-graph on n <= 5 vertices for r = 2, 3, 4."""
    for r in (2, 3, 4):
        for n in range(6):
            cand = list(combinations(range(n), r))
            for mask in range(1 << len(cand)):
                yield Hypergraph(n, r, tuple(e for i, e in enumerate(cand) if mask >> i & 1))


@pytest.fixture(scope="module")
def small_forms():
    return [(g, canonical_form(g)) for g in all_small_graphs()]


def test_forms_and_keys_match_unpruned_oracle(small_forms):
    """Pruning skips only automorphic images of searched subtrees, so every
    form and key equals the unpruned search's."""
    assert len(small_forms) == 2183
    for g, (form, _) in small_forms:
        assert form == canonical_form_unpruned(g), g
        assert canonical_key(g) == canonical_key_unpruned(g), g


def test_found_automorphisms_are_automorphisms(small_forms):
    for g, (_, auts) in small_forms:
        for aut in auts:
            assert sorted(aut) == list(range(g.n)), (g, aut)
            assert {tuple(sorted(aut[v] for v in e)) for e in g.edges} == g.edge_set, (g, aut)


def test_found_automorphisms_give_vertex_orbits(small_forms):
    """The orbits of the found automorphisms are those of Aut(g) taken from
    every permutation, so they generate a group with Aut(g)'s orbits."""
    for g, (_, auts) in small_forms:
        every = [
            p for p in permutations(range(g.n))
            if {tuple(sorted(p[v] for v in e)) for e in g.edges} == g.edge_set
        ]
        for v in range(g.n):
            orbit: set[int] = set()
            close_orbits(orbit, [v], auts, tuple.__getitem__)
            assert orbit == {p[v] for p in every}, (g, v)


@pytest.mark.parametrize(
    "g",
    [
        complete_r_graph(2, 2).blow_up([4, 4]),  # K_{4,4}: |Aut| = 1152
        complete_r_graph(6, 3),  # |Aut| = 720
        complete_r_graph(7, 2),  # |Aut| = 5040
        complete_r_graph(8, 2),  # |Aut| = 40320
    ],
)
def test_symmetric_graphs_visit_few_leaves(g, monkeypatch):
    """Unpruned, a form visits about |Aut(g)| leaves; pruned, at most n^2."""
    leaves = []
    relabeled = canonical._relabeled_edges

    def counted(h, perm):
        leaves.append(perm)
        return relabeled(h, perm)

    monkeypatch.setattr(canonical, "_relabeled_edges", counted)
    canonical_form(g)
    assert 0 < len(leaves) <= g.n ** 2
