"""Shared fixtures and small graph constructors for the test suite."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from hspex.hypergraph import Hypergraph, complete_r_graph, new_hypergraph


def path3() -> Hypergraph:
    return new_hypergraph(3, 2, [(0, 1), (1, 2)])


def path4() -> Hypergraph:
    return new_hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])


def path5() -> Hypergraph:
    return new_hypergraph(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4)])


def cycle(n: int) -> Hypergraph:
    return new_hypergraph(n, 2, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Hypergraph:
    return new_hypergraph(a + b, 2, [(i, a + j) for i in range(a) for j in range(b)])


def triple_edge() -> Hypergraph:
    """Single 3-edge on 3 vertices."""
    return new_hypergraph(3, 3, [(0, 1, 2)])


def bowtie3() -> Hypergraph:
    """3-uniform bowtie: two edges sharing a pair plus one hanging off."""
    return new_hypergraph(6, 3, [(0, 1, 2), (0, 1, 3), (2, 4, 5)])


def random_graph(n: int, r: int, density: float, rng: random.Random) -> Hypergraph:
    edges = [e for e in combinations(range(n), r) if rng.random() < density]
    return Hypergraph(n, r, tuple(edges))


def labeled_graphs(n: int, r: int):
    """Every labeled r-graph on n vertices, in ascending mask order: the graph
    of a mask holds the i-th r-set in lex order iff bit i is set."""
    cand = list(combinations(range(n), r))
    for mask in range(1 << len(cand)):
        yield Hypergraph(n, r, tuple(e for i, e in enumerate(cand) if mask >> i & 1))


def relabel(g: Hypergraph, perm: list[int]) -> Hypergraph:
    return Hypergraph(
        g.n, g.r, tuple(tuple(sorted(perm[v] for v in e)) for e in g.edges)
    )


def random_positive_weights(n: int, rng: random.Random) -> list[float]:
    return [rng.uniform(0.05, 1.0) for _ in range(n)]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260808)


@pytest.fixture
def k3() -> Hypergraph:
    return complete_r_graph(3, 2)


@pytest.fixture
def k4_3() -> Hypergraph:
    return complete_r_graph(4, 3)
