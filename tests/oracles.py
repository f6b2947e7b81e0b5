"""Slow reference implementations that tests compare the library against."""

from __future__ import annotations

from itertools import permutations

from hspex.hypergraph import Hypergraph


def isomorphic_bruteforce(g: Hypergraph, h: Hypergraph) -> bool:
    """Reference check: try all n! vertex bijections."""
    if g.n != h.n or g.r != h.r or g.m != h.m:
        return False
    h_edges = set(h.edges)
    for perm in permutations(range(g.n)):
        if all(tuple(sorted(perm[v] for v in e)) in h_edges for e in g.edges):
            return True
    return False


def set_partitions(items: list) -> list[list[list]]:
    """Every partition of the list `items` into nonempty blocks."""
    if not items:
        return [[]]
    head, rest = items[0], items[1:]
    out = []
    for blocks in set_partitions(rest):
        out.append([[head]] + blocks)
        for i in range(len(blocks)):
            out.append(blocks[:i] + [[head] + blocks[i]] + blocks[i + 1:])
    return out


def refines_bruteforce(mu, lam) -> bool:
    """Some grouping of the parts of mu has block sums equal to the parts of lam."""
    target = sorted(lam)
    return any(
        sorted(sum(block) for block in blocks) == target
        for blocks in set_partitions(list(mu))
    )
