"""Slow reference implementations that tests compare the library against."""

from __future__ import annotations

from itertools import combinations, permutations

from hspex.hypergraph import Hypergraph
from hspex.structure import (
    BridgeCertificate,
    TightnessCertificate,
    _check_k,
    _edge_masks,
    _uncut_edge_set,
)


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


def is_k_tight_bruteforce(g: Hypergraph, k: int) -> TightnessCertificate:
    """Reference k-tightness: try every proper vertex subset by size, then lex."""
    _check_k(g, k)
    masks = _edge_masks(g)
    for size in range(g.r, g.n):
        for combo in combinations(range(g.n), size):
            if _uncut_edge_set(masks, sum(1 << v for v in combo), k, g.r):
                return TightnessCertificate(False, k, combo)
    return TightnessCertificate(True, k)


def is_k_bridge_bruteforce(g: Hypergraph, e, k: int) -> BridgeCertificate:
    """Reference k-bridge test: try every bipartition (A, B) by A's size, then lex."""
    key = tuple(sorted(int(v) for v in e))
    _check_k(g, k)
    masks = _edge_masks(g)
    ekey_mask = sum(1 << v for v in key)
    full = (1 << g.n) - 1
    for size in range(1, g.n):
        for combo in combinations(range(g.n), size):
            amask = sum(1 << v for v in combo)
            bmask = full & ~amask
            if bin(ekey_mask & amask).count("1") < k or ekey_mask & bmask == 0:
                continue
            unique = True
            for em in masks:
                if em == ekey_mask:
                    continue
                if bin(em & amask).count("1") >= k and em & bmask:
                    unique = False
                    break
            if unique:
                b = tuple(v for v in range(g.n) if bmask >> v & 1)
                return BridgeCertificate(True, k, key, combo, b)
    return BridgeCertificate(False, k, key)
