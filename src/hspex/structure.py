"""Decision procedures with certificates: k-tightness, k-bridges, lambda-plateaus.

Every witness is the first valid vertex set in a fixed order (increasing
size, then lexicographic), so certificates are reproducible.  The k-tightness
and k-bridge deciders find it among a few k-closures instead of searching
all vertex subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from numbers import Integral
from typing import Iterable, Optional

from .errors import (
    BadK,
    EmptyGraph,
    TargetMismatch,
    TrivialPartition,
)
from .hypergraph import Hypergraph, _integers, _k_closure, _vertices

Partition = tuple[int, ...]


# --- integer partitions -------------------------------------------------------


def validate_partition(parts, r: Optional[int] = None) -> Partition:
    """Normalize-check a partition: positive nonincreasing parts (of r if given)."""
    p = _integers(parts, TargetMismatch, "part")
    if not p or any(x < 1 for x in p):
        raise TargetMismatch(f"{p} has non-positive parts")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise TargetMismatch(f"{p} is not nonincreasing")
    if r is not None and sum(p) != r:
        raise TargetMismatch(f"{p} sums to {sum(p)}, expected {r}")
    return p


def partitions_of(r: int, min_largest: int = 1, max_largest: Optional[int] = None) -> list[Partition]:
    """All partitions of r with largest part in [min_largest, max_largest],
    in descending lexicographic order."""
    if max_largest is None:
        max_largest = r
    r, min_largest, max_largest = _integers((r, min_largest, max_largest), TargetMismatch, "size")
    out: list[Partition] = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    for first in range(min(r, max_largest), max(min_largest, 1) - 1, -1):
        rec(r - first, first, (first,))
    return out


def refines(mu, lam) -> bool:
    """True iff the parts of lam can be subdivided into the parts of mu."""
    mu = validate_partition(mu)
    lam = validate_partition(lam)
    if sum(mu) != sum(lam):
        raise TargetMismatch(f"{mu} and {lam} partition different integers")
    return _pack(sorted(mu, reverse=True), lam) is not None


def _pack(items: list[int], capacities) -> Optional[list[int]]:
    """Backtracking bin packing that fills every bin exactly.

    Returns the bin index of each item (the first packing in search order:
    items in the order given, bins in index order), or None.
    """
    bins = list(capacities)
    where: list[int] = []

    def place(i: int) -> bool:
        if i == len(items):
            return all(b == 0 for b in bins)
        w = items[i]
        tried = set()
        for j, cap in enumerate(bins):
            if cap >= w and cap not in tried:
                tried.add(cap)  # bins with equal remaining capacity are symmetric
                bins[j] -= w
                where.append(j)
                if place(i + 1):
                    return True
                where.pop()
                bins[j] += w
        return False

    return where if place(0) else None


# --- certificates ---------------------------------------------------------------


@dataclass(frozen=True)
class TightnessCertificate:
    """result=True means k-tight; otherwise `witness` is a violating vertex set."""

    result: bool
    k: int
    witness: Optional[tuple[int, ...]] = None

    def to_json_dict(self) -> dict:
        return {
            "property": "k-tight",
            "k": self.k,
            "result": self.result,
            "witness": list(self.witness) if self.witness is not None else None,
        }


@dataclass(frozen=True)
class BridgeCertificate:
    """result=True means the edge is a k-bridge; witness is the bipartition (A, B)."""

    result: bool
    k: int
    edge: tuple[int, ...]
    witness_a: Optional[tuple[int, ...]] = None
    witness_b: Optional[tuple[int, ...]] = None

    def to_json_dict(self) -> dict:
        return {
            "property": "k-bridge",
            "k": self.k,
            "edge": list(self.edge),
            "result": self.result,
            "A": list(self.witness_a) if self.witness_a is not None else None,
            "B": list(self.witness_b) if self.witness_b is not None else None,
        }


def _check_k(g: Hypergraph, k: int) -> None:
    if not isinstance(k, Integral):  # numpy integers are Integral too
        raise BadK(f"k={k!r} is not an integer")
    if not 1 <= k <= g.r - 1:
        raise BadK(f"k={k} outside [1, {g.r - 1}]")


def _size_lex(u: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (len(u), u)


def _uncut_edge_set(masks: Iterable[int], umask: int, k: int, r: int) -> bool:
    """Does umask induce an edge while no edge meets it in k..r-1 vertices?"""
    for em in masks:
        if em & umask == em:
            break
    else:
        return False  # does not induce an edge
    for em in masks:
        if k <= (em & umask).bit_count() <= r - 1:
            return False
    return True


def tightness_violation_holds(g: Hypergraph, k: int, subset) -> bool:
    """Raw-definition recheck: does this proper edge-containing subset witness
    failure of k-tightness (no edge meets it in k..r-1 vertices)?"""
    u = set(_vertices(subset, g.n))
    if not u or len(u) >= g.n:
        return False
    return _uncut_edge_set(g.edge_masks, sum(1 << v for v in u), k, g.r)


def is_k_tight(g: Hypergraph, k: int) -> TightnessCertificate:
    """k-tightness decision, certified by the first failing set.

    The graph is k-tight iff every proper vertex subset that contains an
    edge is met by some edge in between k and r-1 vertices.  The witness is
    the first failing subset by size, then lexicographic order.  It is the
    first k-closure of an edge that is not all of V: a failing set contains
    the closure of each edge inside it, and such a closure is itself failing.
    A closure stops once it is V, or once it holds the last edge whose
    closure was V (it then contains that closure).
    """
    if g.m == 0:
        raise EmptyGraph("k-tightness is defined for graphs with an edge")
    _check_k(g, k)
    proper = []
    goal = range(g.n)
    for e in g.edges:
        u = _k_closure(g.edge_masks, g.incidence, e, k, goal=goal)
        if u is None:
            goal = e
        else:
            proper.append(u)
    witness = min(proper, key=_size_lex, default=None)
    return TightnessCertificate(witness is None, k, witness)


def is_k_bridge(g: Hypergraph, e, k: int) -> BridgeCertificate:
    """Is e the unique edge with >= k vertices in A and >= 1 in B, for some
    bipartition (A, B)?  The witness A is the first valid side by size, then
    lex order: the first k-closure in H - e of a k-subset of e that misses a
    vertex of e (a valid A contains such a closure, which is valid itself).
    A closure stops once it holds all of e."""
    skip = g._edge_index(e)
    _check_k(g, k)
    key = g.edges[skip]
    masks, inc = g.edge_masks, g.incidence
    closures = (_k_closure(masks, inc, s, k, skip, key) for s in combinations(key, k))
    a = min((u for u in closures if u is not None), key=_size_lex, default=None)
    b = None if a is None else tuple(sorted(set(range(g.n)).difference(a)))
    return BridgeCertificate(a is not None, k, key, a, b)


def find_k_bridges(g: Hypergraph, k: int) -> list[BridgeCertificate]:
    """Certificates for every edge that is a k-bridge."""
    out = []
    for e in g.edges:
        cert = is_k_bridge(g, e, k)
        if cert.result:
            out.append(cert)
    return out


# --- plateaus -------------------------------------------------------------------


def is_lambda_plateau(
    h: Hypergraph, e, lam
) -> tuple[bool, Optional[list[tuple[tuple[int, ...], ...]]]]:
    """Is e a lambda-plateau: can the components of H - e (vertices kept) be
    grouped so the groups meet e in exactly the parts of lam?

    Returns (result, grouping) where grouping lists, per part of lam, the
    component vertex sets assigned to it.  Components disjoint from e may
    join any group.
    """
    lam = validate_partition(lam, r=h.r)
    if len(lam) < 2:
        raise TrivialPartition("a plateau requires a nontrivial partition")
    eset = set(h.edges[h._edge_index(e)])
    comps = h.remove_edge(e).components()
    weights = [len(eset.intersection(c)) for c in comps]
    positive = [(w, c) for w, c in zip(weights, comps) if w > 0]
    zero = [c for w, c in zip(weights, comps) if w == 0]

    where = _pack([w for w, _ in positive], lam)
    if where is None:
        return (False, None)
    assignment: list[list[tuple[int, ...]]] = [[] for _ in lam]
    for (_, comp), j in zip(positive, where):
        assignment[j].append(comp)
    if zero:
        assignment[0].extend(zero)
    return (True, [tuple(group) for group in assignment])


def find_plateaus(h: Hypergraph, lam) -> list[tuple[int, ...]]:
    """Edges of h that are lambda-plateaus, in stored edge order."""
    return [e for e in h.edges if is_lambda_plateau(h, e, lam)[0]]


def is_k_plateaued(h: Hypergraph, k: int) -> tuple[bool, list[Partition]]:
    """h is k-plateaued iff every partition of r with largest part in
    [k, r-1] has a plateau edge; returns the missing partitions otherwise."""
    _check_k(h, k)
    missing = [
        lam
        for lam in partitions_of(h.r, k, h.r - 1)
        if not find_plateaus(h, lam)
    ]
    return (not missing, missing)
