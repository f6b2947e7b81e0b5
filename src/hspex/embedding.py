"""Subgraph containment for uniform hypergraphs by one backtracking search.

A search is compiled once into a host-independent `_Plan` and then run
against a host.  Pattern vertices are placed in descending pattern-degree
order (ties by id).  At each depth the candidates form one bit mask: the
allowed host vertices, degree-pruned, minus those already used, ANDed with
the host's link mask (``Hypergraph.links``) of the placed images of every
pattern edge completed at that depth.  Candidates are tried in ascending id
order, so the first witness found is deterministic ("lexicographically
first" under this fixed order).  A plan may list pattern r-sets that must
map to host non-edges (their link masks are masked out): induced
containment avoids the pattern's non-edges.  A plan may also place pinned
pattern vertices first, each run taking a sequence of placements, one host
vertex per pinned depth, tried in order.  The incremental copy check runs a
cached plan of the rest of the pattern per edge orbit, its edge pinned onto
the new host edge in one placement per class of its vertex orders: the
orbits of ordered edges under the automorphisms `canonical.canonical_form`
finds.  K3, C5 and K4^(3) need one placement, a rigid pattern all r!.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations
from operator import itemgetter
from typing import Collection, NamedTuple, Optional, Sequence

from .canonical import canonical_form, close_orbits
from .errors import UniformityMismatch
from .hypergraph import Hypergraph, _normalize_edge

Embedding = tuple[int, ...]  # phi[pattern vertex] = host vertex
Depths = tuple[tuple[int, ...], ...]  # per r-set: the depths of its other r - 1 vertices


class _Plan(NamedTuple):
    """A search with everything that does not depend on the host worked out."""

    order: tuple[int, ...]  # the pattern vertex placed at each depth, pinned ones first
    degree: tuple[int, ...]  # its pattern degree, a lower bound on its image's host degree,
    # or 0 where the edges it completes already force that bound through the link masks
    edges: tuple[Depths, ...]  # per depth: each pattern edge whose last vertex it places
    avoid: tuple[Depths, ...]  # per depth: the same for each r-set to map to a non-edge
    m: int  # pattern edges


def _compile(
    pattern: Hypergraph, pinned: Collection[int], avoid: Sequence[tuple[int, ...]] = ()
) -> _Plan:
    """The plan that places the ``pinned`` pattern vertices first."""
    pdeg = pattern.degree_list
    order = tuple(sorted(range(pattern.n), key=lambda v: (v not in pinned, -pdeg[v], v)))
    pos = {v: i for i, v in enumerate(order)}
    edges_at: list[list[tuple[int, ...]]] = [[] for _ in order]
    avoid_at: list[list[tuple[int, ...]]] = [[] for _ in order]
    for sets, at in ((pattern.edges, edges_at), (avoid, avoid_at)):
        for e in sets:
            *others, last = sorted(pos[v] for v in e)
            at[last].append(tuple(others))
    degree = tuple(0 if pdeg[v] <= len(at) else pdeg[v] for v, at in zip(order, edges_at))
    return _Plan(order, degree, tuple(map(tuple, edges_at)), tuple(map(tuple, avoid_at)),
                 pattern.m)


def _run(
    plan: _Plan, host: Hypergraph, placements: Sequence[Sequence[int]]
) -> Optional[Embedding]:
    """The first embedding of plan's pattern into host, or None.

    Each placement holds one host vertex per pinned depth.  They are tried
    in order, each one whose vertices pass the degree filter followed by a
    search of the other depths; unpinned callers pass ``((),)``.
    """
    order, pdeg, edges_at, avoid_at, m = plan
    pn, hn = len(order), host.n
    if pn > hn or m > host.m or not placements:
        return None
    link = host.links.get
    hdeg = host.degree_list
    pinned = len(placements[0])
    allowed = [0] * pinned
    for k in pdeg[pinned:]:
        allowed.append(sum(1 << w for w in range(hn) if hdeg[w] >= k) if k else (1 << hn) - 1)
    bits = [0] * pn  # bits[d] = 1 << (host image at depth d)
    image = bits.__getitem__

    def extend(depth: int, used: int) -> bool:
        if depth == pn:
            return True
        cand = allowed[depth] & ~used
        for others in edges_at[depth]:
            cand &= link(sum(map(image, others)), 0)
        for others in avoid_at[depth]:
            cand &= ~link(sum(map(image, others)), 0)
        while cand:
            low = cand & -cand
            bits[depth] = low
            if extend(depth + 1, used | low):
                return True
            cand ^= low
        return False

    for place in placements:
        if all(hdeg[w] >= k for w, k in zip(place, pdeg)):
            allowed[:pinned] = [1 << w for w in place]
            if extend(0, 0):
                phi = [0] * pn
                for v, b in zip(order, bits):
                    phi[v] = b.bit_length() - 1
                return tuple(phi)
    return None


def _search(
    host: Hypergraph, pattern: Hypergraph, avoid: Sequence[tuple[int, ...]] = ()
) -> Optional[Embedding]:
    """Injective edge-preserving map of pattern into host, or None; every
    r-set in ``avoid`` must map to a host non-edge."""
    return _run(_compile(pattern, (), avoid), host, ((),))


def contains_subgraph(
    host: Hypergraph, pattern: Hypergraph
) -> tuple[bool, Optional[Embedding]]:
    """(found, witness): injective map sending every pattern edge to a host edge."""
    if host.r != pattern.r:
        raise UniformityMismatch(f"r={host.r} vs r={pattern.r}")
    phi = _search(host, pattern)
    return (phi is not None, phi)


def _edge_classes(pattern: Hypergraph) -> list[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """The first edge f of each edge orbit of Aut(pattern), in ``pattern.edges``
    order, with the first vertex order of f in each orbit of ordered edges
    that meets f: one per class of f's orders under the automorphisms fixing f."""
    auts, seen, classes = canonical_form(pattern)[1], set(), []
    for e in pattern.edges:
        for t in permutations(e):  # e itself first: if it was seen, so was every order of it
            if t not in seen:
                if t == e:
                    classes.append((e, []))
                classes[-1][1].append(t)
                close_orbits(seen, [t], auts, lambda p, u: tuple(p[v] for v in u))
    return classes


@cache
def _orbit_pins(pattern: Hypergraph) -> tuple[tuple[_Plan, tuple[itemgetter, ...]], ...]:
    """For each edge orbit representative f, the plan of pattern - f with f
    pinned, and per recorded order t of f the placement that puts t[i] on
    the new edge's i-th vertex, as a getter of its pinned depths' images."""
    out = []
    for f, orders in _edge_classes(pattern):
        plan = _compile(pattern.remove_edge(f), f)
        pinned = plan.order[:len(f)]
        out.append((plan, tuple(itemgetter(*(t.index(v) for v in pinned)) for t in orders)))
    return tuple(out)


def creates_copy(host: Hypergraph, new_edge: tuple[int, ...], pattern: Hypergraph) -> bool:
    """Does host + ``new_edge`` hold a pattern copy that uses ``new_edge``?

    For each edge orbit's first edge f, pattern - f is searched in the host
    once, with f placed on the new edge e by each recorded order t* of f
    (t*[i] on the i-th vertex of sorted e).  This is exact for any host,
    pattern-free or not:

    - a copy in host + e that uses e maps exactly one pattern edge g onto
      e, and no other (it is injective);
    - composed with an automorphism σ with σ(f) = g, for f the first edge of
      g's orbit, it is a copy that maps f onto e;
    - composed further with an automorphism τ that fixes f and moves t*,
      the recorded order in its class, onto that copy's order of f (the
      order whose i-th vertex it sends to e's i-th), it is a copy that
      places t* on e.

    So a search for pattern - f in the host from placement t* decides the
    check.  The orders of f fall into r!/|G_f| classes, G_f the group the
    automorphisms fixing f induce on it: one for K3, C5 and K4^(3), r! for
    a rigid pattern.
    """
    if host.r != pattern.r:
        raise UniformityMismatch(f"r={host.r} vs r={pattern.r}")
    e = _normalize_edge(new_edge, host.r, host.n)
    return any(_run(plan, host, [get(e) for get in places]) is not None
               for plan, places in _orbit_pins(pattern))


def contains_induced_subgraph(
    host: Hypergraph, pattern: Hypergraph
) -> tuple[bool, Optional[Embedding]]:
    """Induced containment: the image's induced edge set equals the mapped pattern edges."""
    if host.r != pattern.r:
        raise UniformityMismatch(f"r={host.r} vs r={pattern.r}")
    present = set(pattern.edges)
    non_edges = [e for e in combinations(range(pattern.n), pattern.r) if e not in present]
    phi = _search(host, pattern, avoid=non_edges)
    return (phi is not None, phi)


def labeled_copy_edge_sets(
    pattern: Hypergraph, n: int
) -> list[frozenset[tuple[int, ...]]]:
    """All distinct edge-set images of pattern under injections into [0, n).

    Used to precompile forbidden families for the enumeration sweep.  An
    injection must place every pattern vertex (isolated ones included), so
    patterns larger than n yield no copies.
    """
    if pattern.n > n:
        return []
    out: set[frozenset[tuple[int, ...]]] = set()
    for image in permutations(range(n), pattern.n):
        out.add(
            frozenset(tuple(sorted(image[v] for v in e)) for e in pattern.edges)
        )
    return sorted(out, key=lambda s: sorted(s))
