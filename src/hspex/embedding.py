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
pattern vertices first, each run taking their allowed host vertices: the
incremental copy check runs a cached plan of the rest of the pattern after
pinning one edge per orbit onto the new host edge, with the edge orbits
closed under the automorphisms `canonical.canonical_form` finds.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations
from typing import Collection, Iterable, NamedTuple, Optional, Sequence

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


def _run(plan: _Plan, host: Hypergraph, pins: Sequence[Iterable[int]]) -> Optional[Embedding]:
    """The first embedding of plan's pattern into host, or None.

    ``pins[d]`` holds the host vertices allowed at pinned depth d.
    """
    order, pdeg, edges_at, avoid_at, m = plan
    pn, hn = len(order), host.n
    if pn > hn or m > host.m:
        return None
    link = host.links.get
    hdeg = host.degree_list
    allowed = [sum(1 << w for w in pin if hdeg[w] >= k) for pin, k in zip(pins, pdeg)]
    for k in pdeg[len(pins):]:
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

    if not extend(0, 0):
        return None
    phi = [0] * pn
    for v, b in zip(order, bits):
        phi[v] = b.bit_length() - 1
    return tuple(phi)


def _search(
    host: Hypergraph, pattern: Hypergraph, avoid: Sequence[tuple[int, ...]] = ()
) -> Optional[Embedding]:
    """Injective edge-preserving map of pattern into host, or None; every
    r-set in ``avoid`` must map to a host non-edge."""
    return _run(_compile(pattern, (), avoid), host, ())


def contains_subgraph(
    host: Hypergraph, pattern: Hypergraph
) -> tuple[bool, Optional[Embedding]]:
    """(found, witness): injective map sending every pattern edge to a host edge."""
    if host.r != pattern.r:
        raise UniformityMismatch(f"r={host.r} vs r={pattern.r}")
    phi = _search(host, pattern)
    return (phi is not None, phi)


def _edge_orbit_reps(pattern: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """The first edge of each edge orbit of Aut(pattern), in ``pattern.edges`` order."""
    auts, seen, reps = canonical_form(pattern)[1], set(), []
    for e in pattern.edges:
        if e not in seen:
            reps.append(e)
            close_orbits(seen, [e], auts, lambda p, f: tuple(sorted(p[v] for v in f)))
    return tuple(reps)


@cache
def _orbit_pins(pattern: Hypergraph) -> tuple[_Plan, ...]:
    """For each edge orbit representative f, the plan of pattern - f with f pinned."""
    return tuple(_compile(pattern.remove_edge(f), f) for f in _edge_orbit_reps(pattern))


def creates_copy(host: Hypergraph, new_edge: tuple[int, ...], pattern: Hypergraph) -> bool:
    """Does host + ``new_edge`` hold a pattern copy that uses ``new_edge``?

    Such a copy maps one pattern edge f onto the new edge, and no other (it
    is injective), so pattern - f is searched in the host with f pinned onto
    the new edge as a vertex set.  A copy pinning g composed with an
    automorphism sending f onto g pins f, so one f per edge orbit suffices.
    Exact for any host, pattern-free or not.
    """
    if host.r != pattern.r:
        raise UniformityMismatch(f"r={host.r} vs r={pattern.r}")
    pins = (_normalize_edge(new_edge, host.r, host.n),) * host.r
    return any(_run(plan, host, pins) is not None for plan in _orbit_pins(pattern))


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
