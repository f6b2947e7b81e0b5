"""Subgraph containment for uniform hypergraphs by one backtracking search.

`_search` maps pattern vertices in descending pattern-degree order (ties
by id), trying host candidates in ascending id order with degree pruning,
so the first witness found is deterministic ("lexicographically first"
under this fixed order).  Two optional constraints serve every caller:
``fixed`` pins pattern vertices to tuples of allowed host vertices (placed
first), and ``avoid`` lists pattern r-sets that must map to host non-edges.
Plain containment and isomorphism use neither, induced containment avoids
the pattern's non-edges, and the incremental copy check searches the rest
of the pattern after pinning one edge per orbit onto the new host edge.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations
from typing import Optional, Sequence

from .errors import UniformityMismatch
from .hypergraph import Hypergraph, _normalize_edge

Embedding = tuple[int, ...]  # phi[pattern vertex] = host vertex


def _search(
    host: Hypergraph,
    pattern: Hypergraph,
    fixed: Optional[dict[int, Sequence[int]]] = None,
    avoid: Sequence[tuple[int, ...]] = (),
) -> Optional[Embedding]:
    """Injective edge-preserving map of pattern into host, or None.

    ``fixed`` maps a pinned pattern vertex to the host vertices it may take;
    every r-set in ``avoid`` must map to a host non-edge.
    """
    hn, pn = host.n, pattern.n
    if pn > hn or pattern.m > host.m:
        return None
    fixed = fixed or {}
    host_masks = host.edge_masks
    pdeg = pattern.degree_list
    hdeg = host.degree_list
    order = sorted(range(pn), key=lambda v: (v not in fixed, -pdeg[v], v))
    pos = {v: i for i, v in enumerate(order)}
    choices = [fixed.get(v, range(hn)) for v in order]
    # an r-set becomes checkable once its last vertex (in `order`) is placed
    edges_at: list[list[tuple[int, ...]]] = [[] for _ in range(pn)]
    avoid_at: list[list[tuple[int, ...]]] = [[] for _ in range(pn)]
    for sets, at in ((pattern.edges, edges_at), (avoid, avoid_at)):
        for e in sets:
            at[max(pos[v] for v in e)].append(e)

    phi = [-1] * pn
    bit = [0] * pn  # bit[v] = 1 << phi[v]: an r-set's image mask is the sum of its bits
    image = bit.__getitem__
    used = [False] * hn

    def feasible(depth: int) -> bool:
        for e in edges_at[depth]:
            if sum(map(image, e)) not in host_masks:
                return False
        for e in avoid_at[depth]:
            if sum(map(image, e)) in host_masks:
                return False
        return True

    def extend(depth: int) -> bool:
        if depth == pn:
            return True
        v = order[depth]
        for w in choices[depth]:
            if used[w] or hdeg[w] < pdeg[v]:
                continue
            phi[v] = w
            bit[v] = 1 << w
            used[w] = True
            if feasible(depth) and extend(depth + 1):
                return True
            used[w] = False
            phi[v] = -1
        return False

    if extend(0):
        return tuple(phi)
    return None


def contains_subgraph(
    host: Hypergraph, pattern: Hypergraph
) -> tuple[bool, Optional[Embedding]]:
    """(found, witness): injective map sending every pattern edge to a host edge."""
    if host.r != pattern.r:
        raise UniformityMismatch(f"r={host.r} vs r={pattern.r}")
    phi = _search(host, pattern)
    return (phi is not None, phi)


def _edge_orbit_reps(pattern: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """The first edge of each edge orbit of Aut(pattern), in ``pattern.edges`` order.

    An injective edge-preserving self-map is an automorphism (both sides
    have m edges), so f and g share an orbit iff pinning f onto g as a
    vertex set finds a self-map.
    """
    reps: list[tuple[int, ...]] = []
    for g in pattern.edges:
        if not any(_search(pattern, pattern, dict.fromkeys(f, g)) is not None for f in reps):
            reps.append(g)
    return tuple(reps)


@cache
def _orbit_pins(pattern: Hypergraph) -> tuple[tuple[tuple[int, ...], Hypergraph], ...]:
    """Each edge orbit representative f of pattern with pattern - f."""
    return tuple((f, pattern.remove_edge(f)) for f in _edge_orbit_reps(pattern))


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
    key = _normalize_edge(new_edge, host.r, host.n)
    return any(_search(host, rest, dict.fromkeys(f, key)) is not None
               for f, rest in _orbit_pins(pattern))


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
