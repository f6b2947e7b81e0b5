"""Exact canonical forms and automorphisms of small hypergraphs.

The canonical form is the lexicographically least relabeled edge list over
all permutations compatible with an iteratively refined vertex coloring
(individualization-refinement).  Refinement colors are isomorphism
invariants, so restricting the search to color-preserving permutations is
exact: equal keys iff isomorphic.  Intended for desk scale (n up to ~10).

A leaf whose edge list ties the best one gives an automorphism, and a node
skips each child that the automorphisms fixing its individualized vertices
map onto a child already tried, whose subtree is the skipped one's image
(McKay & Piperno, *Practical graph isomorphism II*, 2014).  The found
automorphisms generate Aut(G); K8 visits 29 leaves, not 8!, and `embedding`
reads edge orbits from them.  The sweeps group masks into isomorphism
classes with `families._orbit_classes`, which labels S_n-orbits with no
isomorphism test; `families.isomorphic` compares `refinement_signature`s
and settles equal ones by one embedding search.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .hypergraph import Hypergraph

Form = tuple[tuple[int, ...], ...]


def _refine(g: Hypergraph, colors: list[int]) -> list[int]:
    """Iteratively refine vertex colors by edge color-profiles until stable.

    A vertex's new color is (old color, sorted multiset of the color
    multisets of its edges' other endpoints).  Colors are renumbered by
    sorted signature rank each round, which is itself invariant.
    """
    n = g.n
    while True:
        sigs = []
        for v in range(n):
            profile = sorted(
                tuple(sorted(colors[w] for w in e if w != v))
                for e in g.edges
                if v in e
            )
            sigs.append((colors[v], tuple(profile)))
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _relabeled_edges(g: Hypergraph, perm: list[int]) -> Form:
    """Edge list under vertex relabeling v -> perm[v], renormalized sorted."""
    return tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in g.edges))


def close_orbits(seen: set, starts: Iterable, perms: Sequence, act: Callable) -> None:
    """Add to ``seen`` the orbits of ``starts`` under ``perms``; act(p, x) is x's image."""
    work = list(starts)
    seen.update(work)
    while work:
        x = work.pop()
        for p in perms:
            y = act(p, x)
            if y not in seen:
                seen.add(y)
                work.append(y)


def canonical_form(g: Hypergraph) -> tuple[Form, tuple[tuple[int, ...], ...]]:
    """The lexicographically least relabeled edge list over admissible
    labelings, and automorphisms (v -> aut[v]) that generate Aut(g)."""
    best: list = []  # [form, vertex of each label]
    auts: list[tuple[int, ...]] = []

    def descend(colors: list[int], prefix: tuple[int, ...]) -> None:
        classes: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            classes.setdefault(c, []).append(v)
        target = next((vs for _, vs in sorted(classes.items()) if len(vs) > 1), None)
        if target is None:
            # discrete coloring: vertex v gets label colors[v]
            cand = _relabeled_edges(g, colors)
            if not best or cand < best[0]:
                best[:] = [cand, sorted(range(g.n), key=colors.__getitem__)]
            elif cand == best[0]:
                auts.append(tuple(best[1][c] for c in colors))
            return
        seen: set[int] = set()
        for v in target:
            if v in seen:
                continue
            branched = [c + 1 for c in colors]
            branched[v] = 0  # individualize: strictly smallest color
            descend(_refine(g, branched), prefix + (v,))
            fixing = [a for a in auts if all(a[u] == u for u in prefix)]
            close_orbits(seen, [*seen, v], fixing, tuple.__getitem__)

    descend(_refine(g, [0] * g.n), ())
    return best[0], tuple(auts)


def refinement_signature(g: Hypergraph) -> tuple:
    """Cheap isomorphism invariant: size signature plus refined color histogram.

    Equal for isomorphic graphs; collisions across classes are possible and
    must be settled by an exact test.
    """
    colors = _refine(g, [0] * g.n)
    degs = g.degrees()
    return (
        g.n,
        g.r,
        g.m,
        tuple(sorted(zip(colors, degs))),
    )


def canonical_key(g: Hypergraph) -> bytes:
    """Isomorphism-invariant byte key; equal keys iff isomorphic graphs."""
    form = canonical_form(g)[0]
    parts = [g.n, g.r, len(form)]
    for e in form:
        parts.extend(e)
    return b"\x00".join(str(x).encode() for x in parts)


def canonical_key_string(g: Hypergraph) -> str:
    """Human-readable form of the canonical key (colon-separated fields)."""
    return canonical_key(g).replace(b"\x00", b":").decode()


def canonical_relabeling(g: Hypergraph) -> Hypergraph:
    """The canonical representative itself (same n, r; relabeled edges)."""
    return Hypergraph(g.n, g.r, canonical_form(g)[0])

