"""Exact canonical forms for small hypergraphs.

The canonical form is the lexicographically least relabeled edge list over
all permutations compatible with an iteratively refined vertex coloring
(individualization-refinement).  Refinement colors are isomorphism
invariants, so restricting the search to color-preserving permutations is
exact: equal keys iff isomorphic.  Intended for desk scale (n up to ~10).

There is no automorphism pruning, so a form visits about |Aut(G)| leaves
(2 * 4! * 4! = 1152 for K_{4,4}).  Keys are therefore used only where their
bytes are the result: the `argmax_key(s)` strings of reports and the CLI,
and the public API; the sweep cache is keyed on the family value.  The sweeps
group masks into isomorphism classes with `families._orbit_classes`, which
labels S_n-orbits and makes no isomorphism test; `families.isomorphic`
compares `refinement_signature`s and settles equal ones by one embedding
search.
"""

from __future__ import annotations

from .hypergraph import Hypergraph


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


def _relabeled_edges(g: Hypergraph, perm: list[int]) -> tuple[tuple[int, ...], ...]:
    """Edge list under vertex relabeling v -> perm[v], renormalized sorted."""
    return tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in g.edges))


def canonical_form(g: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least relabeled edge list over admissible labelings."""
    n = g.n
    if n == 0 or not g.edges:
        return ()
    best: list[tuple[tuple[int, ...], ...]] = []

    def descend(colors: list[int]) -> None:
        classes: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            classes.setdefault(c, []).append(v)
        target = None
        for c in sorted(classes):
            if len(classes[c]) > 1:
                target = classes[c]
                break
        if target is None:
            # discrete coloring: vertex with color rank i gets label i
            perm = [0] * n
            for v in range(n):
                perm[v] = colors[v]
            cand = _relabeled_edges(g, perm)
            if not best or cand < best[0]:
                best[:] = [cand]
            return
        for v in target:
            branched = list(colors)
            branched[v] = -1  # individualize: strictly smallest color
            sub = _refine(g, _rerank(branched))
            descend(sub)

    descend(_refine(g, [0] * n))
    return best[0]


def _rerank(colors: list[int]) -> list[int]:
    order = {c: i for i, c in enumerate(sorted(set(colors)))}
    return [order[c] for c in colors]


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
    form = canonical_form(g)
    parts = [g.n, g.r, len(form)]
    for e in form:
        parts.extend(e)
    return b"\x00".join(str(x).encode() for x in parts)


def canonical_key_string(g: Hypergraph) -> str:
    """Human-readable form of the canonical key (colon-separated fields)."""
    return canonical_key(g).replace(b"\x00", b":").decode()


def canonical_relabeling(g: Hypergraph) -> Hypergraph:
    """The canonical representative itself (same n, r; relabeled edges)."""
    return Hypergraph(g.n, g.r, canonical_form(g))

