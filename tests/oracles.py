"""Slow reference implementations that tests compare the library against."""

from __future__ import annotations

import math
import warnings
from functools import reduce
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from hspex.canonical import _refine, _relabeled_edges, canonical_key, refinement_signature
from hspex.embedding import _compile, _edge_classes, _run, _search
from hspex.errors import BadP
from hspex.families import ForbiddenFamily, _candidate_edges, _copy_masks
from hspex.hypergraph import Hypergraph
from hspex.spectral import (
    CLAMP_EPS,
    GAP_EPS,
    SolverConfig,
    SpectralSolution,
    StartRecord,
)
from hspex.structure import (
    BridgeCertificate,
    TightnessCertificate,
    _check_k,
    _size_lex,
    _uncut_edge_set,
)


def escape_loop(s: str) -> str:
    """Reference JSON string escaping, one character at a time."""
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def isomorphic_bruteforce(g: Hypergraph, h: Hypergraph) -> bool:
    """Reference check: try all n! vertex bijections."""
    if g.n != h.n or g.r != h.r or g.m != h.m:
        return False
    h_edges = set(h.edges)
    for perm in permutations(range(g.n)):
        if all(tuple(sorted(perm[v] for v in e)) in h_edges for e in g.edges):
            return True
    return False


def canonical_form_unpruned(g: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """Reference `canonical.canonical_form` without automorphism pruning: the
    least relabeled edge list over every leaf of the individualization-
    refinement tree, about |Aut(g)| of them."""
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


def canonical_key_unpruned(g: Hypergraph) -> bytes:
    """Reference `canonical.canonical_key`, built on the unpruned form."""
    form = canonical_form_unpruned(g)
    parts = [g.n, g.r, len(form)]
    for e in form:
        parts.extend(e)
    return b"\x00".join(str(x).encode() for x in parts)


def _classes(graphs: Iterable[Hypergraph]) -> Iterator[Hypergraph]:
    """Reference class reduction, the one `families._orbit_classes` replaced:
    lazily yield one representative per isomorphism class, in first-seen order.

    Graphs are bucketed by refinement signature, an isomorphism invariant
    that fixes n, r, m and the degree multiset; within a bucket an exact
    backtracking embedding into each earlier representative settles
    equality (an embedding between graphs of equal n and m is an isomorphism).
    """
    buckets: dict[tuple, list[Hypergraph]] = {}
    for g in graphs:
        reps = buckets.setdefault(refinement_signature(g), [])
        if all(_search(g, rep) is None for rep in reps):
            reps.append(g)
            yield g


def orbit_classes_bruteforce(masks: Sequence[int], n: int, r: int) -> list[int]:
    """Reference orbit reduction: the first mask of each S_n-orbit, in order.

    Each mask not yet seen starts a new orbit, and every one of the n!
    vertex permutations is applied to its edges to mark the whole orbit
    seen.  Needs `masks` closed under relabeling only to be exact.
    """
    cand = list(combinations(range(n), r))
    index = {e: i for i, e in enumerate(cand)}
    # edge_image[p, i]: the index of candidate edge i under permutation p
    edge_image = np.array(
        [[index[tuple(sorted(perm[v] for v in e))] for e in cand]
         for perm in permutations(range(n))],
        dtype=np.int64,
    )
    seen: set[int] = set()
    out = []
    for mask in masks:
        if mask in seen:
            continue
        out.append(mask)
        edges = [i for i in range(len(cand)) if mask >> i & 1]
        seen.update((np.int64(1) << edge_image[:, edges]).sum(axis=1).tolist())
    return out


def classes_by_key(graphs: Iterable[Hypergraph]) -> list[Hypergraph]:
    """Reference class reduction: the first graph seen with each canonical key.

    Keys are invariant under relabeling, so once a graph's key is computed
    every relabeling of it is recorded with that key; later members of the
    class are looked up instead of recomputed (one key per class).
    """
    known: dict[tuple, bytes] = {}
    seen: set[bytes] = set()
    out = []
    for g in graphs:
        key = known.get((g.n, g.r, g.edges))
        if key is None:
            key = canonical_key(g)
            for perm in permutations(range(g.n)):
                image = sorted(tuple(sorted(perm[v] for v in e)) for e in g.edges)
                known[(g.n, g.r, tuple(image))] = key
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


def sweep_dfs(
    fam: ForbiddenFamily, n: int
) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """Reference sweep: recursive DFS with completion masks, one call per member.

    Returns (count, max_edges, argmax_masks, maximal_masks), tracked in one
    pass: the member count, the maximum edge count with every argmax mask
    (reset when a larger member appears) and every edge-maximal member
    (addable set empty), all in preorder.
    """
    cand = _candidate_edges(n, fam.r)
    m_all = len(cand)
    eindex = {e: i for i, e in enumerate(cand)}
    copies = _copy_masks(fam, n, eindex)
    if any(c == 0 for c in copies):
        return (0, 0, (), ())
    completions: list[list[int]] = [[] for _ in range(m_all)]
    for c in copies:
        bits = c
        while bits:
            low = bits & -bits
            bits ^= low
            completions[low.bit_length() - 1].append(c & ~low)
    root_addable = 0
    for j in range(m_all):
        if all(comp != 0 for comp in completions[j]):
            root_addable |= 1 << j

    count = 0
    best = 0
    argmax: list[int] = []
    maximal: list[int] = []

    def dfs(mask: int, addable: int, start: int, popcnt: int) -> None:
        nonlocal count, best
        count += 1
        if popcnt > best:
            best = popcnt
            argmax.clear()
        if popcnt == best:
            argmax.append(mask)
        if addable == 0:
            maximal.append(mask)
        rest = addable >> start << start
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            new_mask = mask | low
            child = addable & ~low
            for comp in completions[j]:
                gap = comp & ~new_mask
                if gap and gap & (gap - 1) == 0:
                    child &= ~gap
            dfs(new_mask, child, j + 1, popcnt + 1)

    dfs(0, root_addable, 0, 0)
    return (count, best, tuple(argmax), tuple(maximal))


def member_masks_dfs(fam: ForbiddenFamily, n: int) -> Iterator[int]:
    """Reference stream of every member edge-mask (lex-increasing DFS).

    Each child is tested against every forbidden copy through its new edge.
    """
    cand = _candidate_edges(n, fam.r)
    eindex = {e: i for i, e in enumerate(cand)}
    copies = _copy_masks(fam, n, eindex)
    if any(c == 0 for c in copies):
        return

    def gen(mask: int, start: int) -> Iterator[int]:
        yield mask
        for j in range(start, len(cand)):
            bit = 1 << j
            new = mask | bit
            if any(c & ~new == 0 for c in copies if c & bit):
                continue
            yield from gen(new, j + 1)

    yield from gen(0, 0)


ORACLE_BATCH = 4096  # the reference walk's own pop size: retuning families.WALK_BATCH leaves it alone


def walk_per_completion(fam: ForbiddenFamily, n: int) -> Iterator[np.ndarray]:
    """Reference member walk: `families._walk` as it was before its child
    step blocked all of an edge's completions in one broadcast step and
    kept leaves off the stack.  Yields every member node, in batches of up
    to ORACLE_BATCH nodes.

    A node is one int64: the member's edge set over the lex-ordered
    candidate edges in the low 32 bits, and `addable`, the non-edges whose
    addition keeps it a member, in the high 32.  A child adds one addable
    edge j above all of the node's edges (`mask < 2**j`), so every member
    is reached once.  Adding j blocks every non-edge that is the single gap
    of a copy through j (its completion masks).  Nodes wait on one explicit
    stack and are popped a batch at a time; each candidate edge is one
    vectorised child step written straight onto the stack, and each
    completion mask one masked clear.  All work happens in the stack and in
    fixed scratch buffers.  A yielded batch is scratch too, valid until the
    next one, and is in walk order: consumers that need DFS preorder sort
    by `_preorder_key`.
    """
    cand = _candidate_edges(n, fam.r)
    m_all = len(cand)
    copies = _copy_masks(fam, n, {e: i for i, e in enumerate(cand)})
    if any(c == 0 for c in copies):
        return  # an edgeless forbidden graph fits everywhere: no members
    completions: list[list[int]] = [[] for _ in range(m_all)]
    for c in copies:
        bits = c
        while bits:
            low = bits & -bits
            bits ^= low
            completions[low.bit_length() - 1].append(c & ~low)
    root_addable = 0
    for j in range(m_all):
        if all(comp != 0 for comp in completions[j]):
            root_addable |= 1 << j

    stack = np.empty(8 * ORACLE_BATCH, dtype=np.int64)
    stack[0] = root_addable << 32
    top = 1
    nodes, work, gap, rest, blocked = (np.empty(ORACLE_BATCH, dtype=np.int64) for _ in range(5))
    pick, single = (np.empty(ORACLE_BATCH, dtype=bool) for _ in range(2))
    while top:
        b = min(top, ORACLE_BATCH)
        top -= b
        batch = nodes[:b]
        batch[:] = stack[top:top + b]
        yield batch
        # no child adds an edge below the smallest mask's top edge or above
        # the largest addable edge
        first = int(np.bitwise_and(batch, 0xFFFFFFFF, out=work[:b]).min()).bit_length()
        for j in range(first, (int(batch.max()) >> 32).bit_length()):
            # j addable (bit 32 + j) and no edge at or above j present
            np.bitwise_and(batch, (1 << 32 + j) | (1 << 32) - (1 << j), out=work[:b])
            np.equal(work[:b], 1 << 32 + j, out=pick[:b])
            k = int(np.count_nonzero(pick[:b]))
            if not k:
                continue
            if top + k > len(stack):
                stack = np.concatenate((stack[:top], np.empty_like(stack)))
            child = stack[top:top + k]
            top += k
            np.compress(pick[:b], batch, out=child)
            np.bitwise_xor(child, (1 << 32 + j) | (1 << j), out=child)  # add j
            if not completions[j]:
                continue
            gap_k, rest_k, single_k, blocked_k = gap[:k], rest[:k], single[:k], blocked[:k]
            non_edges = np.invert(child, out=work[:k])  # in the low 32 bits
            blocked_k.fill(0)
            for comp in completions[j]:
                np.bitwise_and(non_edges, comp, out=gap_k)  # comp's missing edges
                np.subtract(gap_k, 1, out=rest_k)
                np.bitwise_and(rest_k, gap_k, out=rest_k)
                np.logical_not(rest_k, out=single_k)  # at most one missing
                np.bitwise_or(blocked_k, gap_k, out=blocked_k, where=single_k)
            np.left_shift(blocked_k, 32, out=blocked_k)
            np.invert(blocked_k, out=blocked_k)
            np.bitwise_and(child, blocked_k, out=child)  # blocked edges leave addable


def subset_tree_preorder(m: int) -> list[int]:
    """Every subset mask of m elements in recursive DFS preorder: a node's
    children add one element above all of its own, lowest first."""
    out: list[int] = []

    def visit(mask: int, start: int) -> None:
        out.append(mask)
        for j in range(start, m):
            visit(mask | 1 << j, j + 1)

    visit(0, 0)
    return out


def induced_search_dfs(host: Hypergraph, pattern: Hypergraph) -> Optional[tuple[int, ...]]:
    """Reference induced containment: a backtracking search of its own.

    Pattern vertices go in (-degree, id) order onto ascending host ids; each
    new vertex re-checks every r-subset of the placed vertices through it,
    so an r-set maps to a host edge iff it is a pattern edge.  Returns the
    first witness or None.
    """
    if pattern.n > host.n:
        return None
    host_edges = set(host.edges)
    pattern_edges = set(pattern.edges)
    order = sorted(range(pattern.n), key=lambda v: (-pattern.degree(v), v))
    phi = [-1] * pattern.n
    used = [False] * host.n

    def ok(depth: int) -> bool:
        vnew = order[depth]
        placed = [order[i] for i in range(depth + 1)]
        if len(placed) < pattern.r:
            return True
        others = sorted(v for v in placed if v != vnew)
        for rest in combinations(others, pattern.r - 1):
            sub = tuple(sorted(rest + (vnew,)))
            image = tuple(sorted(phi[v] for v in sub))
            if (sub in pattern_edges) != (image in host_edges):
                return False
        return True

    def extend(depth: int) -> bool:
        if depth == pattern.n:
            return True
        v = order[depth]
        for w in range(host.n):
            if used[w]:
                continue
            phi[v] = w
            used[w] = True
            if ok(depth) and extend(depth + 1):
                return True
            used[w] = False
            phi[v] = -1
        return False

    return tuple(phi) if extend(0) else None


def search_sorted_tuples(
    host: Hypergraph,
    pattern: Hypergraph,
    fixed: Optional[dict[int, Sequence[int]]] = None,
    avoid: Sequence[tuple[int, ...]] = (),
) -> Optional[tuple[int, ...]]:
    """Reference `embedding._search`: the same order and pruning, but every
    r-set's image is tested as a sorted tuple against a set of host edges
    rebuilt on each call, with degrees counted afresh."""
    hn, pn = host.n, pattern.n
    if pn > hn or pattern.m > host.m:
        return None
    fixed = fixed or {}
    host_edges = set(host.edges)
    pdeg = [sum(v in e for e in pattern.edges) for v in range(pn)]
    hdeg = [sum(v in e for e in host.edges) for v in range(hn)]
    order = sorted(range(pn), key=lambda v: (v not in fixed, -pdeg[v], v))
    pos = {v: i for i, v in enumerate(order)}
    choices = [fixed.get(v, range(hn)) for v in order]
    edges_at: list[list[tuple[int, ...]]] = [[] for _ in range(pn)]
    avoid_at: list[list[tuple[int, ...]]] = [[] for _ in range(pn)]
    for sets, at in ((pattern.edges, edges_at), (avoid, avoid_at)):
        for e in sets:
            at[max(pos[v] for v in e)].append(e)
    phi = [-1] * pn
    used = [False] * hn

    def feasible(depth: int) -> bool:
        for e in edges_at[depth]:
            if tuple(sorted(phi[v] for v in e)) not in host_edges:
                return False
        for e in avoid_at[depth]:
            if tuple(sorted(phi[v] for v in e)) in host_edges:
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
            used[w] = True
            if feasible(depth) and extend(depth + 1):
                return True
            used[w] = False
            phi[v] = -1
        return False

    return tuple(phi) if extend(0) else None


def creates_copy_required_edge(
    host: Hypergraph, new_edge: tuple[int, ...], pattern: Hypergraph
) -> bool:
    """Reference copy check: one search over host + e for an embedding whose
    image uses e.

    Placed images must leave room for e's still-unhit vertices, and each
    complete embedding is accepted only if its edge image contains e.
    """
    key = tuple(sorted(new_edge))
    host = host.add_edge(key)
    host_edges = set(host.edges)
    hn, pn = host.n, pattern.n
    if pn > hn or pattern.m > host.m:
        return False
    pdeg = pattern.degrees()
    hdeg = host.degrees()
    order = sorted(range(pn), key=lambda v: (-pdeg[v], v))
    pos = {v: i for i, v in enumerate(order)}
    edges_at: list[list[tuple[int, ...]]] = [[] for _ in range(pn)]
    for e in pattern.edges:
        edges_at[max(pos[v] for v in e)].append(e)
    phi = [-1] * pn
    used = [False] * hn

    def feasible(depth: int) -> bool:
        return all(tuple(sorted(phi[v] for v in e)) in host_edges for e in edges_at[depth])

    def covers_required(depth: int) -> bool:
        placed = {phi[order[i]] for i in range(depth + 1)}
        missing = [v for v in key if v not in placed]
        return len(missing) <= pn - (depth + 1)

    def extend(depth: int) -> bool:
        if depth == pn:
            return key in {tuple(sorted(phi[v] for v in e)) for e in pattern.edges}
        v = order[depth]
        for w in range(hn):
            if used[w] or hdeg[w] < pdeg[v]:
                continue
            phi[v] = w
            used[w] = True
            if feasible(depth) and covers_required(depth) and extend(depth + 1):
                return True
            used[w] = False
            phi[v] = -1
        return False

    return extend(0)


def pinned_search(
    host: Hypergraph,
    pattern: Hypergraph,
    fixed: Optional[dict[int, Sequence[int]]] = None,
    avoid: Sequence[tuple[int, ...]] = (),
) -> Optional[tuple[int, ...]]:
    """`embedding._search` with pattern vertices pinned, compiled and run the
    way `creates_copy` runs its plans: ``fixed`` maps a pinned pattern vertex
    to the host vertices it may take, placed first.  Its sets expand into
    every injective placement in lexicographic order, the order in which a
    search that tries each pinned depth's vertices in ascending id order
    meets them."""
    fixed = fixed or {}
    plan = _compile(pattern, fixed, avoid)
    sets = [sorted(set(fixed[v])) for v in plan.order[:len(fixed)]]
    return _run(plan, host, [p for p in product(*sets) if len(set(p)) == len(p)])


def edge_orbit_reps(pattern: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """The first edge of each edge orbit of Aut(pattern), in ``pattern.edges``
    order, read off the copy check's edge classes."""
    return tuple(f for f, _ in _edge_classes(pattern))


def edge_stabilizers_bruteforce(pattern: Hypergraph) -> dict[tuple[int, ...], set[tuple[int, ...]]]:
    """For each pattern edge f, the group G_f that the automorphisms fixing f
    induce on it, each element as the images of f's vertices in order; the
    automorphisms taken from every vertex permutation."""
    auts = [
        p for p in permutations(range(pattern.n))
        if all(tuple(sorted(p[v] for v in e)) in pattern.edge_set for e in pattern.edges)
    ]
    return {f: {tuple(p[v] for v in f) for p in auts if tuple(sorted(p[v] for v in f)) == f}
            for f in pattern.edges}


def creates_copy_every_edge(
    host: Hypergraph, new_edge: tuple[int, ...], pattern: Hypergraph
) -> bool:
    """Reference copy check: pin each pattern edge in turn onto the new edge."""
    key = tuple(sorted(new_edge))
    augmented = host.add_edge(key)
    return any(
        pinned_search(augmented, pattern, dict.fromkeys(e, key)) is not None
        for e in pattern.edges
    )


def k_closure_full(edges, inc, start, k: int, skip: Optional[int] = None) -> tuple[int, ...]:
    """Reference k-closure: always grown to the end, `edges[skip]` left out."""
    inside = set(start)
    work = list(inside)
    hits: dict[int, int] = {}
    while work:
        for i in inc[work.pop()]:
            hits[i] = c = hits.get(i, 0) + 1
            if c == k and i != skip:
                new = [w for w in edges[i] if w not in inside]
                inside.update(new)
                work.extend(new)
    return tuple(sorted(inside))


def is_k_tight_full_closures(g: Hypergraph, k: int) -> TightnessCertificate:
    """Reference k-tightness: the first proper full k-closure of an edge."""
    _check_k(g, k)
    closures = (k_closure_full(g.edges, g.incidence, e, k) for e in g.edges)
    witness = min((u for u in closures if len(u) < g.n), key=_size_lex, default=None)
    return TightnessCertificate(witness is None, k, witness)


def is_k_bridge_full_closures(g: Hypergraph, e, k: int) -> BridgeCertificate:
    """Reference k-bridge test: the first full k-closure in H - e of a
    k-subset of e that misses a vertex of e."""
    key = tuple(sorted(int(v) for v in e))
    _check_k(g, k)
    skip = g.edges.index(key)
    closures = (k_closure_full(g.edges, g.incidence, s, k, skip) for s in combinations(key, k))
    a = min((u for u in closures if not set(key).issubset(u)), key=_size_lex, default=None)
    b = None if a is None else tuple(sorted(set(range(g.n)).difference(a)))
    return BridgeCertificate(a is not None, k, key, a, b)


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
    masks = [sum(1 << v for v in e) for e in g.edges]
    for size in range(g.r, g.n):
        for combo in combinations(range(g.n), size):
            if _uncut_edge_set(masks, sum(1 << v for v in combo), k, g.r):
                return TightnessCertificate(False, k, combo)
    return TightnessCertificate(True, k)


def is_k_bridge_bruteforce(g: Hypergraph, e, k: int) -> BridgeCertificate:
    """Reference k-bridge test: try every bipartition (A, B) by A's size, then lex."""
    key = tuple(sorted(int(v) for v in e))
    _check_k(g, k)
    masks = [sum(1 << v for v in e) for e in g.edges]
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


def lagrangian_percolumn(g: Hypergraph, x) -> float:
    """Reference L: np.prod over the (m, r) index array, then np.sum."""
    arr = np.asarray(x, dtype=float)
    if not g.edges:
        return 0.0
    idx = np.array(g.edges, dtype=np.intp)
    return float(math.factorial(g.r) * np.sum(np.prod(arr[idx], axis=1)))


def lagrangian_gradient_percolumn(g: Hypergraph, x) -> np.ndarray:
    """Reference gradient: per position j, np.prod over the other columns
    and a bincount on the strided column idx[:, j]."""
    arr = np.asarray(x, dtype=float)
    out = np.zeros(g.n)
    if not g.edges:
        return out
    idx = np.array(g.edges, dtype=np.intp)
    for j in range(g.r):
        cols = [k for k in range(g.r) if k != j]
        loo = np.prod(arr[idx[:, cols]], axis=1)
        out += np.bincount(idx[:, j], weights=loo, minlength=g.n)
    return math.factorial(g.r - 1) * out


def eigen_residual_percolumn(g: Hypergraph, x, p: float, rho: float) -> float:
    """Reference max over vertices of |rho * x_v^(p-1) - gradient_v|."""
    arr = np.asarray(x, dtype=float)
    if g.n == 0:
        return 0.0
    grad = lagrangian_gradient_percolumn(g, arr)
    return float(np.max(np.abs(rho * np.power(arr, p - 1.0) - grad)))


def p_norm(x, p: float) -> float:
    """(sum |x_i|^p)^(1/p)."""
    arr = np.asarray(x, dtype=float)
    return float(np.sum(np.abs(arr) ** p) ** (1.0 / p))


def blow_up_edge_count(g: Hypergraph, t: Sequence[int]) -> int:
    """Exact |E(G(t))| = sum over edges of the product of multiplicities."""
    total = 0
    for e in g.edges:
        total += math.prod(t[v] for v in e)
    return total


def rho_p_bruteforce_by_class(
    memo: dict, g: Hypergraph, p: float, grid_depth: int = 20
) -> float:
    """`rho_p_bruteforce` run once per isomorphism class.

    lambda_p does not change under relabeling (`test_grid_oracle_is_relabeling_invariant`
    checks that the oracle agrees), so its value is kept in `memo` under
    (canonical_key(g), p, grid_depth) and reused for every labeling.
    """
    key = (canonical_key(g), p, grid_depth)
    if key not in memo:
        memo[key] = rho_p_bruteforce(g, p, grid_depth)
    return memo[key]


def rho_p_bruteforce(
    g: Hypergraph, p: float, grid_depth: int = 20, beam: int = 2048
) -> float:
    """Grid oracle: maximize L over a recursively refined nonnegative p-sphere grid.

    What runs: round 0 evaluates L at every point of a cube grid (step 1/8)
    whose largest coordinate is 1, each rescaled onto the unit p-sphere.
    Each of ``grid_depth`` rounds keeps the points whose value lies within
    2*K*h of the incumbent, K = r! * m * r * (1 + n^(1/p)), then cuts them
    to the ``beam`` highest values, and refines every survivor over the
    {-h/2, 0, +h/2} offsets in each coordinate; h halves per round from
    1/16.  The result is the largest value seen.

    The margin would keep a maximizer tracked, but it does not choose the
    survivors: in every round measured (K4^(3), a two-edge 3-graph, K4
    and P4 at p in {1.5, 2, 3, 4}) every candidate passed it, and the
    beam cap of 2,048 points chose them.  A margin that is both proven and
    small does not exist near a smooth maximum, where the points within
    K*h of the best fill a ball of radius about sqrt(K*h).  So the grid
    proves one side only: each reported value is L at an actual unit
    vector, so up to rounding it is at most lambda_p.  Closeness to
    lambda_p from below is what the tests' tolerances check, not a
    guarantee of this search.
    """
    if not (1.0 < p < math.inf):
        raise BadP(f"p={p} outside (1, inf)")
    if g.n > 6:
        warnings.warn(f"grid oracle is desk-scale; n={g.n} > 6 will be slow")
    if g.m == 0 or g.n == 0:
        return 0.0
    n, r = g.n, g.r
    idx = np.array(g.edges, dtype=np.intp)
    rfact = math.factorial(r)

    def evaluate(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        norms = np.sum(points**p, axis=1) ** (1.0 / p)
        keep = norms > 0
        pts = points[keep] / norms[keep, None]
        vals = rfact * np.sum(np.prod(pts[:, idx], axis=2), axis=1)
        return points[keep], vals

    lip = rfact * g.m * r * (1.0 + n ** (1.0 / p))
    # round 0: cube grid with max coordinate exactly 1 (covers every ray)
    steps = np.linspace(0.0, 1.0, 9)
    mesh = np.stack(np.meshgrid(*([steps] * n), indexing="ij"), axis=-1).reshape(-1, n)
    mesh = mesh[np.max(mesh, axis=1) == 1.0]
    seeds, vals = evaluate(mesh)
    best = float(vals.max())
    h = 1.0 / 16.0

    offsets = np.stack(
        np.meshgrid(*([np.array([-1.0, 0.0, 1.0])] * n), indexing="ij"), axis=-1
    ).reshape(-1, n)
    # all points sit exactly on the (h/2)-lattice (powers of two), so integer
    # keys give exact, fast duplicate removal
    mult = np.array(
        [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
         0x27D4EB2F165667C5, 0x94D049BB133111EB, 0xBF58476D1CE4E5B9],
        dtype=np.uint64,
    )[:n]
    for _ in range(grid_depth):
        margin = 2.0 * lip * h
        keep = vals >= best - margin
        seeds, vals = seeds[keep], vals[keep]
        if len(seeds) > beam:
            top = np.argsort(vals)[-beam:]
            seeds, vals = seeds[top], vals[top]
        cand = (seeds[:, None, :] + (h / 2.0) * offsets[None, :, :]).reshape(-1, n)
        cand = np.maximum(cand, 0.0)
        lattice = np.round(cand * (2.0 / h)).astype(np.uint64)
        keys = (lattice * mult).sum(axis=1, dtype=np.uint64)
        _, first = np.unique(keys, return_index=True)
        cand = cand[np.sort(first)]
        seeds, vals = evaluate(cand)
        best = max(best, float(vals.max()))
        h /= 2.0
    return best


class _Lagrangian1D:
    """The one-iterate kernel the batched `spectral._Lagrangian` replaced:
    (r, m) edge rows, np.sum and np.max reductions, np.dot for Euler's rho,
    and a gradient accumulated onto np.zeros."""

    def __init__(self, g: Hypergraph):
        self.n = g.n
        self.rfact = math.factorial(g.r)
        self.rm1fact = math.factorial(g.r - 1)
        self.rows = np.array(g.edges, dtype=np.intp).reshape(-1, g.r).T.copy()

    def gather(self, x: np.ndarray) -> np.ndarray:
        return x[self.rows]

    def value(self, X: np.ndarray) -> float:
        return float(self.rfact * np.sum(reduce(np.multiply, X)))

    def grad(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n)
        for j, row in enumerate(self.rows):
            loo = reduce(np.multiply, [X[k] for k in range(len(X)) if k != j])
            out += np.bincount(row, weights=loo, minlength=self.n)
        return self.rm1fact * out

    def residual(self, xp: np.ndarray, grad: np.ndarray, rho: float) -> float:
        return float(np.max(np.abs(rho * xp - grad)))

    def euler_residual(self, x, xp, grad) -> tuple[float, float]:
        rho_est = float(np.dot(x, grad))
        return rho_est, self.residual(xp, grad, rho_est)


def _normalize_p_1d(x: np.ndarray, p: float) -> np.ndarray:
    return x / np.sum(x**p) ** (1.0 / p)


def _fixed_point_start(kernel: _Lagrangian1D, x, p, tol, budget, alpha, events=None):
    """One start of the shifted power iteration: (best x, best L, iters, converged).

    Appends to `events`, if given, (it, what) for each collapse at the
    checkpoint of iteration `it` ("collapse") and for each step, which ends
    at iteration `it`, that improves on the best value ("up") or resets the
    shift after a drop ("reset")."""
    X = kernel.gather(x)
    best_x, best_val = x, kernel.value(X)
    exp = 1.0 / (p - 1.0)
    it = 0
    res_checkpoint = math.inf
    stagnant = 0
    while it < budget:
        grad = kernel.grad(X)
        xp = np.power(x, p - 1.0)
        rho_est, res = kernel.euler_residual(x, xp, grad)
        if res <= tol * max(1.0, rho_est):
            return x, kernel.value(X), it, True
        if it and it % 512 == 0:
            if not math.isfinite(val):
                break  # an inf or NaN value cannot recover
            if res > 0.5 * res_checkpoint:
                tiny = (x > 0.0) & (x < 1e-6)
                if tiny.any():
                    if events is not None:
                        events.append((it, "collapse"))
                    x = _normalize_p_1d(np.where(tiny, 0.0, x), p)
                    X = kernel.gather(x)
                    grad = kernel.grad(X)
                    xp = np.power(x, p - 1.0)
                    stagnant = 0
                else:
                    stagnant += 1
                    if stagnant >= 2:
                        break
            else:
                stagnant = 0
            res_checkpoint = res
        y = grad + alpha * xp
        if not np.any(y):
            break
        x = _normalize_p_1d(np.power(y, exp), p)
        X = kernel.gather(x)
        it += 1
        val = kernel.value(X)
        if val > best_val:
            best_x, best_val = x, val
            if events is not None:
                events.append((it, "up"))
        elif val < best_val - 1e-12 * max(1.0, best_val):
            if events is not None:
                events.append((it, "reset"))
            alpha *= 4.0
            x, val = best_x, best_val
            X = kernel.gather(x)
            if alpha > 1e9:
                break
    return best_x, best_val, it, False


def _projected_gradient_start(kernel: _Lagrangian1D, x, p, tol, budget, alpha, searches=None):
    """One start of the ascent, then its own fixed-point polish.

    Each line search whose first trial fails is appended to `searches`, if
    given, as (trials before its step, halvings it tried, whether one of
    them improved)."""
    X = kernel.gather(x)
    best_x, best_val = x, kernel.value(X)
    eta = 0.25
    it = 0
    ascent_cap = min(budget // 2, 2000)
    while it < ascent_cap:
        grad = kernel.grad(X)
        rho_est, res = kernel.euler_residual(x, np.power(x, p - 1.0), grad)
        if res <= tol * max(1.0, rho_est):
            return x, kernel.value(X), it, True
        top = float(np.max(grad))
        if top <= 0.0:
            break
        direction = grad / top
        gain = 0.0
        before = it
        while eta > 1e-18:
            cand = _normalize_p_1d(np.maximum(x + eta * direction, 0.0), p)
            cand_X = kernel.gather(cand)
            it += 1
            val = kernel.value(cand_X)
            if val > best_val:
                gain = val - best_val
                x, X, best_x, best_val = cand, cand_X, cand, val
                eta = min(eta * 1.5, 1e6)
                break
            eta *= 0.5
        if searches is not None and (it - before > 1 or gain == 0.0):
            searches.append((before, it - before - 1, gain > 0.0))
        if gain <= 1e-13 * max(1.0, best_val):
            break
    polish_alpha = max(1.0, best_val)
    px, pval, pit, ok = _fixed_point_start(kernel, best_x, p, tol, budget - it, polish_alpha)
    if pval >= best_val:
        return px, pval, it + pit, ok
    return best_x, best_val, it + pit, False


def solve_rho_p_perstart(
    g: Hypergraph, p: float, config: Optional[SolverConfig] = None, searches=None
) -> SpectralSolution:
    """Reference solve: the same multi-start contract as `solve_rho_p`, with
    each start run to its end, one after another, on one 1-D iterate.
    `searches` collects the projected-gradient starts' line searches that
    go past their first trial (see `_projected_gradient_start`)."""
    if not (1.0 < p < math.inf) or math.isnan(p):
        raise BadP(f"p={p} outside (1, inf)")
    cfg = config or SolverConfig()
    n = g.n
    if n == 0:
        return SpectralSolution(0.0, np.zeros(0), p, 0.0, 0, 0, 0.0, ())
    uniform = np.full(n, n ** (-1.0 / p))
    if g.m == 0:
        return SpectralSolution(0.0, uniform, p, 0.0, 0, 1, 0.0, ())
    kernel = _Lagrangian1D(g)
    strategy = "fixed-point-shifted" if p >= g.r else "projected-gradient"
    dmax, _ = g.degree_extremes()
    alpha = float(math.factorial(g.r) * dmax)
    rng = np.random.default_rng(cfg.seed)
    if strategy == "fixed-point-shifted":
        run = _fixed_point_start
    else:
        def run(*args):
            return _projected_gradient_start(*args, searches=searches)
    initials = [uniform.copy()]
    while len(initials) < cfg.starts:
        initials.append(_normalize_p_1d(rng.uniform(0.1, 1.0, n), p))

    results = []  # (value, x, iters, converged)
    for x0 in initials:
        x, val, iters, ok = run(kernel, x0, p, cfg.tol, cfg.max_iter, alpha)
        results.append((val, x, iters, ok))
    best_val, best_x, _, _ = results[0]
    for val, x, _, _ in results[1:]:
        if val > best_val or (val == best_val and tuple(x) > tuple(best_x)):
            best_val, best_x = val, x
    converged_vals = [val for val, _, _, ok in results if ok]
    gap = (best_val - min(converged_vals)) if converged_vals else 0.0

    x_out = np.where(best_x < CLAMP_EPS, 0.0, best_x)
    X_out = kernel.gather(x_out)
    rho = kernel.value(X_out)
    residual = kernel.residual(np.power(x_out, p - 1.0), kernel.grad(X_out), rho)
    flags = []
    if not residual <= cfg.tol * max(1.0, rho):  # a NaN residual fails too
        flags.append("NoConvergence")
    if gap > GAP_EPS:
        flags.append("NonUniqueSuspected")
    if np.any(x_out == 0.0):
        flags.append("ZeroEntries")
    per_start = tuple(
        StartRecord(float(val), iters, ok, strategy) for val, _, iters, ok in results
    )
    return SpectralSolution(
        rho, x_out, p, residual, sum(r[2] for r in results), len(initials), gap,
        tuple(flags), per_start,
    )
