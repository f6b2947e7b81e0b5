"""Forbidden-subgraph families: membership, saturation, and exact extremal sweeps.

Membership is non-induced by default (a family member contains no forbidden
graph as a subgraph); an induced mode exists for counterexample fixtures.
Extremal computations enumerate labeled graphs on exactly n vertices by one
batched numpy walk over the tree of edge subsets with incremental
forbidden-copy pruning (`_walk`), which serves every sweep: it pops
WALK_BATCH nodes at a time, one broadcast step per candidate edge blocks all
of its completions in the batch's children, in blocks of fixed size, and
leaves are yielded without being expanded.  The masks a result depends on
are sorted into DFS preorder by a closed-form key (`_preorder_key`).  Each
such mask set (all members, the edge-maximal ones) is closed under
relabeling, so its isomorphism classes are its S_n-orbits, which
`_orbit_classes` labels in numpy with no isomorphism test.  `_sweep`, the
walk's one consumer, caches one immutable `_SweepData` per (family value,
n, mask set): the member count and one graph per class.  `extremal_pi` and
`extremal_lambda_p` read the edge-maximal record, `enumerate_family` and
`extremal_lambda_p(full=True)` the all-members one (a relabeled or
reordered family is another value, swept again with equal results).  The
lex-ordered candidate edges that give mask bits their meaning are built in
this module alone.  Everything is deterministic.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Iterator, Optional, Union

import numpy as np

# canonical_key is unused here, but perfbench/spans.py wraps it in this module
from .canonical import canonical_key, refinement_signature
from .embedding import (
    contains_induced_subgraph,
    contains_subgraph,
    creates_copy,
    labeled_copy_edge_sets,
    _search,
)
from .errors import BadFamily, NotMember, TooLarge, UniformityMismatch
from .hypergraph import Hypergraph, _check_size, serialize
from .spectral import SolverConfig, SpectralSolution, _check_count, _check_p, solve_rho_p

ENUM_GUARD_BITS = 28       # candidate-edge cap for the extremal sweeps
ALL_MASKS_GUARD_BITS = 24  # stricter cap for the sweeps that hold every mask at once
FULL_MODE_GUARD_BITS = 20  # cap when materializing all members (--full audits)
VALUE_COLLAPSE = 1e-9      # spectral argmax graphs within this of the best
WALK_BATCH = 16384         # member nodes the walk pops and expands per step; leaves
                           # are yielded once this many wait
GAP_ROWS = 64              # completions and children per (rows, children) block of a
GAP_CHILDREN = 4096        # child step: the walk's gap scratch is at most
                           # 2 * GAP_ROWS * GAP_CHILDREN int64 (4 MiB), whatever WALK_BATCH is


@dataclass(frozen=True)
class ForbiddenFamily:
    """F(H): graphs containing no forbidden graph (induced copies optional)."""

    forbidden: tuple[Hypergraph, ...]
    induced: bool = False

    def __post_init__(self):
        object.__setattr__(self, "forbidden", tuple(self.forbidden))  # hashable
        if not self.forbidden:
            raise BadFamily("need at least one forbidden graph")
        rs = {h.r for h in self.forbidden}
        if len(rs) != 1:
            raise UniformityMismatch(f"mixed uniformities {sorted(rs)}")

    @property
    def r(self) -> int:
        return self.forbidden[0].r


@dataclass(frozen=True)
class PredicateFamily:
    """Membership by arbitrary predicate; used for closure-style fixtures."""

    r: int
    predicate: Callable[[Hypergraph], bool]


Family = Union[ForbiddenFamily, PredicateFamily]


def is_member(fam: Family, g: Hypergraph) -> bool:
    """True iff g belongs to the family (uniformities must match)."""
    if g.r != fam.r:
        raise UniformityMismatch(f"graph r={g.r}, family r={fam.r}")
    if isinstance(fam, PredicateFamily):
        return bool(fam.predicate(g))
    check = contains_induced_subgraph if fam.induced else contains_subgraph
    return not any(check(g, h)[0] for h in fam.forbidden)


def _require_member(fam: Family, g: Hypergraph) -> None:
    if not is_member(fam, g):
        raise NotMember("graph is not in the family")


def _addition_violates(fam: Family, g: Hypergraph, e: tuple[int, ...]) -> bool:
    """Would g + e leave the family?  Incremental for plain forbidden families.
    e is a non-edge of g from combinations(range(g.n), g.r), so valid."""
    if isinstance(fam, ForbiddenFamily) and not fam.induced:
        return any(creates_copy(g, e, h) for h in fam.forbidden)
    return not is_member(fam, g._trusted_add(e))


def is_edge_maximal(fam: Family, g: Hypergraph) -> tuple[bool, Optional[tuple[int, ...]]]:
    """(maximal?, first augmenting non-edge in lex order if not)."""
    _require_member(fam, g)
    present = g.edge_set
    for e in combinations(range(g.n), g.r):
        if e in present:
            continue
        if not _addition_violates(fam, g, e):
            return (False, e)
    return (True, None)


def saturate(fam: Family, g0: Hypergraph, order: str = "lex", seed: int = 0) -> Hypergraph:
    """Greedily add candidate edges that keep membership; result is edge-maximal.

    order="lex" walks candidates lexicographically; order="random" walks a
    shuffle of the same list seeded by `seed` (default 0, so an unseeded
    call is reproducible too); a negative seed raises BadConfig.
    Membership is monotone under edge addition for plain forbidden
    families, so one pass suffices.
    """
    seed = _check_count("seed", seed)
    _require_member(fam, g0)
    present = g0.edge_set
    candidates = [e for e in combinations(range(g0.n), g0.r) if e not in present]
    if order == "random":
        random.Random(seed).shuffle(candidates)
    elif order != "lex":
        raise BadFamily(f"unknown order {order!r}")
    monotone = isinstance(fam, ForbiddenFamily) and not fam.induced
    g = g0
    while True:
        added = False
        present = g.edge_set
        for e in candidates:
            if e not in present and not _addition_violates(fam, g, e):
                g = g._trusted_add(e)
                added = True
        if monotone or not added:
            return g


def check_clonal_on(
    fam: Family, g: Hypergraph
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Is every cloning of g still a member?  Returns the first violating (u, v)."""
    _require_member(fam, g)
    for u in range(g.n):
        for v in range(g.n):
            if u == v:
                continue
            if not is_member(fam, g.clone_vertex(u, v)):
                return (False, (u, v))
    return (True, None)


def check_hereditary_witness(fam: Family, g: Hypergraph, subset) -> bool:
    """Membership of the induced subgraph on `subset` (g must be a member)."""
    _require_member(fam, g)
    return is_member(fam, g.induced_subgraph(subset))


def check_multiplicative_witness(fam: Family, g: Hypergraph, t) -> bool:
    """Membership of the blow-up g(t) (g must be a member)."""
    _require_member(fam, g)
    return is_member(fam, g.blow_up(t))


# --- labeled enumeration sweep --------------------------------------------------


@dataclass(frozen=True)
class _SweepData:
    """One cached sweep: the member count and the first of each class of
    its mask set (all members, or the edge-maximal ones) in preorder."""

    count: int
    classes: tuple[Hypergraph, ...]


def _check_sweepable(fam: Family, n: int, limit: int) -> int:
    """n as an int; raises unless fam is a plain forbidden family and n a
    vertex count whose C(n, r) candidate edges fit the guard `limit`."""
    if not isinstance(fam, ForbiddenFamily) or fam.induced:
        raise BadFamily(
            "enumeration requires a plain (non-induced) forbidden-subgraph family"
        )
    return _check_guard(n, fam.r, limit)[0]


def _check_guard(n: int, r: int, limit: int) -> tuple[int, int]:
    """(n, r) by `_check_size`; TooLarge unless the C(n, r) candidate edges fit `limit`."""
    n, r = _check_size(n, r)
    if comb(n, r) > limit:
        raise TooLarge(
            f"C({n},{r}) = {comb(n, r)} candidate edges exceeds the guard ({limit}); "
            "reduce n or r"
        )
    return n, r


def _require_members(count: int) -> None:
    if count == 0:
        raise TooLarge("family has no members at this n (edgeless forbidden graph)")


def _candidate_edges(n: int, r: int) -> list[tuple[int, ...]]:
    return list(combinations(range(n), r))


def _copy_masks(fam: ForbiddenFamily, n: int, eindex: dict) -> list[int]:
    masks: set[int] = set()
    for h in fam.forbidden:
        for eset in labeled_copy_edge_sets(h, n):
            masks.add(sum(1 << eindex[e] for e in eset))
    return sorted(masks)


def _walk(fam: ForbiddenFamily, n: int) -> Iterator[np.ndarray]:
    """Yield every member node once, in batches of fewer than 2 * WALK_BATCH
    nodes.

    A node is one int64: the member's edge set over the lex-ordered
    candidate edges in the low 32 bits, and `addable`, the non-edges whose
    addition keeps it a member, in the high 32.  A child adds one addable
    edge j above all of the node's edges (`mask < 2**j`), so every member
    is reached once.  Adding j blocks every non-edge that is the single gap
    of a copy through j (its completion masks).  Nodes wait on one explicit
    stack and are popped WALK_BATCH at a time, and each candidate edge j is
    one vectorised child step over the whole batch: j's completions, held as
    int64 columns of at most GAP_ROWS rows, broadcast against at most
    GAP_CHILDREN children at a time into (rows, children) blocks of missing
    edges, `(gap & (gap - 1)) - 1 >> 63` keeps the single gaps, and one OR
    down the rows gives the edges that leave a child's addable set.  A child
    with no addable edge above j is a leaf: it goes to a leaf buffer, never
    to the stack, and is yielded once WALK_BATCH leaves wait (and at the
    end).  All work happens in the stack and in fixed scratch buffers, and
    the gap blocks' scratch does not grow with WALK_BATCH.  A yielded batch
    is scratch too, valid until the next one, and is in walk order:
    consumers that need DFS preorder sort by `_preorder_key`.
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
    # j's completions as int64 columns of at most GAP_ROWS rows each
    blocks = [
        [np.array(comps[i:i + GAP_ROWS], dtype=np.int64).reshape(-1, 1)
         for i in range(0, len(comps), GAP_ROWS)]
        for comps in completions
    ]
    rows = min(max(map(len, completions), default=0), GAP_ROWS)

    stack = np.empty(8 * WALK_BATCH, dtype=np.int64)
    stack[0] = root_addable << 32
    top = 1
    leaves = np.empty(2 * WALK_BATCH, dtype=np.int64)
    held = 0
    nodes, work, child, blocked, spare = (np.empty(WALK_BATCH, dtype=np.int64) for _ in range(5))
    width = min(WALK_BATCH, GAP_CHILDREN)  # children per gap block
    gap, single = (np.empty(rows * width, dtype=np.int64) for _ in range(2))
    pick = np.empty(WALK_BATCH, dtype=bool)
    while top:
        b = min(top, WALK_BATCH)
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
            child_k = batch.compress(pick[:b], out=child[:k])
            np.bitwise_xor(child_k, (1 << 32 + j) | (1 << j), out=child_k)  # add j
            if blocks[j]:
                non_edges_k = np.invert(child_k, out=work[:k])  # in the low 32 bits
                for lo in range(0, k, width):
                    non_edges = non_edges_k[lo:lo + width]
                    w = len(non_edges)
                    blocked_w = blocked[lo:lo + w]
                    for i, column in enumerate(blocks[j]):
                        gap_cw = gap[:column.size * w].reshape(-1, w)
                        single_cw = single[:gap_cw.size].reshape(-1, w)
                        np.bitwise_and(column, non_edges, out=gap_cw)  # each comp's missing edges
                        np.subtract(gap_cw, 1, out=single_cw)
                        np.bitwise_and(single_cw, gap_cw, out=single_cw)
                        np.subtract(single_cw, 1, out=single_cw)
                        np.right_shift(single_cw, 63, out=single_cw)  # all ones iff <= 1 missing
                        np.bitwise_and(gap_cw, single_cw, out=gap_cw)
                        if i:
                            blocked_w |= np.bitwise_or.reduce(gap_cw, axis=0, out=spare[:w])
                        else:
                            np.bitwise_or.reduce(gap_cw, axis=0, out=blocked_w)
                blocked_k = blocked[:k]
                np.left_shift(blocked_k, 32, out=blocked_k)
                np.invert(blocked_k, out=blocked_k)
                np.bitwise_and(child_k, blocked_k, out=child_k)  # blocked edges leave addable
            # a leaf has no addable edge above j
            leaf_k = np.less(child_k, 1 << 33 + j, out=pick[:k])
            leaf = int(np.count_nonzero(leaf_k))
            if leaf == k:
                leaves[held:held + k] = child_k
            elif leaf:
                child_k.compress(leaf_k, out=leaves[held:held + leaf])
            held += leaf
            if leaf < k:
                if top + k - leaf > len(stack):
                    stack = np.concatenate((stack[:top], np.empty_like(stack)))
                if leaf:
                    child_k.compress(np.logical_not(leaf_k, out=leaf_k), out=stack[top:top + k - leaf])
                else:
                    stack[top:top + k] = child_k
                top += k - leaf
            if held >= WALK_BATCH:
                yield leaves[:held]
                held = 0
    if held:
        yield leaves[:held]


def _preorder_key(masks: np.ndarray, m: int) -> np.ndarray:
    """Each int64 edge mask's index in the preorder of the full subset tree
    over m candidate edges, where a child adds one edge above all present
    and children go lowest edge first: the order a recursive DFS reaches
    members in.

    rank(A) = |A| + 2**m - rev(A) - 2**(m - 1 - max A), rank(empty) = 0,
    where rev reverses the m-bit mask, so that 2**(m - 1 - max A) is rev's
    lowest set bit.
    """
    size = np.zeros_like(masks)
    rev = np.zeros_like(masks)
    for i in range(m):
        bit = masks >> i & 1
        size += bit
        rev |= bit << m - 1 - i
    return (size + (1 << m) - rev - (rev & -rev)) & (1 << m) - 1  # empty: 2**m -> 0


def _in_preorder(chunks: list[np.ndarray], m: int) -> np.ndarray:
    masks = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    # keys are distinct, so any sort gives this order; the stable one maps
    # less of numpy's sorting code into memory than the default
    return masks[np.argsort(_preorder_key(masks, m), kind="stable")]


@functools.cache
def _sweep(fam: ForbiddenFamily, n: int, every: bool) -> _SweepData:
    """Member count and one graph per class of every member or of the
    edge-maximal ones (addable set empty).  Callers pass `every`
    positionally, so each (family value, n, mask set) has one cache key."""
    count = 0
    found = []
    for batch in _walk(fam, n):
        count += len(batch)
        found.append(batch & 0xFFFFFFFF if every else batch[batch < 1 << 32])
    masks = _in_preorder(found, comb(n, fam.r))
    return _SweepData(count, tuple(_mask_classes(masks, n, fam.r)))


def _mask_to_graph(mask: int, cand: list[tuple[int, ...]], n: int, r: int) -> Hypergraph:
    # `cand` is sorted, so the chosen edges are too
    return Hypergraph._trusted(n, r, tuple(cand[i] for i in range(len(cand)) if mask >> i & 1))


def _orbit_classes(masks: np.ndarray, n: int, r: int) -> np.ndarray:
    """The first mask of each S_n-orbit of `masks`, in first-seen order.

    `masks` holds distinct int64 edge masks over the lex-ordered candidate
    r-sets of n vertices and must be closed under relabeling (ValueError if
    an image is missing).  Each mask is labelled with its position.  Every
    adjacent transposition (i, i+1) permutes the candidate edges, so it maps
    each mask to an image, built 8 bits per gather from byte lookup tables
    and found by `searchsorted` in one sorted copy.  Rounds of
    label = min(label, label[image]) over all transpositions, then one
    pointer jump label = label[label], run until no label changes.
    Adjacent transpositions generate S_n, so every mask ends labelled with
    the first position of its orbit, and the representatives are the masks
    that keep their own position.  No isomorphism test is made.
    """
    cand = _candidate_edges(n, r)
    eindex = {e: i for i, e in enumerate(cand)}
    order = np.argsort(masks, kind="stable")
    ordered = masks[order]
    byte_values = np.arange(256, dtype=np.int64)
    image_pos = []  # per transposition: the position of each mask's image
    for i in range(n - 1):
        swap = {i: i + 1, i + 1: i}
        target = [eindex[tuple(sorted(swap.get(v, v) for v in e))] for e in cand]
        image = np.zeros_like(masks)
        for low in range(0, len(cand), 8):
            table = np.zeros(256, dtype=np.int64)
            for bit, t in enumerate(target[low:low + 8]):
                table[byte_values >> bit & 1 == 1] |= 1 << t
            image |= table[masks >> low & 0xFF]
        pos = np.searchsorted(ordered, image)
        if not np.array_equal(ordered.take(pos, mode="clip"), image):
            raise ValueError("mask set is not closed under relabeling")
        image_pos.append(order[pos])
    label = np.arange(len(masks))
    while True:
        before = int(label.sum())
        for pos in image_pos:
            np.minimum(label, label[pos], out=label)
        label = label[label]
        if int(label.sum()) == before:  # labels only decrease: none changed
            return masks[label == np.arange(len(masks))]


def _mask_classes(masks: np.ndarray, n: int, r: int) -> list[Hypergraph]:
    """One graph per isomorphism class of a relabeling-closed int64 mask
    set: the first of each class in the given order (`_orbit_classes`)."""
    reps = _orbit_classes(masks, n, r)
    cand = _candidate_edges(n, r)
    return [_mask_to_graph(m, cand, n, r) for m in reps.tolist()]


def isomorphic(g: Hypergraph, h: Hypergraph) -> bool:
    """Exact isomorphism test: equal refinement signatures (an invariant that
    fixes n, r, m and the degree multiset), then one backtracking embedding
    of g into h, which is an isomorphism as n and m agree."""
    return refinement_signature(g) == refinement_signature(h) and _search(h, g) is not None


def enumerate_family(fam: Family, n: int) -> Iterator[Hypergraph]:
    """Yield one representative per isomorphism class of members on n vertices.

    Representatives are the first member of each class in DFS preorder (lex
    order of the sorted edge-index lists), yielded in that order: members
    are closed under relabeling, so the classes are the S_n-orbits of the
    member masks (`_orbit_classes`).  They are the cached all-members
    sweep's classes, which `extremal_lambda_p(full=True)` solves.
    """
    n = _check_sweepable(fam, n, ALL_MASKS_GUARD_BITS)
    yield from _sweep(fam, n, True).classes


@dataclass
class ExtremalResult:
    """Extremal value over members on exactly n labeled vertices, with argmaxes."""

    n: int
    value: float
    argmax: tuple[Hypergraph, ...]
    count_members: int
    p: Optional[float] = None
    solutions: tuple[SpectralSolution, ...] = ()
    non_converged: int = 0
    classes_solved: int = 0
    elapsed_ms: float = 0.0

    def to_json_dict(self, timings: bool = False, stats: bool = False) -> dict:
        """JSON fields; `stats` appends the solve counters (opt-in, so
        default bytes stay fixed)."""
        out: dict = {"n": self.n}
        if self.p is not None:
            out["p"] = self.p
        out["value"] = self.value
        out["argmax"] = [serialize(g) for g in self.argmax]
        out["count_members"] = self.count_members
        out["elapsed_ms"] = self.elapsed_ms if timings else 0.0
        if stats:
            out["non_converged"] = self.non_converged
            out["classes_solved"] = self.classes_solved
            out["solves"] = [
                {"residual": s.residual, "iterations": s.iterations, "flags": list(s.flags)}
                for s in self.solutions
            ]
        return out


def extremal_pi(fam: Family, n: int) -> ExtremalResult:
    """Maximum edge count over members on exactly n labeled vertices."""
    t0 = time.perf_counter()
    n = _check_sweepable(fam, n, ENUM_GUARD_BITS)
    data = _sweep(fam, n, False)
    _require_members(data.count)
    # a maximum-size member of a subgraph-closed family is edge-maximal, and
    # a class's first maximal mask in preorder is its first argmax mask
    best = max(g.m for g in data.classes)
    return ExtremalResult(
        n=n,
        value=float(best),
        argmax=tuple(g for g in data.classes if g.m == best),
        count_members=data.count,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )


def extremal_lambda_p(
    fam: Family,
    n: int,
    p: float,
    config: Optional[SolverConfig] = None,
    full: bool = False,
) -> ExtremalResult:
    """Maximum p-spectral radius over members on exactly n labeled vertices.

    By default one representative per class of edge-maximal members is
    solved (a spectral-extremal member must be edge-maximal); ``full=True``
    audits every member class instead, the ones `enumerate_family` yields.
    """
    t0 = time.perf_counter()
    _check_p(p)  # before the member walk, which can take seconds
    n = _check_sweepable(fam, n, FULL_MODE_GUARD_BITS if full else ENUM_GUARD_BITS)
    data = _sweep(fam, n, full)
    _require_members(data.count)

    cfg = config or SolverConfig()
    sols = [solve_rho_p(g, p, cfg) for g in data.classes]
    best = max(s.rho for s in sols)
    winners = [i for i, s in enumerate(sols) if s.rho >= best - VALUE_COLLAPSE]
    return ExtremalResult(
        n=n,
        value=best,
        argmax=tuple(data.classes[i] for i in winners),
        count_members=data.count,
        p=p,
        solutions=tuple(sols[i] for i in winners),
        non_converged=sum(not s.converged for s in sols),
        classes_solved=len(data.classes),
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )
