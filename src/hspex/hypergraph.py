"""Immutable r-uniform hypergraphs and their purely combinatorial transformations.

Vertices are ids ``0..n-1``.  Edges are stored as strictly increasing
r-tuples, and the edge list is kept sorted lexicographically, so equal
values compare equal and every derived quantity is deterministic.  All
transformations return new values; nothing here mutates.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, combinations, product
from typing import Iterable, Sequence

from .errors import (
    BadCounts,
    BadPartition,
    NoSuchEdge,
    OutOfRange,
    ParseError,
    RepeatedVertex,
    TooSmall,
    UniformityMismatch,
    WrongArity,
)

Edge = tuple[int, ...]


def _integers(raw: Iterable, error: type[Exception], what: str) -> tuple[int, ...]:
    """raw as a tuple of ints; an entry that int() would truncate or parse
    (1.5, "2") raises `error`, and one it cannot convert raises as int() does."""
    raw = tuple(raw)
    ints = tuple(map(int, raw))
    if ints != raw:
        bad = next(v for v, i in zip(raw, ints) if i != v)
        raise error(f"{what} {bad!r} is not an integer")
    return ints


def _check_size(n: int, r: int) -> tuple[int, int]:
    """The rule for a graph's vertex count and uniformity: (n, r) as ints; OutOfRange
    unless n is an integer >= 0, WrongArity unless r is an integer >= 2."""
    (n,) = _integers((n,), OutOfRange, "vertex count")
    if n < 0:
        raise OutOfRange(f"vertex count {n} < 0")
    (r,) = _integers((r,), WrongArity, "uniformity")
    if r < 2:
        raise WrongArity(f"uniformity {r} < 2")
    return n, r


def _vertices(raw: Iterable, n: int) -> tuple[int, ...]:
    """raw as vertex ids: the `_integers` rule, then OutOfRange outside [0, n)."""
    ids = _integers(raw, OutOfRange, "vertex")
    for v in ids:
        if not 0 <= v < n:
            raise OutOfRange(f"vertex {v} outside [0, {n})")
    return ids


def _normalize_edge(raw: Iterable[int], r: int, n: int) -> Edge:
    """Validate one edge: r distinct integer ids, each in [0, n); return sorted tuple."""
    ids = _vertices(raw, n)
    if len(set(ids)) != len(ids):
        raise RepeatedVertex(f"edge {ids} repeats a vertex")
    if len(ids) != r:
        raise WrongArity(f"edge {ids} has {len(ids)} vertices, expected {r}")
    return tuple(sorted(ids))


def _k_closure(
    masks, inc, start, k: int, skip: int | None = None, goal: Iterable[int] | None = None
) -> tuple[int, ...] | None:
    """Sorted smallest vertex set holding `start` and every edge it meets in
    >= k vertices, edge `skip` left out; `masks` and `inc` are the graph's
    `edge_masks` and `incidence`.  Given a `goal`, returns None as soon as
    every goal vertex is inside.

    Vertex sets are bit masks.  Each vertex inside is scanned once, the
    lowest waiting one first, and an edge joins when the vertices scanned so
    far meet it in exactly k, at the scan of its k-th vertex.  So every edge
    joins at most once, a closure costs O(sum of |e|) mask operations and
    keeps no per-edge state, and the fixpoint is the one of any scan order.
    """
    inside = want = 0
    for v in start:
        inside |= 1 << v
    if goal is None:
        want = -1  # every bit set, so never inside
    else:
        for v in goal:
            want |= 1 << v
        if want & inside == want:
            return None
    work, scanned = inside, 0
    while work:
        low = work & -work
        work ^= low
        scanned |= low
        for i in inc[low.bit_length() - 1]:
            em = masks[i]
            if (em & scanned).bit_count() == k and i != skip:
                new = em & ~inside
                inside |= new
                work |= new
                if want & inside == want:
                    return None
    out = []
    while inside:
        low = inside & -inside
        out.append(low.bit_length() - 1)
        inside ^= low
    return tuple(out)


def _link_edge(links: dict[int, int], e: Edge) -> None:
    """Enter edge e into a ``links`` index."""
    full = sum(1 << v for v in e)
    for v in e:
        rest = full ^ (1 << v)
        links[rest] = links.get(rest, 0) | 1 << v


@dataclass(frozen=True)
class Hypergraph:
    """An immutable simple r-uniform hypergraph on vertex ids 0..n-1.

    ``edges`` is always a lexicographically sorted tuple of strictly
    increasing r-tuples; construction validates and normalizes any
    iterable-of-iterables input.  Values derived from a valid value (blow-ups
    and the other transformations below) skip the check through
    ``_trusted``.  Derived indexes (``edge_set``, ``edge_masks``,
    ``degree_list``, ``incidence``, ``links``) are computed on first use and
    cached on the value; they take no part in ``==``, ``hash`` or ``repr``.
    """

    n: int
    r: int
    edges: tuple[Edge, ...] = field(default=())

    def __post_init__(self):
        n, r = _check_size(self.n, self.r)
        norm = sorted({_normalize_edge(e, r, n) for e in self.edges})
        self.__dict__.update(n=n, r=r, edges=tuple(norm))

    @classmethod
    def _trusted(cls, n: int, r: int, edges: tuple[Edge, ...]) -> "Hypergraph":
        """The value for `edges` without validation: the caller guarantees a
        sorted tuple of distinct increasing r-tuples over [0, n)."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, r=r, edges=edges)
        return g

    # --- cached indexes ------------------------------------------------------

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        """Each edge as a bit mask over its vertices, in edge order."""
        return tuple(sum(1 << v for v in e) for e in self.edges)

    @cached_property
    def degree_list(self) -> tuple[int, ...]:
        """Degree of each vertex."""
        d = [0] * self.n
        for e in self.edges:
            for v in e:
                d[v] += 1
        return tuple(d)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Indices of the edges through each vertex."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            for v in e:
                inc[v].append(i)
        return tuple(map(tuple, inc))

    @cached_property
    def links(self) -> dict[int, int]:
        """Each (r-1)-set that lies in an edge, as a bit mask, mapped to the
        mask of the vertices that complete it to an edge.  Read-only."""
        links: dict[int, int] = {}
        for e in self.edges:
            _link_edge(links, e)
        return links

    # --- basic queries -----------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        """Number of edges containing v."""
        return self.degree_list[_vertices((v,), self.n)[0]]

    def degrees(self) -> list[int]:
        return list(self.degree_list)

    def degree_extremes(self) -> tuple[int, int]:
        """(max degree, min degree); isolated vertices count as 0; (0,0) for n=0."""
        if self.n == 0:
            return (0, 0)
        d = self.degree_list
        return (max(d), min(d))

    def is_connected(self) -> bool:
        """True iff one component covers all n vertices; n <= 1 is connected."""
        return len(self.components()) <= 1

    def components(self) -> list[tuple[int, ...]]:
        """Vertex sets of connected components, each sorted, listed by smallest id."""
        seen: set[int] = set()
        comps = []
        for s in range(self.n):
            if s not in seen:
                comps.append(_k_closure(self.edge_masks, self.incidence, (s,), 1))
                seen.update(comps[-1])
        return comps

    def _edge_index(self, e: Iterable[int]) -> int:
        """Index of e (ids in any order) in `edges`; NoSuchEdge if it is not there."""
        key = tuple(sorted(_integers(e, OutOfRange, "vertex")))
        i = bisect_left(self.edges, key)
        if i == self.m or self.edges[i] != key:
            raise NoSuchEdge(f"edge {key} not in graph")
        return i

    def is_2_covering(self) -> bool:
        """True iff every unordered vertex pair lies in some edge."""
        covered: set[tuple[int, int]] = set()
        for e in self.edges:
            covered.update(combinations(e, 2))
        return len(covered) == self.n * (self.n - 1) // 2

    # --- transformations ----------------------------------------------------

    def induced_subgraph(self, vertex_set: Iterable[int]) -> "Hypergraph":
        """Relabeled subgraph on the given vertices (order-preserving relabel)."""
        s = sorted(set(_vertices(vertex_set, self.n)))
        relabel = {v: i for i, v in enumerate(s)}
        keep = set(s)
        # an increasing relabel keeps every edge increasing and the list sorted
        edges = tuple(tuple(relabel[v] for v in e) for e in self.edges if keep.issuperset(e))
        return Hypergraph._trusted(len(s), self.r, edges)

    def remove_edge(self, e: Iterable[int]) -> "Hypergraph":
        """Same vertex set, one edge removed.  Raises NoSuchEdge if absent."""
        i = self._edge_index(e)
        return Hypergraph._trusted(self.n, self.r, self.edges[:i] + self.edges[i + 1:])

    def add_edge(self, e: Iterable[int]) -> "Hypergraph":
        """Same vertex set, one edge added (returns self on an existing edge).

        The new value starts with this one's ``links`` and ``degree_list``,
        updated by the edge, if they were built.
        """
        key = _normalize_edge(e, self.r, self.n)
        i = bisect_left(self.edges, key)
        if i < self.m and self.edges[i] == key:
            return self
        g = Hypergraph._trusted(self.n, self.r, self.edges[:i] + (key,) + self.edges[i:])
        built = self.__dict__
        if "links" in built:
            g.__dict__["links"] = links = dict(built["links"])
            _link_edge(links, key)
        if "degree_list" in built:
            d = list(built["degree_list"])
            for v in key:
                d[v] += 1
            g.__dict__["degree_list"] = tuple(d)
        return g

    def clone_vertex(self, u: int, v: int) -> "Hypergraph":
        """Zykov symmetrization: clone v onto u.

        Deletes every edge incident to u, then for every edge e with
        v in e and u not in e adds e + u - v.  With u == v this is the
        identity.
        """
        u, v = _vertices((u, v), self.n)
        if u == v:
            return self
        # kept edges miss u and clones hold it, and distinct edges through v
        # have distinct clones, so no edge repeats
        new_edges = [e for e in self.edges if u not in e]
        for e in self.edges:
            if v in e and u not in e:
                new_edges.append(tuple(sorted(u if w == v else w for w in e)))
        return Hypergraph._trusted(self.n, self.r, tuple(sorted(new_edges)))

    def blow_up(self, t: Sequence[int]) -> "Hypergraph":
        """Blow-up: vertex v becomes t[v] copies; edges inherited across copies.

        Output ids are blockwise: copies of vertex 0 first, then of 1, ...
        """
        t = list(_integers(t, BadCounts, "count"))  # printed as a list below
        if len(t) != self.n or any(c < 1 for c in t):
            raise BadCounts(f"need {self.n} positive counts, got {t}")
        ends = [*accumulate(t, initial=0)]
        ids = [range(a, b) for a, b in zip(ends, ends[1:])]  # the copies of each vertex
        # blockwise ids keep each inherited edge increasing and distinct
        edges = [c for e in self.edges for c in product(*(ids[v] for v in e))]
        return Hypergraph._trusted(ends[-1], self.r, tuple(sorted(edges)))


# --- module-level constructors ---------------------------------------------

def new_hypergraph(n: int, r: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Validated, deduplicated, canonically sorted hypergraph value."""
    return Hypergraph(n, r, edges)


def complete_r_graph(t: int, r: int) -> Hypergraph:
    """Complete r-graph on t vertices (empty edge set when t < r)."""
    return Hypergraph(t, r, tuple(combinations(range(t), r)))


def disjoint_union(g1: Hypergraph, g2: Hypergraph) -> Hypergraph:
    """Vertex-shifted union; both graphs must share the uniformity r."""
    if g1.r != g2.r:
        raise UniformityMismatch(f"r={g1.r} vs r={g2.r}")
    shifted = tuple(tuple(v + g1.n for v in e) for e in g2.edges)
    return Hypergraph(g1.n + g2.n, g1.r, g1.edges + shifted)


def ell_cliques(ell: int, t: int, r: int) -> Hypergraph:
    """ell disjoint complete r-graphs on t vertices each."""
    ell, t = _integers((ell, t), TooSmall, "clique count or size")
    if ell < 0 or t < 0:
        raise TooSmall(f"ell={ell}, t={t} must be nonnegative")
    g = Hypergraph(0, r)
    for _ in range(ell):
        g = disjoint_union(g, complete_r_graph(t, g.r))
    return g


def l_gadget(ell: int, lam: Sequence[int], t: int) -> Hypergraph:
    """ell disjoint K_t^(r) plus one edge meeting the j-th clique in lam[j] vertices.

    lam must be a nontrivial partition (nonincreasing positive parts, length
    ell >= 2) of r = sum(lam); the extra edge uses the lam[j] lowest-id
    vertices of clique j.
    """
    lam = _integers(lam, BadPartition, "part")
    (t,) = _integers((t,), TooSmall, "clique size")
    if len(lam) != ell:
        raise BadPartition(f"ell={ell} != len(lam)={len(lam)}")
    if len(lam) < 2:
        raise BadPartition("gadget requires a nontrivial partition (>= 2 parts)")
    if any(x < 1 for x in lam) or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise BadPartition(f"{lam} is not a nonincreasing positive partition")
    r = sum(lam)
    if t < lam[0] or t < r:
        raise TooSmall(f"t={t} < max(lam_1={lam[0]}, r={r})")
    g = ell_cliques(ell, t, r)
    extra = []
    for j, part in enumerate(lam):
        extra.extend(range(j * t, j * t + part))
    return g.add_edge(extra)


# --- text format ------------------------------------------------------------

def serialize(g: Hypergraph) -> str:
    """.hg text: header "r n m", then m sorted edge lines, LF endings."""
    lines = [f"{g.r} {g.n} {g.m}"]
    lines.extend(" ".join(str(v) for v in e) for e in g.edges)
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the .hg format; '#' begins a comment line; raises ParseError."""
    rows: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append((lineno, stripped.split()))
    if not rows:
        raise ParseError(1, "missing header line 'r n m'")
    header_line, header = rows[0]
    if len(header) != 3:
        raise ParseError(header_line, f"header needs 3 integers, got {header}")
    try:
        r, n, m = (int(x) for x in header)
    except ValueError:
        raise ParseError(header_line, f"non-integer header {header}") from None
    body = rows[1:]
    if len(body) != m:
        raise ParseError(header_line, f"header declares {m} edges, found {len(body)}")
    try:
        n, r = _check_size(n, r)
    except (WrongArity, OutOfRange) as exc:
        raise ParseError(header_line, str(exc)) from exc
    edges: dict[Edge, int] = {}  # each edge to its line
    for lineno, tokens in body:
        try:
            e = _normalize_edge([int(x) for x in tokens], r, n)
        except ValueError:
            raise ParseError(lineno, f"non-integer vertex id in {tokens}") from None
        except (WrongArity, RepeatedVertex, OutOfRange) as exc:
            raise ParseError(lineno, str(exc)) from exc
        if e in edges:
            raise ParseError(lineno, f"edge {e} repeats line {edges[e]}")
        edges[e] = lineno
    return Hypergraph._trusted(n, r, tuple(sorted(edges)))
