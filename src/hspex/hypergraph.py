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
from itertools import combinations
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


def _normalize_edge(raw: Iterable[int], r: int, n: int) -> Edge:
    """Validate one edge: r distinct ids, each in [0, n); return sorted tuple."""
    ids = tuple(int(v) for v in raw)
    if len(set(ids)) != len(ids):
        raise RepeatedVertex(f"edge {ids} repeats a vertex")
    if len(ids) != r:
        raise WrongArity(f"edge {ids} has {len(ids)} vertices, expected {r}")
    for v in ids:
        if not 0 <= v < n:
            raise OutOfRange(f"vertex {v} outside [0, {n})")
    return tuple(sorted(ids))


def _k_closure(
    edges, inc, start, k: int, skip: int | None = None, goal: Iterable[int] | None = None
) -> tuple[int, ...] | None:
    """Sorted smallest vertex set holding `start` and every edge it meets in
    >= k vertices, `edges[skip]` left out; `inc` is the graph's `incidence`.
    Given a `goal`, returns None as soon as every goal vertex is inside.
    Each edge counts its scanned vertices, so this costs O(sum of |e|).
    """
    inside = set(start)
    missing = set(() if goal is None else goal).difference(inside)
    if goal is not None and not missing:
        return None
    work = list(inside)
    hits: dict[int, int] = {}
    while work:
        for i in inc[work.pop()]:
            hits[i] = c = hits.get(i, 0) + 1
            if c == k and i != skip:
                new = [w for w in edges[i] if w not in inside]
                inside.update(new)
                work.extend(new)
                if missing:
                    missing.difference_update(new)
                    if not missing:
                        return None
    return tuple(sorted(inside))


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
    ``_trusted``.  Derived indexes (``edge_set``, ``degree_list``,
    ``incidence``, ``links``) are computed on first use and cached on the
    value; they take no part in ``==``, ``hash`` or ``repr``.
    """

    n: int
    r: int
    edges: tuple[Edge, ...] = field(default=())

    def __post_init__(self):
        if self.n < 0:
            raise OutOfRange(f"vertex count {self.n} < 0")
        if self.r < 2:
            raise WrongArity(f"uniformity {self.r} < 2")
        norm = sorted({_normalize_edge(e, self.r, self.n) for e in self.edges})
        object.__setattr__(self, "edges", tuple(norm))

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
        if not 0 <= v < self.n:
            raise OutOfRange(f"vertex {v} outside [0, {self.n})")
        return self.degree_list[v]

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
                comps.append(_k_closure(self.edges, self.incidence, (s,), 1))
                seen.update(comps[-1])
        return comps

    def is_2_covering(self) -> bool:
        """True iff every unordered vertex pair lies in some edge."""
        covered: set[tuple[int, int]] = set()
        for e in self.edges:
            covered.update(combinations(e, 2))
        return len(covered) == self.n * (self.n - 1) // 2

    # --- transformations ----------------------------------------------------

    def induced_subgraph(self, vertex_set: Iterable[int]) -> "Hypergraph":
        """Relabeled subgraph on the given vertices (order-preserving relabel)."""
        s = sorted({int(v) for v in vertex_set})
        for v in s:
            if not 0 <= v < self.n:
                raise OutOfRange(f"vertex {v} outside [0, {self.n})")
        relabel = {v: i for i, v in enumerate(s)}
        keep = set(s)
        # an increasing relabel keeps every edge increasing and the list sorted
        edges = tuple(tuple(relabel[v] for v in e) for e in self.edges if keep.issuperset(e))
        return Hypergraph._trusted(len(s), self.r, edges)

    def remove_edge(self, e: Iterable[int]) -> "Hypergraph":
        """Same vertex set, one edge removed.  Raises NoSuchEdge if absent."""
        key = tuple(sorted(int(v) for v in e))
        i = bisect_left(self.edges, key)
        if i == self.m or self.edges[i] != key:
            raise NoSuchEdge(f"edge {key} not in graph")
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
        for w in (u, v):
            if not 0 <= w < self.n:
                raise OutOfRange(f"vertex {w} outside [0, {self.n})")
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
        t = [int(c) for c in t]
        if len(t) != self.n or any(c < 1 for c in t):
            raise BadCounts(f"need {self.n} positive counts, got {t}")
        offset = [0] * self.n
        acc = 0
        for v in range(self.n):
            offset[v] = acc
            acc += t[v]
        edges: list[Edge] = []
        for e in self.edges:
            choices: list[Edge] = [()]
            for v in e:
                choices = [c + (offset[v] + j,) for c in choices for j in range(t[v])]
            edges.extend(choices)
        # blockwise ids keep each inherited edge increasing and distinct
        return Hypergraph._trusted(acc, self.r, tuple(sorted(edges)))


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
    if ell < 0 or t < 0:
        raise TooSmall(f"ell={ell}, t={t} must be nonnegative")
    g = Hypergraph(0, r)
    for _ in range(ell):
        g = disjoint_union(g, complete_r_graph(t, r))
    return g


def l_gadget(ell: int, lam: Sequence[int], t: int) -> Hypergraph:
    """ell disjoint K_t^(r) plus one edge meeting the j-th clique in lam[j] vertices.

    lam must be a nontrivial partition (nonincreasing positive parts, length
    ell >= 2) of r = sum(lam); the extra edge uses the lam[j] lowest-id
    vertices of clique j.
    """
    lam = tuple(int(x) for x in lam)
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
    edges = []
    for lineno, tokens in body:
        try:
            ids = [int(x) for x in tokens]
        except ValueError:
            raise ParseError(lineno, f"non-integer vertex id in {tokens}") from None
        edges.append((lineno, ids))
    try:
        return Hypergraph(n, r, tuple(ids for _, ids in edges))
    except (WrongArity, RepeatedVertex, OutOfRange) as exc:
        # report the first offending line
        for lineno, ids in edges:
            try:
                _normalize_edge(ids, r, n)
            except (WrongArity, RepeatedVertex, OutOfRange) as inner:
                raise ParseError(lineno, str(inner)) from inner
        raise ParseError(header_line, str(exc)) from exc
