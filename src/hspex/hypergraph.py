"""Immutable r-uniform hypergraphs and their purely combinatorial transformations.

Vertices are ids ``0..n-1``.  Edges are stored as strictly increasing
r-tuples, and the edge list is kept sorted lexicographically, so equal
values compare equal and every derived quantity is deterministic.  All
transformations return new values; nothing here mutates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def _incidence(n: int, edges: Sequence[Edge]) -> list[list[int]]:
    """Indices of the edges through each vertex."""
    inc: list[list[int]] = [[] for _ in range(n)]
    for i, e in enumerate(edges):
        for v in e:
            inc[v].append(i)
    return inc


def _k_closure(edges, inc, start, k: int, skip: int | None = None) -> tuple[int, ...]:
    """Sorted smallest vertex set holding `start` and every edge it meets in
    >= k vertices, `edges[skip]` left out; `inc` is `_incidence(n, edges)`.
    Each edge counts its scanned vertices, so this costs O(sum of |e|).
    """
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


@dataclass(frozen=True)
class Hypergraph:
    """An immutable simple r-uniform hypergraph on vertex ids 0..n-1.

    ``edges`` is always a lexicographically sorted tuple of strictly
    increasing r-tuples; construction validates and normalizes any
    iterable-of-iterables input.
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

    # --- basic queries -----------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(self.n)

    def has_edge(self, e: Iterable[int]) -> bool:
        return tuple(sorted(int(v) for v in e)) in set(self.edges)

    def degree(self, v: int) -> int:
        """Number of edges containing v."""
        if not 0 <= v < self.n:
            raise OutOfRange(f"vertex {v} outside [0, {self.n})")
        return sum(1 for e in self.edges if v in e)

    def degrees(self) -> list[int]:
        d = [0] * self.n
        for e in self.edges:
            for v in e:
                d[v] += 1
        return d

    def degree_extremes(self) -> tuple[int, int]:
        """(max degree, min degree); isolated vertices count as 0; (0,0) for n=0."""
        if self.n == 0:
            return (0, 0)
        d = self.degrees()
        return (max(d), min(d))

    def is_connected(self) -> bool:
        """True iff one component covers all n vertices; n <= 1 is connected."""
        return len(self.components()) <= 1

    def components(self) -> list[tuple[int, ...]]:
        """Vertex sets of connected components, each sorted, listed by smallest id."""
        inc = _incidence(self.n, self.edges)
        seen: set[int] = set()
        comps = []
        for s in range(self.n):
            if s not in seen:
                comps.append(_k_closure(self.edges, inc, (s,), 1))
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
        edges = [tuple(relabel[v] for v in e) for e in self.edges if keep.issuperset(e)]
        return Hypergraph(len(s), self.r, tuple(edges))

    def remove_edge(self, e: Iterable[int]) -> "Hypergraph":
        """Same vertex set, one edge removed.  Raises NoSuchEdge if absent."""
        key = tuple(sorted(int(v) for v in e))
        if key not in set(self.edges):
            raise NoSuchEdge(f"edge {key} not in graph")
        return Hypergraph(self.n, self.r, tuple(f for f in self.edges if f != key))

    def add_edge(self, e: Iterable[int]) -> "Hypergraph":
        """Same vertex set, one edge added (idempotent on existing edges)."""
        key = _normalize_edge(e, self.r, self.n)
        return Hypergraph(self.n, self.r, self.edges + (key,))

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
        new_edges = [e for e in self.edges if u not in e]
        for e in self.edges:
            if v in e and u not in e:
                new_edges.append(tuple(sorted(w for w in e if w != v)) + (u,))
        return Hypergraph(self.n, self.r, tuple(new_edges))

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
        return Hypergraph(acc, self.r, tuple(edges))


# --- module-level constructors ---------------------------------------------

def new_hypergraph(n: int, r: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Validated, deduplicated, canonically sorted hypergraph value."""
    return Hypergraph(n, r, tuple(tuple(e) for e in edges))


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
