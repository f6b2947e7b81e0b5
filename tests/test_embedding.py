"""Subgraph containment, induced containment, and incremental copy checks."""

import random
from itertools import combinations, permutations
from math import factorial

import pytest

from hspex import embedding
from hspex.embedding import (
    _edge_classes,
    contains_induced_subgraph,
    contains_subgraph,
    creates_copy,
    labeled_copy_edge_sets,
)
from hspex.errors import OutOfRange, RepeatedVertex, UniformityMismatch, WrongArity
from hspex.hypergraph import Hypergraph, complete_r_graph, l_gadget, new_hypergraph
from conftest import bowtie3, cycle, path3, random_graph
from oracles import (
    creates_copy_every_edge,
    creates_copy_required_edge,
    edge_orbit_reps,
    edge_stabilizers_bruteforce,
    induced_search_dfs,
    pinned_search,
    search_sorted_tuples,
)


def brute_contains(host: Hypergraph, pattern: Hypergraph) -> bool:
    if pattern.n > host.n:
        return False
    host_edges = set(host.edges)
    for image in permutations(range(host.n), pattern.n):
        if all(
            tuple(sorted(image[v] for v in e)) in host_edges for e in pattern.edges
        ):
            return True
    return False


def test_path_in_cycle():
    found, phi = contains_subgraph(cycle(4), path3())
    assert found
    edge_set = set(cycle(4).edges)
    assert tuple(sorted((phi[0], phi[1]))) in edge_set
    assert tuple(sorted((phi[1], phi[2]))) in edge_set


def test_witness_is_deterministic_first():
    # center of the path maps first (highest degree), lowest feasible host ids win
    assert contains_subgraph(cycle(4), path3())[1] == (1, 0, 3)


def test_triangle_not_in_c4():
    assert contains_subgraph(cycle(4), complete_r_graph(3, 2)) == (False, None)


def test_witness_is_injective():
    found, phi = contains_subgraph(complete_r_graph(5, 2), cycle(4))
    assert found and len(set(phi)) == 4


def test_gadget_contains_bowtie():
    gadget = l_gadget(2, (2, 1), 6)
    found, _ = contains_subgraph(gadget, bowtie3())
    assert found


def test_gadget_contains_pattern_with_larger_cliques():
    for t in (6, 7):
        assert contains_subgraph(l_gadget(2, (2, 1), t), bowtie3())[0]
    for t in (4, 5):
        assert contains_subgraph(l_gadget(2, (1, 1), t), path3())[0]


def test_uniformity_mismatch():
    with pytest.raises(UniformityMismatch):
        contains_subgraph(cycle(4), new_hypergraph(3, 3, [(0, 1, 2)]))


def test_self_containment(rng):
    for _ in range(20):
        g = random_graph(5, 2, 0.5, rng)
        assert contains_subgraph(g, g)[0]


def test_isolated_pattern_vertices_need_room():
    single = Hypergraph(1, 2, ())
    host = Hypergraph(0, 2, ())
    assert contains_subgraph(host, single) == (False, None)


def test_matches_bruteforce(rng):
    for _ in range(150):
        r = rng.choice([2, 3])
        host = random_graph(6, r, 0.5, rng)
        pattern = random_graph(rng.randint(2, 4), r, 0.6, rng)
        assert contains_subgraph(host, pattern)[0] == brute_contains(host, pattern)


def test_creates_copy_matches_full_search(rng):
    from itertools import combinations

    for _ in range(100):
        r = rng.choice([2, 3])
        pattern = random_graph(rng.randint(3, 4), r, 0.7, rng)
        if pattern.m == 0:
            continue
        host = random_graph(6, r, 0.25, rng)
        if contains_subgraph(host, pattern)[0]:
            continue
        non_edges = [e for e in combinations(range(6), r) if e not in set(host.edges)]
        for e in non_edges[:5]:
            expected = contains_subgraph(host.add_edge(e), pattern)[0]
            assert creates_copy(host, e, pattern) == expected


def test_induced_c4_detection():
    c4 = cycle(4)
    assert contains_induced_subgraph(c4, c4)[0]
    k4 = complete_r_graph(4, 2)
    assert contains_subgraph(k4, c4)[0]
    assert not contains_induced_subgraph(k4, c4)[0]


def test_induced_matches_bruteforce(rng):
    def brute_induced(host, pattern):
        if pattern.n > host.n:
            return False
        host_edges = set(host.edges)
        pat_edges = set(pattern.edges)
        from itertools import combinations as comb

        for image in permutations(range(host.n), pattern.n):
            ok = True
            for sub in comb(range(pattern.n), pattern.r):
                im = tuple(sorted(image[v] for v in sub))
                if (tuple(sorted(sub)) in pat_edges) != (im in host_edges):
                    ok = False
                    break
            if ok:
                return True
        return False

    for _ in range(80):
        host = random_graph(5, 2, 0.5, rng)
        pattern = random_graph(rng.randint(2, 4), 2, 0.5, rng)
        assert (
            contains_induced_subgraph(host, pattern)[0]
            == brute_induced(host, pattern)
        )


def test_labeled_copies_of_triangle():
    copies = labeled_copy_edge_sets(complete_r_graph(3, 2), 4)
    assert len(copies) == 4  # one per 3-subset of 4 vertices


def test_labeled_copies_too_big():
    assert labeled_copy_edge_sets(complete_r_graph(5, 2), 4) == []


def brute_creates_copy(host: Hypergraph, new_edge: tuple[int, ...], pattern: Hypergraph) -> bool:
    """Some injection sends every pattern edge into host + e and one onto e."""
    if pattern.n > host.n:
        return False
    host_edges = set(host.edges) | {new_edge}
    for image in permutations(range(host.n), pattern.n):
        mapped = {tuple(sorted(image[v] for v in e)) for e in pattern.edges}
        if new_edge in mapped and mapped <= host_edges:
            return True
    return False


def oracle_pairs(seed: int):
    """Seeded (host, pattern) pairs, one per kind, for r = 2, 3, 4 by seed."""
    rng = random.Random(seed)
    r = (2, 3, 4)[seed % 3]
    for kind in ("random", "isolated", "edgeless", "larger", "denser", "inside"):
        hn = rng.randint(r, 6)
        host = random_graph(hn, r, rng.uniform(0.2, 0.7), rng)
        if kind == "larger":
            pattern = random_graph(hn + 1, r, 0.5, rng)
        elif kind == "edgeless":
            pattern = Hypergraph(rng.randint(0, hn), r, ())
        elif kind == "denser":
            pattern = complete_r_graph(min(hn, r + 1), r)
            host = random_graph(hn, r, 0.3, rng)
        elif kind == "inside":
            # host already contains the pattern, so copies need not use the new edge
            pattern = host.induced_subgraph(sorted(rng.sample(range(hn), rng.randint(r, hn))))
        else:
            pattern = random_graph(rng.randint(r, min(hn, 5)), r, rng.uniform(0.3, 0.9), rng)
            if kind == "isolated":
                pattern = Hypergraph(pattern.n + 1, r, pattern.edges)
        yield host, pattern


@pytest.mark.parametrize("seed", range(30))
def test_single_search_matches_oracles(seed):
    for host, pattern in oracle_pairs(seed):
        assert contains_induced_subgraph(host, pattern)[1] == induced_search_dfs(host, pattern)
        present = set(host.edges)
        for e in combinations(range(host.n), host.r):
            if e in present:
                continue
            got = creates_copy(host, e, pattern)
            assert got == creates_copy_required_edge(host, e, pattern)
            assert got == brute_creates_copy(host, e, pattern)


@pytest.mark.parametrize(
    "new_edge, error",
    [((0, 0), RepeatedVertex), ((0, 1, 2), WrongArity), ((0, 7), OutOfRange)],
)
def test_creates_copy_rejects_malformed_new_edge(new_edge, error):
    with pytest.raises(error):
        creates_copy(cycle(4), new_edge, complete_r_graph(3, 2))


def brute_pinned(host: Hypergraph, pattern: Hypergraph, v: int, allowed) -> bool:
    """Some injective edge-preserving map sends pattern vertex v into allowed."""
    if pattern.n > host.n:
        return False
    host_edges = set(host.edges)
    return any(
        image[v] in allowed
        and all(tuple(sorted(image[u] for u in e)) in host_edges for e in pattern.edges)
        for image in permutations(range(host.n), pattern.n)
    )


@pytest.mark.parametrize("seed", range(6))
def test_vertex_set_pin_matches_bruteforce(seed):
    rng = random.Random(seed)
    r = (2, 3)[seed % 2]
    for _ in range(25):
        host = random_graph(rng.randint(r, 6), r, rng.uniform(0.3, 0.8), rng)
        pattern = random_graph(rng.randint(1, 4), r, rng.uniform(0.3, 0.9), rng)
        v = rng.randrange(pattern.n)
        allowed = tuple(sorted(rng.sample(range(host.n), rng.randint(1, host.n))))
        phi = pinned_search(host, pattern, {v: allowed})
        assert (phi is not None) == brute_pinned(host, pattern, v, allowed)
        if phi is not None:
            assert phi[v] in allowed and len(set(phi)) == pattern.n
            assert {tuple(sorted(phi[u] for u in e)) for e in pattern.edges} <= set(host.edges)


def test_creates_copy_searches_once_per_pattern_edge(rng, monkeypatch):
    """At most one pinned search into the host per edge orbit of the
    pattern, and at least one if the pattern has an edge.  Searches are
    counted where every one of them runs a plan: `_run`."""
    hosts = []
    run = embedding._run

    def counted(plan, host, *args, **kwargs):
        hosts.append(host)
        return run(plan, host, *args, **kwargs)

    monkeypatch.setattr(embedding, "_run", counted)
    for _ in range(40):
        r = rng.choice([2, 3])
        pattern = random_graph(rng.randint(r, 4), r, 0.7, rng)
        host = random_graph(6, r, 0.3, rng)
        present = set(host.edges)
        for e in combinations(range(6), r):
            if e not in present:
                hosts.clear()
                creates_copy(host, e, pattern)
                searches = sum(h is host for h in hosts)
                assert searches <= len(edge_orbit_reps(pattern))
                assert (searches > 0) == (pattern.m > 0)


def edge_orbit_reps_bruteforce(pattern: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """First edge of each edge orbit, the automorphisms taken from every permutation."""
    auts = [
        p for p in permutations(range(pattern.n))
        if all(tuple(sorted(p[v] for v in e)) in pattern.edge_set for e in pattern.edges)
    ]
    reps: list[tuple[int, ...]] = []
    for g in pattern.edges:
        if not any(tuple(sorted(p[v] for v in f)) == g for f in reps for p in auts):
            reps.append(g)
    return tuple(reps)


RIGID_2 = new_hypergraph(6, 2, [(0, 5), (1, 2), (1, 3), (1, 4), (3, 4), (3, 5)])
RIGID_3 = new_hypergraph(6, 3, [(0, 1, 3), (0, 2, 4), (0, 4, 5), (2, 3, 4)])


@pytest.mark.parametrize(
    "pattern, orbits",
    [
        (complete_r_graph(3, 2), 1),
        (cycle(5), 1),
        (complete_r_graph(4, 3), 1),
        (path3(), 1),
        (new_hypergraph(4, 2, [(0, 1), (0, 2), (0, 3)]), 1),  # K_{1,3}
        (new_hypergraph(4, 2, [(0, 1), (2, 3)]), 1),
        (new_hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)]), 2),  # P4
        (Hypergraph(3, 2, ()), 0),
        (RIGID_2, RIGID_2.m),
        (RIGID_3, RIGID_3.m),
    ],
)
def test_edge_orbit_counts(pattern, orbits):
    reps = edge_orbit_reps(pattern)
    assert len(reps) == orbits
    assert reps == edge_orbit_reps_bruteforce(pattern)


def test_edge_orbit_reps_match_bruteforce(rng):
    for _ in range(300):
        r = rng.choice([2, 3])
        pattern = random_graph(rng.randint(r, 6), r, rng.uniform(0.2, 0.8), rng)
        assert edge_orbit_reps(pattern) == edge_orbit_reps_bruteforce(pattern), pattern


RIGID_4 = new_hypergraph(7, 4, [(0, 1, 3, 4), (0, 1, 4, 5), (0, 2, 3, 5), (2, 4, 5, 6)])
TWO_3 = new_hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)])


def check_placements(pattern: Hypergraph) -> tuple[int, ...]:
    """Each edge orbit's recorded orders lie in distinct classes under the
    brute-force stabilizer G_f and number r!/|G_f|, so they meet every class
    once; returns the numbers."""
    stab, classes = edge_stabilizers_bruteforce(pattern), _edge_classes(pattern)
    assert tuple(f for f, _ in classes) == edge_orbit_reps_bruteforce(pattern)
    for f, orders in classes:
        assert len(orders) == factorial(pattern.r) // len(stab[f])
        for i, t in enumerate(orders):
            images = {tuple(dict(zip(f, s))[v] for v in t) for s in stab[f]}
            assert not images.intersection(orders[i + 1:]), (pattern, f)
    return tuple(len(orders) for _, orders in classes)


@pytest.mark.parametrize(
    "pattern, placements",
    [
        (RIGID_2, (2,) * RIGID_2.m),  # trivial stabilizers
        (complete_r_graph(3, 2), (1,)),  # full
        (cycle(5), (1,)),
        (new_hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)]), (2, 1)),  # P4: trivial and full
        (RIGID_3, (6,) * RIGID_3.m),
        (TWO_3, (3,)),  # proper: the swap of 0 and 1
        (new_hypergraph(6, 3, [(0, 1, 2), (0, 1, 3), (0, 4, 5)]), (6, 3)),
        (complete_r_graph(4, 3), (1,)),
        (RIGID_4, (24,) * RIGID_4.m),
        (new_hypergraph(5, 4, [(0, 1, 2, 3), (0, 1, 2, 4)]), (4,)),  # proper: S3 on 0, 1, 2
        (new_hypergraph(6, 4, [(0, 1, 2, 3), (0, 1, 4, 5)]), (6,)),  # proper, order 4
        (complete_r_graph(5, 4), (1,)),
        (Hypergraph(3, 2, ()), ()),
    ],
)
def test_placements_per_edge_orbit(pattern, placements):
    """One placement of the pinned edge per class of its vertex orders."""
    assert check_placements(pattern) == placements


def test_placements_match_bruteforce_stabilizers(rng):
    for _ in range(300):
        r = rng.choice([2, 3, 4])
        pattern = random_graph(rng.randint(r, 6), r, rng.uniform(0.2, 0.8), rng)
        check_placements(pattern)


NON_TRANSITIVE = [
    new_hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)]),  # P4
    new_hypergraph(5, 2, [(0, 1), (0, 2), (0, 3), (3, 4)]),  # star plus a pendant edge
    new_hypergraph(5, 2, [(0, 1), (0, 2), (1, 2), (2, 3)]),  # vertex 4 isolated
    RIGID_3,
    # proper edge stabilizers at r = 3: 3 placements, then 3 and 6, then 6 and 3
    TWO_3,
    new_hypergraph(5, 3, [(0, 1, 2), (0, 1, 3), (1, 2, 4)]),
    new_hypergraph(6, 3, [(0, 1, 2), (0, 1, 3), (0, 4, 5)]),
]


@pytest.mark.parametrize("pattern", NON_TRANSITIVE)
def test_creates_copy_matches_every_edge_pin(pattern):
    """Pinning one edge per orbit decides every non-edge of every labeled host
    up to n = 5 (r = 2) and of seeded hosts up to n = 7 like pinning every edge."""
    r = pattern.r
    hosts = [h for n in range(r, 6) for h in all_hosts(n, r)] if r == 2 else []
    rng = random.Random(pattern.m)
    hosts += [random_graph(rng.randint(6, 7), r, rng.uniform(0.1, 0.6), rng) for _ in range(120)]
    results = set()
    for host in hosts:
        for e in combinations(range(host.n), r):
            if e not in host.edge_set:
                got = creates_copy(host, e, pattern)
                assert got == creates_copy_every_edge(host, e, pattern), (host, e)
                results.add(got)
    assert results == {False, True}


SEARCH_PATTERNS = {
    2: [
        path3(),
        complete_r_graph(3, 2),
        cycle(4),
        new_hypergraph(4, 2, [(0, 1), (2, 3)]),
        new_hypergraph(4, 2, [(0, 1), (0, 2), (0, 3)]),
        Hypergraph(4, 2, path3().edges),
        Hypergraph(2, 2, ()),
    ],
    3: [
        new_hypergraph(3, 3, [(0, 1, 2)]),
        new_hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)]),
        new_hypergraph(5, 3, [(0, 1, 2), (0, 3, 4)]),
        complete_r_graph(4, 3),
        Hypergraph(4, 3, ((0, 1, 2),)),
        Hypergraph(3, 3, ()),
    ],
    4: [
        new_hypergraph(4, 4, [(0, 1, 2, 3)]),
        new_hypergraph(5, 4, [(0, 1, 2, 3), (0, 1, 2, 4)]),
        new_hypergraph(6, 4, [(0, 1, 2, 3), (0, 1, 4, 5)]),
        complete_r_graph(5, 4),
        Hypergraph(5, 4, ((0, 1, 2, 3),)),
        Hypergraph(4, 4, ()),
    ],
}


def search_constraints(host: Hypergraph, pattern: Hypergraph):
    """(fixed, avoid) pairs as every caller uses them: none, the pattern's
    non-edges (induced), a pattern edge pinned onto a host edge's vertex set
    (copy check), both, and one vertex pinned to every other host vertex."""
    non_edges = [e for e in combinations(range(pattern.n), pattern.r) if e not in pattern.edge_set]
    yield None, ()
    yield None, non_edges
    if pattern.m and host.m:
        pin = dict.fromkeys(pattern.edges[-1], host.edges[host.m // 2])
        yield pin, ()
        yield pin, non_edges
    if pattern.n:
        yield {0: tuple(range(0, host.n, 2))}, ()


def all_hosts(n: int, r: int):
    cand = list(combinations(range(n), r))
    for mask in range(1 << len(cand)):
        yield Hypergraph(n, r, tuple(e for i, e in enumerate(cand) if mask >> i & 1))


@pytest.mark.parametrize(
    "r, n", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6)]
)
def test_bitmask_search_returns_oracle_witness(r, n):
    """Every labeled host up to n = 5, and 150 seeded ones at n = 6: the
    link-mask search returns the very witness of the sorted-tuple search.
    At r = 4 the links are keyed on 3-sets."""
    if n <= 5:
        hosts = all_hosts(n, r)
    else:
        rng = random.Random(n * r)
        hosts = (random_graph(n, r, rng.uniform(0.2, 0.8), rng) for _ in range(150))
    found = 0
    for host in hosts:
        for pattern in SEARCH_PATTERNS[r]:
            for fixed, avoid in search_constraints(host, pattern):
                phi = pinned_search(host, pattern, fixed, avoid)
                assert phi == search_sorted_tuples(host, pattern, fixed, avoid), (host, pattern, fixed)
                found += phi is not None
    assert found  # the cases are not all misses


@pytest.mark.parametrize("pattern", SEARCH_PATTERNS[4][1:4] + [
    new_hypergraph(6, 4, [(0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5)]),
    # proper edge stabilizers: 12 placements for 0123, 6 for 0124
    new_hypergraph(6, 4, [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 4, 5)]),
])
def test_creates_copy_on_4_graphs_matches_every_edge_pin(pattern):
    """On 4-graphs, pinning one edge per orbit decides every non-edge like
    pinning every edge, and like the brute-force check on n = 6."""
    rng = random.Random(pattern.m + 40)
    hosts = [random_graph(rng.randint(5, 7), 4, rng.uniform(0.1, 0.6), rng) for _ in range(40)]
    results = set()
    for host in hosts:
        for e in combinations(range(host.n), 4):
            if e not in host.edge_set:
                got = creates_copy(host, e, pattern)
                assert got == creates_copy_every_edge(host, e, pattern), (host, e)
                if host.n <= 6:
                    assert got == brute_creates_copy(host, e, pattern), (host, e)
                results.add(got)
    assert results == {False, True}
