"""Construction, queries, transformations, and the .hg text format."""

import random
from itertools import combinations, product

import pytest

from hspex.errors import (
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
from hspex.hypergraph import (
    Hypergraph,
    complete_r_graph,
    disjoint_union,
    ell_cliques,
    l_gadget,
    new_hypergraph,
    parse_hypergraph,
    serialize,
)
from conftest import bowtie3, path3, random_graph, triple_edge
from oracles import blow_up_edge_count


class TestConstruction:
    def test_single_edge_3graph(self):
        g = new_hypergraph(3, 3, [{0, 1, 2}])
        assert g.edges == ((0, 1, 2),)

    def test_duplicates_collapse(self):
        g = new_hypergraph(3, 2, [(0, 1), (1, 0)])
        assert g.m == 1

    def test_wrong_arity(self):
        with pytest.raises(WrongArity):
            new_hypergraph(3, 3, [(0, 1)])

    def test_repeated_vertex(self):
        with pytest.raises(RepeatedVertex):
            new_hypergraph(3, 3, [(0, 0, 1)])

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            new_hypergraph(3, 2, [(0, 5)])

    def test_edges_sorted(self):
        g = new_hypergraph(4, 2, [(3, 2), (1, 0)])
        assert g.edges == ((0, 1), (2, 3))

    @pytest.mark.parametrize("n, r, edges, error", [
        (3, 2, [(1, 1), 5], RepeatedVertex),
        (3, 2, [5, (1, 1)], TypeError),
        (3, 2, [(0, 1), None], TypeError),
        (3, 2, 7, TypeError),
        (3, 2, [(0, 1), (0, 3)], OutOfRange),
        (3, 2, [(0, -1)], OutOfRange),
        (3, 2, [(0, 1, 2)], WrongArity),
        (3, 3, [(0, 1)], WrongArity),
        (3, 2, [(1, 1, 2)], RepeatedVertex),
        (3, 2, [(0, "a")], ValueError),
        (3, 2, [(0, None)], TypeError),
        (3, 2, [(0, 1), (2, 2), (0, 9)], RepeatedVertex),
        (-1, 2, [(0, 1)], OutOfRange),
        (3, 1, [(0,)], WrongArity),
    ])
    def test_new_hypergraph_raises_as_the_constructor(self, n, r, edges, error):
        """new_hypergraph hands its edges to the constructor as given, so the
        first invalid edge decides the error, as it does there."""
        with pytest.raises(error) as want:
            Hypergraph(n, r, edges)
        with pytest.raises(error) as got:
            new_hypergraph(n, r, edges)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


class TestQueries:
    def test_degree(self):
        assert path3().degree(1) == 2
        assert path3().degree(0) == 1

    def test_degree_out_of_range(self):
        with pytest.raises(OutOfRange):
            path3().degree(7)

    def test_degree_complete_3graph(self, k4_3):
        assert all(k4_3.degree(v) == 3 for v in range(4))

    def test_degree_extremes(self):
        assert path3().degree_extremes() == (2, 1)
        assert Hypergraph(0, 2).degree_extremes() == (0, 0)

    def test_connected(self, k4_3):
        assert path3().is_connected()
        assert triple_edge().is_connected()
        assert k4_3.is_connected()
        assert not ell_cliques(2, 3, 2).is_connected()
        assert Hypergraph(0, 2).is_connected()
        assert Hypergraph(1, 2).is_connected()
        assert not Hypergraph(2, 2).is_connected()

    def test_connected_iff_one_component(self, rng):
        """components() partitions V with every edge inside one block."""
        for _ in range(300):
            r = rng.choice([2, 3])
            g = random_graph(rng.randint(0, 7), r, rng.uniform(0.0, 0.5), rng)
            comps = g.components()
            assert sorted(v for c in comps for v in c) == list(range(g.n))
            assert all(any(set(e) <= set(c) for c in comps) for e in g.edges)
            assert g.is_connected() == (len(comps) <= 1)
        perm = list(range(2000))
        rng.shuffle(perm)
        long_path = Hypergraph(2000, 2, tuple(zip(perm, perm[1:])))
        assert long_path.components() == [tuple(range(2000))]
        sparse = Hypergraph(503, 3, ((0, 1, 2),))
        assert sparse.components() == [(0, 1, 2)] + [(v,) for v in range(3, 503)]
        assert not sparse.is_connected()

    def test_isolated_vertex_disconnects(self):
        g = new_hypergraph(4, 2, [(0, 1), (1, 2)])
        assert not g.is_connected()

    def test_two_covering(self, k4_3, k3):
        assert k4_3.is_2_covering()
        assert k3.is_2_covering()
        assert not new_hypergraph(5, 3, [(0, 1, 2), (2, 3, 4)]).is_2_covering()
        assert not path3().is_2_covering()


class TestTransformations:
    def test_induced_subgraph(self, k3, k4_3):
        assert k3.induced_subgraph([0, 1]).edges == ((0, 1),)
        sub = path3().induced_subgraph([0, 2])
        assert sub.n == 2 and sub.m == 0
        assert k4_3.induced_subgraph([0, 1, 2]).edges == ((0, 1, 2),)

    def test_induced_keeps_relative_order(self):
        g = new_hypergraph(5, 2, [(1, 3), (3, 4)])
        sub = g.induced_subgraph([1, 3, 4])
        assert sub.edges == ((0, 1), (1, 2))

    def test_remove_edge(self, k3):
        g = k3.remove_edge((0, 1))
        assert g.edges == ((0, 2), (1, 2))
        e = triple_edge().remove_edge((0, 1, 2))
        assert e.n == 3 and e.m == 0
        for absent in [(0, 2), (2, 0), (0, 5), (1, 2, 3)]:
            with pytest.raises(NoSuchEdge):
                path3().remove_edge(absent)

    def test_clone_keeps_n(self, rng):
        for _ in range(50):
            g = random_graph(6, 2, 0.4, rng)
            u, v = rng.randrange(6), rng.randrange(6)
            assert g.clone_vertex(u, v).n == g.n

    def test_clone_triangle(self, k3):
        assert k3.clone_vertex(0, 1).edges == ((0, 2), (1, 2))

    def test_clone_adds_shifted_edge(self):
        g = new_hypergraph(4, 3, [(0, 1, 2)])
        assert g.clone_vertex(3, 0).edges == ((0, 1, 2), (1, 2, 3))

    def test_clone_identity(self, k3):
        assert k3.clone_vertex(2, 2) is k3

    def test_clone_degree_formula(self, rng):
        for _ in range(100):
            r = rng.choice([2, 3])
            g = random_graph(7, r, 0.3, rng)
            u, v = rng.sample(range(7), 2)
            expected = sum(1 for e in g.edges if v in e and u not in e)
            assert g.clone_vertex(u, v).degree(u) == expected

    def test_blow_up_k2_is_c4(self):
        g = new_hypergraph(2, 2, [(0, 1)]).blow_up([2, 2])
        assert g.n == 4
        assert g.edges == ((0, 2), (0, 3), (1, 2), (1, 3))

    def test_blow_up_identity(self, rng):
        for _ in range(20):
            g = random_graph(5, 2, 0.5, rng)
            assert g.blow_up([1] * 5).edges == g.edges

    def test_blow_up_edge_count(self, rng):
        for _ in range(30):
            r = rng.choice([2, 3])
            g = random_graph(5, r, 0.5, rng)
            t = [rng.randint(1, 3) for _ in range(5)]
            assert g.blow_up(t).m == blow_up_edge_count(g, t)

    def test_blow_up_triple(self):
        g = triple_edge().blow_up([2, 1, 1])
        assert g.n == 4 and g.m == 2

    def test_blow_up_bad_counts(self):
        with pytest.raises(BadCounts):
            path3().blow_up([1, 0, 1])
        with pytest.raises(BadCounts):
            path3().blow_up([1, 1])


class TestConstructors:
    def test_complete(self):
        assert complete_r_graph(4, 3).m == 4
        assert complete_r_graph(3, 2).m == 3
        assert complete_r_graph(2, 3).m == 0

    def test_ell_cliques(self):
        g = ell_cliques(2, 3, 2)
        assert g.n == 6 and g.m == 6
        assert ell_cliques(1, 4, 3).m == 4

    def test_disjoint_union(self):
        g = disjoint_union(triple_edge(), triple_edge())
        assert g.n == 6 and g.m == 2
        with pytest.raises(UniformityMismatch):
            disjoint_union(path3(), triple_edge())

    def test_gadget_pair(self):
        g = l_gadget(2, (1, 1), 2)
        assert g.edges == ((0, 1), (0, 2), (2, 3))

    def test_gadget_3uniform(self):
        g = l_gadget(2, (2, 1), 4)
        assert (0, 1, 4) in g.edges
        assert g.m == 2 * 4 + 1

    def test_gadget_rejects_trivial(self):
        with pytest.raises(BadPartition):
            l_gadget(1, (3,), 5)

    def test_gadget_rejects_small_cliques(self):
        with pytest.raises(TooSmall):
            l_gadget(2, (2, 1), 2)


class TestTextFormat:
    def test_parse_path(self):
        g = parse_hypergraph("2 3 2\n0 1\n1 2\n")
        assert g.edges == path3().edges

    def test_round_trip(self, rng):
        for _ in range(30):
            r = rng.choice([2, 3])
            g = random_graph(6, r, 0.4, rng)
            assert parse_hypergraph(serialize(g)) == g

    def test_comments_and_blanks(self):
        g = parse_hypergraph("# graph\n2 3 1\n\n0 1\n")
        assert g.m == 1

    def test_parse_repeated_vertex(self):
        with pytest.raises(ParseError) as err:
            parse_hypergraph("3 3 1\n0 0 1\n")
        assert err.value.line == 2

    def test_parse_bad_header(self):
        with pytest.raises(ParseError):
            parse_hypergraph("2 3\n")

    def test_parse_wrong_edge_count(self):
        with pytest.raises(ParseError):
            parse_hypergraph("2 3 2\n0 1\n")

    def test_parse_bad_uniformity_or_count(self):
        with pytest.raises(ParseError):
            parse_hypergraph("1 3 0\n")
        with pytest.raises(ParseError):
            parse_hypergraph("2 -1 0\n")

    def test_parse_reports_first_offending_line(self):
        text = "# header next\n2 3 4\n0 1\n\n# an edge\n1 9\n2 2\n0 2 1\n"
        with pytest.raises(ParseError) as err:
            parse_hypergraph(text)
        assert err.value.line == 6 and str(err.value) == "line 6: vertex 9 outside [0, 3)"
        with pytest.raises(ParseError) as err:
            parse_hypergraph("2 3 3\n0 1\n0 1 2\n1 1\n")
        assert err.value.line == 3
        assert str(err.value) == "line 3: edge (0, 1, 2) has 3 vertices, expected 2"

    def test_serialize_lf_only(self):
        text = serialize(bowtie3())
        assert "\r" not in text and text.endswith("\n")
        assert text.splitlines()[0] == "3 6 3"


class TestStructuralInvariants:
    def test_induced_full_is_identity(self, rng):
        for _ in range(20):
            g = random_graph(6, 2, 0.5, rng)
            assert g.induced_subgraph(range(6)) == g

    def test_union_edge_counts(self, rng):
        g1 = random_graph(4, 2, 0.5, rng)
        g2 = random_graph(5, 2, 0.5, rng)
        u = disjoint_union(g1, g2)
        assert u.m == g1.m + g2.m and u.n == 9

    def test_immutability(self, k3):
        with pytest.raises(AttributeError):
            k3.n = 10

    def test_equality_is_structural(self):
        assert new_hypergraph(3, 2, [(1, 2), (0, 1)]) == new_hypergraph(
            3, 2, [(0, 1), (1, 2)]
        )


def fresh_indexes(g: Hypergraph) -> dict:
    """Every cached index of g, computed from its edges alone."""
    inc = [[i for i, e in enumerate(g.edges) if v in e] for v in range(g.n)]
    return {
        "edge_set": frozenset(g.edges),
        "degree_list": tuple(len(ids) for ids in inc),
        "incidence": tuple(tuple(ids) for ids in inc),
        "links": links_by_subsets(g),
    }


def links_by_subsets(g: Hypergraph) -> dict[int, int]:
    """``links`` by scanning every (r-1)-set of vertices for its completions."""
    links = {}
    for rest in combinations(range(g.n), g.r - 1):
        ends = sum(1 << w for w in range(g.n) if tuple(sorted(rest + (w,))) in g.edge_set)
        if ends:
            links[sum(1 << v for v in rest)] = ends
    return links


def assert_validated_value(got: Hypergraph, n: int, r: int, edges) -> None:
    """got is the value the validating constructor builds from (n, r, edges),
    and reading its cached indexes changes nothing about it."""
    want = Hypergraph(n, r, tuple(edges))
    assert got == want
    assert got.edges == want.edges and type(got.edges) is tuple
    assert all(type(e) is tuple for e in got.edges)
    assert hash(got) == hash(want) and repr(got) == repr(want)
    for name, value in fresh_indexes(got).items():
        assert getattr(got, name) == value, name
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)


class TestTrustedPath:
    """add_edge, remove_edge, clone_vertex, induced_subgraph and blow_up
    build their results without re-validation; each must equal the
    validated value."""

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_sequences_match_validating_constructor(self, r, seed):
        rng = random.Random(1000 * r + seed)
        n = rng.randint(r + 2, r + 5)
        g = random_graph(n, r, rng.uniform(0.1, 0.6), rng)
        for _ in range(40):
            edges = set(g.edges)
            steps = []
            new = tuple(rng.sample(range(g.n), r))  # unsorted on purpose
            steps.append((g.add_edge(new), g.n, edges | {tuple(sorted(new))}))
            if g.m:
                old = rng.choice(g.edges)
                again = g.add_edge(rng.sample(old, r))
                assert again is g
                assert_validated_value(again, g.n, r, edges)
                steps.append((g.remove_edge(rng.sample(old, r)), g.n, edges - {old}))
            u, v = rng.randrange(g.n), rng.randrange(g.n)
            cloned = {e for e in edges if u not in e} | {
                tuple(sorted(u if w == v else w for w in e))
                for e in edges if v in e and u not in e
            }
            steps.append((g.clone_vertex(u, v), g.n, cloned if u != v else edges))
            keep = sorted(rng.sample(range(g.n), rng.randint(0, g.n)))
            rank = {w: i for i, w in enumerate(keep)}
            inside = {tuple(rank[w] for w in e) for e in edges if set(e) <= set(keep)}
            steps.append((g.induced_subgraph(reversed(keep)), len(keep), inside))
            for got, n_got, want in steps:
                assert_validated_value(got, n_got, r, want)
            g = rng.choice([got for got, n_got, _ in steps if n_got >= r + 2] or [g])

    def test_cached_indexes_are_immutable(self, k4_3):
        g = k4_3.remove_edge((0, 1, 2))
        assert isinstance(g.incidence, tuple) and all(isinstance(i, tuple) for i in g.incidence)
        assert isinstance(g.degree_list, tuple)
        for name in fresh_indexes(g):
            with pytest.raises(AttributeError):
                setattr(g, name, None)

    def test_add_edge_still_validates_the_new_edge(self, k3):
        for bad, error in [((0, 0), RepeatedVertex), ((0, 1, 2), WrongArity), ((0, 3), OutOfRange)]:
            with pytest.raises(error):
                k3.remove_edge((0, 1)).add_edge(bad)

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_blow_up(self, r, seed):
        rng = random.Random(3000 * r + seed)
        for _ in range(8):
            g = random_graph(rng.randint(r, r + 3), r, rng.uniform(0.2, 0.9), rng)
            t = [rng.randint(1, 3) for _ in range(g.n)]
            first = [sum(t[:v]) for v in range(g.n)]
            edges = [tuple(first[v] + j for v, j in zip(e, js))
                     for e in g.edges for js in product(*(range(t[v]) for v in e))]
            rng.shuffle(edges)
            got = g.blow_up(t)
            assert got.m == blow_up_edge_count(g, t)
            assert_validated_value(got, sum(t), r, edges)


class TestCarriedIndexes:
    """add_edge hands the parent's built ``links`` and ``degree_list`` on,
    updated by the one edge; they must equal freshly built ones."""

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_add_edge_chains_match_fresh_values(self, r, seed):
        rng = random.Random(5000 * r + seed)
        n = rng.randint(r + 1, r + 5)
        g = random_graph(n, r, rng.uniform(0.0, 0.4), rng)
        for step in range(30):
            built = step % 3 != 2  # now and then a parent that built nothing
            if built:
                before = (dict(g.links), g.degree_list)
            else:
                g = Hypergraph(n, r, g.edges)
            e = tuple(rng.sample(range(n), r))  # unsorted on purpose
            child = g.add_edge(e)
            if tuple(sorted(e)) in g.edge_set:
                assert child is g
                continue
            carried = set(child.__dict__) & {"links", "degree_list"}
            assert carried == ({"links", "degree_list"} if built else set())
            fresh = Hypergraph(n, r, g.edges + (e,))
            assert child == fresh
            assert child.links == links_by_subsets(fresh) == fresh.links
            assert child.degree_list == fresh.degree_list
            if built:
                assert (g.links, g.degree_list) == before
                assert g.links is not child.links
            g = child

    def test_readding_an_edge_returns_self(self, k4_3):
        g = k4_3.remove_edge((0, 1, 3))
        g.links, g.degree_list  # built, so a child would carry them
        assert g.add_edge((2, 1, 0)) is g
