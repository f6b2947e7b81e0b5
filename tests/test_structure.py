"""Tightness, bridges, plateaus, and partition utilities."""

import random
import warnings
from itertools import combinations

import numpy as np
import pytest

from hspex import structure
from hspex.errors import (
    BadK,
    EmptyGraph,
    NoSuchEdge,
    OutOfRange,
    TargetMismatch,
    TrivialPartition,
)
from hspex.hypergraph import Hypergraph, _k_closure, ell_cliques, new_hypergraph
from hspex.structure import (
    TightnessCertificate,
    find_k_bridges,
    find_plateaus,
    is_k_bridge,
    is_k_plateaued,
    is_k_tight,
    is_lambda_plateau,
    partitions_of,
    refines,
    tightness_violation_holds,
)
from conftest import bowtie3, labeled_graphs, path3, path4, random_graph
from oracles import (
    is_k_bridge_bruteforce,
    is_k_bridge_full_closures,
    is_k_tight_bruteforce,
    is_k_tight_full_closures,
    k_closure_full,
    refines_bruteforce,
)


class TestPartitions:
    def test_all_of_three(self):
        assert partitions_of(3, 1, 3) == [(3,), (2, 1), (1, 1, 1)]

    def test_constrained_largest(self):
        assert partitions_of(3, 2, 2) == [(2, 1)]

    def test_all_of_four_capped(self):
        assert partitions_of(4, 1, 3) == [(3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_empty_window(self):
        assert partitions_of(3, 4, 4) == []

    def test_refines(self):
        assert refines((1, 1, 1), (2, 1))
        assert not refines((2, 2), (3, 1))
        assert refines((2, 1), (2, 1))
        assert refines((2, 2, 1), (4, 1))
        assert not refines((3, 2), (4, 1))

    def test_refines_matches_set_partition_oracle(self):
        for r in range(1, 8):
            parts = partitions_of(r)
            for mu in parts:
                for lam in parts:
                    assert refines(mu, lam) == refines_bruteforce(mu, lam), (mu, lam)

    def test_refines_target_mismatch(self):
        with pytest.raises(TargetMismatch):
            refines((2, 1), (2, 2))


class TestTightness:
    def test_complete_3graph_is_2_tight(self, k4_3):
        assert is_k_tight(k4_3, 2).result

    def test_disjoint_triangles_not_1_tight(self):
        cert = is_k_tight(ell_cliques(2, 3, 2), 1)
        assert not cert.result
        assert cert.witness == (0, 1, 2)

    def test_single_triple_with_spare_vertex(self):
        g = new_hypergraph(4, 3, [(0, 1, 2)])
        cert = is_k_tight(g, 1)
        assert not cert.result and cert.witness == (0, 1, 2)

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraph):
            is_k_tight(Hypergraph(3, 2, ()), 1)

    def test_bad_k(self, k4_3):
        with pytest.raises(BadK):
            is_k_tight(k4_3, 3)
        with pytest.raises(BadK):
            is_k_tight(k4_3, 0)

    @pytest.mark.parametrize("k", [1.5, 1.0, "1", None, True])
    def test_non_integer_k(self, k4_3, k):
        """k = 1.5 once gave a certificate from is_k_tight and a bare
        TypeError from the other two deciders."""
        for call in (lambda: is_k_tight(k4_3, k), lambda: is_k_bridge(k4_3, (0, 1, 2), k),
                     lambda: is_k_plateaued(k4_3, k)):
            with pytest.raises(BadK, match="not an integer"):
                call()

    def test_numpy_integer_k(self, k4_3):
        k = np.int64(2)
        assert is_k_tight(k4_3, k) == is_k_tight(k4_3, 2)
        assert is_k_bridge(k4_3, (0, 1, 2), k) == is_k_bridge(k4_3, (0, 1, 2), 2)
        assert is_k_plateaued(k4_3, k) == is_k_plateaued(k4_3, 2)

    def test_one_tight_iff_connected(self, rng):
        """Graphs with edges and no isolated vertices: 1-tight == connected."""
        checked = 0
        for _ in range(5000):
            if checked == 500:
                break
            r = rng.choice([2, 3])
            g = random_graph(rng.randint(3, 7), r, 0.35, rng)
            if g.m == 0 or min(g.degrees()) == 0:
                continue
            checked += 1
            assert is_k_tight(g, 1).result == g.is_connected()
        assert checked == 500, f"only {checked} of 5000 draws had edges and no isolated vertex"

    def test_failure_witnesses_revalidate(self, rng, k3, k4_3):
        fixtures = [
            path3(), path4(), bowtie3(), k3, k4_3,
            ell_cliques(2, 3, 2), ell_cliques(3, 3, 2), ell_cliques(2, 4, 3),
            new_hypergraph(4, 3, [(0, 1, 2)]),
            new_hypergraph(4, 3, [(0, 1, 2), (1, 2, 3)]),
        ]
        for g in fixtures:
            for k in range(1, g.r):
                cert = is_k_tight(g, k)
                if not cert.result:
                    assert tightness_violation_holds(g, k, cert.witness)
        seen = 0
        for _ in range(5000):
            if seen == 60:
                break
            r = rng.choice([2, 3])
            g = random_graph(rng.randint(3, 7), r, 0.3, rng)
            if g.m == 0:
                continue
            k = rng.randint(1, r - 1)
            cert = is_k_tight(g, k)
            if cert.result:
                continue
            seen += 1
            assert tightness_violation_holds(g, k, cert.witness)
        assert seen == 60, f"only {seen} of 5000 draws were not k-tight"

    def test_certificate_json(self):
        d = is_k_tight(ell_cliques(2, 3, 2), 1).to_json_dict()
        assert d["result"] is False and d["witness"] == [0, 1, 2]


def assert_certificates_match_oracles(g: Hypergraph) -> None:
    """Closure deciders equal the subset searches: result, witness, A and B."""
    for k in range(1, g.r):
        assert is_k_tight(g, k) == is_k_tight_bruteforce(g, k), (g, k)
        for e in g.edges:
            assert is_k_bridge(g, e, k) == is_k_bridge_bruteforce(g, e, k), (g, e, k)


class TestOracles:
    def test_all_2graphs_and_3graphs_up_to_n5(self):
        for r in (2, 3):
            for n in range(r, 6):
                for g in labeled_graphs(n, r):
                    if g.m:
                        assert_certificates_match_oracles(g)

    def test_random_4graphs_up_to_n8(self):
        rng = random.Random(4)
        for _ in range(120):
            g = random_graph(rng.randint(4, 8), 4, rng.uniform(0.05, 0.3), rng)
            if g.m:
                assert_certificates_match_oracles(g)


def assert_deciders_match_full_closures(g: Hypergraph, ks) -> tuple[bool, int]:
    """Goal-stopped closures give the certificates of full closures; returns
    (k-tight at the last k, bridges found)."""
    found = 0
    for k in ks:
        tight = is_k_tight(g, k)
        assert tight == is_k_tight_full_closures(g, k), (g, k)
        want = [is_k_bridge_full_closures(g, e, k) for e in g.edges]
        assert [is_k_bridge(g, e, k) for e in g.edges] == want, (g, k)
        assert find_k_bridges(g, k) == [c for c in want if c.result], (g, k)
        found += sum(c.result for c in want)
    return tight.result, found


class TestFullClosureOracles:
    def test_all_labeled_2graphs_up_to_n5(self):
        verdicts, found = set(), 0
        for n in range(2, 6):
            for g in labeled_graphs(n, 2):
                if g.m:
                    tight, bridges = assert_deciders_match_full_closures(g, [1])
                    verdicts.add(tight)
                    found += bridges
        assert verdicts == {False, True} and found

    def test_seeded_3_and_4_graphs_up_to_n8_every_k(self):
        rng = random.Random(15)
        verdicts, found = set(), 0
        for _ in range(1500):
            r = rng.choice([3, 4])
            g = random_graph(rng.randint(r, 8), r, rng.uniform(0.05, 0.6), rng)
            if g.m:
                tight, bridges = assert_deciders_match_full_closures(g, range(1, r))
                verdicts.add(tight)
                found += bridges
        assert verdicts == {False, True} and found

    def test_tightness_closures_stop_at_a_spanning_edge(self, monkeypatch):
        """After an edge whose closure is V, closures stop once they hold that edge."""
        goals = []

        def recording(masks, inc, start, k, skip=None, goal=None):
            goals.append(goal)
            return _k_closure(masks, inc, start, k, skip, goal)

        monkeypatch.setattr(structure, "_k_closure", recording)
        g = new_hypergraph(5, 3, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
        assert is_k_tight(g, 2) == TightnessCertificate(False, 2, (2, 3, 4))
        assert goals == [range(5), (0, 1, 2), (0, 1, 3)]

    def test_closure_stops_at_goal(self):
        g = new_hypergraph(6, 2, [(0, 1), (1, 2), (2, 3), (4, 5)])
        closure = k_closure_full(g.edges, g.incidence, (0,), 1)
        assert closure == (0, 1, 2, 3)
        assert _k_closure(g.edge_masks, g.incidence, (0,), 1) == closure
        assert _k_closure(g.edge_masks, g.incidence, (0,), 1, goal=(3,)) is None
        assert _k_closure(g.edge_masks, g.incidence, (0,), 1, goal=(0,)) is None
        assert _k_closure(g.edge_masks, g.incidence, (0,), 1, goal=(2, 4)) == closure
        assert _k_closure(g.edge_masks, g.incidence, (0,), 1, skip=1, goal=(2,)) == (0, 1)


def assert_closure_matches_oracle(g: Hypergraph) -> int:
    """`_k_closure` against `k_closure_full` for every k in 1..r-1, start
    (each vertex, edge and k-subset of an edge), skip (None and each edge)
    and goal (None, range(n), the skipped edge and the edge the start came
    from); returns the number of goal-stopped calls."""
    stopped = 0
    for k in range(1, g.r):
        starts = {(v,): None for v in range(g.n)}
        for e in g.edges:
            starts[e] = e
            starts.update((s, e) for s in combinations(e, k) if s not in starts)
        for skip in [None, *range(g.m)]:
            for start, origin in starts.items():
                full = k_closure_full(g.edges, g.incidence, start, k, skip)
                goals = {None, range(g.n), origin, None if skip is None else g.edges[skip]}
                for goal in goals:
                    got = _k_closure(g.edge_masks, g.incidence, start, k, skip, goal)
                    where = (g, k, start, skip, goal)
                    if got is None:
                        assert goal is not None and set(goal) <= set(full), where
                        stopped += 1
                    else:
                        assert got == full, where
                        assert goal is None or not set(goal) <= set(got), where
    return stopped


class TestClosureOracle:
    """The mask closure against the plain set closure of `tests/oracles.py`."""

    @pytest.mark.parametrize("r", [2, 3])
    def test_every_labeled_graph_up_to_n5(self, r):
        stopped = sum(
            assert_closure_matches_oracle(g)
            for n in range(1, 6) for g in labeled_graphs(n, r)
        )
        assert stopped

    def test_seeded_4graphs(self):
        rng = random.Random(25)
        stopped = 0
        for _ in range(60):
            g = random_graph(rng.randint(4, 7), 4, rng.uniform(0.05, 0.4), rng)
            stopped += assert_closure_matches_oracle(g)
        assert stopped


def classical_bridges(g: Hypergraph) -> set:
    """2-graph bridges by the removal-disconnects definition, components-aware."""
    out = set()
    for e in g.edges:
        before = len(g.components())
        after = len(g.remove_edge(e).components())
        if after > before:
            out.add(e)
    return out


class TestBridges:
    def test_path_edge_is_bridge(self):
        cert = is_k_bridge(path3(), (0, 1), 1)
        assert cert.result and cert.witness_a == (0,) and cert.witness_b == (1, 2)

    def test_triangle_is_bridgeless(self, k3):
        assert not any(c.result for c in [is_k_bridge(k3, e, 1) for e in k3.edges])
        assert find_k_bridges(k3, 1) == []

    def test_two_triple_overlap(self):
        g = new_hypergraph(4, 3, [(0, 1, 2), (1, 2, 3)])
        cert = is_k_bridge(g, (0, 1, 2), 2)
        assert cert.result and cert.witness_a == (0, 1) and cert.witness_b == (2, 3)

    def test_no_such_edge(self, k3):
        with pytest.raises(NoSuchEdge):
            is_k_bridge(k3, (0, 3), 1)

    def test_non_integer_edge_rejected(self):
        """(0.2, 1.9) would be read as the edge (0, 1) and certified."""
        with pytest.raises(OutOfRange, match="is not an integer"):
            is_k_bridge(path3(), (0.2, 1.9), 1)
        assert is_k_bridge(path3(), (np.int64(0), 1.0), 1) == is_k_bridge(path3(), (0, 1), 1)

    def test_long_paths_decide_without_warning(self):
        """Path ends are 1-bridges with A = (0,), even where no subset search could finish."""
        for n in (26, 200):
            long_path = new_hypergraph(n, 2, [(i, i + 1) for i in range(n - 1)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cert = is_k_bridge(long_path, (0, 1), 1)
                assert is_k_tight(long_path, 1).result
            assert cert.result and cert.witness_a == (0,)
            assert cert.witness_b == tuple(range(1, n))

    def test_matches_classical_bridges_exhaustively(self):
        """All connected 2-graphs with n <= 5: 1-bridges == removal bridges."""
        for n in (3, 4, 5):
            for g in labeled_graphs(n, 2):
                if not g.is_connected() or g.m == 0:
                    continue
                found = {c.edge for c in find_k_bridges(g, 1)}
                assert found == classical_bridges(g)

    def test_matches_classical_bridges_random_n6_n7(self, rng):
        """Sampled connected 2-graphs at n = 6, 7 (exhaustive is too slow)."""
        checked = 0
        for _ in range(5000):
            if checked == 120:
                break
            g = random_graph(rng.choice([6, 7]), 2, rng.uniform(0.25, 0.5), rng)
            if g.m == 0 or not g.is_connected():
                continue
            checked += 1
            found = {c.edge for c in find_k_bridges(g, 1)}
            assert found == classical_bridges(g)
        assert checked == 120, f"only {checked} of 5000 draws were connected"

    def test_k4_3_has_no_bridges(self, k4_3):
        assert find_k_bridges(k4_3, 1) == []
        assert find_k_bridges(k4_3, 2) == []


class TestPlateaus:
    def test_path_middle_edge(self):
        ok, grouping = is_lambda_plateau(path3(), (0, 1), (1, 1))
        assert ok
        flat = sorted(c for grp in grouping for c in grp)
        assert flat == [(0,), (1, 2)]

    def test_triangle_has_none(self, k3):
        assert not is_lambda_plateau(k3, (0, 1), (1, 1))[0]
        assert find_plateaus(k3, (1, 1)) == []

    def test_bowtie(self):
        ok, grouping = is_lambda_plateau(bowtie3(), (0, 1, 2), (2, 1))
        assert ok

    def test_components_missing_e_join_the_first_group(self):
        """A component of H - e that meets no vertex of e can go in any
        group; it goes in the first."""
        g = Hypergraph(5, 2, [(0, 1), (1, 2), (3, 4)])
        assert is_lambda_plateau(g, (0, 1), (1, 1)) == (True, [((0,), (3, 4)), ((1, 2),)])

    def test_trivial_partition_rejected(self, k4_3):
        with pytest.raises(TrivialPartition):
            is_lambda_plateau(k4_3, (0, 1, 2), (3,))

    def test_no_such_edge(self):
        with pytest.raises(NoSuchEdge):
            is_lambda_plateau(path3(), (0, 2), (1, 1))

    def test_non_integer_edge_rejected(self):
        with pytest.raises(OutOfRange, match="is not an integer"):
            is_lambda_plateau(path3(), (0.5, 1), (1, 1))
        with pytest.raises(OutOfRange, match="is not an integer"):
            tightness_violation_holds(path3(), 1, (0, 1.5))

    def test_plateaued_flags(self, k4_3):
        assert is_k_plateaued(path3(), 1) == (True, [])
        assert is_k_plateaued(bowtie3(), 2) == (True, [])
        ok, missing = is_k_plateaued(k4_3, 2)
        assert not ok and missing == [(2, 1)]
        assert is_k_plateaued(path4(), 1)[0]

    def test_component_weights_refine(self, rng):
        """A found grouping's raw weight multiset refines the target parts."""
        seen = 0
        for _ in range(5000):
            if seen == 40:
                break
            g = random_graph(rng.randint(4, 7), 2, 0.3, rng)
            if g.m == 0 or not g.is_connected():
                continue
            e = g.edges[rng.randrange(g.m)]
            ok, grouping = is_lambda_plateau(g, e, (1, 1))
            if not ok:
                continue
            seen += 1
            eset = set(e)
            raw = []
            for grp in grouping:
                for comp in grp:
                    w = len(eset.intersection(comp))
                    if w:
                        raw.append(w)
            raw.sort(reverse=True)
            assert refines(tuple(raw), (1, 1))
        assert seen == 40, f"only {seen} of 5000 draws had a (1, 1) plateau"
