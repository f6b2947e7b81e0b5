"""Family membership, maximality, saturation, closure checks, extremal sweeps."""

import math
import random
from itertools import combinations

import numpy as np
import pytest

from hspex.canonical import canonical_key, refinement_signature
from hspex.errors import BadConfig, BadP, HspexError, NotMember, OutOfRange, TooLarge, UniformityMismatch
from hspex.families import (
    ForbiddenFamily,
    PredicateFamily,
    check_clonal_on,
    check_hereditary_witness,
    check_multiplicative_witness,
    enumerate_family,
    extremal_lambda_p,
    extremal_pi,
    is_edge_maximal,
    is_member,
    isomorphic,
    saturate,
)
from hspex.hypergraph import Hypergraph, complete_r_graph, disjoint_union, new_hypergraph
from hspex.spectral import SolverConfig, rho_infinity
from conftest import (
    complete_bipartite, cycle, labeled_graphs, path3, path4, path5, random_graph, relabel,
)
from oracles import (
    _classes,
    classes_by_key,
    isomorphic_bruteforce,
    member_masks_dfs,
    orbit_classes_bruteforce,
    subset_tree_preorder,
    sweep_dfs,
    walk_per_completion,
)


def k3_family() -> ForbiddenFamily:
    return ForbiddenFamily((complete_r_graph(3, 2),))


def brute_member_count(fam: ForbiddenFamily, n: int) -> int:
    """Independent labeled-member count by direct sweep + membership test."""
    return sum(is_member(fam, g) for g in labeled_graphs(n, fam.r))


def brute_class_count(fam: ForbiddenFamily, n: int) -> int:
    return len({canonical_key(g) for g in labeled_graphs(n, fam.r) if is_member(fam, g)})


class TestMembership:
    def test_triangle_free(self):
        fam = k3_family()
        assert is_member(fam, cycle(4))
        assert not is_member(fam, complete_r_graph(4, 2))

    def test_proper_subgraph_of_forbidden(self):
        fam = ForbiddenFamily((complete_r_graph(4, 3),))
        assert is_member(fam, complete_r_graph(4, 3).remove_edge((0, 1, 2)))

    def test_uniformity_mismatch(self):
        with pytest.raises(UniformityMismatch):
            is_member(k3_family(), complete_r_graph(4, 3))

    def test_predicate_family(self):
        fam = PredicateFamily(2, lambda g: g.m <= 1)
        assert is_member(fam, Hypergraph(3, 2, ((0, 1),)))
        assert not is_member(fam, path3())


class TestMaximality:
    def test_star_is_maximal(self):
        star = new_hypergraph(4, 2, [(0, 1), (0, 2), (0, 3)])
        assert is_edge_maximal(k3_family(), star) == (True, None)

    def test_isolated_vertex_augments(self):
        g = new_hypergraph(4, 2, [(0, 1), (1, 2)])
        ok, aug = is_edge_maximal(k3_family(), g)
        assert not ok and aug == (0, 3)

    def test_near_complete_3graph(self):
        fam = ForbiddenFamily((complete_r_graph(4, 3),))
        g = complete_r_graph(4, 3).remove_edge((0, 1, 2))
        assert is_edge_maximal(fam, g) == (True, None)

    def test_not_member_rejected(self):
        with pytest.raises(NotMember):
            is_edge_maximal(k3_family(), complete_r_graph(3, 2))


class TestSaturation:
    def test_lex_from_empty_gives_star(self):
        g = saturate(k3_family(), Hypergraph(4, 2, ()), "lex")
        assert g.edges == ((0, 1), (0, 2), (0, 3))

    def test_c4_already_maximal(self):
        assert saturate(k3_family(), cycle(4), "lex") == cycle(4)

    def test_output_is_maximal_and_contains_start(self, rng):
        fam = k3_family()
        for trial in range(20):
            g0 = saturate(fam, Hypergraph(6, 2, ()), "random", seed=trial)
            assert is_edge_maximal(fam, g0)[0]
        start = cycle(5)
        g = saturate(fam, start, "random", seed=3)
        assert set(start.edges) <= set(g.edges)
        assert is_edge_maximal(fam, g)[0]

    def test_random_order_is_seeded(self):
        fam = k3_family()
        a = saturate(fam, Hypergraph(6, 2, ()), "random", seed=11)
        b = saturate(fam, Hypergraph(6, 2, ()), "random", seed=11)
        assert a == b

    def test_numpy_integer_seed(self):
        """random.Random refuses a numpy integer; the seed check hands it the
        plain int."""
        fam, empty = k3_family(), Hypergraph(7, 2, ())
        assert saturate(fam, empty, "random", seed=np.int64(4)) == saturate(fam, empty, "random", seed=4)

    def test_unseeded_random_order_is_seed_zero(self):
        """With no seed the shuffle is seed 0's, not one drawn from OS entropy."""
        fam, empty = k3_family(), Hypergraph(7, 2, ())
        a = saturate(fam, empty, "random")
        assert saturate(fam, empty, "random") == a == saturate(fam, empty, "random", seed=0)

    @pytest.mark.parametrize("order", ["random", "lex"])
    def test_negative_seed_rejected(self, order):
        """random.Random(-3) shuffles like random.Random(3), so -3 is refused."""
        with pytest.raises(BadConfig, match="^seed must be >= 0$"):
            saturate(k3_family(), Hypergraph(6, 2, ()), order, seed=-3)

    @pytest.mark.parametrize("order", ["random", "lex"])
    def test_non_integer_seed_rejected(self, order):
        """random.Random(1.5) would shuffle by the float's hash."""
        with pytest.raises(BadConfig, match="^seed must be an integer, got 1.5$"):
            saturate(k3_family(), Hypergraph(6, 2, ()), order, seed=1.5)

    def test_bool_seed_rejected(self):
        """seed=True would shuffle as seed 1."""
        with pytest.raises(BadConfig, match="^seed must be an integer, got True$"):
            saturate(k3_family(), Hypergraph(6, 2, ()), "random", seed=True)


class TestInducedFamilies:
    """Membership of an induced family is not monotone under edge addition:
    a rejected non-edge can become addable once others are in, so
    `saturate` makes passes until one adds nothing, and every check adds
    the edge and tests membership."""

    FAMILIES = [ForbiddenFamily((h,), induced=True) for h in (cycle(4), path4())]

    @staticmethod
    def addable(fam, g) -> list:
        """Brute force: the non-edges, in lex order, whose addition keeps g a member."""
        return [e for e in combinations(range(g.n), g.r)
                if e not in g.edge_set and is_member(fam, Hypergraph(g.n, g.r, g.edges + (e,)))]

    @staticmethod
    def one_pass(fam, g0, order, seed):
        """What a single pass over the candidates would add."""
        cand = [e for e in combinations(range(g0.n), g0.r) if e not in g0.edge_set]
        if order == "random":
            random.Random(seed).shuffle(cand)
        g = g0
        for e in cand:
            if is_member(fam, Hypergraph(g.n, g.r, g.edges + (e,))):
                g = Hypergraph(g.n, g.r, g.edges + (e,))
        return g

    @pytest.mark.parametrize("fam", FAMILIES, ids=["C4", "P4"])
    def test_saturate_leaves_no_addable_edge(self, fam):
        later_pass = 0
        for n in (4, 5, 6):
            g0 = Hypergraph(n, 2, ())
            for order, seed in [("lex", 0)] + [("random", s) for s in range(5)]:
                g = saturate(fam, g0, order, seed)
                assert is_member(fam, g) and self.addable(fam, g) == []
                assert is_edge_maximal(fam, g) == (True, None)
                later_pass += g != self.one_pass(fam, g0, order, seed)
        assert later_pass > 0  # some pass after the first added an edge

    @pytest.mark.parametrize("fam", FAMILIES, ids=["C4", "P4"])
    def test_is_edge_maximal_names_the_first_addable_edge(self, fam, rng):
        checked = 0
        for _ in range(200):
            g = random_graph(rng.randint(4, 6), 2, 0.5, rng)
            if not is_member(fam, g):
                continue
            checked += 1
            first = self.addable(fam, g)[:1]
            assert is_edge_maximal(fam, g) == (not first, first[0] if first else None)
        assert checked >= 20


class TestClosureChecks:
    def test_triangle_family_is_clonal_on_c4(self):
        assert check_clonal_on(k3_family(), cycle(4)) == (True, None)

    def test_non_2_covering_pattern_breaks_cloning(self):
        fam = ForbiddenFamily((path3(),))
        g = new_hypergraph(3, 2, [(0, 1)])
        assert check_clonal_on(fam, g) == (False, (2, 0))

    def test_clonal_k4_3(self, rng):
        fam = ForbiddenFamily((complete_r_graph(4, 3),))
        for seed in range(5):
            g = member_by_repair(fam, 6, random.Random(seed))
            assert check_clonal_on(fam, g)[0]

    def test_hereditary_triangle_free(self):
        fam = k3_family()
        assert check_hereditary_witness(fam, cycle(5), [0, 1, 2, 3])

    def test_induced_c4_family_not_multiplicative(self):
        fam = ForbiddenFamily((cycle(4),), induced=True)
        k2 = new_hypergraph(2, 2, [(0, 1)])
        assert is_member(fam, k2)
        assert not check_multiplicative_witness(fam, k2, (2, 2))

    def test_blowup_closure_not_hereditary(self, k3):
        blowups = PredicateFamily(
            2,
            lambda g: any(
                isomorphic(g, k3.blow_up(t))
                for t in _small_count_vectors(3, g.n)
            ),
        )
        big = k3.blow_up((2, 1, 1))
        assert is_member(blowups, big)
        assert not check_hereditary_witness(blowups, big, [0])


def _small_count_vectors(k: int, total: int):
    """All positive k-vectors summing to the given total."""
    if total < k:
        return
    for cuts in combinations(range(1, total), k - 1):
        parts = []
        prev = 0
        for c in cuts:
            parts.append(c - prev)
            prev = c
        parts.append(total - prev)
        yield tuple(parts)


def member_by_repair(fam: ForbiddenFamily, n: int, rng: random.Random) -> Hypergraph:
    """Random member: sample edges, then delete from found copies until free."""
    from hspex.embedding import contains_subgraph

    g = random_graph(n, fam.r, 0.5, rng)
    while True:
        offending = None
        for h in fam.forbidden:
            found, phi = contains_subgraph(g, h)
            if found:
                offending = tuple(
                    tuple(sorted(phi[v] for v in e)) for e in h.edges
                )
                break
        if offending is None:
            return g
        g = g.remove_edge(offending[rng.randrange(len(offending))])


class TestEnumeration:
    def test_triangle_free_classes_n3(self):
        classes = list(enumerate_family(k3_family(), 3))
        assert len(classes) == 3  # empty, one edge, path

    def test_class_count_matches_bruteforce(self):
        fam = k3_family()
        assert len(list(enumerate_family(fam, 4))) == brute_class_count(fam, 4)

    def test_forbid_single_edge(self):
        fam = ForbiddenFamily((new_hypergraph(2, 2, [(0, 1)]),))
        classes = list(enumerate_family(fam, 5))
        assert len(classes) == 1 and classes[0].m == 0

    def test_guard(self):
        with pytest.raises(TooLarge):
            list(enumerate_family(k3_family(), 12))

    def test_labeled_count_matches_bruteforce_n5(self):
        from hspex.families import _sweep

        fam = k3_family()
        assert _sweep(fam, 5, False).count == brute_member_count(fam, 5)

    def test_labeled_count_matches_bruteforce_3uniform(self):
        from hspex.families import _sweep

        fam = ForbiddenFamily((complete_r_graph(4, 3),))
        assert _sweep(fam, 5, False).count == brute_member_count(fam, 5)

    def test_two_forbidden_graphs(self):
        from hspex.families import _sweep

        fam = ForbiddenFamily((complete_r_graph(3, 2), cycle(4)))
        assert _sweep(fam, 5, False).count == brute_member_count(fam, 5)

    def test_maximal_masks_match_definition_n5(self):
        fam = k3_family()
        expected = set()
        pool = list(combinations(range(5), 2))
        for mask in range(1 << len(pool)):
            edges = tuple(pool[i] for i in range(len(pool)) if mask >> i & 1)
            g = Hypergraph(5, 2, edges)
            if is_member(fam, g) and is_edge_maximal(fam, g)[0]:
                expected.add(mask)
        assert set(maximal_masks(fam, 5)) == expected


def _random_forbidden(seed: int) -> tuple[tuple[Hypergraph, ...], int]:
    """One or two seeded random forbidden r-graphs (r = 2, 3) and a sweep n."""
    rng = random.Random(seed)
    r = 2 + seed % 2
    n = rng.randint(4, 6 if r == 2 else 5)
    forbidden = []
    for _ in range(1 if rng.random() < 0.7 else 2):
        v = rng.randint(r + 1, n + 1)
        pool = list(combinations(range(v), r))
        edges = rng.sample(pool, rng.randint(2, min(len(pool), 6)))
        forbidden.append(Hypergraph(v, r, tuple(sorted(edges))))
    return tuple(forbidden), n


WALK_CASES = (
    [pytest.param((complete_r_graph(3, 2),), n, id=f"K3-n{n}") for n in range(1, 7)]
    + [pytest.param((cycle(4),), 6, id="C4-n6"), pytest.param((cycle(5),), 6, id="C5-n6"),
       pytest.param((complete_r_graph(3, 2), cycle(4)), 6, id="K3+C4-n6")]
    + [pytest.param((complete_r_graph(4, 3),), n, id=f"K4_3-n{n}") for n in (4, 5, 6)]
    + [pytest.param((Hypergraph(3, 2, ()),), 5, id="edgeless-n5"),
       pytest.param((complete_r_graph(6, 2),), 5, id="K6-n5"),
       pytest.param((complete_r_graph(6, 3),), 5, id="K6_3-n5")]
    + [pytest.param(*_random_forbidden(seed), id=f"random{seed}") for seed in range(20)]
)


def maximal_masks(fam: ForbiddenFamily, n: int) -> tuple[int, ...]:
    """The walk's edge-maximal members (addable set empty), in preorder."""
    from hspex.families import _in_preorder, _walk

    found = [b[b < 1 << 32] for b in _walk(fam, n)]
    return tuple(_in_preorder(found, math.comb(n, fam.r)).tolist())


def member_masks(fam: ForbiddenFamily, n: int) -> list[int]:
    """Every member's edge mask from the walk, in preorder."""
    from hspex.families import _in_preorder, _walk

    found = [b & 0xFFFFFFFF for b in _walk(fam, n)]
    return _in_preorder(found, math.comb(n, fam.r)).tolist()


def fresh_sweep(fam: ForbiddenFamily, n: int, every: bool = False):
    from hspex.families import _sweep

    _sweep.cache_clear()
    return _sweep(fam, n, every)


def check_sweep(fam: ForbiddenFamily, n: int):
    """A cold sweep's member count and the walk's maximal masks equal the
    recursive oracle's, and `extremal_pi` gives the oracle's maximum edge
    count with the classes of its argmax masks, in order.  Returns the sweep."""
    count, best, argmax, maximal = sweep_dfs(fam, n)
    data = fresh_sweep(fam, n)
    assert (data.count, maximal_masks(fam, n)) == (count, maximal)
    if count:
        res = extremal_pi(fam, n)
        assert res.value == best
        assert edge_lists(res.argmax) == edge_lists(_classes(mask_graphs(argmax, n, fam.r)))
    return data


@pytest.mark.parametrize("forbidden, n", WALK_CASES)
def test_walk_matches_recursive_oracles(forbidden, n):
    """The batched walk reproduces both recursive DFSs it replaced: the
    sweep exactly, and every member mask once, in preorder once sorted by
    the preorder key."""
    from hspex.families import _preorder_key, _walk

    assert math.comb(n, forbidden[0].r) <= 20
    fam = ForbiddenFamily(forbidden)
    data = check_sweep(fam, n)
    masks = [int(node) & 0xFFFFFFFF for batch in _walk(fam, n) for node in batch]
    keys = _preorder_key(np.array(masks, dtype=np.int64), math.comb(n, fam.r)).tolist()
    assert [mask for _, mask in sorted(zip(keys, masks))] == list(member_masks_dfs(fam, n))
    assert len(masks) == data.count


def walk_nodes(walk, fam: ForbiddenFamily, n: int) -> np.ndarray:
    """Every node a walk yields (edge mask and addable set), sorted."""
    batches = [batch.copy() for batch in walk(fam, n)]
    return np.sort(np.concatenate(batches or [np.zeros(0, dtype=np.int64)]))


@pytest.mark.parametrize("forbidden, n", WALK_CASES + [
    pytest.param((complete_r_graph(3, 2),), 7, id="K3-n7"),
    pytest.param((cycle(4),), 7, id="C4-n7"),
    pytest.param((complete_r_graph(4, 3),), 2, id="K4_3-n2"),
    pytest.param((Hypergraph(2, 2, ((0, 1),)),), 4, id="K2-n4"),
    pytest.param((path5(),), 7, id="P5-n7"),
])
def test_walk_nodes_match_per_completion_oracle(forbidden, n):
    """The walk yields the same node multiset as the per-completion walk it
    replaced: with no candidate edges (n < r), with no completions for any
    edge (K6 at n = 5), with one empty completion per edge (K2), and with
    240 completions per edge (P5 at n = 7), four blocks of GAP_ROWS rows."""
    from hspex.families import _walk

    fam = ForbiddenFamily(forbidden)
    expected = walk_nodes(walk_per_completion, fam, n)
    assert np.array_equal(walk_nodes(_walk, fam, n), expected)


@pytest.mark.parametrize("batch_nodes", [1, 2, 16])
@pytest.mark.parametrize("forbidden, n", [
    pytest.param((complete_r_graph(3, 2),), 6, id="K3-n6"),
    pytest.param((cycle(5),), 6, id="C5-n6"),
    pytest.param((complete_r_graph(4, 3),), 5, id="K4_3-n5"),
])
def test_walk_results_do_not_depend_on_batch_size(forbidden, n, batch_nodes, monkeypatch):
    """Tiny batches split every level, flush leaves at exactly the batch
    size, and outgrow the initial stack; blocks of ten completion rows
    split C5's 24 completions per edge, and blocks of three children split
    a child step of 16 nodes, rows and children in one step.  Sweep and
    member masks stay the recursive oracles', and the node multiset the
    per-completion walk's."""
    import hspex.families as families

    fam = ForbiddenFamily(forbidden)
    expected = walk_nodes(walk_per_completion, fam, n)
    monkeypatch.setattr(families, "WALK_BATCH", batch_nodes)
    monkeypatch.setattr(families, "GAP_ROWS", 10)
    monkeypatch.setattr(families, "GAP_CHILDREN", 3)
    batches = [batch.copy() for batch in families._walk(fam, n)]
    assert max(map(len, batches)) < 2 * batch_nodes
    assert np.array_equal(np.sort(np.concatenate(batches)), expected)
    check_sweep(fam, n)
    assert member_masks(fam, n) == list(member_masks_dfs(fam, n))


def test_walk_scratch_stays_within_its_bound():
    """A full P5-free walk at n = 7, whose 240 completions per edge fill
    every gap row, allocates no more than the gap blocks' fixed bound,
    2 * GAP_ROWS * GAP_CHILDREN int64, plus about 16 * WALK_BATCH int64 of
    stack and batch buffers and 1 MiB for the copy and completion tables:
    gap scratch sized by WALK_BATCH would need 16 MiB at 16,384 pops."""
    import tracemalloc

    from hspex.families import GAP_CHILDREN, GAP_ROWS, WALK_BATCH, _walk

    fam = ForbiddenFamily((path5(),))
    tracemalloc.start()
    try:
        count = sum(len(batch) for batch in _walk(fam, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 20_056
    assert peak < 8 * (2 * GAP_ROWS * GAP_CHILDREN + 16 * WALK_BATCH) + 2**20


@pytest.mark.parametrize("forbidden, members", [
    pytest.param((complete_r_graph(3, 2),), 133_501, id="K3-n7"),
    pytest.param((cycle(4),), 163_440, id="C4-n7"),
])
def test_sweep_above_20_bits_matches_recursive_oracle(forbidden, members):
    """21 candidate edges: past the cases above, and past 2**20 masks."""
    fam = ForbiddenFamily(forbidden)
    assert check_sweep(fam, 7).count == members


@pytest.mark.parametrize("m", range(13))
def test_preorder_key_is_preorder_index(m):
    """The closed-form key numbers the full subset tree over m edges in the
    preorder a recursive DFS visits it."""
    from hspex.families import _preorder_key

    order = subset_tree_preorder(m)
    assert len(order) == 2**m
    keys = _preorder_key(np.array(order, dtype=np.int64), m)
    assert keys.tolist() == list(range(2**m))


ORACLE_CLASS_MASKS = 20_000  # larger sets take minutes in the isomorphism oracles


def mask_graphs(masks, n: int, r: int) -> list[Hypergraph]:
    from hspex.families import _candidate_edges, _mask_to_graph

    cand = _candidate_edges(n, r)
    return [_mask_to_graph(m, cand, n, r) for m in masks]


def orbit_reps(masks, n: int, r: int) -> list[int]:
    from hspex.families import _orbit_classes

    return _orbit_classes(np.array(masks, dtype=np.int64), n, r).tolist()


@pytest.mark.parametrize("forbidden, n", WALK_CASES)
def test_orbit_classes_match_class_oracles(forbidden, n):
    """On each relabeling-closed mask set a sweep reduces (all members,
    edge-maximal and maximum-size ones), orbit labelling keeps exactly the
    class representatives of the isomorphism oracles, in the same order,
    and the two sweep records hold the edge-maximal ones and all members'
    as graphs.  Only K4^(3) at n = 6's 477,965 members are past the
    isomorphism oracles and are checked against the brute-force orbit
    oracle alone."""
    fam = ForbiddenFamily(forbidden)
    data = fresh_sweep(fam, n)
    argmax_masks = sweep_dfs(fam, n)[2]
    maximal = maximal_masks(fam, n)
    maximal_reps = orbit_reps(maximal, n, fam.r)
    assert edge_lists(data.classes) == edge_lists(mask_graphs(maximal_reps, n, fam.r))
    members = member_masks(fam, n)
    every = fresh_sweep(fam, n, True)
    assert every.count == data.count == len(members)
    member_reps = orbit_reps(members, n, fam.r)
    assert edge_lists(every.classes) == edge_lists(mask_graphs(member_reps, n, fam.r))
    for masks in (members, maximal, argmax_masks):
        reps = orbit_reps(masks, n, fam.r)
        assert reps == orbit_classes_bruteforce(masks, n, fam.r)
        if len(masks) <= ORACLE_CLASS_MASKS:
            graphs = mask_graphs(masks, n, fam.r)
            expected = edge_lists(_classes(graphs))
            assert edge_lists(mask_graphs(reps, n, fam.r)) == expected
            assert edge_lists(classes_by_key(graphs)) == expected


@pytest.mark.parametrize("n, r", [(4, 2), (5, 2), (5, 3)])
def test_orbit_classes_follow_the_input_order(n, r):
    """Not only preorder: ascending masks (as connected_graph_classes gives
    them), descending and a seeded shuffle of every labeled graph."""
    masks = list(range(1 << math.comb(n, r)))
    shuffled = list(masks)
    random.Random(n * 10 + r).shuffle(shuffled)
    for order in (masks, masks[::-1], shuffled):
        reps = orbit_reps(order, n, r)
        assert reps == orbit_classes_bruteforce(order, n, r)
        expected = edge_lists(_classes(mask_graphs(order, n, r)))
        assert edge_lists(mask_graphs(reps, n, r)) == expected


@pytest.mark.parametrize("masks, n, r, reps", [
    ([0], 0, 2, [0]),
    ([0], 1, 2, [0]),
    ([0], 1, 3, [0]),
    ([], 4, 2, []),
    ([], 0, 2, []),
])
def test_orbit_classes_trivial_inputs(masks, n, r, reps):
    assert orbit_reps(masks, n, r) == reps


@pytest.mark.parametrize("masks, n", [
    ([0, 1], 3),  # edge 01 alone: 02 and 12 are missing
    ([m for m in range(64) if m != 0b101], 4),  # the path 1-0-3 alone missing
    ([0b111], 4),  # the star at vertex 0 without the other three stars
])
def test_orbit_classes_reject_sets_not_closed_under_relabeling(masks, n):
    with pytest.raises(ValueError, match="not closed under relabeling"):
        orbit_reps(masks, n, 2)


def members_in_sweep_order(fam: ForbiddenFamily, n: int) -> list[Hypergraph]:
    """Every member on n labeled vertices by `is_member`, in the sweep's order.

    A DFS adding candidate edges in increasing index reaches edge subsets in
    lex order of their index sequences.  Membership is closed under
    subgraphs, so a non-member's extensions can be skipped.
    """
    pool = list(combinations(range(n), fam.r))
    out: list[Hypergraph] = []

    def walk(start: int, edges: tuple) -> None:
        g = Hypergraph(n, fam.r, edges)
        if is_member(fam, g):
            out.append(g)
            for j in range(start, len(pool)):
                walk(j + 1, edges + (pool[j],))

    walk(0, ())
    return out


def edge_lists(graphs) -> list:
    return [g.edges for g in graphs]


class TestClasses:
    """The one class routine against canonical keys and brute-force isomorphism."""

    @pytest.mark.parametrize(
        "graphs",
        [
            [cycle(6), disjoint_union(cycle(3), cycle(3))],
            [
                cycle(8),
                disjoint_union(cycle(3), cycle(5)),
                disjoint_union(cycle(4), cycle(4)),
            ],
        ],
    )
    def test_equal_signatures_not_isomorphic(self, graphs):
        assert len({refinement_signature(g) for g in graphs}) == 1
        for i, g in enumerate(graphs):
            for h in graphs[i + 1:]:
                assert not isomorphic(g, h) and not isomorphic(h, g)
        assert edge_lists(_classes(graphs)) == edge_lists(graphs)

    def test_isomorphic_matches_bruteforce(self, rng):
        for _ in range(150):
            n, r = rng.randint(0, 6), rng.choice([2, 3])
            g = random_graph(n, r, rng.random(), rng)
            perm = list(range(n))
            rng.shuffle(perm)
            assert isomorphic(g, relabel(g, perm))
            pool = list(combinations(range(n), r))
            h = Hypergraph(n, r, tuple(rng.sample(pool, g.m)))
            assert isomorphic(g, h) == isomorphic_bruteforce(g, h)
        assert not isomorphic(Hypergraph(3, 2, ()), Hypergraph(3, 3, ()))
        assert not isomorphic(path3(), Hypergraph(4, 2, ((0, 1), (1, 2))))

    @pytest.mark.parametrize("r", [2, 3])
    def test_partition_matches_keys_on_all_graphs_n5(self, r):
        pool = list(combinations(range(5), r))
        graphs = [
            Hypergraph(5, r, tuple(pool[i] for i in range(len(pool)) if mask >> i & 1))
            for mask in range(1 << len(pool))
        ]
        assert edge_lists(_classes(graphs)) == edge_lists(classes_by_key(graphs))

    @pytest.mark.parametrize(
        "forbidden, n",
        [(complete_r_graph(3, 2), n) for n in range(1, 7)]
        + [(cycle(5), 6), (complete_r_graph(4, 3), 5)],
        ids=[f"K3-n{n}" for n in range(1, 7)] + ["C5-n6", "K4_3-n5"],
    )
    def test_enumerate_family_matches_key_oracle(self, forbidden, n):
        fam = ForbiddenFamily((forbidden,))
        expected = classes_by_key(members_in_sweep_order(fam, n))
        assert edge_lists(enumerate_family(fam, n)) == edge_lists(expected)


class TestExtremal:
    def test_pi_values_match_mantel(self):
        fam = k3_family()
        for n, want in [(4, 4), (5, 6), (6, 9)]:
            res = extremal_pi(fam, n)
            assert res.value == want

    def test_pi_argmax_is_balanced_bipartite(self):
        res = extremal_pi(k3_family(), 5)
        assert len(res.argmax) == 1
        assert isomorphic(res.argmax[0], complete_bipartite(2, 3))

    def test_pi_k4_3(self):
        fam = ForbiddenFamily((complete_r_graph(4, 3),))
        assert extremal_pi(fam, 4).value == 3

    def test_pi_times_factorial_is_rho_infinity(self):
        res = extremal_pi(k3_family(), 5)
        for g in res.argmax:
            assert rho_infinity(g) == 2 * res.value

    def test_lambda_values(self):
        cfg = SolverConfig(starts=4, seed=0)
        fam = k3_family()
        res4 = extremal_lambda_p(fam, 4, 2.0, cfg)
        assert res4.value == pytest.approx(2.0, abs=1e-8)
        res5 = extremal_lambda_p(fam, 5, 2.0, cfg)
        assert res5.value == pytest.approx(math.sqrt(6), abs=1e-8)
        assert isomorphic(res5.argmax[0], complete_bipartite(2, 3))

    def test_lambda_forbidden_edge_family(self):
        fam = ForbiddenFamily((new_hypergraph(2, 2, [(0, 1)]),))
        res = extremal_lambda_p(fam, 4, 2.0, SolverConfig(starts=2))
        assert res.value == 0.0

    def test_full_mode_agrees_with_maximal_mode(self):
        fam = k3_family()
        cfg = SolverConfig(starts=4, seed=1)
        a = extremal_lambda_p(fam, 5, 2.0, cfg)
        b = extremal_lambda_p(fam, 5, 2.0, cfg, full=True)
        assert a.value == pytest.approx(b.value, abs=1e-9)

    def test_full_mode_walks_members_once(self, monkeypatch):
        import hspex.families as families

        fam = k3_family()
        families._sweep.cache_clear()  # cold
        calls = []
        walk = families._walk
        monkeypatch.setattr(families, "_walk", lambda f, n: calls.append(n) or walk(f, n))
        res = extremal_lambda_p(fam, 5, 2.0, SolverConfig(starts=2, seed=1), full=True)
        assert calls == [5]
        assert res.count_members == brute_member_count(fam, 5)

    def test_maximal_classes_are_labelled_once(self, monkeypatch):
        """From a cold cache, pi and then two lambda solves on one (family,
        n) label the edge-maximal masks once, inside the sweep."""
        import hspex.families as families

        fam = k3_family()
        families._sweep.cache_clear()  # cold
        calls = []
        orbit = families._orbit_classes
        monkeypatch.setattr(families, "_orbit_classes",
                            lambda masks, n, r: calls.append(n) or orbit(masks, n, r))
        cfg = SolverConfig(starts=2, seed=1)
        extremal_pi(fam, 6)
        extremal_lambda_p(fam, 6, 2.0, cfg)
        extremal_lambda_p(fam, 6, 3.0, cfg)
        assert calls == [6]

    @pytest.mark.parametrize("full", [False, True])
    def test_bad_p_raises_before_the_walk(self, full, monkeypatch):
        """p is checked before the member walk, which at n = 8 walks
        millions of members; a cold cache makes any walk show."""
        import hspex.families as families

        families._sweep.cache_clear()
        calls = []
        monkeypatch.setattr(families, "_walk", lambda f, n: calls.append(n) or iter(()))
        for p in (1.0, 0.5, math.inf, math.nan):
            with pytest.raises(BadP):
                extremal_lambda_p(k3_family(), 6 if full else 8, p, full=full)
        assert calls == []
        # an edgeless forbidden graph has no members; the p error comes first
        with pytest.raises(BadP):
            extremal_lambda_p(ForbiddenFamily((Hypergraph(3, 2, ()),)), 4, 0.5, full=full)

    @pytest.mark.parametrize("full", [False, True])
    def test_no_members_raises(self, full):
        fam = ForbiddenFamily((Hypergraph(3, 2, ()),))
        with pytest.raises(TooLarge, match="no members"):
            extremal_lambda_p(fam, 4, 2.0, SolverConfig(starts=2), full=full)

    def test_monotone_in_n(self):
        fam = k3_family()
        cfg = SolverConfig(starts=4, seed=2)
        pis = [extremal_pi(fam, n).value for n in range(3, 7)]
        assert pis == sorted(pis)
        lams = [extremal_lambda_p(fam, n, 2.0, cfg).value for n in range(3, 7)]
        assert all(b >= a - 1e-9 for a, b in zip(lams, lams[1:]))

    def test_guard(self):
        with pytest.raises(TooLarge):
            extremal_pi(k3_family(), 9)

    @pytest.mark.parametrize("call", [
        lambda fam: list(enumerate_family(fam, -1)),
        lambda fam: extremal_pi(fam, -1),
        lambda fam: extremal_lambda_p(fam, -1, 2.0, SolverConfig(starts=2)),
        lambda fam: extremal_lambda_p(fam, -1, 2.0, SolverConfig(starts=2), full=True),
    ], ids=["enumerate", "pi", "lambda", "full"])
    def test_negative_n_raises(self, call):
        with pytest.raises(OutOfRange, match=r"vertex count -1 < 0"):
            call(k3_family())


class TestSweepCache:
    """`_sweep` is cached per (family value, n): equal values walk once, and a
    reordered or relabeled family is walked again with equal results."""

    @pytest.fixture
    def walks(self, monkeypatch):
        import hspex.families as families

        families._sweep.cache_clear()
        calls = []
        walk = families._walk
        monkeypatch.setattr(families, "_walk", lambda f, n: calls.append((f, n)) or walk(f, n))
        yield calls
        families._sweep.cache_clear()

    @staticmethod
    def results(fam: ForbiddenFamily, n: int) -> list[dict]:
        cfg = SolverConfig(starts=2, seed=1)
        return [extremal_pi(fam, n).to_json_dict()] + [
            extremal_lambda_p(fam, n, p, cfg).to_json_dict(stats=True) for p in (2.0, 3.0)]

    def test_equal_family_value_walks_once(self, walks):
        first = self.results(k3_family(), 6)
        # an equal value built anew, and one from K3's edges relabeled by (0 2)
        relabeled = ForbiddenFamily((Hypergraph(3, 2, ((2, 1), (2, 0), (1, 0))),))
        assert relabeled == k3_family()
        assert self.results(k3_family(), 6) == self.results(relabeled, 6) == first
        assert len(walks) == 1

    def test_reordered_and_relabeled_families_match(self, walks):
        k3, c4 = complete_r_graph(3, 2), cycle(4)
        c4_relabeled = relabel(c4, [2, 0, 3, 1])
        assert c4_relabeled != c4 and isomorphic(c4_relabeled, c4)
        families = [ForbiddenFamily((k3, c4)), ForbiddenFamily((c4, k3)),
                    ForbiddenFamily((k3, c4_relabeled))]
        first, *others = (self.results(fam, 6) for fam in families)
        assert all(other == first for other in others)
        assert [f for f, _ in walks] == families  # each value walked once

    def test_one_record_per_mask_set(self):
        """pi, lambda at p = 2 and 3, enumerate_family and the full audit on
        one (family value, n) sweep twice from a cold cache, once per mask
        set; the audit solves exactly the enumerated classes, and every
        result equals the one its call gives alone from a cold cache."""
        import hspex.families as families

        fam, n = ForbiddenFamily((cycle(5),)), 6
        cfg = SolverConfig(starts=2, seed=1)
        calls = [
            lambda: extremal_pi(fam, n).to_json_dict(),
            lambda: extremal_lambda_p(fam, n, 2.0, cfg).to_json_dict(stats=True),
            lambda: extremal_lambda_p(fam, n, 3.0, cfg).to_json_dict(stats=True),
            lambda: edge_lists(enumerate_family(fam, n)),
            lambda: extremal_lambda_p(fam, n, 2.0, cfg, full=True).to_json_dict(stats=True),
        ]
        families._sweep.cache_clear()
        shared = [call() for call in calls]
        assert families._sweep.cache_info().misses == 2
        assert shared[4]["classes_solved"] == len(shared[3])
        for call, result in zip(calls, shared):
            families._sweep.cache_clear()
            assert call() == result
        families._sweep.cache_clear()

    def test_family_from_a_list_is_a_hashable_equal_value(self):
        listed = ForbiddenFamily([complete_r_graph(3, 2), cycle(4)])
        tupled = ForbiddenFamily((complete_r_graph(3, 2), cycle(4)))
        assert isinstance(listed.forbidden, tuple)
        assert listed == tupled and hash(listed) == hash(tupled)


@pytest.mark.parametrize("call", [
    lambda: ForbiddenFamily(()),
    lambda: saturate(k3_family(), Hypergraph(4, 2, ()), "spiral"),
    lambda: extremal_pi(ForbiddenFamily((complete_r_graph(3, 2),), induced=True), 4),
    lambda: extremal_pi(PredicateFamily(2, lambda g: True), 4),
], ids=["no-graph", "unknown-order", "induced", "predicate"])
def test_family_errors_are_hspex_value_errors(call):
    with pytest.raises(HspexError) as info:
        call()
    assert isinstance(info.value, ValueError)
