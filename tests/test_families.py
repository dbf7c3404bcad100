import random
import tracemalloc
from collections import Counter
from functools import lru_cache, partial
from itertools import permutations

import pytest

from crslab import families
from crslab.errors import (
    CrossEdgeMismatch,
    IndexOutOfRange,
    InvalidCertificate,
    InvalidGraph,
    NotMember,
    SizeOverflow,
    UnknownName,
    WrongVertexSet,
)
from crslab.graph import (
    BaseVertex,
    Graph,
    LatticeVertex,
    PlainVertex,
    _iter_bits,
    degree,
    diameter,
    distances,
    is_spanning_subgraph,
    plain_graph,
)
from crslab.families import (
    CompositeGraph,
    base_complete,
    base_null,
    canonical_relabel,
    cartesian_power,
    compose,
    cover_system,
    example_graph,
    gamma,
    is_edge_covering,
    lattice_complete,
    lattice_slice,
    lattice_vertices,
    member_b,
    member_c,
    path_on,
    s_set,
    scaffold,
    span_lattice,
)
from crslab.graph6 import read_graph6
from crslab.resolving import CrsCertificate, check_crs
from crslab.sweeps import random_b_member, random_c_member


def vpair(a, b):
    return tuple(sorted((a, b)))


def plain_graph_of_order_6():
    return Graph(
        [PlainVertex(i) for i in range(6)],
        [(PlainVertex(i), PlainVertex(i + 1)) for i in range(5)],
    )


def edge_vectors(g):
    return {vpair(e[0].vector, e[1].vector) for e in g.edges()}


class TestLatticeVertices:
    def test_small_cases(self):
        assert lattice_vertices(1, 3) == [(1,), (2,), (3,)]
        assert lattice_vertices(2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert len(lattice_vertices(3, 3)) == 27

    def test_lexicographic(self):
        vecs = lattice_vertices(3, 3)
        assert vecs == sorted(vecs)

    def test_size_cap(self):
        with pytest.raises(SizeOverflow):
            lattice_vertices(20, 3)
        with pytest.raises(IndexOutOfRange):
            lattice_vertices(0, 2)


class TestSpanLattice:
    def test_vectors_of_any_sequence_type(self):
        want = span_lattice(2, 2, [((1, 1), (2, 2))])
        assert span_lattice(2, 2, [([1, 1], [2, 2])]) == want
        assert span_lattice(2, 2, iter([((2, 2), (1, 1))])) == want

    def test_vectors_outside_the_lattice(self):
        with pytest.raises(InvalidGraph, match="^lattice components must be >= 1, got \\(0, 1\\)$"):
            span_lattice(2, 2, [((1, 1), (2, 2)), ((0, 1), (1, 1))])
        with pytest.raises(InvalidGraph, match="^edge endpoint \\(3,1\\) is not a declared vertex$"):
            span_lattice(2, 2, [((3, 1), (1, 1))])
        with pytest.raises(SizeOverflow):
            span_lattice(20, 3, [])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_single_vector_is_refused(self, k):
        # [1]^k is one vertex, and a graph needs two
        with pytest.raises(InvalidGraph, match="^a graph needs at least two vertices$"):
            span_lattice(k, 1, [])

    @pytest.mark.parametrize("feed", [list, iter], ids=["list", "iterator"])
    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (((3, 1), (1, 1)), InvalidGraph, "edge endpoint (3,1) is not a declared vertex"),
            (((0, 1), (1, 1)), InvalidGraph, "lattice components must be >= 1, got (0, 1)"),
            (((2, 2), (2, 2)), InvalidGraph, "loop at (2,2)"),
            (((1, 1, 1), (1, 1)), InvalidGraph, "edge endpoint (1,1,1) is not a declared vertex"),
            (((1, 1), (2,)), InvalidGraph, "edge endpoint (2) is not a declared vertex"),
            (((1, 1), (2, 2), (1, 2)), ValueError, "too many values to unpack (expected 2)"),
        ],
        ids=["out-of-range", "component-below-one", "loop", "long-vector", "short-vector", "not-a-pair"],
    )
    def test_each_refusal_keeps_its_message(self, feed, bad, error, message):
        # the bad edge comes after a good one, so the rows are half built
        # when the refusal is raised
        with pytest.raises(error) as exc:
            span_lattice(2, 2, feed([((1, 1), (2, 2)), bad]))
        assert str(exc.value) == message


class TestSlice:
    def test_membership_and_size(self):
        sl = lattice_slice(3, 3, {1}, {2})
        assert (2, 1, 3) in sl
        assert (1, 1, 3) not in sl
        assert sl.size() == 9
        assert len(sl.vectors()) == 9

    def test_all_positions(self):
        x = lattice_slice(2, 3, {1, 2}, {2, 3})
        assert x.size() == 4
        assert x.vectors() == [(2, 2), (2, 3), (3, 2), (3, 3)]

    def test_positions_and_values_must_lie_in_range(self):
        with pytest.raises(IndexOutOfRange, match=r"^slice positions must lie in \[k\]=2$"):
            lattice_slice(2, 3, {3}, {1})
        with pytest.raises(IndexOutOfRange, match=r"^slice values must lie in \[m\]=3$"):
            lattice_slice(2, 3, {1}, {4})


class TestScaffold:
    def test_b_is_complete_bipartite(self):
        b = scaffold(2, 1, "B")
        assert edge_vectors(b) == {
            vpair((1, 1), (2, 1)), vpair((1, 1), (2, 2)),
            vpair((1, 2), (2, 1)), vpair((1, 2), (2, 2)),
        }

    def test_b_edge_count(self):
        for k in (2, 3, 4):
            assert scaffold(k, 1, "B").size == 2 ** (k - 1) * 2 ** (k - 1)

    def test_c_gap_condition(self):
        c = scaffold(2, 1, "C")
        assert vpair((1, 1), (2, 2)) in edge_vectors(c)
        assert vpair((1, 1), (2, 3)) not in edge_vectors(c)

    def test_d_parts_and_edges(self):
        d = scaffold(2, 1, "D")
        assert vpair((2, 3), (3, 2)) in edge_vectors(d)
        for x, y in edge_vectors(d):
            assert {x[0], y[0]} == {2, 3}

    def test_cd_edge_counts(self):
        for k in (2, 3):
            assert scaffold(k, 1, "C").size == 7 ** (k - 1)
            assert scaffold(k, 1, "D").size == 7 ** (k - 1)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            scaffold(2, 3, "B")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="^scaffold kind must be B, C or D, got 'X'$"):
            scaffold(2, 1, "X")


class TestSSet:
    def test_k2(self):
        assert s_set(2, 1) == {(3, 2), (3, 3)}
        assert s_set(2, 2) == {(2, 3), (3, 3)}

    def test_cardinality(self):
        for k in (2, 3, 4):
            for i in range(1, k + 1):
                assert len(s_set(k, i)) == 2 ** (k - 1)


class TestEdgeCovering:
    def test_empty_target_is_vacuous(self):
        assert is_edge_covering([], set())

    def test_no_edges_nonempty_target(self):
        assert not is_edge_covering([], {(2, 2)})

    def test_endpoint_counts(self):
        assert is_edge_covering([((1, 1), (2, 2))], {(2, 2)})


class TestCompose:
    def test_edge_counts(self):
        c = compose(base_complete(2), example_graph("U", 2), 2, 2)
        assert c.size == 1 + 1 + 2 * 2
        c = compose(base_null(2), gamma(2), 2, 3)
        assert c.size == 0 + 20 + 2 * 3
        c = compose(base_null(3), span_lattice(3, 2, []), 3, 2)
        assert c.size == 3 * 4

    def test_materialized_size_matches(self):
        c = compose(base_null(2), example_graph("T", 2), 2, 3)
        assert c.materialize().size == c.size
        assert c.materialize().order == c.order == 11

    def test_cross_edges_rule(self):
        c = compose(base_null(2), span_lattice(2, 2, []), 2, 2)
        g = c.materialize()
        for v in lattice_vertices(2, 2):
            for i in (1, 2):
                assert g.has_edge(BaseVertex(i), LatticeVertex(v)) == (v[i - 1] == 1)

    def test_wrong_vertex_sets(self):
        with pytest.raises(WrongVertexSet):
            compose(base_null(3), example_graph("U", 2), 2, 2)
        with pytest.raises(WrongVertexSet):
            compose(base_null(2), example_graph("U", 2), 2, 3)


class TestMemberB:
    def test_u_with_complete_base(self):
        assert member_b(base_complete(2), example_graph("U", 2)).member

    def test_edgeless_has_uncovered_witness(self):
        rep = member_b(base_complete(2), span_lattice(2, 2, []))
        assert not rep.member
        assert rep.diagnostics[0].uncovered == LatticeVertex((2, 2))

    def test_r_with_null_base(self):
        assert member_b(base_null(2), example_graph("R", 2)).member

    def test_report_carries_covering_edges(self):
        rep = member_b(base_null(2), example_graph("P2box", 2))
        assert rep.member
        for diag in rep.diagnostics:
            assert len(diag.covering_edges) == 2  # one matching direction each


    def test_equal_bases_share_one_cover_system(self):
        # the cache is keyed by the base itself, which is immutable
        base = base_complete(3)
        copy = Graph(base.vertices(), base.edges())
        assert copy is not base and cover_system("B", 3, copy) is cover_system("B", 3, base)
        assert cover_system("B", 3) is cover_system("B", 3, base_null(3))
        assert cover_system("B", 3, base).hoods == (frozenset({1, 2, 3}),) * 3
        with pytest.raises(WrongVertexSet, match="base has order 2, expected k=3"):
            cover_system("B", 3, base_complete(2))
        with pytest.raises(WrongVertexSet, match="base has order 3, expected k=2"):
            cover_system("B", 2, base_complete(3))
        with pytest.raises(WrongVertexSet, match="BaseVertex"):
            cover_system("B", 2, Graph([PlainVertex(1), PlainVertex(2)], []))


class TestMemberC:
    def test_named_members(self):
        assert member_c(example_graph("T", 2)).member
        assert member_c(gamma(2)).member
        assert member_c(example_graph("Qcanon", 2)).member
        assert member_c(example_graph("T", 3)).member

    def test_gap_edge_fails_condition_one(self):
        rep = member_c(span_lattice(2, 3, [((1, 1), (3, 3))]))
        assert not rep.member
        assert rep.bad_edge == (LatticeVertex((1, 1)), LatticeVertex((3, 3)))

    def test_missing_cover_is_witnessed(self):
        t2 = example_graph("T", 2)
        # drop one edge: some coordinate loses its only cover of a vertex
        for e in t2.edges():
            smaller = Graph(t2.vertices(), [f for f in t2.edge_set() if f != e])
            rep = member_c(smaller)
            assert not rep.member
            assert rep.bad_edge is None
            assert any(
                d.uncovered is not None or d.uncovered_secondary is not None
                for d in rep.diagnostics
            )

    def test_wrong_vertex_set(self):
        with pytest.raises(WrongVertexSet):
            member_c(example_graph("U", 2))  # a [2]^k lattice


def constraint_edges(cs):
    """Each constraint tag with its edges, as sets of two vectors."""
    return {
        tag: frozenset(frozenset((u.vector, v.vector)) for u, v in map(cs.edges.__getitem__, _iter_bits(mask)))
        for tag, mask in zip(cs.constraints(), cs.masks)
    }


def permute_vector(perm, x):
    """Coordinate j of x moves to coordinate perm[j - 1]."""
    y = [0] * len(x)
    for j, c in enumerate(x):
        y[perm[j] - 1] = c
    return tuple(y)


def permute_constraints(perm, constraints):
    move = lru_cache(maxsize=None)(partial(permute_vector, perm))
    return {
        (perm[i - 1], cond, move(x)): frozenset(frozenset(map(move, e)) for e in edges)
        for (i, cond, x), edges in constraints.items()
    }


def labeled_base(k, bits):
    """The base on [k] with the edges of base_complete(k) that ``bits`` selects."""
    pairs = base_complete(k).edges()
    return Graph(base_null(k).vertices(), [pairs[t] for t in range(len(pairs)) if bits >> t & 1])


class TestOneRule:
    def test_c_refuses_a_base_with_edges(self):
        with pytest.raises(NotMember, match="the radius-3 family needs a null base"):
            cover_system("C", 2, base_complete(2))
        with pytest.raises(WrongVertexSet, match="base has order 2, expected k=3"):
            cover_system("C", 3, base_null(2))
        with pytest.raises(WrongVertexSet, match="BaseVertex"):
            cover_system("C", 2, Graph([PlainVertex(1), PlainVertex(2)], []))
        assert cover_system("C", 3) is cover_system("C", 3, base_null(3))
        assert cover_system("C", 3).hoods == (frozenset({1}), frozenset({2}), frozenset({3}))

    @pytest.mark.parametrize("k, constraints, incidences", [(2, 4, 8), (3, 12, 48), (4, 32, 256)])
    def test_c_slices_on_two_values_are_b_over_the_null_base(self, k, constraints, incidences):
        # family C's slice rule, cut down to [2]^k, is family B's
        cut = {
            tag: frozenset(e for e in edges if max(map(max, e)) <= 2)
            for tag, edges in constraint_edges(cover_system("C", k)).items()
            if tag[1] == "slice" and max(tag[2]) <= 2
        }
        b = constraint_edges(cover_system("B", k))
        assert cut == b
        assert len(b) == constraints and sum(map(len, b.values())) == incidences

    def test_coordinate_permutations_carry_the_cover_system(self):
        # every base on [3] under every permutation; at k = 4 and 5, six
        # seeded bases under four seeded permutations each
        rng = random.Random(0xC0DE)
        perms = {3: list(permutations((1, 2, 3)))}
        bases = [(3, bits) for bits in range(8)]
        for k in (4, 5):
            perms[k] = rng.sample(list(permutations(range(1, k + 1)))[1:], 4)  # not the identity
            bases += [(k, bits) for bits in rng.sample(range(1 << k * (k - 1) // 2), 6)]
        pairs, base_moved = Counter(), Counter()
        for k, bits in bases:
            base = labeled_base(k, bits)
            cs = cover_system("B", k, base)
            want = constraint_edges(cs)
            for perm in perms[k]:
                moved_base = Graph(base.vertices(), [
                    (BaseVertex(perm[u.index - 1]), BaseVertex(perm[v.index - 1])) for u, v in base.edges()
                ])
                moved = cover_system("B", k, moved_base)
                hoods = [None] * k
                for i, hood in enumerate(cs.hoods, 1):
                    hoods[perm[i - 1] - 1] = frozenset(perm[j - 1] for j in hood)
                assert moved.hoods == tuple(hoods)
                got = constraint_edges(moved)
                assert got == permute_constraints(perm, want)
                # the control: moving the base but not the coordinates fails
                if moved_base != base:
                    assert got != want
                    base_moved[k] += 1
                pairs[k] += 1
        # at k = 3, 48 pairs, less one per automorphism: 6 + 3 * 2 + 3 * 2 + 6
        assert pairs == {3: 48, 4: 24, 5: 24} and base_moved[3] == 24
        assert base_moved[4] > 0 and base_moved[5] > 0, base_moved
        for k in (3, 4, 5):
            c = constraint_edges(cover_system("C", k))
            for perm in perms[k]:
                assert permute_constraints(perm, c) == c


class TestGamma:
    def test_sizes(self):
        assert gamma(2).size == 20
        assert gamma(3).size == 158

    def test_non_edge(self):
        assert vpair((1, 1), (3, 1)) not in edge_vectors(gamma(2))

    def test_universe_is_in_canonical_edge_order(self):
        # the scans read lattice masks bit by bit in this order; on [2]^k
        # (family B) the rule keeps every pair
        for k, m in ((2, 3), (3, 3), (2, 2), (3, 2)):
            verts = [LatticeVertex(x) for x in lattice_vertices(k, m)]
            direct = [
                (u, v)
                for a, u in enumerate(verts)
                for v in verts[a + 1:]
                if all(abs(s - t) <= 1 for s, t in zip(u.vector, v.vector))
            ]
            assert list(cover_system("B" if m == 2 else "C", k).edges) == direct
        assert len(cover_system("B", 3).edges) == 8 * 7 // 2

    def test_gamma_leaves_no_universe_cached(self):
        # the cached cover system must not keep Gamma_7's 410 678 edges
        families._cover_system.cache_clear()
        assert gamma(7).size == (7 ** 7 - 3 ** 7) // 2
        assert "edges" not in cover_system("C", 7).__dict__

    def test_gamma_keeps_no_per_edge_objects(self):
        # the adjacency bits are a Graph's only edge store: with the labels
        # and the cover system built, Gamma_5's 8 282 edges cost no objects
        families._lattice_labels(5, 3)
        cover_system("C", 5)
        tracemalloc.start()
        try:
            g = gamma(5)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert g.size == (7 ** 5 - 3 ** 5) // 2
        assert held < 250_000

    def test_scaffold_union_equals_direct(self):
        # gamma() reads the cover system's universe; check it against the
        # C/D scaffolds and against the rule itself
        for k in (2, 3, 4):
            got = edge_vectors(gamma(k))
            union = set()
            for i in range(1, k + 1):
                union |= edge_vectors(scaffold(k, i, "C"))
                union |= edge_vectors(scaffold(k, i, "D"))
            vecs = lattice_vertices(k, 3)
            direct = {
                (x, y)
                for a, x in enumerate(vecs)
                for y in vecs[a + 1:]
                if all(abs(s - t) <= 1 for s, t in zip(x, y))
            }
            assert got == union == direct
            assert len(direct) == (7 ** k - 3 ** k) // 2


class TestExampleGraphs:
    def test_u(self):
        assert edge_vectors(example_graph("U", 3)) == {vpair((1, 1, 1), (2, 2, 2))}

    def test_v(self):
        assert edge_vectors(example_graph("V", 2)) == {
            vpair((1, 2), (2, 2)), vpair((2, 1), (2, 2))
        }

    def test_r_is_a_perfect_matching(self):
        r3 = example_graph("R", 3)
        assert r3.size == 4
        covered = [u for e in r3.edges() for u in e]
        assert len(set(covered)) == 8

    def test_t2_edges(self):
        assert edge_vectors(example_graph("T", 2)) == {
            vpair((2, 2), (1, 1)), vpair((2, 3), (1, 2)), vpair((3, 2), (2, 1)),
            vpair((3, 3), (2, 2)), vpair((1, 2), (2, 1)),
        }

    def test_p2box_3(self):
        cube = example_graph("P2box", 3)
        assert cube.size == 12
        assert cube.order == 8

    def test_qcanon_is_cube_minus_deletions(self):
        q2 = example_graph("Qcanon", 2)
        p3sq = cartesian_power(path_on(3), 2)
        assert q2.size == 10 and p3sq.size == 12
        assert edge_vectors(p3sq) - edge_vectors(q2) == {
            vpair((2, 1), (3, 1)), vpair((1, 2), (1, 3))
        }

    def test_maxima(self):
        maxb = example_graph("MaxB", 2)
        assert maxb.base == base_complete(2)
        assert maxb.lattice == lattice_complete(2, 2)
        maxc = example_graph("MaxC", 2)
        assert maxc.base == base_null(2)
        assert maxc.lattice == gamma(2)

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            example_graph("Z", 2)


class TestCartesianPower:
    def test_square_is_a_4_cycle(self):
        sq = cartesian_power(path_on(2), 2)
        assert sq.order == 4 and sq.size == 4
        assert all(degree(sq, v) == 2 for v in sq.vertices())

    def test_counts(self):
        assert cartesian_power(path_on(2), 4).size == 4 * 2 ** 3
        p3sq = cartesian_power(path_on(3), 2)
        assert p3sq.order == 9 and p3sq.size == 12

    def test_needs_positive_plain_ids(self):
        with pytest.raises(WrongVertexSet):
            cartesian_power(Graph([PlainVertex(0), PlainVertex(1)], [(PlainVertex(0), PlainVertex(1))]), 2)

    def test_needs_s_at_least_one(self):
        with pytest.raises(IndexOutOfRange, match="^need s >= 1, got 0$"):
            cartesian_power(path_on(2), 0)


def random_pairs(rng, items, p=0.3):
    return [(x, y) for i, x in enumerate(items) for y in items[i + 1:] if rng.random() < p]


class TestBitsConstructor:
    """The builds that set a graph's adjacency bits directly give the graph,
    with the hash, that the labelled build gives on the same edges."""

    @staticmethod
    def assert_same(fast, vertices, edges):
        slow = Graph(vertices, edges)
        assert fast == slow and hash(fast) == hash(slow)
        assert fast.vertices() == slow.vertices() and fast.edges() == slow.edges()
        assert fast.adjacency_masks() == slow.adjacency_masks()
        assert all(fast.has_vertex(v) and fast.index_of(v) == slow.index_of(v) for v in slow.vertices())

    @pytest.mark.parametrize("k, m", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_span_lattice_and_materialize(self, k, m):
        rng = random.Random(10 * k + m)
        labels = [LatticeVertex(x) for x in lattice_vertices(k, m)]
        base_labels = [BaseVertex(i) for i in range(1, k + 1)]
        cross = [(BaseVertex(i), v) for i in range(1, k + 1) for v in labels if v.vector[i - 1] == 1]
        for _ in range(20):
            pairs = random_pairs(rng, lattice_vertices(k, m))
            lattice = span_lattice(k, m, pairs)
            self.assert_same(lattice, labels, [(LatticeVertex(x), LatticeVertex(y)) for x, y in pairs])
            base = Graph(base_labels, random_pairs(rng, base_labels, 0.5))
            comp = compose(base, lattice, k, m)
            self.assert_same(comp.materialize(), base_labels + labels, base.edges() + lattice.edges() + cross)

    @pytest.mark.parametrize(
        "family, base", [("B", base_null(2)), ("B", base_complete(2)), ("C", None)], ids=["B-null", "B-complete", "C"]
    )
    def test_cover_system_graph_at_k2(self, family, base):
        # every mask of the 6-edge B universe; of Gamma_2's 20 edges, each
        # one alone and seeded masks (the rows are an OR over the edges)
        cs = cover_system(family, 2, base)
        labels = [LatticeVertex(x) for x in lattice_vertices(2, cs.m)]
        width = len(cs.edges)
        rng = random.Random(width)
        if family == "B":
            masks = range(1 << width)
        else:
            singles = [1 << b for b in range(width)]
            masks = [0, (1 << width) - 1, *singles, *(rng.getrandbits(width) for _ in range(200))]
        for mask in masks:
            self.assert_same(cs.graph(mask), labels, [cs.edges[b] for b in _iter_bits(mask)])

    @pytest.mark.parametrize("family", ["B", "C"])
    def test_cover_system_graph_at_k3(self, family):
        cs = cover_system(family, 3)
        labels = [LatticeVertex(x) for x in lattice_vertices(3, cs.m)]
        rng = random.Random(3)
        for _ in range(20):
            mask = rng.getrandbits(len(cs.edges))
            self.assert_same(cs.graph(mask), labels, [cs.edges[b] for b in _iter_bits(mask)])

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_gamma(self, k):
        # against the direct rule, not the cover system's universe
        labels = [LatticeVertex(x) for x in lattice_vertices(k, 3)]
        every = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]]
        pairs = [(u, v) for u, v in every if all(abs(a - b) <= 1 for a, b in zip(u.vector, v.vector))]
        self.assert_same(gamma(k), labels, pairs)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_plain_graph(self, n):
        rng = random.Random(n)
        labels = [PlainVertex(i) for i in range(n)]
        for _ in range(10):
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
            pairs = [(a, b) for a, b in pairs if a != b]
            edges = [(PlainVertex(a), PlainVertex(b)) for a, b in pairs]
            self.assert_same(plain_graph(n, pairs), labels, edges)

    def test_materialize_refuses_parts_off_k_and_the_lattice(self):
        # parts that compose() would refuse are refused with its messages
        u2 = example_graph("U", 2)
        with pytest.raises(WrongVertexSet, match="^base has order 3, expected k=2$"):
            CompositeGraph(2, 2, base_complete(3), u2).materialize()
        partial = Graph([LatticeVertex((1, 1)), LatticeVertex((2, 2))], [])
        with pytest.raises(WrongVertexSet, match="^lattice graph must live on all of \\[2\\]\\^2$"):
            CompositeGraph(2, 2, base_complete(2), partial).materialize()

    @pytest.mark.parametrize("n", range(2, 13))
    def test_read_graph6(self, n):
        rng = random.Random(n)
        pairs = [(row, col) for col in range(1, n) for row in range(col)]
        labels = [PlainVertex(i) for i in range(n)]
        for _ in range(10):
            bits = [rng.random() < 0.4 for _ in pairs]
            padded = "".join("1" if b else "0" for b in bits) + "0" * (-len(bits) % 6)
            text = chr(63 + n) + "".join(chr(63 + int(padded[i:i + 6], 2)) for i in range(0, len(padded), 6))
            edges = [(PlainVertex(a), PlainVertex(b)) for (a, b), bit in zip(pairs, bits) if bit]
            self.assert_same(read_graph6(text), labels, edges)

    @pytest.mark.parametrize("k, m", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_canonical_relabel(self, k, m):
        # members certified under scrambled plain labels; the relabel must
        # carry each edge through the certificate
        rng = random.Random(100 * k + m)
        for _ in range(5):
            if m == 2:
                base, lattice = random_b_member(rng, k)
            else:
                base, lattice = base_null(k), random_c_member(rng, k)
            g = compose(base, lattice, k, m).materialize()
            shuffled = list(g.vertices())
            rng.shuffle(shuffled)
            plain = {v: PlainVertex(i) for i, v in enumerate(shuffled)}
            scrambled = Graph(plain.values(), [(plain[u], plain[v]) for u, v in g.edges()])
            w = tuple(plain[BaseVertex(i)] for i in range(1, k + 1))
            cert = check_crs(scrambled, w)
            assert isinstance(cert, CrsCertificate)
            back = canonical_relabel(scrambled, cert)
            position = {x: BaseVertex(i) for i, x in enumerate(w, 1)}
            base_edges = [(position[u], position[v]) for u, v in scrambled.edges() if u in position and v in position]
            self.assert_same(back.base, [BaseVertex(i) for i in range(1, k + 1)], base_edges)
            lattice_edges = [
                (LatticeVertex(cert.table[u]), LatticeVertex(cert.table[v]))
                for u, v in scrambled.edges()
                if u not in position and v not in position
            ]
            self.assert_same(back.lattice, [LatticeVertex(x) for x in lattice_vertices(k, m)], lattice_edges)
            assert back.base == base and back.lattice == lattice


class TestCanonicalRelabel:
    def test_round_trip(self):
        comp = compose(base_complete(2), example_graph("U", 2), 2, 2)
        g = comp.materialize()
        cert = check_crs(g, (BaseVertex(1), BaseVertex(2)))
        assert isinstance(cert, CrsCertificate)
        back = canonical_relabel(g, cert)
        assert back.base == comp.base and back.lattice == comp.lattice

    def test_relabeled_lattice_is_member(self):
        # a radius-3 composite certified under scrambled plain labels
        comp = compose(base_null(2), example_graph("T", 2), 2, 3)
        g = comp.materialize()
        order = list(g.vertices())
        rng = random.Random(2)
        shuffled = order[:]
        rng.shuffle(shuffled)
        relabel = {v: PlainVertex(i) for i, v in enumerate(shuffled)}
        scrambled = Graph(
            [relabel[v] for v in order],
            [(relabel[u], relabel[v]) for u, v in g.edges()],
        )
        w = (relabel[BaseVertex(1)], relabel[BaseVertex(2)])
        cert = check_crs(scrambled, w)
        assert isinstance(cert, CrsCertificate) and cert.m_of_w == 3
        back = canonical_relabel(scrambled, cert)
        assert back.base.size == 0
        assert member_c(back.lattice).member

    def test_rejects_radius_above_three(self):
        g = Graph([PlainVertex(i) for i in range(5)], [(PlainVertex(i), PlainVertex(i + 1)) for i in range(4)])
        cert = check_crs(g, (PlainVertex(0),))
        assert isinstance(cert, CrsCertificate) and cert.m_of_w == 4
        with pytest.raises(InvalidCertificate, match="^relabeling needs truncation radius 2 or 3, got 4$"):
            canonical_relabel(g, cert)

    def test_cross_edge_mismatch_detected(self):
        comp = compose(base_null(2), example_graph("T", 2), 2, 3)
        g = comp.materialize()
        cert = check_crs(g, (BaseVertex(1), BaseVertex(2)))
        assert isinstance(cert, CrsCertificate)
        # break one cross edge: the certificate still claims d(b1, (1,1)) = 1
        dropped = (BaseVertex(1), LatticeVertex((1, 1)))
        broken = Graph(g.vertices(), [e for e in g.edge_set() if e != dropped])
        with pytest.raises(CrossEdgeMismatch) as exc:
            canonical_relabel(broken, cert)
        assert str(exc.value) == "adjacency of b1 and (1,1) disagrees with the certificate vector"

    def test_cross_edge_mismatch_names_the_first_pair(self):
        # two broken cross edges under scrambled labels: the message names the
        # first (w, u) in W order, then the graph's canonical vertex order
        comp = compose(base_null(2), example_graph("T", 2), 2, 3)
        g = comp.materialize()
        shuffled = list(g.vertices())
        random.Random(5).shuffle(shuffled)
        relabel = {v: PlainVertex(i) for i, v in enumerate(shuffled)}
        scrambled = Graph(list(relabel.values()), [(relabel[u], relabel[v]) for u, v in g.edges()])
        w = (relabel[BaseVertex(2)], relabel[BaseVertex(1)])
        cert = check_crs(scrambled, w)
        assert isinstance(cert, CrsCertificate)
        flips = {
            frozenset((w[0], relabel[LatticeVertex((2, 1))])),
            frozenset((w[0], relabel[LatticeVertex((3, 3))])),
            frozenset((w[1], relabel[LatticeVertex((1, 2))])),
        }
        edges = {frozenset(e) for e in scrambled.edge_set()} ^ flips
        broken = Graph(scrambled.vertices(), [tuple(e) for e in edges])
        rest = [u for u in broken.vertices() if u not in w]
        first = next(
            (x, u) for i, x in enumerate(w) for u in rest
            if broken.has_edge(x, u) != (cert.table[u][i] == 1)
        )
        assert first[0] == w[0]
        with pytest.raises(CrossEdgeMismatch) as exc:
            canonical_relabel(broken, cert)
        assert str(exc.value) == f"adjacency of {first[0]!r} and {first[1]!r} disagrees with the certificate vector"

    def test_rejects_table_missing_an_outside_vertex(self):
        g = compose(base_complete(2), example_graph("U", 2), 2, 2).materialize()
        cert = check_crs(g, (BaseVertex(1), BaseVertex(2)))
        table = dict(cert.table)
        del table[LatticeVertex((2, 1))]
        with pytest.raises(InvalidCertificate, match="^certificate table does not cover V minus W$"):
            canonical_relabel(g, CrsCertificate(cert.w_order, cert.m_of_w, table))

    def test_rejects_table_holding_a_w_vertex(self):
        g = compose(base_complete(2), example_graph("U", 2), 2, 2).materialize()
        cert = check_crs(g, (BaseVertex(1), BaseVertex(2)))
        table = {**cert.table, BaseVertex(2): (2, 1)}
        with pytest.raises(InvalidCertificate, match="^certificate table does not cover V minus W$"):
            canonical_relabel(g, CrsCertificate(cert.w_order, cert.m_of_w, table))

    def test_rejects_foreign_certificate(self):
        comp = compose(base_complete(2), example_graph("U", 2), 2, 2)
        g = comp.materialize()
        cert = check_crs(g, (BaseVertex(1), BaseVertex(2)))
        other = plain_graph_of_order_6()
        with pytest.raises(InvalidCertificate, match="^certificate W is not inside the graph$"):
            canonical_relabel(other, cert)


class TestDistanceIdentity:
    """Members resolve every lattice vertex to its own label."""

    def _assert_identity(self, comp):
        g = comp.materialize()
        d = distances(g)
        for i in range(1, comp.k + 1):
            for v in lattice_vertices(comp.k, comp.m):
                assert d[(BaseVertex(i), LatticeVertex(v))] == v[i - 1]

    def test_named_b_members_k2_k3(self):
        for k in (2, 3):
            self._assert_identity(compose(base_complete(k), example_graph("U", k), k, 2))
            self._assert_identity(compose(base_complete(k), example_graph("V", k), k, 2))
            self._assert_identity(compose(base_null(k), example_graph("R", k), k, 2))
            self._assert_identity(compose(base_null(k), example_graph("P2box", k), k, 2))
            self._assert_identity(example_graph("MaxB", k))

    def test_named_c_members_k2_k3(self):
        for k in (2, 3):
            self._assert_identity(compose(base_null(k), example_graph("T", k), k, 3))
            self._assert_identity(compose(base_null(k), example_graph("Qcanon", k), k, 3))
            self._assert_identity(example_graph("MaxC", k))

    def test_random_members(self):
        rng = random.Random(17)
        for k in (2, 3):
            for _ in range(5):
                base, lattice = random_b_member(rng, k)
                assert member_b(base, lattice).member
                self._assert_identity(compose(base, lattice, k, 2))
                lattice = random_c_member(rng, k)
                assert member_c(lattice).member
                self._assert_identity(compose(base_null(k), lattice, k, 3))


class TestDiameterRanges:
    def test_named_values(self):
        assert diameter(example_graph("MaxB", 2).materialize()) == 2
        assert diameter(compose(base_complete(2), example_graph("U", 2), 2, 2).materialize()) == 3
        assert diameter(example_graph("MaxC", 2).materialize()) == 3
        assert diameter(compose(base_null(2), example_graph("Qcanon", 2), 2, 3).materialize()) == 4
        assert diameter(compose(base_null(2), example_graph("T", 2), 2, 3).materialize()) == 5

    def test_random_members_stay_in_range(self):
        rng = random.Random(19)
        for k in (2, 3):
            for _ in range(10):
                base, lattice = random_b_member(rng, k)
                assert diameter(compose(base, lattice, k, 2).materialize()) in (2, 3)
                lattice = random_c_member(rng, k)
                assert diameter(compose(base_null(k), lattice, k, 3).materialize()) in (3, 4, 5)


class TestMaximumGraphs:
    def test_members_are_spanning_subgraphs_of_the_maximum(self):
        rng = random.Random(29)
        maxb = example_graph("MaxB", 2).materialize()
        maxc = example_graph("MaxC", 2).materialize()
        for _ in range(20):
            base, lattice = random_b_member(rng, 2)
            assert is_spanning_subgraph(compose(base, lattice, 2, 2).materialize(), maxb)
            lattice = random_c_member(rng, 2)
            assert is_spanning_subgraph(compose(base_null(2), lattice, 2, 3).materialize(), maxc)
