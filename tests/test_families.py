import dataclasses
import random
import tracemalloc
from collections import Counter
from functools import lru_cache, partial
from itertools import combinations, permutations, product

import pytest

from crslab import families, formats
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
    diameter,
    distances,
    is_spanning_subgraph,
    plain_graph,
)
from crslab.families import (
    CompositeGraph,
    CoverSystem,
    IndexDiagnostic,
    MembershipReport,
    base_complete,
    base_null,
    canonical_relabel,
    compose,
    cover_system,
    example_graph,
    gamma,
    lattice_complete,
    lattice_vertices,
    member_b,
    member_c,
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

    def test_matches_the_cover_system_targets(self):
        # the definition, stated on its own, against the targets the cover
        # system derives for its (i, "s-set") constraints
        for k in (2, 3, 4, 5):
            cs = cover_system("C", k)
            for i in range(1, k + 1):
                assert s_set(k, i) == set(cs.targets(i, "s-set")), (k, i)


class TestCompose:
    @staticmethod
    def edge_count(base, lattice, k, m):
        # the paper's identity: the cross edges are implied, k * m^(k-1) of them
        return base.size + lattice.size + k * m ** (k - 1)

    def test_edge_counts(self):
        for base, lattice, k, m, size in [
            (base_complete(2), example_graph("U", 2), 2, 2, 1 + 1 + 2 * 2),
            (base_null(2), gamma(2), 2, 3, 0 + 20 + 2 * 3),
            (base_null(3), span_lattice(3, 2, []), 3, 2, 3 * 4),
        ]:
            assert self.edge_count(base, lattice, k, m) == size
            assert compose(base, lattice, k, m).materialize().size == size

    def test_materialized_size_matches(self):
        c = compose(base_null(2), example_graph("T", 2), 2, 3)
        assert c.materialize().size == self.edge_count(c.base, c.lattice, 2, 3)
        assert c.materialize().order == 2 + 3 ** 2 == 11

    def test_cross_edges_rule(self):
        c = compose(base_null(2), span_lattice(2, 2, []), 2, 2)
        edges = set(c.materialize().edges())
        for v in lattice_vertices(2, 2):
            for i in (1, 2):
                assert ((BaseVertex(i), LatticeVertex(v)) in edges) == (v[i - 1] == 1)

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
            smaller = Graph(t2.vertices(), [f for f in t2.edges() if f != e])
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
        for tag, mask in zip(cs.constraints, cs.masks)
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

    @pytest.mark.parametrize(
        "family, k, bits",
        [("B", k, bits) for k in (2, 3) for bits in range(1 << k * (k - 1) // 2)] + [("C", k, 0) for k in (2, 3, 4)],
    )
    def test_constraint_table_follows_the_direct_rule(self, family, k, bits):
        # by i, "slice" before "s-set", then target in lexicographic order:
        # a slice target is 2 on N[i], an s-set target 3 at i with no 1
        base = labeled_base(k, bits)
        m = 2 if family == "B" else 3
        vectors = lattice_vertices(k, m)
        dist = distances(base)
        want = []
        for i in range(1, k + 1):
            hood = [j for j in range(1, k + 1) if dist[BaseVertex(i), BaseVertex(j)] in (0, 1)]
            want += [(i, "slice", x) for x in vectors if all(x[j - 1] == 2 for j in hood)]
            if family == "C":
                want += [(i, "s-set", x) for x in vectors if x[i - 1] == 3 and 1 not in x]
        cs = cover_system(family, k, base)
        assert list(cs.constraints) == want
        assert list(cs.constraints.values()) == list(range(len(want)))
        assert len(cs.constraints) == len(cs.masks)

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


def reference_pass(cs, lattice):
    """What ``CoverSystem.check`` returns, by the direct walk: each edge of
    ``lattice.edges()``, numbered by its place there, through
    ``in_universe`` and ``incidence``, then the constraints in constraint
    order for the sole hits and the misses."""
    edges = lattice.edges()
    outside, hits = [], {}
    in_scaffold = {(i, cond): [] for i in range(1, cs.k + 1) for cond in cs.conditions}
    for j, e in enumerate(edges):
        x, y = e[0].vector, e[1].vector
        if not cs.in_universe(x, y):
            outside.append(e)
            continue
        for i, cond, z in cs.incidence(x, y):
            in_scaffold[i, cond].append(e)
            if z is not None:
                hits.setdefault(cs.constraints[i, cond, z], []).append(j)
    sole, missed = [()] * len(edges), {}
    for (i, cond, x), n in cs.constraints.items():
        hit_edges = hits.get(n, [])
        if len(hit_edges) == 1:
            sole[hit_edges[0]] += ((i, cond, x),)
        if not hit_edges and (i, cond) not in missed:
            missed[i, cond] = LatticeVertex(x)
    diagnostics = []
    for i in range(1, cs.k + 1):
        covering = [tuple(in_scaffold[i, c]) for c in cs.conditions] + [()]
        uncovered = [missed.get((i, c)) for c in cs.conditions] + [None]
        diagnostics.append(IndexDiagnostic(i, covering[0], covering[1], uncovered[0], uncovered[1]))
    report = MembershipReport(
        member=not outside and not missed,
        family=cs.family,
        k=cs.k,
        diagnostics=tuple(diagnostics),
        bad_edge=outside[0] if outside else None,
    )
    return report, outside, hits, edges, sole


def seeded_lattices(rng, k, m):
    """Seeded lattices on [m]^k: the empty one, the whole universe, subsets
    of it at several densities and, at m = 3, subsets with gap-2 edges
    added, which lie outside Gamma_k."""
    verts = lattice_vertices(k, m)
    pairs = [(x, y) for a, x in enumerate(verts) for y in verts[a + 1:]]
    near, far = [], []
    for x, y in pairs:
        (near if all(abs(s - t) <= 1 for s, t in zip(x, y)) else far).append((x, y))
    out = [span_lattice(k, m, []), span_lattice(k, m, near)]
    for p in (0.1, 0.3, 0.6, 0.9):
        chosen = [e for e in near if rng.random() < p]
        out.append(span_lattice(k, m, chosen))
        if far:
            out.append(span_lattice(k, m, chosen + rng.sample(far, rng.randint(1, 3))))
    return out


class TestCoverPass:
    """The position-and-number pass gives what the direct walk over each
    edge's incidence gives: the report, the edges outside the universe, the
    hits by constraint number as edge numbers in edge order, the walked
    edges and each edge's sole hits in constraint order."""

    SYSTEMS = [("B", k, bits) for k in (2, 3) for bits in range(1 << k * (k - 1) // 2)] + [
        ("C", k, 0) for k in (2, 3, 4)
    ]

    @pytest.mark.parametrize("family, k, bits", SYSTEMS)
    def test_check_matches_the_direct_walk(self, family, k, bits):
        base = labeled_base(k, bits)
        built = cover_system(family, k, base)
        m = built.m
        rng = random.Random(1000 * k + 10 * bits + m)
        # and a member whose every edge is the sole hit of one constraint:
        # each target joined to the vector one lower in the target's coordinate
        star = [(x, x[:i - 1] + (x[i - 1] - 1,) + x[i:]) for i, _cond, x in built.constraints]
        lattices = seeded_lattices(rng, k, m) + [span_lattice(k, m, star)]
        built._positions  # built before the first check
        outside_seen = sole_seen = members = 0
        for lattice in lattices:
            want = reference_pass(built, lattice)
            # a fresh, equal system builds its table in this pass; the cache
            # is cleared so that it is not handed the built system's result
            fresh = families.CoverSystem(built.k, built.m, built.hoods)
            assert "_positions" not in fresh.__dict__
            for cs in (fresh, built):
                CoverSystem.check.cache_clear()
                # lists compare in order: hits in edge order, sole hits in constraint order
                got = cs.check(lattice)
                assert got == want
                assert got[3] == lattice.edges() and len(got[4]) == len(got[3])
            assert "_positions" in fresh.__dict__
            outside_seen += bool(want[1])
            sole_seen += any(want[4])
            members += want[0].member
        CoverSystem.check.cache_clear()
        # the control: each kind of result occurs
        assert sole_seen and members and members < len(lattices)
        assert outside_seen if family == "C" else not outside_seen

    def test_a_k6_check_builds_no_universe(self):
        families._cover_system.cache_clear()
        CoverSystem.check.cache_clear()
        t6 = example_graph("T", 6)
        report = member_c(t6)
        assert report.member
        cs = cover_system("C", 6)
        assert "_positions" in cs.__dict__
        for name in ("edges", "masks"):
            assert name not in cs.__dict__
        CoverSystem.check.cache_clear()


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


def named_lattice_edges(name, k):
    """The vector pairs of a named lattice, each stated by its own rule on
    [m]^k and not read off crslab."""
    vectors = list(product(range(1, (2 if name == "P2box" else 3) + 1), repeat=k))
    swapped = {x: tuple({1: 2, 2: 1, 3: 3}[c] for c in x) for x in vectors if 1 in x and 2 in x}

    def joined(x, y):
        # T: each 1-free vector down by one everywhere, and each vector
        # holding a 1 and a 2 to its 1 <-> 2 swap
        if name == "T":
            return swapped.get(x) == y or all(b - a == 1 for a, b in zip(x, y))
        moved = [(a, b) for a, b in zip(x, y) if a != b]
        if name == "P2box":  # the hypercube
            return len(moved) == 1
        # Qcanon: the grid, less the 2-3 moves of a vector with a 1
        return len(moved) == 1 and abs(moved[0][0] - moved[0][1]) == 1 and (1 in moved[0] or 1 not in x)

    return {(x, y) for x, y in combinations(vectors, 2) if joined(x, y)}


class TestExampleGraphs:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("name", ["P2box", "Qcanon", "T"])
    def test_named_lattices_follow_their_rules(self, name, k):
        g = example_graph(name, k)
        m = 2 if name == "P2box" else 3
        assert g.vertices() == tuple(LatticeVertex(x) for x in product(range(1, m + 1), repeat=k))
        assert edge_vectors(g) == named_lattice_edges(name, k)

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
        grid = {
            (x, y) for x, y in combinations(product((1, 2, 3), repeat=2), 2)
            if sum(abs(a - b) for a, b in zip(x, y)) == 1
        }
        assert q2.size == 10 and len(grid) == 12
        assert grid - edge_vectors(q2) == {
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


def random_pairs(rng, items, p=0.3):
    return [(x, y) for i, x in enumerate(items) for y in items[i + 1:] if rng.random() < p]


class TestHashContract:
    """A graph hashes by its adjacency rows alone: equal graphs hash equal
    whichever builder made them, and graphs with the same rows on other
    labels hash alike but stay apart."""

    @pytest.mark.parametrize("family, k", [("B", 2), ("B", 3), ("C", 2), ("C", 3)])
    def test_every_builder_gives_the_same_value(self, family, k):
        rng = random.Random(31 * k + len(family))
        for _ in range(10):
            if family == "B":
                base, lattice, m = *random_b_member(rng, k), 2
            else:
                base, lattice, m = base_null(k), random_c_member(rng, k), 3
            comp = compose(base, lattice, k, m)
            g = comp.materialize()
            w = [BaseVertex(i) for i in range(1, k + 1)]
            pairs = [(u.vector, v.vector) for u, v in lattice.edges()]
            parsed = formats.composite_from_json(formats.composite_to_json(comp))
            relabeled = canonical_relabel(g, check_crs(g, w))
            builds = [
                (base, [Graph(w, base.edges()), parsed.base, relabeled.base]),
                (lattice, [
                    Graph(lattice.vertices(), lattice.edges()), span_lattice(k, m, pairs),
                    parsed.lattice, relabeled.lattice,
                ]),
                (g, [Graph(g.vertices(), g.edges()), parsed.materialize(), relabeled.materialize()]),
            ]
            for want, others in builds:
                for other in others:
                    assert other == want and hash(other) == hash(want)

    def test_same_rows_on_other_labels_stay_apart(self):
        base = base_complete(2)
        plain = plain_graph(2, [(0, 1)])
        assert plain.adjacency_masks() == base.adjacency_masks()
        assert plain != base and len({base: 0, plain: 1}) == 2
        # the plain graph is refused, not served the base's cached system
        assert cover_system("B", 2, base) is cover_system("B", 2, base)
        with pytest.raises(WrongVertexSet, match=r"^base graph must live on BaseVertex\(1\.\.k\)$"):
            cover_system("B", 2, plain)
        lattice = example_graph("U", 2)
        rows = lattice.adjacency_masks()
        twin = plain_graph(4, [(u, v) for u in range(4) for v in _iter_bits(rows[u]) if u < v])
        assert twin.adjacency_masks() == lattice.adjacency_masks() and twin != lattice
        cs = cover_system("B", 2, base)
        info = CoverSystem.check.cache_info
        on_lattice = cs.check(lattice)
        misses = info().misses
        assert cs.check(lattice) is on_lattice and info().misses == misses
        # a miss, whose report names the twin's own labels
        on_twin = cs.check(twin)
        assert info().misses == misses + 1 and on_twin != on_lattice
        assert {type(u) for e in on_twin[0].diagnostics[0].covering_edges for u in e} == {PlainVertex}

    @pytest.mark.parametrize("k, m", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_a_parsed_composite_shares_the_cached_labels(self, k, m):
        # no request builds labels of its own
        comp = formats.composite_from_json({"k": k, "m": m, "base_edges": [[1, 2]], "lattice_edges": []})
        assert comp.base.vertices() is families._base_labels(k)[0]
        assert comp.lattice.vertices() is families._lattice_labels(k, m)[0]


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
        broken = Graph(g.vertices(), [e for e in g.edges() if e != dropped])
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
        edges = {frozenset(e) for e in scrambled.edges()} ^ flips
        broken = Graph(scrambled.vertices(), [tuple(e) for e in edges])
        rest = [u for u in broken.vertices() if u not in w]
        first = next(
            (x, u) for i, x in enumerate(w) for u in rest
            if (frozenset((x, u)) in edges) != (cert.table[u][i] == 1)
        )
        assert first[0] == w[0]
        with pytest.raises(CrossEdgeMismatch) as exc:
            canonical_relabel(broken, cert)
        assert str(exc.value) == f"adjacency of {first[0]!r} and {first[1]!r} disagrees with the certificate vector"

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize(
        "change, message",
        [
            # W's last vertex loses one cross edge: only its row disagrees
            ("drop", "adjacency of b3 and ({m},{m},1) disagrees with the certificate vector"),
            # W's middle vertex gains a cross edge to a vector that is not 1 there
            ("add", "adjacency of b2 and ({m},2,{m}) disagrees with the certificate vector"),
        ],
        ids=["drop-last-w", "add-middle-w"],
    )
    def test_cross_edge_mismatch_in_any_w_row(self, m, change, message):
        comp = example_graph("MaxB" if m == 2 else "MaxC", 3)
        g = comp.materialize()
        cert = check_crs(g, tuple(BaseVertex(i) for i in range(1, 4)))
        assert isinstance(cert, CrsCertificate) and cert.m_of_w == m
        assert canonical_relabel(g, cert) == comp
        if change == "drop":
            edge = (BaseVertex(3), LatticeVertex((m, m, 1)))
            edges = [e for e in g.edges() if e != edge]
        else:
            edge = (BaseVertex(2), LatticeVertex((m, 2, m)))
            edges = g.edges() + [edge]
        assert (edge in g.edges()) == (change == "drop") and len(edges) != g.size
        with pytest.raises(CrossEdgeMismatch) as exc:
            canonical_relabel(Graph(g.vertices(), edges), cert)
        assert str(exc.value) == message.format(m=m)

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

    def test_rejects_table_sending_two_vertices_to_one_vector(self):
        # moving a vertex between two 1-free vectors keeps every cross edge,
        # and between two non-adjacent ones makes no loop: only the table's
        # image shows the forgery
        comp = compose(base_null(2), example_graph("T", 2), 2, 3)
        g = comp.materialize()
        cert = check_crs(g, (BaseVertex(1), BaseVertex(2)))
        assert isinstance(cert, CrsCertificate)
        assert canonical_relabel(g, cert) == comp
        owner = {x: u for u, x in cert.table.items()}
        free = [x for x in lattice_vertices(2, 3) if 1 not in x]
        dist = distances(g)
        forged = [
            (x, y) for t, x in enumerate(free) for y in free[t + 1:]
            if dist[owner[x], owner[y]] != 1
        ]
        assert len(forged) == 5
        for x, y in forged:
            table = {**cert.table, owner[x]: y}
            with pytest.raises(InvalidCertificate, match=r"^certificate table does not map V minus W onto \[3\]\^2$"):
                canonical_relabel(g, CrsCertificate(cert.w_order, cert.m_of_w, table))

    @pytest.mark.parametrize("field", ["w_order", "m_of_w"])
    def test_a_box_table_that_does_not_fit_its_certificate_is_read_as_its_dict(self, field):
        # a found certificate with its W reversed or its radius changed keeps
        # its box table, which then no longer fits: the relabel must refuse
        # it exactly as it refuses the same certificate on the table's dict
        g = example_graph("MaxC", 2).materialize()
        cert = check_crs(g, (BaseVertex(1), BaseVertex(2)))
        changed = {"w_order": cert.w_order[::-1], "m_of_w": 2}[field]
        forged = dataclasses.replace(cert, **{field: changed})

        def outcome(c):
            try:
                return canonical_relabel(g, c)
            except (InvalidCertificate, CrossEdgeMismatch) as exc:
                return type(exc), str(exc)

        got = outcome(forged)
        assert got == outcome(dataclasses.replace(forged, table=dict(forged.table)))
        assert got[0] is {"w_order": CrossEdgeMismatch, "m_of_w": InvalidCertificate}[field]

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
