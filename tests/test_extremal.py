import random
from itertools import combinations

import pytest

from crslab.errors import (
    EnumerationCapExceeded,
    NotMember,
    NotMinimal,
    VertexNotEligible,
)
from crslab.graph import BaseVertex, Graph, LatticeVertex
from crslab.families import (
    base_complete,
    base_null,
    example_graph,
    gamma,
    lattice_complete,
    lattice_vertices,
    member_b,
    member_c,
    s_set,
    span_lattice,
)
from crslab.extremal import (
    bounds_b,
    bounds_c,
    composite_size_bounds,
    cover_index_sets,
    critical_edges,
    enumerate_minimal,
    enumerate_q,
    epsilon,
    is_h1_minimal,
    is_k_minimal,
    is_minimal_in_b,
    iter_q,
    q_count,
    tightness_b,
)
from crslab.sweeps import random_b_member


def vpair(a, b):
    return tuple(sorted((a, b)))


def eps_vectors(edges):
    return {vpair(e[0].vector, e[1].vector) for e in edges}


def all_lattices_k2():
    """Every spanning subgraph of the complete graph on [2]^2."""
    full = lattice_complete(2, 2)
    edges = full.edges()
    for mask in range(1 << len(edges)):
        chosen = [edges[b] for b in range(len(edges)) if mask >> b & 1]
        yield Graph(full.vertices(), chosen)


def definitional_minimal_b(base, lattice):
    """Minimality by its definition: member, and no proper spanning
    subgraph is a member (all 2^|E| subsets tested)."""
    if not member_b(base, lattice).member:
        return False
    edges = lattice.edges()
    for r in range(len(edges)):
        for combo in combinations(edges, r):
            if member_b(base, Graph(lattice.vertices(), list(combo))).member:
                return False
    return True


def single_deletion_minimal_b(base, lattice):
    if not member_b(base, lattice).member:
        return False
    return all(
        not member_b(base, Graph(lattice.vertices(), [f for f in lattice.edges() if f != e])).member
        for e in lattice.edges()
    )


class TestCoverIndexSets:
    def test_null_base_j_sets(self):
        cis = cover_index_sets(base_null(3), example_graph("P2box", 3))
        for x in lattice_vertices(3, 2):
            assert cis.j(x) == frozenset(i for i in (1, 2, 3) if x[i - 1] == 2)

    def test_complete_base_j_sets(self):
        cis = cover_index_sets(base_complete(2), example_graph("U", 2))
        assert cis.j((2, 2)) == frozenset({1, 2})
        for x in [(1, 1), (1, 2), (2, 1)]:
            assert cis.j(x) == frozenset()

    def test_hypercube_edge_serves_only_its_top(self):
        cis = cover_index_sets(base_null(2), example_graph("P2box", 2))
        e = (LatticeVertex((1, 1)), LatticeVertex((2, 1)))
        assert cis.i_of((1, 1), e) == frozenset()
        assert cis.i_of((2, 1), e) == frozenset({1})
        assert cis.i_tilde_of((2, 1), e) == frozenset({1})

    def test_i_subsets_of_j(self):
        for base in (base_null(2), base_complete(2)):
            for lattice in all_lattices_k2():
                cis = cover_index_sets(base, lattice)
                for x in lattice_vertices(2, 2):
                    assert cis.i(x) <= cis.j(x)
                for (x, e), got in cis.i_edge.items():
                    assert got <= cis.i(x)
                    assert cis.i_tilde_of(x, e) <= got


class TestMinimalityB:
    def test_named_examples(self):
        assert is_h1_minimal(base_complete(2), example_graph("U", 2)).minimal
        assert is_h1_minimal(base_complete(3), example_graph("V", 3)).minimal
        assert is_h1_minimal(base_null(2), example_graph("R", 2)).minimal
        assert is_h1_minimal(base_null(3), example_graph("P2box", 3)).minimal

    def test_extra_edge_breaks_minimality(self):
        bloated = span_lattice(2, 2, [((1, 1), (2, 2)), ((1, 2), (2, 2))])
        rep = is_h1_minimal(base_complete(2), bloated)
        assert rep.member and not rep.minimal
        assert rep.redundant_edges()
        # oracle: deleting the redundant edge keeps membership
        e = rep.redundant_edges()[0]
        smaller = Graph(bloated.vertices(), [f for f in bloated.edges() if f != e])
        assert member_b(base_complete(2), smaller).member

    def test_equivalent_to_definitional_check_exhaustively(self):
        # index-calculus minimality == single-deletion == all-subsets, over
        # the whole 2 x 2^6 space
        for base in (base_null(2), base_complete(2)):
            for lattice in all_lattices_k2():
                lemma = is_h1_minimal(base, lattice).minimal
                assert lemma == single_deletion_minimal_b(base, lattice)
                assert lemma == definitional_minimal_b(base, lattice)

    def test_critical_witnesses_are_reported(self):
        rep = is_h1_minimal(base_null(2), example_graph("P2box", 2))
        for ec in rep.edges:
            assert ec.critical and ec.witness_vertex is not None
            assert ec.witness_indices


class TestMinimalityC:
    def test_t2_minimal(self):
        rep = is_k_minimal(example_graph("T", 2))
        assert rep.minimal
        assert all(ec.critical for ec in rep.edges)

    def test_gamma_not_minimal(self):
        rep = is_k_minimal(gamma(2))
        assert rep.member and not rep.minimal
        assert rep.redundant_edges()

    def test_q_members_minimal(self):
        for g in enumerate_q(2):
            assert is_k_minimal(g).minimal

    def test_critical_edges_match_single_deletions(self):
        # the kernel's sole-hit rule against deleting each edge and asking
        # member_c again, on members, non-members and lattices with an edge
        # outside the maximal lattice
        rng = random.Random(7)
        vecs = lattice_vertices(2, 3)
        pairs = [(x, y) for a, x in enumerate(vecs) for y in vecs[a + 1:]]
        for trial in range(60):
            chosen = [e for e in pairs if rng.random() < (0.4 if trial % 3 else 0.25)]
            lattice = span_lattice(2, 3, chosen)
            rep = is_k_minimal(lattice)
            for ec in rep.edges:
                after = Graph(lattice.vertices(), [f for f in lattice.edge_set() if f != ec.edge])
                assert ec.critical == (not member_c(after).member)

    def test_composite_level_split(self):
        # R is minimal over the null base but the complete-base composite
        # can still lose base edges
        assert is_minimal_in_b(base_null(2), example_graph("R", 2))
        assert member_b(base_complete(2), example_graph("R", 2)).member
        assert not is_minimal_in_b(base_complete(2), example_graph("R", 2))


class TestBounds:
    def test_b_bounds(self):
        assert bounds_b(base_complete(2)) == (1, 2)
        assert bounds_b(base_null(2)) == (2, 4)
        assert bounds_b(base_null(3)) == (4, 12)

    def test_c_bounds(self):
        assert bounds_c(2) == (5, 10)
        assert bounds_c(3) == (14, 39)
        assert bounds_c(4) == (41, 140)

    def test_composite_bounds(self):
        assert composite_size_bounds("C", 2) == (11, 16)
        assert composite_size_bounds("B", base_null(2)) == (6, 8)
        assert composite_size_bounds("B", base_complete(2)) == (6, 7)

    def test_composite_bounds_consistent_with_parts(self):
        for base in (base_null(2), base_complete(2)):
            lo, hi = bounds_b(base)
            clo, chi = composite_size_bounds("B", base)
            cross = 2 * 2 ** (2 - 1)
            assert clo == cross + base.size + lo
            assert chi == cross + base.size + hi

    def test_enumerated_sizes_lie_within_bounds(self):
        for base in (base_null(2), base_complete(2)):
            lo, hi = bounds_b(base)
            for g in enumerate_minimal("B", 2, base=base):
                assert lo <= g.size <= hi
        lo, hi = bounds_c(2)
        for g in enumerate_minimal("C", 2):
            assert lo <= g.size <= hi


class TestTightness:
    def test_named_extremes(self):
        rep = tightness_b(base_complete(2), example_graph("U", 2))
        assert rep.lower_tight and not rep.upper_tight
        assert rep.lower_witness_index is not None
        rep = tightness_b(base_complete(2), example_graph("V", 2))
        assert rep.upper_tight and not rep.lower_tight
        assert rep.upper_violation is None
        rep = tightness_b(base_null(2), example_graph("P2box", 2))
        assert rep.upper_tight and not rep.lower_tight
        rep = tightness_b(base_null(2), example_graph("R", 2))
        assert rep.lower_tight and not rep.upper_tight
        assert rep.upper_violation is not None

    def test_requires_minimality(self):
        with pytest.raises(NotMinimal):
            tightness_b(base_null(2), gamma_2_as_binary())

    def test_agrees_with_raw_counts_everywhere(self):
        for base in (base_null(2), base_complete(2)):
            lo, hi = bounds_b(base)
            for lattice in enumerate_minimal("B", 2, base=base):
                rep = tightness_b(base, lattice)
                assert rep.lower_tight == (lattice.size == lo)
                assert rep.upper_tight == (lattice.size == hi)

    def test_non_regular_base_above_the_lower_bound(self):
        # every edge changes coordinate 2, a minimum-degree coordinate, yet
        # (1,2,1)-(2,1,2) hits none of its slice targets (2,2,1) and (2,2,2)
        base = Graph(base_null(3).vertices(), [(BaseVertex(1), BaseVertex(2)), (BaseVertex(1), BaseVertex(3))])
        lattice = span_lattice(3, 2, [
            ((1, 1, 1), (2, 2, 1)), ((1, 1, 1), (2, 2, 2)), ((1, 2, 1), (2, 1, 2)),
        ])
        assert definitional_minimal_b(base, lattice)
        rep = tightness_b(base, lattice)
        assert bounds_b(base) == (2, 5) and lattice.size == 3
        assert not rep.lower_tight and rep.lower_witness_index is None
        assert not rep.upper_tight

    def test_agrees_with_raw_counts_at_k3(self):
        rng = random.Random(7)
        lower_tight = 0
        for _ in range(300):
            base, lattice = random_b_member(rng, 3)
            edges = lattice.edges()
            rng.shuffle(edges)
            for e in edges:
                smaller = Graph(lattice.vertices(), [f for f in lattice.edge_set() if f != e])
                if member_b(base, smaller).member:
                    lattice = smaller
            lo, hi = bounds_b(base)
            rep = tightness_b(base, lattice)
            assert rep.lower_tight == (lattice.size == lo)
            assert rep.upper_tight == (lattice.size == hi)
            lower_tight += rep.lower_tight
        assert lower_tight > 0


def gamma_2_as_binary():
    # any non-minimal member over the null base
    return lattice_complete(2, 2)


class TestEpsilon:
    def test_s_set_case_pins_everything(self):
        assert eps_vectors(epsilon(2, 1, (3, 3))) == {vpair((3, 3), (2, 3))}

    def test_inside_region_frees_twos(self):
        assert eps_vectors(epsilon(2, 1, (2, 2))) == {
            vpair((2, 2), (1, 2)), vpair((2, 2), (1, 3))
        }

    def test_outside_region_pins_ones(self):
        assert eps_vectors(epsilon(2, 1, (2, 1))) == {vpair((2, 1), (1, 1))}

    def test_ineligible_vertex(self):
        with pytest.raises(VertexNotEligible):
            epsilon(2, 1, (1, 1))
        with pytest.raises(VertexNotEligible):
            epsilon(2, 1, (3, 1))  # component 3 but not all in {2,3}

    def test_disjointness_exhaustive(self):
        for k in (2, 3):
            points = [
                (i, x)
                for i in range(1, k + 1)
                for x in lattice_vertices(k, 3)
                if x[i - 1] == 2 or x in s_set(k, i)
            ]
            sets = {pt: epsilon(k, pt[0], pt[1]) for pt in points}
            for a in range(len(points)):
                for b in range(a + 1, len(points)):
                    assert not sets[points[a]] & sets[points[b]]


class TestEnumerateQ:
    def test_q2(self):
        q2 = enumerate_q(2)
        assert len(q2) == q_count(2) == 4
        assert all(g.size == 10 for g in q2)
        assert len(set(q2)) == 4
        assert example_graph("Qcanon", 2) in q2

    def test_q3_is_capped(self):
        assert q_count(3) == 256 ** 3
        with pytest.raises(EnumerationCapExceeded):
            enumerate_q(3)

    def test_iter_q_streams_in_lex_order(self):
        listed = list(iter_q(2))
        assert len(listed) == 4
        assert sorted(map(id, listed)) and listed[0] != listed[1]

    def test_q3_sample_members_are_minimal(self):
        import itertools

        want = 3 * (9 + 4)
        for g in itertools.islice(iter_q(3), 5):
            assert g.size == want
            assert member_c(g).member
        # full minimality is slower; one streamed member suffices here
        g = next(iter_q(3))
        assert is_k_minimal(g).minimal


class TestCriticalEdges:
    def test_t2_every_edge_critical(self):
        ce = critical_edges("C", None, example_graph("T", 2))
        covered = set().union(*ce.primary.values(), *ce.secondary.values())
        assert covered == set(example_graph("T", 2).edges())

    def test_gamma_has_slack(self):
        ce = critical_edges("C", None, gamma(2))
        covered = set().union(*ce.primary.values(), *ce.secondary.values())
        assert len(covered) < gamma(2).size

    def test_r_unique_cover(self):
        r2 = example_graph("R", 2)
        ce = critical_edges("B", base_null(2), r2)
        assert ce.primary[1] == frozenset(r2.edges())
        assert ce.primary[2] == frozenset(r2.edges())

    def test_cardinality_caps(self):
        for g in enumerate_q(2):
            ce = critical_edges("C", None, g)
            for i, edges in ce.primary.items():
                assert len(edges) <= 3 ** (2 - 1)
            for i, edges in ce.secondary.items():
                assert len(edges) <= 2 ** (2 - 1)

    def test_needs_membership(self):
        with pytest.raises(NotMember):
            critical_edges("C", None, span_lattice(2, 3, []))


class TestEnumerateMinimal:
    def test_complete_base_strata(self):
        out = enumerate_minimal("B", 2, base=base_complete(2))
        assert [g.size for g in out] == [1, 2]
        assert out[0] == example_graph("U", 2)
        assert out[1] == example_graph("V", 2)

    def test_null_base_strata(self):
        out = enumerate_minimal("B", 2, base=base_null(2))
        assert [g for g in out if g.size == 2] == [example_graph("R", 2)]
        assert [g for g in out if g.size == 4] == [example_graph("P2box", 2)]

    def test_b_matches_definitional_oracle(self):
        for base in (base_null(2), base_complete(2)):
            got = set(enumerate_minimal("B", 2, base=base))
            want = {g for g in all_lattices_k2() if definitional_minimal_b(base, g)}
            assert got == want

    def test_c_members_validate(self):
        out = enumerate_minimal("C", 2)
        assert len(out) == 140
        t2 = example_graph("T", 2)
        assert [g for g in out if g.size == 5] == [t2]
        for g in out[:10]:
            assert is_k_minimal(g).minimal

    def test_k3_is_capped(self):
        with pytest.raises(EnumerationCapExceeded):
            enumerate_minimal("C", 3)
