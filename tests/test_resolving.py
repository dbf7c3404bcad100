import random
from itertools import combinations, permutations

import pytest

from crslab.errors import (
    DisconnectedGraph,
    InvalidW,
    OrderCapExceeded,
    UnknownVertex,
    VertexInW,
)
from crslab.graph import (
    BaseVertex,
    LatticeVertex,
    PlainVertex,
    distances,
    path_graph,
    plain_graph,
)
from crslab.families import (
    base_complete,
    base_null,
    compose,
    example_graph,
    gamma,
    lattice_vertices,
    span_lattice,
)
from crslab.resolving import (
    CARDINALITY_MISMATCH,
    FAMILY_B,
    FAMILY_C,
    NOT_COMPLETENESS_RESOLVABLE,
    NOT_INJECTIVE,
    PATH,
    UNIVERSAL_VERTEX,
    CrsCertificate,
    CrsFailure,
    check_crs,
    find_all_crs,
    is_completeness_resolvable,
    is_perfectness_resolvable,
    is_resolving_set,
    metric_dimension,
    resolve_vector,
    truncation_radius,
)


def p(i):
    return PlainVertex(i)


def path4():
    return path_graph([p(0), p(1), p(2), p(3)])


def star(leaves=3):
    return plain_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# -- independent oracle: scan every proper subset by definition ----------------


def brute_force_crs(g):
    """All unordered W whose distance map is a bijection onto the full box,
    found with no pruning at all."""
    from crslab.graph import distances

    d = distances(g)
    verts = g.vertices()
    out = []
    for k in range(1, g.order):
        for combo in combinations(verts, k):
            rest = [v for v in verts if v not in combo]
            vals = [d[(w, u)] for w in combo for u in rest]
            if any(v is None for v in vals):
                continue
            m = max(vals)
            if m ** k != len(rest):
                continue
            vecs = {tuple(d[(w, u)] for w in combo) for u in rest}
            if len(vecs) == len(rest):
                out.append((frozenset(combo), m))
    return sorted(out, key=lambda pair: (len(pair[0]), pair[1], sorted(map(repr, pair[0]))))


def brute_force_perfect(g):
    """Perfectness by its definition: the smallest c with a resolving
    c-subset, then whether some completeness-resolving set has size c."""
    d = distances(g)
    verts = g.vertices()
    dim = next(
        c
        for c in range(1, g.order)
        for combo in combinations(verts, c)
        if len({tuple(d[(w, u)] for w in combo) for u in verts if u not in combo})
        == g.order - c
    )
    return any(len(w) == dim for w, _m in brute_force_crs(g))


class TestTruncationRadius:
    def test_path_endpoint(self):
        assert truncation_radius(path4(), [p(0)]) == 3

    def test_star_leaves(self):
        g = star()
        assert truncation_radius(g, [p(1), p(2), p(3)]) == 1

    def test_null_base_composite(self):
        g = compose(base_null(2), gamma(2), 2, 3).materialize()
        assert truncation_radius(g, [BaseVertex(1), BaseVertex(2)]) == 3

    def test_invalid_w(self):
        with pytest.raises(InvalidW):
            truncation_radius(path4(), [])
        with pytest.raises(InvalidW):
            truncation_radius(path4(), [p(0), p(1), p(2), p(3)])
        with pytest.raises(InvalidW):
            truncation_radius(path4(), [p(9)])

    def test_disconnected(self):
        g = plain_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraph):
            truncation_radius(g, [p(0)])


class TestResolveVector:
    def test_path(self):
        assert resolve_vector(path4(), [p(0)], p(2)) == (2,)

    def test_composite_vectors_match_labels(self):
        g = compose(base_complete(2), example_graph("U", 2), 2, 2).materialize()
        w = [BaseVertex(1), BaseVertex(2)]
        assert resolve_vector(g, w, LatticeVertex((2, 1))) == (2, 1)
        gt = compose(base_null(2), example_graph("T", 2), 2, 3).materialize()
        assert resolve_vector(gt, w, LatticeVertex((3, 3))) == (3, 3)

    def test_vertex_in_w(self):
        with pytest.raises(VertexInW):
            resolve_vector(path4(), [p(0)], p(0))
        with pytest.raises(UnknownVertex):
            resolve_vector(path4(), [p(0)], p(9))


class TestIsResolvingSet:
    def test_all_but_one_resolves(self):
        g = plain_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert is_resolving_set(g, [p(0), p(1), p(2), p(3)])

    def test_cycle_needs_two(self):
        c4 = plain_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert not is_resolving_set(c4, [p(0)])
        assert is_resolving_set(c4, [p(0), p(1)])

    def test_path_endpoint_resolves(self):
        assert is_resolving_set(path4(), [p(0)])
        assert not is_resolving_set(path4(), [p(1)])

    def test_supersets_of_resolving_sets_resolve(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(3, 8)
            edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
            g = plain_graph(n, edges)
            try:
                base_set = [p(i) for i in range(n) if rng.random() < 0.5]
                if not 0 < len(base_set) < n - 1:
                    continue
                resolving = is_resolving_set(g, base_set)
            except DisconnectedGraph:
                continue
            if not resolving:
                continue
            extra = next(p(i) for i in range(n) if p(i) not in base_set)
            if len(base_set) + 1 < n:
                assert is_resolving_set(g, base_set + [extra])


class TestCheckCrs:
    def test_star_leaves_certificate(self):
        g = star()
        cert = check_crs(g, [p(1), p(2), p(3)])
        assert isinstance(cert, CrsCertificate)
        assert cert.m_of_w == 1
        assert cert.table == {p(0): (1, 1, 1)}

    def test_composite_identity_table(self):
        g = compose(base_complete(2), example_graph("U", 2), 2, 2).materialize()
        cert = check_crs(g, [BaseVertex(1), BaseVertex(2)])
        assert isinstance(cert, CrsCertificate)
        assert cert.m_of_w == 2
        assert all(cert.table[LatticeVertex(v)] == v for v in [(1, 1), (1, 2), (2, 1), (2, 2)])

    def test_cardinality_mismatch_is_checked_first(self):
        c4 = plain_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        res = check_crs(c4, [p(0), p(1)])
        assert isinstance(res, CrsFailure)
        assert res.reason == CARDINALITY_MISMATCH
        assert res.detail == "|V|-|W| = 2 but m(W)^|W| = 2^2 = 4"

    def test_not_injective(self):
        # 6-cycle with two opposite vertices: the outside count matches
        # 2^2 but the two common neighbors share a vector
        c6 = plain_graph(6, [(i, (i + 1) % 6) for i in range(6)])
        res = check_crs(c6, [p(0), p(3)])
        assert isinstance(res, CrsFailure)
        assert res.reason == NOT_INJECTIVE
        assert res.detail == "v2 and v4 share the vector (2, 1)"

    def test_order_insensitive(self):
        g = compose(base_null(2), example_graph("T", 2), 2, 3).materialize()
        w = (BaseVertex(1), BaseVertex(2))
        for order in (w, w[::-1]):
            cert = check_crs(g, order)
            assert isinstance(cert, CrsCertificate)
            assert cert.m_of_w == 3

    def test_counting_identity(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(3, 8)
            edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.55]
            g = plain_graph(n, edges)
            ws = [p(i) for i in range(n) if rng.random() < 0.4]
            if not 0 < len(ws) < n:
                continue
            try:
                res = check_crs(g, ws)
            except DisconnectedGraph:
                continue
            if isinstance(res, CrsCertificate):
                assert g.order == len(ws) + res.m_of_w ** len(ws)


class TestFindAllCrs:
    def test_path4_oracle(self):
        g = path4()
        found = find_all_crs(g)
        unordered = {(frozenset(w), cert.m_of_w) for w, cert in found}
        assert unordered == set(brute_force_crs(g))
        assert {w for w, _c in found} == {(p(0),), (p(3),)}

    def test_cycle_has_none(self):
        c4 = plain_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert find_all_crs(c4) == []
        assert brute_force_crs(c4) == []

    def test_composite_both_orders(self):
        g = compose(base_null(2), example_graph("R", 2), 2, 2).materialize()
        found = find_all_crs(g)
        orders = {w for w, _c in found}
        assert (BaseVertex(1), BaseVertex(2)) in orders
        assert (BaseVertex(2), BaseVertex(1)) in orders

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(31)
        tested = 0
        while tested < 40:
            n = rng.randint(3, 7)
            edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
            g = plain_graph(n, edges)
            try:
                found = find_all_crs(g)
            except DisconnectedGraph:
                continue
            tested += 1
            unordered = {(frozenset(w), cert.m_of_w) for w, cert in found}
            assert unordered == set(brute_force_crs(g))
            # every ordering of each W appears exactly once
            from crslab.graph import vertex_key

            def tkey(order):
                return tuple(vertex_key(v) for v in order)

            for w_set, _m in unordered:
                orders = [w for w, _c in found if frozenset(w) == w_set]
                expected = permutations(sorted(w_set, key=vertex_key))
                assert sorted(orders, key=tkey) == sorted(expected, key=tkey)

    def test_order_cap(self):
        g = plain_graph(13, [(i, i + 1) for i in range(12)])
        with pytest.raises(OrderCapExceeded):
            find_all_crs(g)
        assert find_all_crs(g, cap=13)  # override admits it


class TestClassification:
    def test_paths(self):
        v = is_completeness_resolvable(path_graph([p(i) for i in range(5)]))
        assert v.kind == PATH
        assert v.witness is not None and v.witness.m_of_w == 4

    def test_universal_vertex(self):
        wheel = plain_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)] + [(5, i) for i in range(5)])
        v = is_completeness_resolvable(wheel)
        assert v.kind == UNIVERSAL_VERTEX
        assert v.witness is not None and v.witness.m_of_w == 1

    def test_k2_is_path_first(self):
        v = is_completeness_resolvable(plain_graph(2, [(0, 1)]))
        assert v.kind == PATH

    def test_families(self):
        gb = compose(base_complete(2), example_graph("U", 2), 2, 2).materialize()
        v = is_completeness_resolvable(gb)
        assert (v.kind, v.k) == (FAMILY_B, 2)
        gc = compose(base_null(2), example_graph("T", 2), 2, 3).materialize()
        v = is_completeness_resolvable(gc)
        assert (v.kind, v.k) == (FAMILY_C, 2)

    def test_negative(self):
        c6 = plain_graph(6, [(i, (i + 1) % 6) for i in range(6)])
        v = is_completeness_resolvable(c6)
        assert v.kind == NOT_COMPLETENESS_RESOLVABLE
        assert v.witness is None

    def test_witness_present_iff_resolvable(self):
        rng = random.Random(41)
        tested = 0
        while tested < 60:
            n = rng.randint(2, 7)
            edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
            g = plain_graph(n, edges)
            try:
                v = is_completeness_resolvable(g)
            except DisconnectedGraph:
                continue
            tested += 1
            assert (v.witness is not None) == (v.kind != NOT_COMPLETENESS_RESOLVABLE)


class TestMetricDimension:
    def test_path(self):
        assert metric_dimension(path4())[0] == 1

    def test_complete(self):
        for n in (3, 4, 5):
            g = plain_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
            dim, basis = metric_dimension(g)
            assert dim == n - 1
            assert len(basis) == n - 1

    def test_cycle4(self):
        # the exhaustive scan over sizes 1 then 2 gives 2
        c4 = plain_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        dim, basis = metric_dimension(c4)
        assert dim == 2
        assert basis == (p(0), p(1))  # lexicographically first witness

    def test_witness_resolves(self):
        rng = random.Random(43)
        tested = 0
        while tested < 30:
            n = rng.randint(2, 7)
            edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
            g = plain_graph(n, edges)
            try:
                dim, basis = metric_dimension(g)
            except DisconnectedGraph:
                continue
            tested += 1
            assert is_resolving_set(g, basis)
            if dim > 1:
                # nothing smaller resolves
                for combo in combinations(g.vertices(), dim - 1):
                    assert not is_resolving_set(g, combo)


class TestPerfectness:
    def test_paths_are_perfect(self):
        for n in (2, 3, 5, 7):
            assert is_perfectness_resolvable(path_graph([p(i) for i in range(n)]))

    def test_complete_yes_star_no(self):
        k4 = plain_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        assert is_perfectness_resolvable(k4)
        assert not is_perfectness_resolvable(star())

    def test_diameter_two_member(self):
        g = compose(base_complete(2), example_graph("MaxB", 2).lattice, 2, 2).materialize()
        assert is_perfectness_resolvable(g)

    def test_perfect_implies_resolvable(self):
        rng = random.Random(47)
        tested = 0
        while tested < 40:
            n = rng.randint(2, 6)
            edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
            g = plain_graph(n, edges)
            try:
                perfect = is_perfectness_resolvable(g)
            except DisconnectedGraph:
                continue
            tested += 1
            if perfect:
                assert is_completeness_resolvable(g).kind != NOT_COMPLETENESS_RESOLVABLE

    def test_matches_definition(self):
        named = []
        for n in range(2, 8):
            named.append(path_graph([p(i) for i in range(n)]))
            named.append(plain_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)]))
            if n >= 3:
                named.append(star(n - 1))
        rng = random.Random(53)
        seeded = []
        while len(seeded) < 120:
            n = rng.randint(2, 7)
            edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
            g = plain_graph(n, edges)
            if all(d is not None for d in distances(g).values()):
                seeded.append(g)
        verdicts = [is_perfectness_resolvable(g) for g in named + seeded]
        assert verdicts == [brute_force_perfect(g) for g in named + seeded]
        assert True in verdicts and False in verdicts


class TestRadiusFour:
    def test_w_base_never_certifies_a_4_by_4_composite(self):
        # (4, 1) is adjacent to b2, which lies within distance 2 of b1
        # through (1, 1), so d(b1, (4, 1)) <= 3 and the box [4]^2 is never
        # covered; a certifier that trusted the count would pass some.
        rng = random.Random(4)
        vecs = lattice_vertices(2, 4)
        w = (BaseVertex(1), BaseVertex(2))
        reasons = []
        for _ in range(200):
            base = base_null(2) if rng.random() < 0.5 else base_complete(2)
            edges = [(x, y) for a, x in enumerate(vecs) for y in vecs[a + 1:] if rng.random() < 0.2]
            g = compose(base, span_lattice(2, 4, edges), 2, 4).materialize()
            try:
                res = check_crs(g, w)
            except DisconnectedGraph:
                continue
            assert isinstance(res, CrsFailure)
            reasons.append(res.reason)
        assert reasons.count(NOT_INJECTIVE) > 0
