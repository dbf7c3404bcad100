import random
import re
import time
from itertools import combinations

import pytest

from crslab import resolving
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
    bfs_levels,
    distances,
    path_graph,
    plain_graph,
    universal_vertices,
    vertex_key,
)
from crslab.families import (
    base_complete,
    base_null,
    compose,
    cover_system,
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
from crslab.sweeps import _raw_dimension, random_b_member, random_c_member


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

    def test_unreachable_vertex(self):
        with pytest.raises(DisconnectedGraph, match="^v2 is unreachable from v0$"):
            resolve_vector(plain_graph(3, [(0, 1)]), [p(0)], p(2))


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

    def test_certificate_is_truthy_and_failure_falsy(self):
        # callers count certified outcomes with bool(check_crs(...))
        assert bool(check_crs(star(), [p(1), p(2), p(3)])) is True
        c4 = plain_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert bool(check_crs(c4, [p(0), p(1)])) is False

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
        # one certificate for {b1, b2}; the other coordinate order certifies too
        g = compose(base_null(2), example_graph("R", 2), 2, 2).materialize()
        found = find_all_crs(g)
        orders = [w for w, _c in found if set(w) == {BaseVertex(1), BaseVertex(2)}]
        assert orders == [(BaseVertex(1), BaseVertex(2))]
        swapped = check_crs(g, [BaseVertex(2), BaseVertex(1)])
        assert isinstance(swapped, CrsCertificate)
        cert = dict(found)[orders[0]]
        assert swapped.table == {u: vec[::-1] for u, vec in cert.table.items()}

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
            # each unordered W appears once, in canonical coordinate order
            assert len(found) == len(unordered)
            for w, cert in found:
                assert list(w) == sorted(w, key=vertex_key)
                assert cert.w_order == w

    def test_complete_12_gives_one_entry_per_w(self):
        # every 11-set W of K12 certifies, with 11! coordinate orders each
        g = plain_graph(12, list(combinations(range(12), 2)))
        start = time.perf_counter()
        found = find_all_crs(g)
        assert time.perf_counter() - start < 1.0
        assert len(found) == 12
        assert {frozenset(w) for w, _c in found} == {
            frozenset(p(i) for i in range(12) if i != j) for j in range(12)
        }

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


# -- the shared distance table and dimension search ----------------------------


def connected_rows(g):
    """The all-pairs hop-count rows of g, or None when g is disconnected."""
    adj = g.adjacency_masks()
    rows = [bfs_levels(adj, s) for s in range(g.order)]
    return None if -1 in rows[0] else rows


def seeded_connected(rng, orders, densities):
    """An endless stream of seeded connected plain graphs."""
    while True:
        n = rng.choice(orders)
        density = rng.choice(densities)
        g = plain_graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
        rows = connected_rows(g)
        if rows is not None:
            yield g, rows


def b2_member():
    return compose(base_complete(2), example_graph("U", 2), 2, 2).materialize()


class TestSharedWork:
    @pytest.fixture
    def bfs_calls(self, monkeypatch):
        """Sources of every BFS the resolving entry points run, on empty
        caches."""
        resolving._distances.cache_clear()
        resolving._dimension.cache_clear()
        calls = []
        real = resolving.bfs_levels

        def counted(adj, source):
            calls.append(source)
            return real(adj, source)

        monkeypatch.setattr(resolving, "bfs_levels", counted)
        yield calls
        resolving._distances.cache_clear()
        resolving._dimension.cache_clear()

    def test_entry_points_share_one_table_and_one_dimension_search(self, bfs_calls):
        g = b2_member()
        is_completeness_resolvable(g)
        metric_dimension(g)
        is_perfectness_resolvable(g)
        assert sorted(bfs_calls) == list(range(g.order))
        assert resolving._dimension.cache_info().misses == 1

    def test_equal_graph_built_apart_gives_the_same_answers(self, bfs_calls):
        def answers(graph):
            return [f(graph) for f in (is_completeness_resolvable, metric_dimension,
                                       is_perfectness_resolvable, find_all_crs)]

        g, twin = b2_member(), b2_member()
        assert g is not twin and g == twin
        first = answers(g)
        resolving._distances.cache_clear()
        resolving._dimension.cache_clear()
        assert answers(twin) == first  # computed afresh
        del bfs_calls[:]
        assert answers(g) == first  # read from the twin's entries
        assert bfs_calls == []

    def test_cap_is_checked_on_a_cache_hit(self, bfs_calls):
        g = b2_member()
        metric_dimension(g)
        for fn in (find_all_crs, is_completeness_resolvable, metric_dimension,
                   is_perfectness_resolvable):
            with pytest.raises(OrderCapExceeded):
                fn(g, cap=g.order - 1)
        assert len(bfs_calls) == g.order

    def test_disconnected_graph_keeps_each_callers_message(self, bfs_calls):
        g = plain_graph(4, [(0, 1), (2, 3)])
        expected = [
            (find_all_crs, "the graph is disconnected"),
            (is_completeness_resolvable, "classification needs a connected graph"),
            (metric_dimension, "metric dimension needs a connected graph"),
            (is_perfectness_resolvable, "metric dimension needs a connected graph"),
        ]
        for _round in range(2):
            for fn, message in expected:
                with pytest.raises(DisconnectedGraph, match=f"^{re.escape(message)}$"):
                    fn(g)
        assert len(bfs_calls) == g.order


# -- the degree filter of the pruned certificate search ------------------------


def unfiltered_certificates(verts, rows_all, sizes):
    """Certificates of every W of each size, by a plain combination scan
    with no pruning at all."""
    n = len(verts)
    for k in sizes:
        for combo in combinations(range(n), k):
            rest = [u for u in range(n) if u not in combo]
            res = resolving._bijection(verts, combo, [rows_all[w] for w in combo], rest)
            if isinstance(res, CrsCertificate):
                yield res


def relabeled(rng, g):
    """g on plain vertices in a random order."""
    n, adj = g.order, g.adjacency_masks()
    perm = list(range(n))
    rng.shuffle(perm)
    return plain_graph(n, [(perm[a], perm[b]) for a in range(n)
                           for b in range(a + 1, n) if adj[a] >> b & 1])


class TestDegreeFilter:
    def test_b3_member_at_the_upper_degree_bound(self):
        # b_i has 2^2 = 4 lattice neighbours and 2 base neighbours: degree
        # 4 + (3 - 1), the filter's upper bound at k = 3, m = 2
        rng = random.Random(7)
        base = base_complete(3)
        cs = cover_system("B", 3, base)
        mask = 0
        for cm in cs.masks:
            hits = [b for b in range(cm.bit_length()) if cm >> b & 1]
            mask |= 1 << hits[rng.randrange(len(hits))]
        g = compose(base, cs.graph(mask), 3, 2).materialize()
        w = (BaseVertex(1), BaseVertex(2), BaseVertex(3))
        assert universal_vertices(g) == ()
        assert [len(g.neighbors(b)) for b in w] == [6, 6, 6]
        assert w in [ws for ws, _c in find_all_crs(g)]
        v = is_completeness_resolvable(g)
        assert (v.kind, v.k, v.witness.w_order) == (FAMILY_B, 3, w)

    def test_matches_an_unfiltered_scan(self):
        rng = random.Random(61)
        graphs = []
        for _ in range(6):
            graphs.append(relabeled(rng, compose(*random_b_member(rng, 3), 3, 2).materialize()))
            graphs.append(relabeled(rng, compose(base_null(2), random_c_member(rng, 2), 2, 3).materialize()))
        stream = seeded_connected(rng, range(7, 12), (0.3, 0.5, 0.8))
        graphs += [next(stream)[0] for _ in range(24)]
        inner_edge = 0
        for g in graphs:
            verts, rows = g.vertices(), connected_rows(g)
            sizes, dist = range(1, g.order), resolving._Distances(rows)
            pruned = [(c.w_order, c.m_of_w, c.table)
                      for c in resolving._pruned_certificates(verts, dist, sizes)]
            assert pruned == [(c.w_order, c.m_of_w, c.table)
                              for c in unfiltered_certificates(verts, rows, sizes)]
            inner_edge += sum(
                m == 2 and any(g.has_edge(a, b) for a, b in combinations(w, 2))
                for w, m, _t in pruned
            )
        assert inner_edge > 0


class TestDimensionBound:
    def test_matches_the_raw_oracle(self):
        # n <= dim + diam^dim skips every size c with n - c > diam^c; at
        # diameter 2 and order 12 that is every c up to 3
        stream = seeded_connected(random.Random(67), range(7, 13), (0.3, 0.5, 0.7))
        diameter_two = skipped = 0
        for _ in range(60):
            g, rows = next(stream)
            n = g.order
            diam = max(max(row) for row in rows)
            dim = metric_dimension(g)[0]
            assert dim == _raw_dimension(rows, n)
            diameter_two += diam == 2
            skipped += sum(n - c > diam ** c for c in range(2, dim))
        assert diameter_two >= 10 and skipped > 0


# -- the tie masks behind the dimension and certificate searches ----------------


def plain_dimension(rows):
    """The smallest resolving positions in combination order, by a plain
    scan of every combination with _injective."""
    n = len(rows)
    for c in range(1, n):
        for combo in combinations(range(n), c):
            if resolving._injective([rows[w] for w in combo]):
                return c, combo


@pytest.fixture(scope="module")
def small_connected():
    """Seeded connected graphs of order 2-12 with their rows, led by the
    complete graphs K_2..K_5 (dimension n - 1) and the path P_6."""
    named = [plain_graph(n, combinations(range(n), 2)) for n in range(2, 6)]
    named.append(plain_graph(6, [(i, i + 1) for i in range(5)]))
    stream = seeded_connected(random.Random(71), range(2, 13), (0.2, 0.4, 0.7))
    return [(g, connected_rows(g)) for g in named] + [next(stream) for _ in range(60)]


class TestTieMasks:
    def test_and_of_masks_matches_injective(self, small_connected):
        outcomes = set()
        for _g, rows in small_connected:
            dist = resolving._Distances(rows)
            for k in (1, 2, 3):
                for w in combinations(range(len(rows)), k):
                    expected = resolving._injective([rows[v] for v in w])
                    assert dist.resolves(w) == expected, (rows, w)
                    outcomes.add(expected)
        assert outcomes == {True, False}

    def test_diagonal_is_the_bits_u_times_n_plus_u(self):
        for n in [*range(65), 600]:
            dist = resolving._Distances([[0] * n] * n)
            assert dist.diagonal == sum(1 << u * (n + 1) for u in range(n)), n

    def test_dimension_matches_a_plain_scan(self, small_connected):
        sizes = set()
        for g, rows in small_connected:
            dim, basis = resolving._dimension(g)
            assert (dim, basis) == plain_dimension(rows)
            sizes.add(dim if dim < g.order - 1 else "n-1")
        assert {1, 2, 3, "n-1"} <= sizes

    def test_masks_are_built_on_first_use(self, monkeypatch):
        # the search on C_200 reads the masks of its basis {0, 1}; all 200
        # masks would take 200 * 200^2 bits.  A fourth build fails at once,
        # so a search that goes wrong fails here instead of running on.
        real = resolving._Distances.__missing__
        built = []

        def counted(dist, w):
            built.append(w)
            assert len(built) <= 3, f"tie masks built for {built}"
            return real(dist, w)

        monkeypatch.setattr(resolving._Distances, "__missing__", counted)
        n = 200
        g = plain_graph(n, [(i, (i + 1) % n) for i in range(n)])
        resolving._distances.cache_clear()
        assert metric_dimension(g, cap=n) == (2, (p(0), p(1)))
        assert len(resolving._distances(g)) == len(built)
