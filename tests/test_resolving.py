import dataclasses
import random
import re
from itertools import combinations, permutations

import pytest

from crslab import formats, resolving
from crslab.errors import (
    DisconnectedGraph,
    InvalidW,
    OrderCapExceeded,
)
from crslab.graph import (
    BaseVertex,
    Graph,
    LatticeVertex,
    PlainVertex,
    distances,
    is_connected,
    is_path,
    plain_graph,
    universal_vertices,
    vertex_key,
)
from crslab.graph6 import read_graph6
from crslab.families import (
    base_complete,
    base_null,
    canonical_relabel,
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
)
from crslab.sweeps import _connected_classes, _raw_crs_scan, _raw_dimension, random_b_member, random_c_member


def p(i):
    return PlainVertex(i)


def path(n):
    return plain_graph(n, [(i, i + 1) for i in range(n - 1)])


def path4():
    return path(4)


def star(leaves=3):
    return plain_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# -- independent oracle: scan every proper subset by definition ----------------


def brute_force_crs(g):
    """All unordered W whose distance map is a bijection onto the full box,
    found with no pruning at all."""
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


def crs_by_definition(w, rest, vec):
    """check_crs's answer for the ordered W by the definition, from Psi_W's
    values ``vec`` on the outside vertices ``rest``, in canonical order: the
    outside count against m(W)^|W| first, then the first two outside
    vertices that share a vector; else the whole bijection."""
    k = len(w)
    m = max(map(max, vec.values()))
    shared = [(a, b) for j, b in enumerate(rest) for a in rest[:j] if vec[a] == vec[b]]
    if len(rest) != m ** k:
        return CrsFailure(CARDINALITY_MISMATCH, f"|V|-|W| = {len(rest)} but m(W)^|W| = {m}^{k} = {m ** k}")
    if shared:
        a, b = shared[0]
        return CrsFailure(NOT_INJECTIVE, f"{a!r} and {b!r} share the vector {vec[b]}")
    return CrsCertificate(w_order=tuple(w), m_of_w=m, table=vec)


def definition_cases(g):
    """(W, crs_by_definition's answer, whether W resolves) for every
    ordered proper W of one to three vertices of a connected graph, each in
    combination order and reversed."""
    d = distances(g)
    verts = g.vertices()
    cases = []
    for k in range(1, min(4, len(verts))):
        for combo in combinations(verts, k):
            for w in dict.fromkeys((combo, combo[::-1])):
                rest = [u for u in verts if u not in w]
                vec = {u: tuple(d[(x, u)] for x in w) for u in rest}
                cases.append((w, crs_by_definition(w, rest, vec), len(set(vec.values())) == len(rest)))
    return cases


def definition_corpus():
    """Twenty seeded connected graphs of order 4..8, each with its
    ``definition_cases``."""
    rng = random.Random(45)
    graphs = 0
    while graphs < 20:
        n = rng.randint(4, 8)
        g = plain_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.45])
        if not is_connected(g):
            continue
        graphs += 1
        yield g, definition_cases(g)


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
    """m(W), the largest W-to-outside distance, as the certificate reports
    it, and the refusals of a W that no certificate can have."""

    def test_path_endpoint(self):
        assert check_crs(path4(), [p(0)]).m_of_w == 3

    def test_star_leaves(self):
        assert check_crs(star(), [p(1), p(2), p(3)]).m_of_w == 1

    def test_null_base_composite(self):
        g = compose(base_null(2), gamma(2), 2, 3).materialize()
        assert check_crs(g, [BaseVertex(1), BaseVertex(2)]).m_of_w == 3

    def test_invalid_w(self):
        # the W gate shared by every entry point that takes a W
        for w, message in [
            ([], "W must be nonempty"),
            ([p(0), p(0)], "W has repeated vertices"),
            ([p(0), p(1), p(2), p(3)], "W must be a proper subset of the vertex set"),
            ([p(9)], "W contains v9, which is not a vertex"),
            # repeats are named before unknown labels, whether or not the
            # repeated label is a vertex, and the first unknown one is named
            ([p(9), p(9)], "W has repeated vertices"),
            ([p(0), p(9), p(0)], "W has repeated vertices"),
            ([p(8), p(9)], "W contains v8, which is not a vertex"),
            ([p(1), p(9), p(8)], "W contains v9, which is not a vertex"),
        ]:
            for fn in (check_crs, is_resolving_set):
                with pytest.raises(InvalidW) as info:
                    fn(path4(), w)
                assert str(info.value) == message

    def test_disconnected(self):
        g = plain_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraph):
            check_crs(g, [p(0)])


class TestResolveVector:
    """The distance vector of an outside vertex toward the ordered W is its
    row of the certificate's table."""

    def test_path(self):
        assert check_crs(path4(), [p(0)]).table[p(2)] == (2,)

    def test_composite_vectors_match_labels(self):
        g = compose(base_complete(2), example_graph("U", 2), 2, 2).materialize()
        w = [BaseVertex(1), BaseVertex(2)]
        assert check_crs(g, w).table[LatticeVertex((2, 1))] == (2, 1)
        gt = compose(base_null(2), example_graph("T", 2), 2, 3).materialize()
        assert check_crs(gt, w).table[LatticeVertex((3, 3))] == (3, 3)

    def test_unreachable_vertex(self):
        with pytest.raises(DisconnectedGraph, match="^some vertex is unreachable from W$"):
            check_crs(plain_graph(3, [(0, 1)]), [p(0)])


class TestUnreachableFromW:
    """Every caller of the W rows refuses a W that misses a vertex with one
    message.  In the split case each outside vertex is reachable from some
    W vertex, but not from every one."""

    @pytest.mark.parametrize(
        "edges, w",
        [([(0, 1), (1, 2)], (0,)), ([(0, 1), (2, 3)], (0, 2))],
        ids=["outside-vertex-cut-off", "w-split-across-components"],
    )
    def test_names_the_refusal(self, edges, w):
        g = plain_graph(4, edges)
        for fn in (check_crs, is_resolving_set):
            with pytest.raises(DisconnectedGraph, match="^some vertex is unreachable from W$"):
                fn(g, [p(i) for i in w])

    def test_a_connected_graph_passes(self):
        g = plain_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert is_resolving_set(g, [p(0), p(2)])


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

    def test_reasons_follow_the_definition(self):
        # check_crs against crs_by_definition, and is_resolving_set against
        # distinct outside vectors, on the all-pairs table; each W is asked
        # of a fresh graph, which has no record, and again once the
        # classification has cached the record whose levels both then read
        seen = {CARDINALITY_MISMATCH: 0, NOT_INJECTIVE: 0, "certificate": 0, True: 0, False: 0}
        for g, cases in definition_corpus():
            resolving._distances.clear()
            for cached in (False, True):
                if cached:
                    is_completeness_resolvable(g)
                assert (g in resolving._distances) == cached
                for w, want, resolves in cases:
                    assert (check_crs(g, w), is_resolving_set(g, w)) == (want, resolves), (cached, w)
            for _w, want, resolves in cases:
                seen[getattr(want, "reason", "certificate")] += 1
                seen[resolves] += 1
        assert min(seen.values()) > 0, seen


class TestCertificateTable:
    """A certificate found by the package holds positions, and reads as the
    dict of the definition: the same entries, in box order, which is vector
    order, and the same repr as a certificate built on that dict."""

    @staticmethod
    def assert_reads_as(cert, want):
        # want is crs_by_definition's certificate: its table is a dict in
        # canonical vertex order
        by_vector = sorted(want.table.items(), key=lambda kv: kv[1])
        assert (cert.w_order, cert.m_of_w) == (want.w_order, want.m_of_w)
        assert dict(cert.table) == want.table and len(cert.table) == len(want.table)
        assert cert.rows() == sorted(cert.table.items(), key=lambda kv: kv[1]) == by_vector
        assert list(cert.table.items()) == by_vector
        assert repr(cert) == repr(CrsCertificate(want.w_order, want.m_of_w, dict(by_vector)))
        assert cert == want and want == cert

    def test_check_crs_over_the_definition_corpus(self):
        # the seeded corpus, a triangle, and composites on base and
        # lattice labels
        extra = [
            plain_graph(3, [(0, 1), (1, 2), (0, 2)]),
            compose(base_complete(2), example_graph("U", 2), 2, 2).materialize(),
            compose(base_null(2), example_graph("T", 2), 2, 3).materialize(),
            example_graph("MaxB", 3).materialize(),
        ]
        corpus = [*definition_corpus(), *((g, definition_cases(g)) for g in extra)]
        shapes = set()
        for g, cases in corpus:
            for w, want, _resolves in cases:
                if isinstance(want, CrsCertificate):
                    self.assert_reads_as(check_crs(g, w), want)
                    shapes.add((len(w), want.m_of_w))
        assert {(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)} <= shapes, shapes

    def test_verdict_witnesses_of_every_kind(self):
        graphs = [
            path(6),
            star(4),
            plain_graph(6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)]),
            compose(base_complete(2), example_graph("U", 2), 2, 2).materialize(),
            compose(base_null(2), example_graph("T", 2), 2, 3).materialize(),
            example_graph("MaxB", 3).materialize(),
            example_graph("MaxC", 2).materialize(),
            *(g for g, _cases in definition_corpus()),
        ]
        kinds = set()
        for g in graphs:
            verdict = is_completeness_resolvable(g)
            if verdict.witness is None:
                continue
            kinds.add(verdict.kind)
            d, w = distances(g), verdict.witness.w_order
            rest = [u for u in g.vertices() if u not in w]
            vec = {u: tuple(d[(x, u)] for x in w) for u in rest}
            self.assert_reads_as(verdict.witness, crs_by_definition(w, rest, vec))
        assert kinds == {PATH, UNIVERSAL_VERTEX, FAMILY_B, FAMILY_C}

    def test_the_table_is_read_only_and_a_dict_table_still_builds(self):
        cert = check_crs(star(), [p(1), p(2), p(3)])
        with pytest.raises(TypeError):
            cert.table[p(0)] = (2, 2, 2)
        assert cert.table == {p(0): (1, 1, 1)}
        forged = dataclasses.replace(cert, table={p(0): (1, 1, 1)})
        assert forged == cert and forged.rows() == cert.rows() == [(p(0), (1, 1, 1))]

    def test_a_cached_record_certifies_relabels_and_writes_hashing_each_w_label_once(self, monkeypatch):
        # with the graph's record cached, check_crs looks each W label up
        # once and checks repeats on positions, and canonical_relabel and
        # the JSON writers read the certificate's positions
        comp = compose(base_null(2), example_graph("T", 2), 2, 3)
        g = comp.materialize()
        shuffled = list(g.vertices())
        random.Random(8).shuffle(shuffled)
        plain = {v: p(i) for i, v in enumerate(shuffled)}
        scrambled = Graph(list(plain.values()), [(plain[u], plain[v]) for u, v in g.edges()])
        cases = [
            (scrambled, (plain[BaseVertex(2)], plain[BaseVertex(1)])),
            (example_graph("MaxB", 3).materialize(), tuple(BaseVertex(i) for i in (1, 2, 3))),
            (g, (BaseVertex(1), BaseVertex(2))),
            (path(6), (p(5),)),
            (star(4), (p(1), p(2), p(3), p(4))),
        ]
        hashed = []
        real = {cls: cls.__hash__ for cls in (BaseVertex, LatticeVertex, PlainVertex)}

        def counted(self):
            hashed.append(self)
            return real[type(self)](self)

        relabeled = 0
        for graph, w in cases:
            verdict = is_completeness_resolvable(graph)
            relabel = check_crs(graph, w).m_of_w in (2, 3)
            if relabel:
                canonical_relabel(graph, check_crs(graph, w))  # fills the label tables
            for cls in real:
                monkeypatch.setattr(cls, "__hash__", counted)
            cert = check_crs(graph, w)
            if relabel:
                canonical_relabel(graph, cert)
                relabeled += 1
            formats.certificate_to_json(cert)
            formats.verdict_to_json(verdict)
            formats.verdict_to_json(is_completeness_resolvable(graph))
            monkeypatch.undo()
            assert sorted(map(vertex_key, hashed)) == sorted(map(vertex_key, w)), (w, hashed)
            hashed.clear()
        assert relabeled == 3


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

    def test_complete_12_gives_one_entry_per_w(self, monkeypatch):
        # every 11-set W of K12 certifies, with 11! coordinate orders each;
        # the search tests each unordered W once, by one _bijection call,
        # and builds no tie mask (an (n-1)-set needs no resolving test)
        g = plain_graph(12, list(combinations(range(12), 2)))
        tested, real = [], resolving._bijection
        monkeypatch.setattr(resolving, "_bijection", lambda *args: tested.append(args[1]) or real(*args))
        resolving._distances.clear()
        found = find_all_crs(g)
        assert tested == list(combinations(range(12), 11))
        assert len(resolving._distances[g]) == 0
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
        v = is_completeness_resolvable(path(5))
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
            assert is_perfectness_resolvable(path(n))

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
            named.append(path(n))
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

    def test_matches_the_raw_oracles_on_every_class_to_order_6(self):
        # perfect iff the smallest completeness-resolving set has dim(G)
        # vertices; asked first of a graph with nothing cached, then again
        # after its classification and its dimension
        resolving._distances.clear()
        outcomes = []
        for n, classes in _connected_classes(6):
            if n == 1:
                continue  # a graph needs two vertices
            for canon in classes:
                g = plain_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if canon[i] >> j & 1])
                rows = connected_rows(g)
                sizes = [k for _w, k, _m in _raw_crs_scan(rows, n)]
                expected = min(sizes, default=None) == _raw_dimension(rows, n)
                cold = is_perfectness_resolvable(g)
                is_completeness_resolvable(g)
                metric_dimension(g)
                assert (cold, is_perfectness_resolvable(g)) == (expected, expected), g.edges()
                outcomes.append(expected)
        assert (len(outcomes), sum(outcomes)) == (142, 43)


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


def far_w_pairs(g, found):
    """(W, w_i, w_j) for each pair of W more than 2 apart, over the
    certificates of ``found``, (W, certificate) pairs on ``g``."""
    d = distances(g)
    return [(w, a, b) for w, _cert in found for a, b in combinations(w, 2) if d[a, b] > 2]


class TestRadiusLemmaPremise:
    # _implied_radius tries only m <= 3 above k = 1: the outside vertex with
    # vector (1, ..., 1) puts every pair of W within distance 2
    def test_every_certificate_of_the_order_6_classes_keeps_w_within_2(self):
        certificates = far = 0
        for n, classes in _connected_classes(6):
            if n == 1:
                continue  # a graph needs two vertices
            for canon in classes:
                g = plain_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if canon[i] >> j & 1])
                found = [(w, cert) for w, cert in find_all_crs(g) if len(w) >= 2]
                certificates += len(found)
                far += len(far_w_pairs(g, found))
        assert (certificates, far) == (171, 0)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_seeded_members_certify_with_w_within_2(self, k):
        # ten composites of each family: W = b_1..b_k certifies each, and
        # no pair of W is more than 2 apart
        rng = random.Random(600 + k)
        w = tuple(BaseVertex(i) for i in range(1, k + 1))
        far = []
        for _ in range(10):
            for g in (
                compose(*random_b_member(rng, k), k, 2).materialize(),
                compose(base_null(k), random_c_member(rng, k), k, 3).materialize(),
            ):
                cert = check_crs(g, w)
                assert isinstance(cert, CrsCertificate), cert
                far += far_w_pairs(g, [(w, cert)])
        assert far == []

    def test_a_forged_certificate_with_w_3_apart_fails_the_check(self):
        g = path(4)
        w = (p(0), p(3))
        forged = CrsCertificate(w_order=w, m_of_w=2, table={p(1): (1, 2), p(2): (2, 1)})
        assert far_w_pairs(g, [(w, forged)]) == [(w, p(0), p(3))]


# -- the shared distance table and dimension search ----------------------------


def connected_rows(g):
    """The all-pairs hop-count rows of g, or None when g is disconnected,
    by a plain queue BFS of its own: the reference the record's rows and
    tie masks are checked against shares no code with them."""
    adj = g.adjacency_masks()
    n = len(adj)
    rows = []
    for s in range(n):
        row = [-1] * n
        row[s] = 0
        queue = [s]
        for u in queue:  # the list grows while it is walked, as a queue
            for v in range(n):
                if adj[u] >> v & 1 and row[v] < 0:
                    row[v] = row[u] + 1
                    queue.append(v)
        rows.append(row)
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


# a path, a universal vertex with dim < n - 1, both families, and a graph
# that is not completeness-resolvable
ONE_OF_EACH_KIND = [
    path4,
    lambda: read_graph6("EAJw"),
    lambda: compose(base_complete(3), example_graph("U", 3), 3, 2).materialize(),
    lambda: compose(base_null(2), example_graph("T", 2), 2, 3).materialize(),
    lambda: read_graph6("IheA@GUAo"),
]
ONE_OF_EACH_KIND_IDS = ["P4", "EAJw", "U_3", "T_2", "Petersen"]


class TestSharedWork:
    @pytest.fixture
    def bfs_calls(self, monkeypatch):
        """Sources of every BFS that resolving runs (a record's frontiers,
        and W's levels when there is no record), on empty caches."""
        resolving._distances.clear()
        calls = []
        real = resolving.bfs_frontiers

        def counted(adj, source):
            calls.append(source)
            return real(adj, source)

        monkeypatch.setattr(resolving, "bfs_frontiers", counted)
        yield calls
        resolving._distances.clear()

    def test_entry_points_share_one_table_and_one_dimension_search(self, bfs_calls, monkeypatch):
        # each search runs once per graph: the dimension search scans sizes
        # upward, so a second one would repeat a size, and the
        # classification is the one certificate search over sizes 2..n-2
        sizes, classified = [], []
        first_basis, pruned = resolving._first_basis, resolving._pruned_certificates
        g = b2_member()

        def counted_pruned(dist, ks):
            if list(ks) == list(range(2, g.order - 1)):
                classified.append(ks)
            return pruned(dist, ks)

        monkeypatch.setattr(resolving, "_first_basis", lambda dist, c: sizes.append(c) or first_basis(dist, c))
        monkeypatch.setattr(resolving, "_pruned_certificates", counted_pruned)
        for _round in range(2):
            is_completeness_resolvable(g)
            metric_dimension(g)
            is_perfectness_resolvable(g)
        assert sorted(bfs_calls) == list(range(g.order))
        assert (sizes, len(classified)) == ([2], 1)

    @pytest.mark.parametrize("build", ONE_OF_EACH_KIND, ids=ONE_OF_EACH_KIND_IDS)
    def test_answers_and_work_do_not_depend_on_the_order_of_calls(self, bfs_calls, monkeypatch, build):
        # every order of the four entry points, each on cold caches: the
        # same answers, one BFS per source, one classification (counted by
        # the verdicts built) and no dimension size scanned twice
        sizes, verdicts = [], []
        first_basis, verdict_type = resolving._first_basis, resolving.ClassificationVerdict
        monkeypatch.setattr(resolving, "_first_basis", lambda dist, c: sizes.append(c) or first_basis(dist, c))
        monkeypatch.setattr(resolving, "ClassificationVerdict",
                            lambda *a, **kw: verdicts.append(1) or verdict_type(*a, **kw))
        g = build()
        entry_points = (is_completeness_resolvable, metric_dimension, is_perfectness_resolvable, find_all_crs)
        first = None
        for order in permutations(entry_points):
            resolving._distances.clear()
            del bfs_calls[:], sizes[:], verdicts[:]
            got = {fn: fn(g) for fn in order}
            answers = [got[fn] for fn in entry_points]
            first = first or answers
            names = [fn.__name__ for fn in order]
            assert answers == first, names
            assert sorted(bfs_calls) == list(range(g.order)), names
            assert len(verdicts) == 1 and len(sizes) == len(set(sizes)), names

    @pytest.mark.parametrize("build", ONE_OF_EACH_KIND, ids=ONE_OF_EACH_KIND_IDS)
    def test_perfectness_of_an_unclassified_graph_searches_size_dim_only(self, bfs_calls, monkeypatch, build):
        # metric_dimension and then perfectness on a fresh graph: one pruned
        # search at |W| = dim, no classification; classifying afterwards
        # runs its own search once and leaves the answer as it was
        searched, verdicts = [], []
        pruned, verdict_type = resolving._pruned_certificates, resolving.ClassificationVerdict
        monkeypatch.setattr(resolving, "_pruned_certificates",
                            lambda dist, ks: searched.append(tuple(ks)) or pruned(dist, ks))
        monkeypatch.setattr(resolving, "ClassificationVerdict",
                            lambda *a, **kw: verdicts.append(1) or verdict_type(*a, **kw))
        g = build()
        dim = metric_dimension(g)[0]
        cold = is_perfectness_resolvable(g)
        assert (searched, verdicts) == ([(dim,)], [])
        is_completeness_resolvable(g)
        assert (is_perfectness_resolvable(g), len(verdicts)) == (cold, 1)

    def test_universal_vertex_witness_checks_one_outside_vertex(self, small_connected, monkeypatch):
        # the witness leaves out the first universal vertex u alone: the
        # bijection test runs once, on the outside mask 1 << u, and its
        # certificate is check_crs's
        outside_masks, real = [], resolving._bijection
        monkeypatch.setattr(resolving, "_bijection", lambda *args: outside_masks.append(args[3]) or real(*args))
        graphs = [g for g, _rows in small_connected if universal_vertices(g) and not is_path(g)]
        graphs += [example_graph("MaxB", k).materialize() for k in (2, 3)]
        graphs.append(plain_graph(4, combinations(range(4), 2)))
        for g in graphs:
            del outside_masks[:]
            verdict = resolving._Distances(g).verdict
            u = universal_vertices(g)[0]
            assert verdict.kind == UNIVERSAL_VERTEX, g
            assert outside_masks == [1 << g.index_of(u)], g
            assert set(g.vertices()) - set(verdict.witness.w_order) == {u}, g
            assert verdict.witness == check_crs(g, verdict.witness.w_order), g
        assert len(graphs) == 18

    @pytest.mark.parametrize("build", ONE_OF_EACH_KIND, ids=ONE_OF_EACH_KIND_IDS)
    def test_check_crs_reads_the_levels_of_a_cached_record(self, bfs_calls, build):
        # on a fresh graph, one BFS per W vertex and no record built; once
        # the classification has cached the record, no BFS at all
        g = build()
        verts = g.vertices()
        ws = [verts[:2], verts[-3:][::-1]]
        fresh = []
        for w in ws:
            del bfs_calls[:]
            fresh.append((check_crs(g, w), is_resolving_set(g, w)))
            assert bfs_calls == [g.index_of(x) for x in w] * 2, w
        assert g not in resolving._distances
        is_completeness_resolvable(g)
        del bfs_calls[:]
        assert [(check_crs(g, w), is_resolving_set(g, w)) for w in ws] == fresh
        assert bfs_calls == []

    def test_the_cache_keeps_the_last_records_oldest_dropped_first(self, bfs_calls):
        graphs = [path(n) for n in range(2, 4 + resolving._RECORDS)]
        for g in graphs:
            metric_dimension(g)
        assert list(resolving._distances) == graphs[2:]
        del bfs_calls[:]
        metric_dimension(graphs[2])
        assert bfs_calls == []
        metric_dimension(graphs[0])
        assert sorted(bfs_calls) == list(range(graphs[0].order))
        assert list(resolving._distances) == graphs[3:] + graphs[:1]

    def test_equal_graph_built_apart_gives_the_same_answers(self, bfs_calls):
        def answers(graph):
            return [f(graph) for f in (is_completeness_resolvable, metric_dimension,
                                       is_perfectness_resolvable, find_all_crs)]

        g, twin = b2_member(), b2_member()
        assert g is not twin and g == twin
        first = answers(g)
        resolving._distances.clear()
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
    with no pruning at all, each decided by ``crs_by_definition``."""
    n = len(verts)
    for k in sizes:
        for combo in combinations(range(n), k):
            rest = [verts[u] for u in range(n) if u not in combo]
            vec = {verts[u]: tuple(rows_all[w][u] for w in combo) for u in range(n) if u not in combo}
            res = crs_by_definition(tuple(verts[w] for w in combo), rest, vec)
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
        adj = g.adjacency_masks()
        assert [adj[g.index_of(b)].bit_count() for b in w] == [6, 6, 6]
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
            sizes, dist = range(1, g.order), resolving._Distances(g)
            pruned = [(c.w_order, c.m_of_w, c.table)
                      for c in resolving._pruned_certificates(dist, sizes)]
            assert pruned == [(c.w_order, c.m_of_w, c.table)
                              for c in unfiltered_certificates(verts, rows, sizes)]
            inner_edge += sum(
                m == 2 and any(rows[g.index_of(a)][g.index_of(b)] == 1 for a, b in combinations(w, 2))
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


def injective(w_rows):
    """True iff all vertices get distinct vectors toward the W rows
    ``w_rows``, the definition of a resolving W: a W vertex's own vector is
    the only one with a zero at its own coordinate, so the test may run over
    every vertex."""
    return len(set(zip(*w_rows))) == len(w_rows[0])


def plain_dimension(rows):
    """The smallest resolving positions in combination order, by a plain
    scan of every combination with ``injective``."""
    n = len(rows)
    for c in range(1, n):
        for combo in combinations(range(n), c):
            if injective([rows[w] for w in combo]):
                return c, combo


@pytest.fixture(scope="module")
def small_connected():
    """Seeded connected graphs with their rows, led by the complete graphs
    K_2..K_5 (dimension n - 1) and the path P_6: 60 of order 2-12, whose
    tie masks come from the spread table, then 12 of order 13-16, whose
    masks are built by per-vertex shifts."""
    named = [plain_graph(n, combinations(range(n), 2)) for n in range(2, 6)]
    named.append(plain_graph(6, [(i, i + 1) for i in range(5)]))
    stream = seeded_connected(random.Random(71), range(2, 13), (0.2, 0.4, 0.7))
    above = seeded_connected(random.Random(73), range(13, 17), (0.2, 0.4, 0.7))
    return ([(g, connected_rows(g)) for g in named] + [next(stream) for _ in range(60)]
            + [next(above) for _ in range(12)])


class TestTieMasks:
    def test_and_of_masks_matches_injective(self, small_connected):
        outcomes = set()
        for g, rows in small_connected:
            dist = resolving._Distances(g)
            for k in (1, 2, 3):
                for w in combinations(range(len(rows)), k):
                    expected = injective([rows[v] for v in w])
                    assert dist.resolves(w) == expected, (rows, w)
                    outcomes.add(expected)
        assert outcomes == {True, False}

    def test_masks_and_rows_match_the_definition(self, small_connected):
        # bit u*n + v of w's mask is set iff d(w, u) = d(w, v), on both sides
        # of the spread table's order; w's frontiers are the level sets of
        # the reference BFS's row
        sides = set()
        for g, rows in small_connected:
            n = len(rows)
            dist = resolving._Distances(g)
            for w, row in enumerate(rows):
                ties = sum(1 << u * n + v for u in range(n) for v in range(n) if row[u] == row[v])
                levels = [sum(1 << v for v in range(n) if row[v] == d) for d in range(max(row) + 1)]
                assert (dist[w], dist.frontiers[w]) == (ties, levels), (rows, w)
            sides.add(n <= resolving._SPREAD_ORDER)
        assert sides == {True, False}

    def test_diagonal_is_the_bits_u_times_n_plus_u(self):
        # a graph has at least two vertices; edgeless, its record is cheap
        for n in [*range(2, 65), 600]:
            dist = resolving._Distances(plain_graph(n, []))
            assert dist.diagonal == sum(1 << u * (n + 1) for u in range(n)), n

    def test_dimension_matches_a_plain_scan(self, small_connected):
        sizes = set()
        for g, rows in small_connected:
            dim, basis = resolving._Distances(g).dimension
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
        resolving._distances.clear()
        assert metric_dimension(g, cap=n) == (2, (p(0), p(1)))
        assert len(resolving._distances[g]) == len(built)
