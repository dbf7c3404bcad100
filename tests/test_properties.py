"""Cross-cutting invariants: seeded random trials and regression anchors
that do not fit a single module."""

import random
from collections import Counter
from dataclasses import replace
from itertools import combinations, product

import pytest

from crslab import sweeps
from crslab.errors import DisconnectedGraph
from crslab.graph import BaseVertex, Graph, LatticeVertex, bfs_levels, plain_graph
from crslab.families import (
    base_complete,
    base_null,
    canonical_relabel,
    compose,
    cover_system,
    example_graph,
    gamma,
    lattice_slice,
    lattice_vertices,
    member_b,
    member_c,
)
from crslab.resolving import (
    FAMILY_B,
    NOT_COMPLETENESS_RESOLVABLE,
    PATH,
    UNIVERSAL_VERTEX,
    CrsCertificate,
    check_crs,
    metric_dimension,
)
from crslab.extremal import is_k_minimal, iter_q, q_count
from crslab.sweeps import (
    out_of_range_counterexample,
    random_b_member,
    random_c_member,
    _cert_code_w_base,
    _raw_crs_scan,
    _raw_dimension,
    _relabel_failures,
    _scan_c_range,
    _union_size_count,
    sweep_small_order,
)


def test_region_cardinalities():
    # the complement of the two corner regions has 3^k - 2^(k+1) + 1 vectors
    for k in (2, 3, 4):
        in_x = lattice_slice(k, 3, range(1, k + 1), {2, 3})
        in_y = lattice_slice(k, 3, range(1, k + 1), {1, 3})
        z = [v for v in lattice_vertices(k, 3) if v not in in_x and v not in in_y]
        assert len(z) == 3 ** k - 2 ** (k + 1) + 1


def test_upset_closure_spot_checks():
    rng = random.Random(97)
    for k in (2, 3):
        for _ in range(25):
            base, lattice = random_b_member(rng, k)
            assert member_b(base, lattice).member
            lattice2 = random_c_member(rng, k)
            assert member_c(lattice2).member


def test_adding_out_of_range_edge_always_breaks_membership():
    rng = random.Random(101)
    vecs = lattice_vertices(2, 3)
    gamma_set = gamma(2).edge_set()
    all_pairs = [
        (LatticeVertex(x), LatticeVertex(y))
        for a, x in enumerate(vecs)
        for y in vecs[a + 1:]
    ]
    out_pairs = [e for e in all_pairs if e not in gamma_set]
    for _ in range(50):
        lattice = random_c_member(rng, 2)
        extra = out_pairs[rng.randrange(len(out_pairs))]
        bigger = Graph(lattice.vertices(), list(lattice.edge_set()) + [extra])
        rep = member_c(bigger)
        assert not rep.member and rep.bad_edge is not None


def test_out_of_range_counterexample_is_stable():
    """Regression anchor for the known gap in the sampled negative control:
    a lattice with a gap-2 edge whose composite is still certified.  The
    certificate must swap labels and its relabeling must be a member, so
    the phenomenon is the label/isomorphism distinction, not a bug."""
    lattice = out_of_range_counterexample()
    rep = member_c(lattice)
    assert not rep.member and rep.bad_edge is not None
    g = compose(base_null(2), lattice, 2, 3).materialize()
    cert = check_crs(g, (BaseVertex(1), BaseVertex(2)))
    assert isinstance(cert, CrsCertificate)
    assert cert.m_of_w == 3
    # non-identity table: two labels trade places
    table = {v: cert.table[LatticeVertex(v)] for v in lattice_vertices(2, 3)}
    assert table[(2, 1)] == (3, 1) and table[(3, 1)] == (2, 1)
    assert all(table[v] == v for v in lattice_vertices(2, 3) if v not in ((2, 1), (3, 1)))
    relabeled = canonical_relabel(g, cert)
    assert member_c(relabeled.lattice).member


def test_out_of_range_control_can_fail(monkeypatch):
    # a membership test that rejects every lattice also rejects the
    # relabeling of a certified sample, which the control must flag
    real_member_c = sweeps.member_c
    monkeypatch.setattr(
        sweeps, "member_c", lambda lattice: replace(real_member_c(lattice), member=False)
    )
    tested, failures, inconsistent = sweeps._out_of_gamma_samples()
    assert tested == sweeps.OUT_OF_GAMMA_SAMPLES
    assert failures > 0
    assert inconsistent > 0


def test_out_of_range_tested_counts_the_checked_samples(monkeypatch):
    # every sample has an edge outside Gamma_2, so each membership report
    # that names a bad edge belongs to one sampled lattice
    real_member_c = sweeps.member_c
    reports = []

    def counting_member_c(lattice):
        reports.append(real_member_c(lattice))
        return reports[-1]

    monkeypatch.setattr(sweeps, "member_c", counting_member_c)
    tested, _failures, _inconsistent = sweeps._out_of_gamma_samples()
    assert tested == sum(rep.bad_edge is not None for rep in reports)
    assert tested == sweeps.OUT_OF_GAMMA_SAMPLES


def test_out_of_range_tested_can_fail(monkeypatch):
    # a membership test blind to edges outside Gamma_2 names no bad edge,
    # so no sample counts as tested
    real_member_c = sweeps.member_c
    monkeypatch.setattr(
        sweeps, "member_c", lambda lattice: replace(real_member_c(lattice), bad_edge=None)
    )
    tested, _failures, _inconsistent = sweeps._out_of_gamma_samples()
    assert tested == 0


def test_certified_within_range_forces_identity_labels():
    # on spanning subgraphs of the maximal lattice, certification pins every
    # distance vector to its label, exhaustively over a mask slice
    members, certified, mismatches, identity_violations = _scan_c_range((0, 40000))
    assert mismatches == 0
    assert identity_violations == 0


def test_union_size_count_matches_brute_force():
    # seeded blocks of random 10-bit masks, whose supports overlap: the
    # grouped count must equal the tuple-by-tuple count
    rng = random.Random(211)
    tallies = [0, 0]
    for _ in range(200):
        blocks = [[rng.getrandbits(10) for _ in range(rng.randint(1, 6))] for _ in range(rng.randint(0, 4))]
        unions = []
        for choice in product(*blocks):
            union = 0
            for mask in choice:
                union |= mask
            unions.append(union.bit_count())
        target = rng.choice(unions)
        count, wrong = _union_size_count(blocks, target)
        assert (count, wrong) == (len(unions), sum(bits != target for bits in unions))
        tallies[0] += count - wrong
        tallies[1] += wrong
    assert all(tallies), tallies


def test_q3_size_check_can_fail(monkeypatch):
    # one edge offered at a choice point of i = 1 and again at one of i = 2,
    # both with a second edge: only a tuple that takes it at both has 38
    # distinct edges, not 39
    real_q_choice_lists = sweeps.q_choice_lists
    lists = real_q_choice_lists(3)
    first = next(n for n, (i, _x, edges) in enumerate(lists) if i == 1 and len(edges) == 2)
    second = next(n for n, (i, _x, edges) in enumerate(lists) if i == 2 and len(edges) == 2)
    i, x, edges = lists[second]
    shared = lists[first][2][0]
    lists[second] = (i, x, [shared] + edges[1:])
    monkeypatch.setattr(sweeps, "q_choice_lists", lambda k: lists if k == 3 else real_q_choice_lists(k))
    # a quarter of the tuples take the shared edge at both points
    assert q_count(3) == 4 * 4194304
    assert "4194304 q3 members with wrong size" in sweeps.check_size_identities()


def test_equivalence_scan_checks_the_composite_order(monkeypatch):
    # the kernel's counts hold only for n = k + m^k: one extra vertex in
    # the composite stops the scan before any mask is certified
    real_compose = sweeps.compose

    class Padded:
        def __init__(self, comp):
            self.comp = comp

        def materialize(self):
            g = self.comp.materialize()
            return Graph([*g.vertices(), BaseVertex(3)], g.edges())

    monkeypatch.setattr(sweeps, "compose", lambda *args: Padded(real_compose(*args)))
    with pytest.raises(ValueError, match="order 7, expected k \\+ m\\^k = 6"):
        sweeps._equivalence_scan(cover_system("B", 2), base_null(2), 0, 4)


def test_q3_streamed_members_are_minimal_sample():
    rng = random.Random(103)
    picks = sorted(rng.sample(range(256), 3))
    count = 0
    for n, g in enumerate(iter_q(3)):
        if n in picks:
            assert is_k_minimal(g).minimal
            count += 1
        if n > picks[-1]:
            break
    assert count == 3


@pytest.mark.parametrize(
    "whole, parts",
    [
        # the Gray images of aligned blocks are aligned blocks of masks
        pytest.param(
            (0xAA000, 0xAB000), ((0xAA000, 0xAA800), (0xAA800, 0xAB000)), id="aligned-halves"
        ),
        # the Gray images of these ranges are not aligned blocks of masks
        pytest.param(
            (696000, 702000),
            ((696000, 697501), (697501, 700003), (700003, 702000)),
            id="uneven-thirds",
        ),
    ],
)
def test_scan_ranges_merge_associatively(whole, parts):
    # near 0xAAAAA, whose image is every edge, members are dense; the images
    # of [0, 4096) use 12 of the 20 edges and hold none, so a split there
    # would compare zeros
    total = _scan_c_range(whole)
    assert total == tuple(sum(col) for col in zip(*(_scan_c_range(r) for r in parts)))
    assert total[0] > 0


def _kernel_and_check_crs(base, lattice, k, m):
    g = compose(base, lattice, k, m).materialize()
    # one lane, lane 0, which holds every edge of the composite
    adj = [[(u, 1) for u in range(g.order) if a >> u & 1] for a in g.adjacency_masks()]
    certified, identity = _cert_code_w_base(adj, k, m, 1)
    verdict = bool(identity) if certified else None
    try:
        res = check_crs(g, tuple(BaseVertex(i) for i in range(1, k + 1)))
    except DisconnectedGraph:
        return verdict, None
    if not isinstance(res, CrsCertificate):
        return verdict, False
    return verdict, all(res.table[LatticeVertex(v)] == v for v in lattice_vertices(k, m))


def test_lane_kernel_agrees_with_check_crs_across_blocks():
    cs = cover_system("C", 2)
    width = 1 << sweeps._LANE_BITS
    # every lane of a range that starts and ends mid-block and crosses the
    # block boundaries 0xAC000 and 0xB0000: set only inside the range, a
    # member exactly when the cover system says so, certified exactly then
    lo, hi = 0xA9000, 0xB1000
    blocks = {start: lanes for start, *lanes in sweeps._lane_blocks(cs, base_null(2), lo, hi)}
    assert list(blocks) == [0xA8000, 0xAC000, 0xB0000]
    for start, (member, certified, identity) in blocks.items():
        for j in range(width):
            i = start + j
            assert member >> j & 1 == (lo <= i < hi and cs.covers(i ^ (i >> 1))), i
        assert certified == member == identity & member
    assert _scan_c_range((lo, hi)) == (11120, 11120, 0, 0)
    # every block of the whole space, where the high edges change from block
    # to block: its first and last lane and seeded ones against the cover
    # system, and some of them against check_crs
    rng = random.Random(29)
    blocks = {start: lanes for start, *lanes in sweeps._lane_blocks(cs, base_null(2), 0, 1 << 20)}
    assert len(blocks) == (1 << 20) // width
    seen = Counter()
    for start, (member, certified, identity) in blocks.items():
        assert certified == member == identity & member
        lanes = {0, width - 1, *(rng.randrange(width) for _ in range(200))}
        for j in lanes:
            i = start + j
            assert member >> j & 1 == cs.covers(i ^ (i >> 1)), i
        for j in (0, width - 1, *rng.sample(sorted(lanes), 2)):
            i = start + j
            g = compose(base_null(2), cs.graph(i ^ (i >> 1)), 2, 3).materialize()
            try:
                res = check_crs(g, (BaseVertex(1), BaseVertex(2)))
            except DisconnectedGraph:
                res = None
            cert = isinstance(res, CrsCertificate)
            ident = cert and all(res.table[LatticeVertex(v)] == v for v in lattice_vertices(2, 3))
            assert (certified >> j & 1, identity >> j & 1) == (cert, ident), i
            seen[cert] += 1
    assert seen[True] and seen[False], seen


def _assert_kernel_agrees(cases, k):
    # None from the kernel exactly when check_crs rejects W = [k] or finds
    # the composite disconnected; otherwise the kernel's identity flag is
    # whether the certificate's table maps every lattice vertex to itself
    seen = {"disconnected": 0, "rejected": 0, "identity": 0}
    for base, lattice, m in cases:
        verdict, expected = _kernel_and_check_crs(base, lattice, k, m)
        if expected is None:
            assert verdict is None
            seen["disconnected"] += 1
        elif expected is False:
            assert verdict is None
            seen["rejected"] += 1
        else:
            assert verdict is True
            seen["identity"] += 1
    assert all(seen.values()), seen


def test_level_mask_kernel_agrees_with_check_crs():
    cases = []
    for base in (base_null(2), base_complete(2)):
        cs = cover_system("B", 2, base)
        cases += [(base, cs.graph(mask), 2) for mask in range(1 << len(cs.edges))]
    rng = random.Random(5)
    cs = cover_system("C", 2)
    masks = [0, (1 << len(cs.edges)) - 1]
    masks += [rng.getrandbits(len(cs.edges)) for _ in range(200)]
    masks += [rng.getrandbits(len(cs.edges)) & rng.getrandbits(len(cs.edges)) for _ in range(100)]
    cases += [(base_null(2), cs.graph(mask), 3) for mask in masks]
    _assert_kernel_agrees(cases, 2)


@pytest.mark.parametrize("base_edges", [0, 1, 3], ids=["null", "one-edge", "complete"])
def test_level_mask_kernel_agrees_with_check_crs_at_k3(base_edges):
    # at k = 3, m = 2 every BFS level of a certified composite holds
    # m^(k-1) = 4 outside vertices, and base vertices show up on the levels
    # too (by a base edge at level 1, or through the lattice at level 2)
    base = Graph(base_null(3).vertices(), base_complete(3).edges()[:base_edges])
    cs = cover_system("B", 3, base)
    nbits = len(cs.edges)
    rng = random.Random(300 + base_edges)
    masks = [rng.getrandbits(nbits) for _ in range(35)]
    masks += [rng.getrandbits(nbits) & rng.getrandbits(nbits) & rng.getrandbits(nbits) for _ in range(30)]
    for _ in range(35):
        # one hit per constraint is a member; dropping one hit is, mostly, not
        hits = [rng.choice([b for b in range(nbits) if cm >> b & 1]) for cm in cs.masks]
        mask = sum(1 << b for b in set(hits))
        masks.append(mask if rng.random() < 0.5 else mask & ~(1 << rng.choice(hits)))
    _assert_kernel_agrees([(base, cs.graph(mask), 2) for mask in masks], 3)


def test_level_mask_kernel_flags_a_permuted_table():
    # a certified composite whose table swaps two labels: the kernel
    # certifies it and says the vectors do not reproduce the labels
    verdict, identity = _kernel_and_check_crs(base_null(2), out_of_range_counterexample(), 2, 3)
    assert identity is False
    assert verdict is False


def _plain_family_b_graph():
    # the complete composite of family B at k = 2, order 6, on plain labels
    g = example_graph("MaxB", 2).materialize()
    edges = [(g.index_of(u), g.index_of(v)) for u, v in g.edges()]
    return plain_graph(g.order, edges), edges


def _radius_2_certificates(g):
    adj = g.adjacency_masks()
    rows = [bfs_levels(adj, s) for s in range(g.order)]
    return [c for c in _raw_crs_scan(rows, g.order) if c[1:] == (2, 2)]


def test_relabel_check_can_fail(monkeypatch):
    # a membership test that rejects every relabel fails both orders of
    # every radius-2 certificate
    g, _edges = _plain_family_b_graph()
    found = _radius_2_certificates(g)
    assert found
    real_member_b = sweeps.member_b
    monkeypatch.setattr(
        sweeps, "member_b", lambda base, lattice: replace(real_member_b(base, lattice), member=False)
    )
    assert _relabel_failures(g, found, {}) == 2 * len(found)


def test_relabel_verdicts_are_asked_once_per_composite(monkeypatch):
    # the graph and a relabeled copy share their canonical relabels, so a
    # shared memo asks member_b once per distinct (base, lattice)
    g, edges = _plain_family_b_graph()
    perm = [3, 5, 0, 1, 4, 2]
    copy = plain_graph(g.order, [(perm[a], perm[b]) for a, b in edges])
    real_member_b = sweeps.member_b
    asked = []

    def counting_member_b(base, lattice):
        asked.append((base, lattice))
        return real_member_b(base, lattice)

    monkeypatch.setattr(sweeps, "member_b", counting_member_b)
    memo = {}
    relabels = set()
    certificates = 0
    for graph in (g, copy, g):
        found = _radius_2_certificates(graph)
        assert _relabel_failures(graph, found, memo) == 0
        verts = graph.vertices()
        for ws, _k, _m in found:
            for order in (ws, ws[::-1]):
                comp = canonical_relabel(graph, check_crs(graph, tuple(verts[i] for i in order)))
                relabels.add((comp.base, comp.lattice))
                certificates += 1
    assert len(asked) == len(set(asked)) == len(relabels)
    assert set(asked) == relabels
    assert len(relabels) < certificates


def test_radius_4_count_says_it_is_zero_by_counting(monkeypatch):
    # the counter cannot be nonzero below order 18, and the detail says so
    zero = sweeps.PropertySweep(1000, 0, 1000, 0, 786, 0, 0, 0)
    monkeypatch.setattr(sweeps, "sweep_properties", lambda: zero)
    passed, detail = sweeps._run_properties()
    assert passed
    assert "0 radius>=4 certificates (zero by counting below order 18" in detail
    assert "TestRadiusFour" in detail


def test_verdict_check_can_fail(monkeypatch):
    # a classifier that ranks a universal vertex above a path (P2 and P3
    # have both) disagrees with the sweep's oracles on exactly those graphs
    real_classify = sweeps._classify

    def universal_first(verts, rows):
        verdict = real_classify(verts, rows)
        if verdict.kind == PATH and 1 in (max(row) for row in rows):
            return replace(verdict, kind=UNIVERSAL_VERTEX)
        return verdict

    monkeypatch.setattr(sweeps, "_classify", universal_first)
    assert sweep_small_order.__wrapped__(4).verdict_mismatches > 0


def _labeled_small_order(max_order):
    """The classification sweep over every connected labeled graph of order
    2..max_order, one edge mask at a time: the reference that the
    orbit-weighted sweep_small_order must match counter for counter.  It
    checks metric_dimension on every graph."""
    connected = successes = 0
    path_mism = universal_mism = verdict_mism = relabel_fail = 0
    m_big = dim_viol = dim_spot = 0
    relabeled = {}
    for n in range(2, max_order + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            adj = [0] * n
            edges = []
            for b, (i, j) in enumerate(pairs):
                if mask >> b & 1:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
                    edges.append((i, j))
            row0 = bfs_levels(adj, 0)
            if -1 in row0:
                continue
            rows = [row0] + [bfs_levels(adj, s) for s in range(1, n)]
            connected += 1

            found = list(_raw_crs_scan(rows, n))
            successes += len(found)
            has_k1 = any(k == 1 for _w, k, _m in found)
            has_m1 = any(m == 1 for _w, _k, m in found)
            if any(k >= 2 and m >= 4 for _w, k, m in found):
                m_big += 1

            degs = sorted(a.bit_count() for a in adj)
            struct_path = degs[:2] == [1, 1] and all(d == 2 for d in degs[2:])
            full = (1 << n) - 1
            struct_universal = any(adj[v] | (1 << v) == full for v in range(n))
            if has_k1 != struct_path:
                path_mism += 1
            if has_m1 != struct_universal:
                universal_mism += 1

            verdict = sweeps._classify(range(n), rows)
            expected_kind = (
                PATH
                if struct_path
                else UNIVERSAL_VERTEX
                if struct_universal
                else FAMILY_B
                if found
                else NOT_COMPLETENESS_RESOLVABLE
            )
            if verdict.kind != expected_kind:
                verdict_mism += 1
            if (verdict.kind == NOT_COMPLETENESS_RESOLVABLE) != (not found):
                verdict_mism += 1

            g = plain_graph(n, edges)
            if any(k == m == 2 for _w, k, m in found):
                relabel_fail += _relabel_failures(g, found, relabeled)

            dim = _raw_dimension(rows, n)
            diam = max(max(r) for r in rows)
            if n > dim + diam ** dim:
                dim_viol += 1
            if metric_dimension(g)[0] != dim:
                dim_spot += 1
    return sweeps.SmallOrderSweep(
        connected_graphs=connected,
        crs_successes=successes,
        path_mismatches=path_mism,
        universal_mismatches=universal_mism,
        verdict_mismatches=verdict_mism,
        relabel_failures=relabel_fail,
        m_at_least_4=m_big,
        dimension_inequality_violations=dim_viol,
        dimension_spot_mismatches=dim_spot,
    )


def test_orbit_sweep_matches_the_labeled_oracle():
    labeled = _labeled_small_order(5)
    assert labeled.connected_graphs == 1 + 4 + 38 + 728
    assert labeled.crs_successes > 0
    assert sweep_small_order(5) == labeled


def test_orbit_weight_check_can_fail(monkeypatch):
    # one order-5 class whose |Aut| is off by one stands for 5!/(|Aut| + 1)
    # labeled graphs instead of 5!/|Aut|
    real_classes = sweeps._connected_classes

    def one_aut_off(max_order):
        for n, classes in real_classes(max_order):
            if n == max_order:
                canon = next(iter(classes))
                classes = {**classes, canon: classes[canon] + 1}
            yield n, classes

    monkeypatch.setattr(sweeps, "_connected_classes", one_aut_off)
    assert sweep_small_order.__wrapped__(5).connected_graphs != 771


def test_class_generator_matches_the_graph_atlas():
    # connected graphs of order 1..6 up to isomorphism (OEIS A001349):
    # the representatives are pairwise non-isomorphic, as many as the
    # atlas holds, and each |Aut| is the number of self-isomorphisms
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    atlas = Counter(g.order() for g in nx.graph_atlas_g() if 0 < g.order() <= 6 and nx.is_connected(g))
    counts = []
    for n, classes in sweeps._connected_classes(6):
        graphs = []
        for canon in classes:
            g = nx.empty_graph(n)
            g.add_edges_from((i, j) for i in range(n) for j in range(i + 1, n) if canon[i] >> j & 1)
            assert nx.is_connected(g)
            graphs.append(g)
        assert not any(nx.is_isomorphic(a, b) for a, b in combinations(graphs, 2))
        for g, aut in zip(graphs, classes.values()):
            assert sum(1 for _ in GraphMatcher(g, g).isomorphisms_iter()) == aut
        counts.append(len(classes))
    assert counts == [atlas[n] for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]
