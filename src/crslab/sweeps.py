"""Exhaustive verification sweeps and the named acceptance suites.

Everything here is deterministic: exhaustive spaces are scanned in index
order, random trials use fixed seeds, and partitioned scans merge into
results independent of the worker count.  The heavy inner loops work on
plain adjacency bit sets rather than Graph values.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from .errors import DisconnectedGraph
from .graph import (
    BaseVertex,
    Graph,
    LatticeVertex,
    _iter_bits,
    bfs_levels,
    diameter,
    plain_graph,
)
from .families import (
    CoverSystem,
    base_complete,
    base_null,
    compose,
    canonical_relabel,
    cover_system,
    example_graph,
    gamma,
    lattice_complete,
    lattice_vertices,
    member_b,
    member_c,
    scan_ranges,
    span_lattice,
)
from .resolving import (
    FAMILY_B,
    NOT_COMPLETENESS_RESOLVABLE,
    PATH,
    UNIVERSAL_VERTEX,
    CrsCertificate,
    check_crs,
    is_completeness_resolvable,
    metric_dimension,
)
from .extremal import (
    bounds_b,
    bounds_c,
    enumerate_minimal,
    enumerate_q,
    epsilon,
    q_choice_lists,
    q_choice_points,
    q_count,
    tightness_b,
    _graph_sort_key,
)

SAMPLE_SEED = 0x5EED
OUT_OF_GAMMA_SAMPLES = 1000
CLOSURE_TRIALS = 1000


# -- shared fast-composite machinery ----------------------------------------


def _equivalence_scan(cs: CoverSystem, base: Graph, lo: int, hi: int) -> tuple[int, int, int, int]:
    """(members, certified, mismatches, identity_violations) over the masks
    [lo, hi) of the cover system's universe: the kernel's membership verdict
    against BFS certification of W = [k] on the composite over ``base``."""
    k, m = cs.k, cs.m
    g = compose(base, cs.graph(0), k, m).materialize()
    adj = g.adjacency_masks()
    edge_info = []
    for u, v in cs.edges:
        a, b = g.index_of(u), g.index_of(v)
        edge_info.append((a, b, 1 << a, 1 << b))
    n = g.order
    identity = tuple(range(n - k))
    covers = cs.covers
    members = certified = mismatches = identity_violations = 0
    for subset in range(lo, hi):
        is_member = covers(subset)
        composite = adj.copy()
        sub = subset
        while sub:
            low = sub & -sub
            a, b, abit, bbit = edge_info[low.bit_length() - 1]
            composite[a] |= bbit
            composite[b] |= abit
            sub ^= low
        codes = _cert_code_w_base(composite, k, m, n)
        members += is_member
        certified += codes is not None
        if is_member != (codes is not None):
            mismatches += 1
        if is_member and codes != identity:
            identity_violations += 1
    return members, certified, mismatches, identity_violations


def _cert_code_w_base(adj: list[int], k: int, m: int, n: int):
    """check_crs(W = base vertices) on a composite adjacency, summarized.

    An independent oracle, kept on purpose: it certifies by BFS levels and
    never looks at the cover system, so the equivalence sweeps test the
    kernel's membership verdicts against it.

    Returns None when W is not completeness-resolving; otherwise the tuple
    of lattice codes (base-m digits of the distance vector), which equals
    (0, 1, ..., m^k - 1) exactly when the vectors reproduce the labels.
    """
    n_lat = n - k
    rows = []
    for s in range(k):
        dist = [0] * n
        seen = 1 << s
        frontier = seen
        for d in range(1, m + 1):
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                nxt |= adj[low.bit_length() - 1]
                f ^= low
            frontier = nxt & ~seen
            if not frontier:
                break
            seen |= frontier
            f = frontier
            while f:
                low = f & -f
                dist[low.bit_length() - 1] = d
                f ^= low
        rows.append(dist)
    codes = []
    taken = 0
    for u in range(k, n):
        code = 0
        for row in rows:
            d = row[u]
            if d == 0:  # unreached within m levels: distance > m or infinite
                return None
            code = code * m + d - 1
        if taken >> code & 1:
            return None
        taken |= 1 << code
        codes.append(code)
    # Injectivity over m^k lattice vertices with digits below m forces the
    # image to be the whole box, so m(W) = m exactly; nothing more to check.
    assert len(codes) == n_lat
    return tuple(codes)


# -- criterion 1: radius-2 equivalence, exhaustive at k = 2 -------------------


@dataclass(frozen=True)
class EquivalenceSweep:
    """Counters of one equivalence sweep.

    The out_of_range_* counters come from the sampled [3]^2 lattices with
    an edge outside Gamma_2 (radius-3 sweep only): out_of_range_tested
    counts the samples whose membership report names such an edge (all of
    them, unless member_c misses one); out_of_range_failures counts samples
    that W = [2] certifies anyway, which it can only do through a label
    permutation -- not a fault, since certification ignores labels, but the
    name is kept because the benchmark pins it (a sample that is a member
    on its own labels would be counted here too); out_of_range_inconsistent
    counts the true violations of the label-bound control: a sample that is
    a member on its own labels, or one certified with the identity table or
    whose canonical relabeling is not a member.
    """

    total: int
    members: int
    certified: int
    mismatches: int
    identity_violations: int
    out_of_range_tested: int = 0
    out_of_range_failures: int = 0
    out_of_range_inconsistent: int = 0

    @property
    def exhaustive_ok(self) -> bool:
        return (
            self.mismatches == 0
            and self.identity_violations == 0
            and self.members == self.certified
        )

    @property
    def ok(self) -> bool:
        return self.exhaustive_ok and self.out_of_range_failures == 0


@lru_cache(maxsize=1)
def sweep_b_equivalence() -> EquivalenceSweep:
    """All 2 bases x 64 lattices on [2]^2: family membership must coincide
    with certification of W = [2] at radius 2, and members must resolve to
    their own labels."""
    parts = []
    for base in (base_null(2), base_complete(2)):
        cs = cover_system("B", 2, base)
        parts.append(_equivalence_scan(cs, base, 0, 1 << len(cs.edges)))
    members, certified, mismatches, identity_violations = (sum(col) for col in zip(*parts))
    return EquivalenceSweep(
        total=len(parts) << len(cs.edges),
        members=members,
        certified=certified,
        mismatches=mismatches,
        identity_violations=identity_violations,
    )


# -- criterion 2: radius-3 equivalence, exhaustive over the maximal lattice ---


def _scan_c_range(bounds: tuple[int, int]) -> tuple[int, int, int, int]:
    """(members, certified, mismatches, identity_violations) over a mask
    range of spanning subgraphs of the maximal radius-3 lattice at k=2."""
    return _equivalence_scan(cover_system("C", 2), base_null(2), *bounds)


@lru_cache(maxsize=2)
def sweep_c_equivalence(jobs: int = 1) -> EquivalenceSweep:
    """All 2^20 spanning subgraphs of the maximal radius-3 lattice at k=2:
    membership must coincide with certification of W = [2], members must
    resolve to their own labels, and a fixed sample of lattices with an
    out-of-range edge must fail on both sides."""
    total = 1 << 20
    parts = scan_ranges(_scan_c_range, total, jobs)
    members, certified, mismatches, identity_violations = (sum(col) for col in zip(*parts))

    tested, failures, inconsistent = _out_of_gamma_samples()
    return EquivalenceSweep(
        total=total,
        members=members,
        certified=certified,
        mismatches=mismatches,
        identity_violations=identity_violations,
        out_of_range_tested=tested,
        out_of_range_failures=failures,
        out_of_range_inconsistent=inconsistent,
    )


def _out_of_gamma_samples() -> tuple[int, int, int]:
    """Uniform random [3]^2 lattices conditioned on containing an edge with
    a coordinate gap of two.

    Such a lattice is never a member on its own labels, and W = [2] never
    resolves its composite with every lattice vertex on its own label.  It
    may still certify the composite through a label permutation -- see
    out_of_range_counterexample() -- so a certified sample is counted in
    failures and then cross-checked: its table must not be the identity and
    its relabeling must land inside the family, otherwise it is flagged
    inconsistent (a genuine bug).  A member sample counts in both at once.
    Returns (samples whose membership report names an edge outside the
    maximal lattice -- every sample, unless member_c misses the gap --
    failures, inconsistent).
    """
    rng = random.Random(SAMPLE_SEED)
    vecs = lattice_vertices(2, 3)
    complete = lattice_complete(2, 3)
    all_edges = complete.edges()
    universe = cover_system("C", 2).index
    tested = failures = inconsistent = 0
    for _ in range(OUT_OF_GAMMA_SAMPLES):
        while True:
            chosen = [e for e in all_edges if rng.random() < 0.5]
            if any(e not in universe for e in chosen):
                break
        lattice = Graph(complete.vertices(), chosen)
        report = member_c(lattice)
        tested += report.bad_edge is not None
        if report.member:
            failures += 1
            inconsistent += 1
            continue
        g = compose(base_null(2), lattice, 2, 3).materialize()
        try:
            res = check_crs(g, (BaseVertex(1), BaseVertex(2)))
        except DisconnectedGraph:
            # a disconnected composite has no finite distance table, so it
            # counts as rejected (22 of the 1000 seeded samples)
            continue
        if isinstance(res, CrsCertificate):
            failures += 1
            comp = canonical_relabel(g, res)
            relabel_member = member_c(comp.lattice).member
            identity = all(res.table[LatticeVertex(v)] == v for v in vecs)
            if identity or not relabel_member:
                inconsistent += 1
    return tested, failures, inconsistent


def out_of_range_counterexample() -> Graph:
    """A deterministic [3]^2 lattice with a gap-2 edge whose composite is
    nevertheless certified by W = [2].

    The distance table permutes two labels, so the lattice itself is not a
    member while its relabeling is: certification of the composite does not
    imply membership of the original labels once edges leave the maximal
    lattice.  This witnesses why the sampled negative control of the
    radius-3 sweep cannot be expected to hold for every sample.
    """
    edges = [
        ((1, 1), (3, 1)),  # the gap-2 edge
        ((2, 1), (3, 1)),
        ((1, 2), (2, 2)),
        ((2, 1), (2, 2)),
        ((1, 3), (2, 3)),
        ((2, 2), (2, 3)),
        ((1, 1), (1, 2)),
        ((1, 2), (1, 3)),
        ((3, 1), (3, 2)),
        ((2, 2), (3, 2)),
        ((2, 2), (3, 3)),
    ]
    return span_lattice(2, 3, edges)


# -- criterion 7 (+ parts of 8): the small-order classification sweep ---------


@dataclass(frozen=True)
class SmallOrderSweep:
    connected_graphs: int
    crs_successes: int
    path_mismatches: int
    universal_mismatches: int
    verdict_mismatches: int
    relabel_failures: int
    m_at_least_4: int
    dimension_inequality_violations: int
    dimension_spot_mismatches: int

    @property
    def ok(self) -> bool:
        return not (
            self.path_mismatches
            or self.universal_mismatches
            or self.verdict_mismatches
            or self.relabel_failures
            or self.m_at_least_4
            or self.dimension_inequality_violations
            or self.dimension_spot_mismatches
        )


def _raw_crs_scan(rows: list[list[int]], n: int):
    """Every proper nonempty W whose distance map is a bijection onto the
    full box, by direct definition; yields (w_tuple, k, m).

    An independent oracle, kept on purpose: it shares no pruning or code
    with the classifier in crslab.resolving, which the classification
    sweep checks against it."""
    for wmask in range(1, (1 << n) - 1):
        ws = [i for i in range(n) if wmask >> i & 1]
        rest = [i for i in range(n) if not wmask >> i & 1]
        k = len(ws)
        mm = 0
        for w in ws:
            row = rows[w]
            for u in rest:
                if row[u] > mm:
                    mm = row[u]
        if mm ** k != len(rest):
            continue
        seen = set()
        ok = True
        for u in rest:
            vec = tuple(rows[w][u] for w in ws)
            if vec in seen:
                ok = False
                break
            seen.add(vec)
        if ok:
            yield tuple(ws), k, mm


def _raw_dimension(rows: list[list[int]], n: int) -> int:
    """The metric dimension by direct definition: the smallest W whose
    distance vectors tell all outside vertices apart.

    An independent oracle, kept on purpose: the classification sweep checks
    metric_dimension and the dimension inequality against it."""
    for c in range(1, n):
        for combo in combinations(range(n), c):
            seen = set()
            ok = True
            for u in range(n):
                if u in combo:
                    continue
                vec = tuple(rows[w][u] for w in combo)
                if vec in seen:
                    ok = False
                    break
                seen.add(vec)
            if ok:
                return c
    raise AssertionError("unreachable: n-1 vertices always resolve")


@lru_cache(maxsize=2)
def sweep_small_order(max_order: int = 6) -> SmallOrderSweep:
    """Every connected labeled graph of order 2..max_order, cross-checked
    four ways: raw bijection scans vs the structural classifier, radius-1
    certificates vs universal vertices, radius-2 certificates vs family
    relabeling, and the dimension/diameter counting inequality."""
    connected = successes = 0
    path_mism = universal_mism = verdict_mism = relabel_fail = 0
    m_big = dim_viol = dim_spot = 0
    graph_counter = 0
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
            rows = [bfs_levels(adj, s) for s in range(n)]
            if any(d < 0 for d in rows[0]):
                continue
            connected += 1
            graph_counter += 1

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

            g = plain_graph(n, edges)
            verdict = is_completeness_resolvable(g)
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

            verts = g.vertices()
            for ws, k, m in found:
                if (k, m) != (2, 2):
                    continue
                for order in (ws, ws[::-1]):
                    w_order = tuple(verts[i] for i in order)
                    cert = check_crs(g, w_order)
                    if not isinstance(cert, CrsCertificate):
                        relabel_fail += 1
                        continue
                    comp = canonical_relabel(g, cert)
                    if not member_b(comp.base, comp.lattice).member:
                        relabel_fail += 1

            dim = _raw_dimension(rows, n)
            diam = max(max(r) for r in rows)
            if n > dim + diam ** dim:
                dim_viol += 1
            if graph_counter % 97 == 0:
                if metric_dimension(g)[0] != dim:
                    dim_spot += 1
    return SmallOrderSweep(
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


# -- random family members for the closure properties -------------------------


def _random_member(rng: random.Random, family: str, k: int) -> tuple[Graph, CoverSystem, int]:
    """A seeded family member from the covering construction, as (base,
    cover system, lattice mask): for family B a random base first, then one
    random hit for every constraint in constraint order, then extras
    sprinkled over the universe."""
    base = base_null(k)
    if family == "B":
        base = Graph(base.vertices(), [e for e in base_complete(k).edges() if rng.random() < 0.5])
    cs = cover_system(family, k, base)
    mask = 0
    for cm in cs.masks:
        hits = list(_iter_bits(cm))
        mask |= 1 << hits[rng.randrange(len(hits))]
    for b in range(len(cs.edges)):
        if rng.random() < 0.15:
            mask |= 1 << b
    return base, cs, mask


def random_b_member(rng: random.Random, k: int) -> tuple[Graph, Graph]:
    """A seeded member of the radius-2 family: a random base and a lattice
    built from the covering construction."""
    base, cs, mask = _random_member(rng, "B", k)
    return base, cs.graph(mask)


def random_c_member(rng: random.Random, k: int) -> Graph:
    """A seeded member of the radius-3 family from the covering
    construction, with extras sprinkled inside the maximal lattice."""
    _base, cs, mask = _random_member(rng, "C", k)
    return cs.graph(mask)


@dataclass(frozen=True)
class PropertySweep:
    upset_trials: int
    upset_violations: int
    union_trials: int
    union_violations: int
    epsilon_pairs_checked: int
    epsilon_overlaps: int
    m_at_least_4: int
    dimension_inequality_violations: int

    @property
    def ok(self) -> bool:
        return not (
            self.upset_violations
            or self.union_violations
            or self.epsilon_overlaps
            or self.m_at_least_4
            or self.dimension_inequality_violations
        )


def _is_member(family: str, base: Graph, lattice: Graph) -> bool:
    return (member_b(base, lattice) if family == "B" else member_c(lattice)).member


@lru_cache(maxsize=1)
def sweep_properties() -> PropertySweep:
    """Seeded add-an-edge and union closure trials on random members at
    k = 2 and 3, exhaustive disjointness of the edge-choice sets, plus the
    counting facts carried by the small-order sweep."""
    rng = random.Random(SAMPLE_SEED)
    trials_per_case = CLOSURE_TRIALS // 4  # two families x two k values
    upset_viol = 0
    for k in (2, 3):
        for family in ("B", "C"):
            for _ in range(trials_per_case):
                base, cs, mask = _random_member(rng, family, k)
                if not _is_member(family, base, cs.graph(mask)):
                    upset_viol += 1
                    continue
                # one random edge added to the lattice or, for family B, the base
                pool = [(base, mask | 1 << b) for b in range(len(cs.edges)) if not mask >> b & 1]
                if family == "B":
                    pool += [
                        (Graph(base.vertices(), [*base.edge_set(), e]), mask)
                        for e in base_complete(k).edges()
                        if e not in base.edge_set()
                    ]
                if not pool:
                    continue
                bigger_base, bigger = pool[rng.randrange(len(pool))]
                if not _is_member(family, bigger_base, cs.graph(bigger)):
                    upset_viol += 1

    union_viol = 0
    for k in (2, 3):
        for family in ("B", "C"):
            for _ in range(trials_per_case):
                b1, cs, m1 = _random_member(rng, family, k)
                b2, _cs, m2 = _random_member(rng, family, k)
                base = Graph(b1.vertices(), b1.edge_set() | b2.edge_set())
                if not _is_member(family, base, cs.graph(m1 | m2)):
                    union_viol += 1

    pairs_checked = 0
    overlaps = 0
    for k in (2, 3):
        points = q_choice_points(k)
        eps = {(i, x): epsilon(k, i, x) for i, x in points}
        for a in range(len(points)):
            for b in range(a + 1, len(points)):
                pairs_checked += 1
                if eps[points[a]] & eps[points[b]]:
                    overlaps += 1

    small = sweep_small_order(6)
    return PropertySweep(
        upset_trials=4 * trials_per_case,
        upset_violations=upset_viol,
        union_trials=4 * trials_per_case,
        union_violations=union_viol,
        epsilon_pairs_checked=pairs_checked,
        epsilon_overlaps=overlaps,
        m_at_least_4=small.m_at_least_4,
        dimension_inequality_violations=small.dimension_inequality_violations,
    )


# -- criterion 3: size identities --------------------------------------------


def check_size_identities() -> list[str]:
    """Integer-exact size identities for k = 2..4 and the streamed edge
    count of every maximum-size minimal lattice at k <= 3.  Returns the
    list of violated identities (empty = pass)."""
    bad = []
    for k in (2, 3, 4):
        checks = {
            f"gamma({k})": (gamma(k).size, (7 ** k - 3 ** k) // 2),
            f"T_{k}": (example_graph("T", k).size, (3 ** k + 1) // 2),
            f"U_{k}": (example_graph("U", k).size, 1),
            f"V_{k}": (example_graph("V", k).size, k),
            f"R_{k}": (example_graph("R", k).size, 2 ** (k - 1)),
            f"P2box_{k}": (example_graph("P2box", k).size, k * 2 ** (k - 1)),
        }
        for name, (got, want) in checks.items():
            if got != want:
                bad.append(f"{name}: {got} != {want}")
    for g in enumerate_q(2):
        if g.size != 2 * (3 + 2):
            bad.append(f"q2 member size {g.size}")
    count, wrong = _q3_size_scan()
    if count != q_count(3):
        bad.append(f"q3 member count {count} != {q_count(3)}")
    if wrong:
        bad.append(f"{wrong} q3 members with wrong size")
    return bad


def _q3_size_scan() -> tuple[int, int]:
    """Stream every choice tuple at k = 3 as an edge bit mask and count
    members whose distinct-edge total is not 39."""
    k = 3
    edge_id = cover_system("C", k).index
    per_i: dict[int, list[list[int]]] = {1: [], 2: [], 3: []}
    for i, _x, edges in q_choice_lists(k):
        per_i[i].append([1 << edge_id[e] for e in edges])
    blocks = []
    for i in (1, 2, 3):
        combos = []
        for choice in product(*per_i[i]):
            acc = 0
            for bit in choice:
                acc |= bit
            combos.append(acc)
        blocks.append(combos)
    want = k * (3 ** (k - 1) + 2 ** (k - 1))
    count = wrong = 0
    b1, b2, b3 = blocks
    for m1 in b1:
        for m2 in b2:
            m12 = m1 | m2
            for m3 in b3:
                count += 1
                if (m12 | m3).bit_count() != want:
                    wrong += 1
    return count, wrong


# -- criterion 6: diameters ---------------------------------------------------


def check_diameters() -> list[str]:
    """The five named composites must hit diameters 2, 3, 3, 4, 5."""
    cases = [
        ("complete base o complete lattice", example_graph("MaxB", 2), 2),
        ("complete base o U", compose(base_complete(2), example_graph("U", 2), 2, 2), 3),
        ("null base o maximal lattice", example_graph("MaxC", 2), 3),
        ("null base o Qcanon", compose(base_null(2), example_graph("Qcanon", 2), 2, 3), 4),
        ("null base o T", compose(base_null(2), example_graph("T", 2), 2, 3), 5),
    ]
    bad = []
    for name, comp, want in cases:
        got = diameter(comp.materialize())
        if got != want:
            bad.append(f"{name}: diameter {got} != {want}")
    return bad


# -- criterion 4 + 9: minimal enumeration and tightness ------------------------


def check_minimal_enumeration(jobs: int = 1) -> list[str]:
    bad = []
    emc = enumerate_minimal("C", 2, jobs=jobs)
    t2 = example_graph("T", 2)
    five = [g for g in emc if g.size == 5]
    if five != [t2]:
        bad.append(f"size-5 stratum has {len(five)} graphs")
    ten = sorted((g for g in emc if g.size == 10), key=_graph_sort_key)
    if ten != enumerate_q(2):
        bad.append("size-10 stratum differs from the choice-product family")
    lo, hi = bounds_c(2)
    if not all(lo <= g.size <= hi for g in emc):
        bad.append("minimal size outside the bounds")
    embk = enumerate_minimal("B", 2, base=base_complete(2))
    if [g for g in embk if g.size == 1] != [example_graph("U", 2)]:
        bad.append("complete base: size-1 minimal is not U")
    if [g for g in embk if g.size == 2] != [example_graph("V", 2)]:
        bad.append("complete base: size-2 minimal is not V")
    embn = enumerate_minimal("B", 2, base=base_null(2))
    if [g for g in embn if g.size == 2] != [example_graph("R", 2)]:
        bad.append("null base: size-2 minimal is not R")
    if [g for g in embn if g.size == 4] != [example_graph("P2box", 2)]:
        bad.append("null base: size-4 minimal is not P2box")
    return bad


def check_tightness() -> list[str]:
    """Structural tightness must agree with raw edge-count comparison for
    every minimal pair of the k = 2 enumerations."""
    bad = []
    for base in (base_complete(2), base_null(2)):
        lo, hi = bounds_b(base)
        for lattice in enumerate_minimal("B", 2, base=base):
            rep = tightness_b(base, lattice)
            if rep.lower_tight != (lattice.size == lo) or rep.upper_tight != (lattice.size == hi):
                bad.append(f"tightness mismatch at size {lattice.size}")
    return bad


# -- suite registry -----------------------------------------------------------


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _run_b(jobs: int) -> tuple[bool, str]:
    r = sweep_b_equivalence()
    return r.ok, f"{r.total} composites, {r.members} members, {r.mismatches} mismatches"


def _run_c(jobs: int) -> tuple[bool, str]:
    r = sweep_c_equivalence(jobs)
    detail = (
        f"{r.total} lattices, {r.members} members, {r.mismatches} mismatches, "
        f"{r.out_of_range_failures}/{r.out_of_range_tested} certified out-of-range samples"
    )
    if r.out_of_range_failures and not r.out_of_range_inconsistent:
        detail += " (known negative-control gap, see README)"
    return r.ok, detail


def _run_sizes(jobs: int) -> tuple[bool, str]:
    bad = check_size_identities()
    return not bad, "; ".join(bad) if bad else "all size identities hold for k=2..4, q(3) streamed"


def _run_minimal(jobs: int) -> tuple[bool, str]:
    bad = check_minimal_enumeration(jobs)
    return not bad, "; ".join(bad) if bad else "strata match the characterized extremes"


def _run_identity(jobs: int) -> tuple[bool, str]:
    rb = sweep_b_equivalence()
    rc = sweep_c_equivalence(jobs)
    viol = rb.identity_violations + rc.identity_violations
    return viol == 0, f"{viol} members with distance vector != label"


def _run_diameters(jobs: int) -> tuple[bool, str]:
    bad = check_diameters()
    return not bad, "; ".join(bad) if bad else "diameters 2,3,3,4,5 as expected"


def _run_classification(jobs: int) -> tuple[bool, str]:
    r = sweep_small_order(6)
    return (
        r.ok,
        f"{r.connected_graphs} connected graphs, {r.crs_successes} certificates, "
        f"{r.verdict_mismatches} verdict mismatches, {r.relabel_failures} relabel failures",
    )


def _run_properties(jobs: int) -> tuple[bool, str]:
    r = sweep_properties()
    return (
        r.ok,
        f"{r.upset_violations} up-set violations, {r.union_violations} union violations, "
        f"{r.epsilon_overlaps} choice-set overlaps, {r.m_at_least_4} radius>=4 certificates",
    )


def _run_tightness(jobs: int) -> tuple[bool, str]:
    bad = check_tightness()
    return not bad, "; ".join(bad) if bad else "structural tightness matches raw counts"


SUITES = {
    "b-equivalence": _run_b,
    "c-equivalence": _run_c,
    "sizes": _run_sizes,
    "minimal": _run_minimal,
    "distance-identity": _run_identity,
    "diameters": _run_diameters,
    "classification": _run_classification,
    "properties": _run_properties,
    "tightness": _run_tightness,
}

SUITE_ORDER = list(SUITES)


def run_suite(name: str, jobs: int = 1) -> list[SuiteResult]:
    """Run one named suite, or all of them in order."""
    names = SUITE_ORDER if name == "all" else [name]
    results = []
    for suite_name in names:
        if suite_name not in SUITES:
            raise KeyError(suite_name)
        start = time.monotonic()
        passed, detail = SUITES[suite_name](jobs)
        results.append(
            SuiteResult(
                name=suite_name,
                passed=passed,
                detail=detail,
                seconds=time.monotonic() - start,
            )
        )
    return results
