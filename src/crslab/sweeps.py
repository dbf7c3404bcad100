"""Exhaustive verification sweeps and the named acceptance suites.

Everything here is deterministic: exhaustive spaces are scanned in index
order (the equivalence scans read each index as a lattice mask) and random
trials use fixed seeds.  The heavy inner loops work on plain adjacency bit
sets rather than Graph values.  Certification is bit-sliced, one composite
per bit lane of every mask, and made in one place: a frame (_lane_frame)
holds k, m and the adjacency that every lane shares, and _cert_code_w_base
joins each varying edge's lanes to it and runs the BFS.  The equivalence
scans hand it periodic index lanes, 2^16 lattices per BFS; the closure
trials and the out-of-range samples hand it their seeded masks transposed
(_certify_masks), each batch in one BFS.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, compress, product, repeat, starmap
from math import factorial
from operator import or_

from .errors import DisconnectedGraph
from .graph import (
    BaseVertex,
    Graph,
    LatticeVertex,
    _iter_bits,
    bfs_levels,
    diameter,
    is_path,
    plain_graph,
    universal_vertices,
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
    tightness_b,
)

SAMPLE_SEED = 0x5EED
OUT_OF_GAMMA_SAMPLES = 1000
CLOSURE_TRIALS = 1000
_SUBSAMPLE = 4  # trials per closure group, and out-of-range samples, that member_b / member_c decide too


# -- the lane-parallel certifier ----------------------------------------------

# 2^16 lattices per block.  The kernel's cost per block is mostly fixed
# Python-level work, so fewer blocks take less time: the c-equivalence scan
# (2^20 lattices), warm, best of 5 in each of three processes on a 2-core
# x86-64 VM under CPython 3.11, took 10.9 ms at 2^14, 7.0 at 2^15, 5.4 at
# 2^16, 7.2 at 2^17 and 6.1 at 2^18.  The peak RSS stayed at 17.5-17.7 MB
# up to 2^17 and rose to 18.6-18.8 MB at 2^18.
_LANE_BITS = 16
_LANES = (1 << (1 << _LANE_BITS)) - 1
# _INDEX_BITS[t]: the lanes j of a block whose index j has bit t set, one
# repeated little-endian byte pattern each: 0xaa, 0xcc, 0xf0 within a byte,
# then runs of 2^(t-3) zero bytes and 2^(t-3) 0xff bytes (the same lanes as
# _LANES // (2^(2^(t+1)) - 1) * ((2^(2^t) - 1) << 2^t), without dividing a
# 2^_LANE_BITS-bit integer)
_INDEX_BITS = tuple(
    int.from_bytes(pattern * ((1 << _LANE_BITS - 3) // len(pattern)), "little")
    for pattern in (
        b"\xaa",
        b"\xcc",
        b"\xf0",
        *(bytes(1 << t - 3) + b"\xff" * (1 << t - 3) for t in range(3, _LANE_BITS)),
    )
)


def _lane_frame(
    cs: CoverSystem, base: Graph, edges
) -> tuple[int, int, list[list[tuple[int, int]]], list[tuple[int, int]]]:
    """(k, m, fixed, ends): what every lane of a batch shares, for
    composites over ``base`` of lattices on the cover system's [m]^k.
    ``fixed`` is the adjacency rows of the composite with the empty
    lattice, each pair on in every lane (-1, so a batch of any width keeps
    them), and ``ends`` the composite indices of the ends of ``edges``, the
    edges that vary by lane (base edges may be among them)."""
    k, m = cs.k, cs.m
    g = compose(base, cs.graph(0), k, m).materialize()
    n = g.order
    if n != k + m ** k:  # the certifier's cells rest on it
        raise ValueError(f"composite has order {n}, expected k + m^k = {k + m ** k}")
    fixed = [[(u, -1) for u in _iter_bits(a)] for a in g.adjacency_masks()]
    return k, m, fixed, [(g.index_of(u), g.index_of(v)) for u, v in edges]


def _certify_masks(frame, masks: list[int]) -> tuple[int, int]:
    """(certified, identity) lanes of W = [k] on one composite per mask,
    lane j for masks[j], whose bit t switches on edge t of the frame.  The
    edge lanes are the masks transposed: bit j of edge t's lanes is bit t
    of masks[j].

    The transpose goes through binary strings, one row of E = len(ends)
    digits per mask, the last mask first.  Column E - 1 - t of the rows
    then reads, top to bottom, bit t of the masks from lane len(masks) - 1
    down to lane 0, so int(column, 2) is edge t's lanes: one format per
    mask and one join and int per edge, instead of one step per set bit.
    A mask with a bit at or above E would shift every column of its row,
    so it is refused."""
    width = len(frame[3])
    if masks and max(masks).bit_length() > width:
        raise ValueError(f"a mask has a bit at or above the frame's {width} edges")
    rows = [format(mask, f"0{width}b") for mask in reversed(masks)]
    edge_lanes = [int("".join(column), 2) for column in zip(*rows)][::-1] or [0] * width
    return _cert_code_w_base(frame, edge_lanes, (1 << len(masks)) - 1)


def _cert_code_w_base(frame, edge_lanes: list[int], lanes: int) -> tuple[int, int]:
    """check_crs(W = base vertices) on lane-parallel composites, summarized.

    An independent oracle, kept on purpose: it certifies by BFS levels on
    the frame's adjacency alone and never looks at the cover system, so
    the equivalence sweeps test the cover system's membership verdicts
    against it, and the closure trials read membership off it.  Each bit
    of ``lanes`` is one composite on the vertices range(n) of the frame
    (k, m, fixed, ends) from _lane_frame: the fixed rows, plus edge t of
    ``ends`` in the lanes ``edge_lanes[t]``.  Vertex v is adjacent to u in
    the lanes ``on`` of each pair (u, on) in its row.  Vertices 0..k-1 are
    W and k..n-1 the m^k lattice vertices in lexicographic label order, so
    n = k + m^k (_lane_frame checks it).

    For each source s the lane masks L_s[d][v], d = 1..m, are its BFS
    levels, found with a per-vertex mask of the lanes that have seen v.  W
    certifies iff every cell L_1[a_1] & ... & L_k[a_k] of the box [m]^k
    holds exactly one vertex; then the m^k cells take up all n - k outside
    vertices, and the distance map is a bijection onto the box with
    m(W) = m.  The cells are disjoint and miss W, so m^k nonempty cells
    among m^k outside vertices are singletons: testing for an empty cell
    is enough.  Returns (certified lanes: no cell is empty, identity
    lanes: every cell holds the lattice vertex labelled (a_1, ..., a_k),
    i.e. the distance vectors reproduce the labels).  A lane with the
    identity has no empty cell, so the identity lanes are certified.
    """
    k, m, fixed, ends = frame
    adj = [row[:] for row in fixed]
    for (a, b), on in zip(ends, edge_lanes):
        if on:
            adj[a].append((b, on))
            adj[b].append((a, on))
    n = len(adj)
    cells = [[lanes] * (n - k)]
    for s in range(k):
        frontier = [0] * n
        frontier[s] = lanes
        seen = frontier[:]
        levels = []
        for _ in range(m):
            nxt = []
            for v, row in enumerate(adj):
                reach = 0
                for u, on in row:
                    reach |= frontier[u] & on
                reach &= ~seen[v]
                seen[v] |= reach
                nxt.append(reach)
            frontier = nxt
            levels.append(nxt[k:])
        cells = [[c & x for c, x in zip(cell, level)] for cell in cells for level in levels]
    certified = identity = lanes
    for v, cell in enumerate(cells):
        hit = 0
        for x in cell:
            hit |= x
        certified &= hit
        identity &= cell[v]
    return certified, identity


# -- criterion 1: radius-2 equivalence, exhaustive at k = 2 -------------------


@dataclass(frozen=True)
class EquivalenceSweep:
    """Counters of one equivalence sweep.

    The out_of_range_* counters come from the sampled [3]^2 lattices with
    an edge outside Gamma_2 (radius-3 sweep only): out_of_range_tested
    counts the samples whose mask meets the cover system's outside mask
    (and whose member_c report, for the few that get one, names a bad
    edge); out_of_range_failures counts samples that W = [2] certifies
    anyway, which it can only do through a label permutation -- not a
    fault, since certification ignores labels, but the name is kept because
    the benchmark pins it (a sample that is a member on its own labels
    would be counted here too); out_of_range_inconsistent counts the true
    violations of the label-bound control: a sample that is a member on its
    own labels, or one certified with the identity table or whose canonical
    relabeling is not a member.
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


def _equivalence_sweep(family: str, bases, **samples) -> EquivalenceSweep:
    """Every spanning subgraph of the cover system's universe over each
    base, at k the base's order, each as a mask (bit t: universe edge t):
    the cover system's membership verdict against BFS certification of
    W = [k] on the composite.  ``samples`` are the out_of_range_* counters.

    The masks are read in aligned blocks, bit-sliced (Biham, A fast new
    DES implementation in software, FSE 1997): lane j of the block from
    ``start`` stands for the mask start + j, and only the lanes of masks
    in the space are set, all 2^16 of a block unless the universe has
    fewer than 16 edges.  Universe edge t lies in the lattices whose mask
    has bit t set: below bit 16 a fixed periodic pattern, from bit 16 on
    all lanes or none.  Membership is an AND over the constraints of an OR
    over their edges' lanes, found apart from the certifier, which never
    reads the cover system.
    """
    total = members = certified = mismatches = identity_violations = 0
    for base in bases:
        cs = cover_system(family, base.order, base)
        frame = _lane_frame(cs, base, cs.edges)
        space = 1 << len(cs.edges)
        total += space
        valid = (1 << min(space, 1 << _LANE_BITS)) - 1
        for start in range(0, space, 1 << _LANE_BITS):
            edge_lanes = [*_INDEX_BITS, *(_LANES * (start >> t & 1) for t in range(_LANE_BITS, len(cs.edges)))]
            member = valid
            for cm in cs.masks:
                hit = 0
                for t in _iter_bits(cm):
                    hit |= edge_lanes[t]
                member &= hit
            cert, identity = _cert_code_w_base(frame, edge_lanes, valid)
            members += member.bit_count()
            certified += cert.bit_count()
            mismatches += (member ^ cert).bit_count()
            identity_violations += (member & ~identity).bit_count()
    return EquivalenceSweep(total, members, certified, mismatches, identity_violations, **samples)


@lru_cache(maxsize=1)
def sweep_b_equivalence() -> EquivalenceSweep:
    """All 2 bases x 64 lattices on [2]^2: family membership must coincide
    with certification of W = [2] at radius 2, and members must resolve to
    their own labels."""
    return _equivalence_sweep("B", (base_null(2), base_complete(2)))


# -- criterion 2: radius-3 equivalence, exhaustive over the maximal lattice ---


@lru_cache(maxsize=1)
def sweep_c_equivalence() -> EquivalenceSweep:
    """All 2^20 spanning subgraphs of the maximal radius-3 lattice at k=2:
    membership must coincide with certification of W = [2], members must
    resolve to their own labels, and a fixed sample of lattices with an
    out-of-range edge must fail on both sides."""
    tested, failures, inconsistent = _out_of_gamma_samples()
    return _equivalence_sweep(
        "C",
        (base_null(2),),
        out_of_range_tested=tested,
        out_of_range_failures=failures,
        out_of_range_inconsistent=inconsistent,
    )


# bytes.translate table: "1" for a byte below 0x80, "0" for the others
_HIGH_BIT_CLEAR = bytes(b"01"[byte < 0x80] for byte in range(256))


def _coin_mask(rng: random.Random, width: int) -> int:
    """sum(1 << t for t in range(width) if rng.random() < 0.5), from the
    same stream in one getrandbits call (CPython 3.10 to 3.13).

    random() is (a * 2^26 + b) / 2^53, with a the top 27 bits of one 32-bit
    word of the generator and b the top 26 of the next, so it is below 0.5
    exactly when the first word is below 2^31.  getrandbits(64 width) takes
    the same 2 width words in order and puts word i at bit 32 i, so bit t is
    set when bit 7 of byte 8t + 3 of the little-endian draw is clear."""
    draw = rng.getrandbits(64 * width).to_bytes(8 * width, "little")
    return int(draw[3::8].translate(_HIGH_BIT_CLEAR)[::-1], 2)


def _out_of_gamma_samples() -> tuple[int, int, int]:
    """Uniform random [3]^2 lattices conditioned on containing an edge with
    a coordinate gap of two, as read off the vectors.

    Such a lattice is never a member on its own labels, and W = [2] never
    resolves its composite with every lattice vertex on its own label, but
    it may through a label permutation (out_of_range_counterexample()).  So
    the samples are certified in one lane batch (a disconnected composite,
    22 of the 1000, leaves a cell empty), and each certified lane counts in
    failures and must pass check_crs with a table and a lane that are not
    the identity and a relabeling inside the family, or it counts in
    inconsistent (a genuine bug).  A sample is tested when its mask meets the
    cover system's outside mask, the edges not in its universe.  The first
    _SUBSAMPLE samples and the certified ones also get a member_c report:
    they are tested only if it names a bad edge, and a member report counts
    in failures and inconsistent.  Returns (tested, failures, inconsistent).
    Each draw takes edge t with rng.random() < 0.5, in edge order, read in
    whole words of the generator (_coin_mask)."""
    rng = random.Random(SAMPLE_SEED)
    vecs = lattice_vertices(2, 3)
    all_edges = lattice_complete(2, 3).edges()
    pairs = [(u.vector, v.vector) for u, v in all_edges]  # type: ignore[union-attr]
    gap2 = sum(1 << t for t, (x, y) in enumerate(pairs) if max(abs(a - b) for a, b in zip(x, y)) == 2)
    cs = cover_system("C", 2)
    universe = set(cs.edges)
    outside = sum(1 << t for t, e in enumerate(all_edges) if e not in universe)
    masks = []
    for _ in range(OUT_OF_GAMMA_SAMPLES):
        while True:
            mask = _coin_mask(rng, len(all_edges))
            if mask & gap2:
                break
        masks.append(mask)
    certified, identities = _certify_masks(_lane_frame(cs, base_null(2), all_edges), masks)
    checked = sorted({*range(_SUBSAMPLE), *_iter_bits(certified)})
    tested = sum(mask & outside != 0 for j, mask in enumerate(masks) if j not in checked)
    failures = inconsistent = 0
    for j in checked:
        lattice = span_lattice(2, 3, [pairs[t] for t in _iter_bits(masks[j])])
        report = member_c(lattice)
        tested += masks[j] & outside != 0 and report.bad_edge is not None
        if report.member:
            failures += 1
            inconsistent += 1
            continue
        if not certified >> j & 1:
            continue
        failures += 1
        g = compose(base_null(2), lattice, 2, 3).materialize()
        try:
            res = check_crs(g, (BaseVertex(1), BaseVertex(2)))
        except DisconnectedGraph:
            res = None
        if not isinstance(res, CrsCertificate):
            inconsistent += 1  # the lane and check_crs disagree
            continue
        comp = canonical_relabel(g, res)
        relabel_member = member_c(comp.lattice).member
        identity = identities >> j & 1 or all(res.table[LatticeVertex(v)] == v for v in vecs)
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
    radius-3 sweep cannot be expected to hold for every sample.  Kept as
    the tests' regression anchor until the label orbit decides the
    out-of-range half exactly.
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


@lru_cache(maxsize=16)
def _w_splits(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(W, the rest) for every proper nonempty W of range(n), by W bit mask."""
    return tuple(
        (
            tuple(i for i in range(n) if wmask >> i & 1),
            tuple(i for i in range(n) if not wmask >> i & 1),
        )
        for wmask in range(1, (1 << n) - 1)
    )


def _raw_crs_scan(rows: list[list[int]], n: int):
    """Every proper nonempty W whose distance map is a bijection onto the
    full box, by direct definition; yields (w_tuple, k, m).

    An independent oracle, kept on purpose: it shares no pruning or code
    with the classifier in crslab.resolving, which the classification
    sweep checks against it."""
    for ws, rest in _w_splits(n):
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
            yield ws, k, mm


def _raw_dimension(rows: list[list[int]], n: int) -> int:
    """The metric dimension by direct definition: the smallest W whose
    distance vectors tell all outside vertices apart.

    An independent oracle, kept on purpose: the classification sweep checks
    metric_dimension and the dimension inequality against it.  It hashes
    each candidate's distance vectors, so it cross-checks the tie-mask
    kernel that metric_dimension searches with (``resolving._Distances``
    and ``resolving._first_basis``)."""
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


def _connected_classes(max_order: int):
    """Yield (n, {canonical adjacency: |Aut|}) for n = 1..max_order: one
    representative per isomorphism class of connected graphs of order n,
    as adjacency bit sets on range(n), and its automorphism group's order.

    Order n grows from order n - 1 by vertex augmentation: vertex n - 1
    joins a class with a nonempty neighbourhood, which reaches every
    connected graph (remove a leaf of a spanning tree).  Neighbourhoods
    that an automorphism maps onto each other give isomorphic graphs, so a
    class grows by one neighbourhood per orbit of its Aut on the subsets
    (333 graphs at order 6, not 651), as in McKay's canonical augmentation
    (J. Algorithms 26, 1998).  The duplicates left meet in one canonical form.
    """
    classes = {(0,): [(0,)]}
    yield 1, {(0,): 1}
    for n in range(2, max_order + 1):
        top = 1 << (n - 1)
        grown: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for adj, auts in classes.items():
            tried = bytearray(top)
            for nbrs in range(1, top):
                if tried[nbrs]:
                    continue
                members = list(_iter_bits(nbrs))
                for aut in auts:
                    tried[sum(1 << aut[v] for v in members)] = 1
                ext = [a | top if nbrs >> v & 1 else a for v, a in enumerate(adj)]
                canon, maps = _canonical_form(ext + [nbrs])
                grown[canon] = maps
        classes = grown
        yield n, {canon: len(auts) for canon, auts in classes.items()}


def _canonical_form(adj: list[int]) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """(canonical adjacency, Aut) of the graph on range(n) with adjacency
    bit sets ``adj``; an automorphism maps canonical position p to aut[p].

    Colour refinement (degree, then the multiset of neighbour colours,
    until the number of colours stops growing) splits the vertices into
    cells; colours are named in sorted order, so an isomorphism maps each
    cell onto the cell of the same colour.  A depth-first search lists the
    cells in colour order, each in any order.  Row p of an order's code is
    the set of earlier positions adjacent to its p-th vertex; codes compare
    row by row, and an order is dropped once its rows so far exceed the
    least code's.  The canonical adjacency is the full rows in the least
    order.  Two orders give one code exactly when they differ by an
    automorphism, which keeps the cells, so the orders tied with the least
    code (never dropped: the best so far is never below it) are one per
    automorphism, p -> the position of L[p] in the least order for tied L.
    """
    n = len(adj)
    nbrs = [list(_iter_bits(a)) for a in adj]
    colour = [len(ns) for ns in nbrs]
    count = len(set(colour))
    while True:
        sigs = [(colour[v], tuple(sorted(colour[u] for u in nbrs[v]))) for v in range(n)]
        ranked = sorted(set(sigs))
        if len(ranked) == count:
            break
        count = len(ranked)
        rank = {sig: c for c, sig in enumerate(ranked)}
        colour = [rank[sig] for sig in sigs]
    cells = [[v for v in range(n) if colour[v] == c] for c in sorted(set(colour))]
    slots = [cell for cell in cells for _ in cell]  # the cell of each position
    order, code, best = [0] * n, [0] * n, [0] * n
    seen = [0] * n  # the placed positions adjacent to each vertex
    ties: list[tuple[int, ...]] = []
    _place(0, True, 0, slots, nbrs, seen, code, order, best, ties)
    where = {v: p for p, v in enumerate(ties[0])}
    canon = tuple(sum(1 << where[u] for u in nbrs[v]) for v in ties[0])
    return canon, [tuple(where[v] for v in leaf) for leaf in ties]


def _place(p: int, below: bool, placed: int, slots, nbrs, seen, code, order, best, ties) -> None:
    """``_canonical_form``'s depth-first search from position p on: each
    vertex v of p's cell not yet ``placed`` goes to p, unless its row
    ``seen[v]`` already exceeds the least code's while the prefix ties.
    ``below``: code[:p] < best[:p], else equal.  A leaf below the least code
    so far replaces ``best`` and clears ``ties``; every leaf that ends up
    tied with it is appended to ``ties``.  A module-level function, not a
    closure over itself, so a search leaves no reference cycle behind."""
    if p == len(slots):
        if below:
            best[:] = code
            ties.clear()
        ties.append(tuple(order))
        return
    for v in slots[p]:
        if placed >> v & 1 or not below and seen[v] > best[p]:
            continue
        code[p], order[p] = seen[v], v
        for u in nbrs[v]:
            seen[u] |= 1 << p
        _place(p + 1, below or code[p] < best[p], placed | 1 << v, slots, nbrs, seen, code, order, best, ties)
        for u in nbrs[v]:
            seen[u] ^= 1 << p
        below = False  # a leaf under v made code[:p + 1] the best prefix


@lru_cache(maxsize=2)
def sweep_small_order(max_order: int = 6) -> SmallOrderSweep:
    """Every connected graph of order 2..max_order, cross-checked four ways:
    raw bijection scans vs is_path and is_completeness_resolvable, radius-1
    certificates vs universal_vertices, radius-2 certificates vs family
    relabeling, and the dimension/diameter counting inequality;
    metric_dimension is checked against the raw dimension on every class
    representative.

    The sweep sums over isomorphism classes: it checks one representative
    per class and adds its counts n!/|Aut| times, once per labeling.  Every
    check is invariant under relabeling, so each counter equals its sum
    over every connected labeled graph."""
    connected = successes = 0
    path_mism = universal_mism = verdict_mism = relabel_fail = 0
    m_big = dim_viol = dim_spot = 0
    for n, classes in _connected_classes(max_order):
        if n < 2:
            continue
        for canon, aut in classes.items():
            labelings = factorial(n) // aut
            adj = list(canon)
            rows = [bfs_levels(adj, s) for s in range(n)]
            g = plain_graph(n, [(i, j) for i in range(n) for j in _iter_bits(adj[i]) if i < j])
            connected += labelings

            found = list(_raw_crs_scan(rows, n))
            successes += labelings * len(found)
            has_k1 = any(k == 1 for _w, k, _m in found)
            has_m1 = any(m == 1 for _w, _k, m in found)
            if any(k >= 2 and m >= 4 for _w, k, m in found):
                m_big += labelings

            struct_path = is_path(g)
            struct_universal = bool(universal_vertices(g))
            if has_k1 != struct_path:
                path_mism += labelings
            if has_m1 != struct_universal:
                universal_mism += labelings

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
                verdict_mism += labelings

            if any(k == m == 2 for _w, k, m in found):
                relabel_fail += labelings * _relabel_failures(g, found)

            dim = _raw_dimension(rows, n)
            diam = max(max(r) for r in rows)
            if n > dim + diam ** dim:
                dim_viol += labelings
            if metric_dimension(g)[0] != dim:
                dim_spot += labelings
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


def _relabel_failures(g: Graph, found) -> int:
    """Certify both orders of each radius-2 W of ``found`` (raw scan
    certificates (w_tuple, k, m) on ``g``) with check_crs, relabel onto the
    canonical vertex sets, and count the orders that fail or whose relabel
    is not a family-B member.  Every certificate is relabeled, cross edges
    checked included."""
    failures = 0
    verts = g.vertices()
    for ws, k, m in found:
        if (k, m) != (2, 2):
            continue
        for order in (ws, ws[::-1]):
            cert = check_crs(g, tuple(verts[i] for i in order))
            if not isinstance(cert, CrsCertificate):
                failures += 1
                continue
            comp = canonical_relabel(g, cert)
            failures += not member_b(comp.base, comp.lattice).member
    return failures


# -- random family members for the closure properties -------------------------


@lru_cache(maxsize=64)
def _draw_table(
    family: str, k: int, base_bits: int
) -> tuple[Graph, CoverSystem, tuple[tuple[tuple[int, ...], int, int], ...], tuple[int, ...]]:
    """The base with edge t of base_complete(k) for each bit t of
    ``base_bits``, the family's cover system over it, each constraint's
    (hits, number of hits, its bit length) in constraint order, a hit
    being one bit per universe edge, and the bit of each universe edge."""
    base = base_null(k)
    if base_bits:
        pairs = base_complete(k).edges()
        base = Graph(base.vertices(), [pairs[t] for t in _iter_bits(base_bits)])
    cs = cover_system(family, k, base)
    draws = []
    for cm in cs.masks:
        hits = tuple(1 << t for t in _iter_bits(cm))
        draws.append((hits, len(hits), len(hits).bit_length()))
    return base, cs, tuple(draws), tuple(1 << b for b in range(len(cs.edges)))


def _random_member(rng: random.Random, family: str, k: int) -> tuple[int, CoverSystem, int]:
    """A seeded family member from the covering construction, as (base
    edge bits, cover system, lattice mask): for family B a random base
    first, then one random hit for every constraint in constraint order,
    then extras sprinkled over the universe.

    The stream is that of rng.randrange(n) for each hit and one
    rng.random() < 0.15 per universe edge, in edge order, with fewer
    Python-level steps: randrange(n) draws getrandbits(n.bit_length())
    until the draw is below n (CPython 3.10 to 3.13), done here inline
    with the bit length from the table, and the extras are one C-level
    pipeline over the edge bits."""
    draw = rng.random
    base_bits = 0
    if family == "B":
        for t in range(k * (k - 1) // 2):
            if draw() < 0.5:
                base_bits |= 1 << t
    _base, cs, draws, edge_bits = _draw_table(family, k, base_bits)
    getrandbits = rng.getrandbits
    mask = 0
    for hits, n, width in draws:
        r = getrandbits(width)
        while r >= n:
            r = getrandbits(width)
        mask |= hits[r]
    extras = map((0.15).__gt__, starmap(draw, repeat((), len(edge_bits))))
    return base_bits, cs, mask | sum(compress(edge_bits, extras))


def random_b_member(rng: random.Random, k: int) -> tuple[Graph, Graph]:
    """A seeded member of the radius-2 family: a random base and a lattice
    built from the covering construction.  Kept for the tests' seeded
    members until the single-edge neighbours replace the random draws."""
    base_bits, cs, mask = _random_member(rng, "B", k)
    return _draw_table("B", k, base_bits)[0], cs.graph(mask)


def random_c_member(rng: random.Random, k: int) -> Graph:
    """A seeded member of the radius-3 family from the covering
    construction, with extras sprinkled inside the maximal lattice.  Kept
    for the tests' seeded members until the single-edge neighbours replace
    the random draws."""
    _base_bits, cs, mask = _random_member(rng, "C", k)
    return cs.graph(mask)


@dataclass(frozen=True)
class PropertySweep:
    """Counters of the property suite.  The edge-choice sets are the
    private parts of the constraint masks (``CoverSystem.choice_masks``),
    so ``epsilon_overlaps`` counts overlapping private masks: only a wrong
    private rule makes it nonzero, as an edge offered at two choice points
    would be private to neither."""

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


def _is_member(family: str, k: int, base_bits: int, mask: int) -> bool:
    base, cs, _draws, _edge_bits = _draw_table(family, k, base_bits)
    lattice = cs.graph(mask)
    return (member_b(base, lattice) if family == "B" else member_c(lattice)).member


def _member_lanes(family: str, k: int, lattices: list[tuple[int, int]]) -> int:
    """Lane j is set iff W = [k] certifies the composite of lattices[j] =
    (base edge bits, lattice mask) with every distance vector on its own
    label: membership, by the equivalence that the equivalence sweeps
    check exhaustively at k = 2.  All lattices are one lane batch; for
    family B the base edges are lanes too, on W = vertices 0..k-1, since
    the base varies by lattice."""
    cs = cover_system(family, k)
    pairs = base_complete(k).edges() if family == "B" else []
    frame = _lane_frame(cs, base_null(k), [*cs.edges, *pairs])
    width = len(cs.edges)
    return _certify_masks(frame, [mask | bits << width for bits, mask in lattices])[1]


def _closure_violations(family: str, k: int, trials: list[tuple[tuple[int, int], ...]]) -> int:
    """The trials, each a tuple of (base edge bits, lattice mask), that
    hold a lattice outside the family: every lattice is decided on its
    lane, and those of the first _SUBSAMPLE trials by member_b / member_c
    as well, so the path that walks Graphs stays exercised."""
    members = _member_lanes(family, k, [lattice for trial in trials for lattice in trial])
    violations = lane = 0
    for n, trial in enumerate(trials):
        full = (1 << len(trial)) - 1
        bad = members >> lane & full != full
        if n < _SUBSAMPLE:
            bad |= not all(_is_member(family, k, *lattice) for lattice in trial)
        violations += bad
        lane += len(trial)
    return violations


def _upset_trial(rng: random.Random, family: str, k: int) -> tuple[tuple[int, int], ...]:
    """A seeded member, as (base edge bits, lattice mask), and the member
    with one random edge added to the lattice or, for family B, the base,
    unless it has every edge already.  The edges not yet in are one mask,
    the lattice's bits first and the base's shifted past the universe, and
    the pick is its set bit number rng.randrange(popcount): the element
    that same draw picks from the list of those edges in that order."""
    base_bits, cs, mask = _random_member(rng, family, k)
    width = len(cs.edges)
    universe = (1 << width) - 1
    missing = ~mask & universe
    if family == "B":
        missing |= (~base_bits & (1 << k * (k - 1) // 2) - 1) << width
    if not missing:
        return ((base_bits, mask),)
    for _ in range(rng.randrange(missing.bit_count())):
        missing &= missing - 1  # skip the lowest edge not yet in
    add = missing & -missing
    return (base_bits, mask), (base_bits | add >> width, mask | add & universe)


@lru_cache(maxsize=1)
def sweep_properties() -> PropertySweep:
    """Seeded add-an-edge and union closure trials on random members at
    k = 2 and 3, exhaustive disjointness of the edge-choice sets, plus the
    counting facts carried by the small-order sweep.  The trials of one
    kind, family and k are certified as one lane batch."""
    rng = random.Random(SAMPLE_SEED)
    trials_per_case = CLOSURE_TRIALS // 4  # two families x two k values
    upset_viol = 0
    for k in (2, 3):
        for family in ("B", "C"):
            trials = [_upset_trial(rng, family, k) for _ in range(trials_per_case)]
            upset_viol += _closure_violations(family, k, trials)

    union_viol = 0
    for k in (2, 3):
        for family in ("B", "C"):
            trials = []
            for _ in range(trials_per_case):
                b1, _cs, m1 = _random_member(rng, family, k)
                b2, _cs, m2 = _random_member(rng, family, k)
                trials.append(((b1 | b2, m1 | m2),))
            union_viol += _closure_violations(family, k, trials)

    facts = [_choice_set_facts(k) for k in (2, 3)]

    small = sweep_small_order(6)
    return PropertySweep(
        upset_trials=4 * trials_per_case,
        upset_violations=upset_viol,
        union_trials=4 * trials_per_case,
        union_violations=union_viol,
        epsilon_pairs_checked=sum(pairs for _n, pairs, _overlapping, _empty in facts),
        epsilon_overlaps=sum(overlapping for _n, _pairs, overlapping, _empty in facts),
        m_at_least_4=small.m_at_least_4,
        dimension_inequality_violations=small.dimension_inequality_violations,
    )


# -- criterion 3: size identities --------------------------------------------


def check_size_identities() -> list[str]:
    """Integer-exact size identities for k = 2..4, and the three facts that
    give every maximum-size minimal lattice at k = 2, 3 its bounds_c(k)[1]
    edges (see ``_choice_set_facts``).  Returns the list of violated
    identities (empty = pass)."""
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
    for k in (2, 3):
        points, _pairs, overlapping, empty = _choice_set_facts(k)
        if (points, overlapping, empty) != (bounds_c(k)[1], 0, 0):
            bad.append(
                f"q{k} choice sets: {points} points (want {bounds_c(k)[1]}), "
                f"{overlapping} overlapping pairs, {empty} empty sets"
            )
    return bad


def _choice_set_facts(k: int) -> tuple[int, int, int, int]:
    """(points, pairs, overlapping pairs, empty sets) of the edge-choice
    sets at k, read from ``CoverSystem.choice_masks``, the private parts of
    the constraint masks that choice tuples are built from.

    One edge from each of N nonempty, pairwise-disjoint sets always gives N
    distinct edges.  So every choice tuple spans a lattice of
    bounds_c(k)[1] edges exactly when no set is empty, no two overlap and
    there are bounds_c(k)[1] points.  (An empty set leaves no tuple at all,
    so a count over the tuples alone cannot see it.)"""
    sets = cover_system("C", k).choice_masks
    n = len(sets)
    overlapping = sum(bool(sets[a] & sets[b]) for a in range(n) for b in range(a + 1, n))
    return n, n * (n - 1) // 2, overlapping, sets.count(0)


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


def check_minimal_enumeration() -> list[str]:
    bad = []
    emc = enumerate_minimal("C", 2)
    t2 = example_graph("T", 2)
    five = [g for g in emc if g.size == 5]
    if five != [t2]:
        bad.append(f"size-5 stratum has {len(five)} graphs")
    ten = [g for g in emc if g.size == 10]
    cs = cover_system("C", 2)
    choices = [[1 << b for b in _iter_bits(mask)] for mask in cs.choice_masks]
    tuples = [cs.graph(reduce(or_, picks)) for picks in product(*choices)]
    # the stratum's graphs are distinct, so equal lengths and sets mean one tuple each
    if len(tuples) != len(ten) or set(tuples) != set(ten):
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


def _run_b() -> tuple[bool, str]:
    r = sweep_b_equivalence()
    return r.ok, f"{r.total} composites, {r.members} members, {r.mismatches} mismatches"


def _run_c() -> tuple[bool, str]:
    r = sweep_c_equivalence()
    detail = (
        f"{r.total} lattices, {r.members} members, {r.mismatches} mismatches, "
        f"{r.out_of_range_failures}/{r.out_of_range_tested} certified out-of-range samples"
    )
    if r.out_of_range_failures and not r.out_of_range_inconsistent:
        detail += " (known negative-control gap, see README)"
    return r.ok, detail


def _run_check(check, passed: str) -> tuple[bool, str]:
    """A suite of one check, which lists what it finds wrong."""
    bad = check()
    return not bad, "; ".join(bad) if bad else passed


def _run_identity() -> tuple[bool, str]:
    rb = sweep_b_equivalence()
    rc = sweep_c_equivalence()
    viol = rb.identity_violations + rc.identity_violations
    return viol == 0, f"{viol} members with distance vector != label"


def _run_classification() -> tuple[bool, str]:
    r = sweep_small_order(6)
    return (
        r.ok,
        f"{r.connected_graphs} connected graphs, {r.crs_successes} certificates, "
        f"{r.verdict_mismatches} verdict mismatches, {r.relabel_failures} relabel failures",
    )


def _run_properties() -> tuple[bool, str]:
    r = sweep_properties()
    return (
        r.ok,
        f"{r.upset_violations} up-set violations, {r.union_violations} union violations, "
        f"{r.epsilon_overlaps} choice-set overlaps, {r.m_at_least_4} radius>=4 certificates "
        "(zero by counting below order 18; tests/test_resolving.py::TestRadiusFour checks [4]^2)",
    )


SUITES = {
    "b-equivalence": _run_b,
    "c-equivalence": _run_c,
    "sizes": lambda: _run_check(
        check_size_identities, "all size identities hold for k=2..4, choice sets nonempty and disjoint at k=2,3"
    ),
    "minimal": lambda: _run_check(check_minimal_enumeration, "strata match the characterized extremes"),
    "distance-identity": _run_identity,
    "diameters": lambda: _run_check(check_diameters, "diameters 2,3,3,4,5 as expected"),
    "classification": _run_classification,
    "properties": _run_properties,
    "tightness": lambda: _run_check(check_tightness, "structural tightness matches raw counts"),
}

SUITE_ORDER = list(SUITES)


def run_suite(name: str, jobs: int = 1) -> list[SuiteResult]:
    """Run one named suite, or all of them in order.

    ``jobs`` is ignored: every suite runs in this process.  It is still
    accepted because the benchmark harness (``perfbench/run.py``) calls
    ``run_suite(name, jobs=1)``; a TypeError there would count every suite
    as a failed operation."""
    names = SUITE_ORDER if name == "all" else [name]
    results = []
    for suite_name in names:
        if suite_name not in SUITES:
            raise KeyError(suite_name)
        start = time.monotonic()
        passed, detail = SUITES[suite_name]()
        results.append(
            SuiteResult(
                name=suite_name,
                passed=passed,
                detail=detail,
                seconds=time.monotonic() - start,
            )
        )
    return results
