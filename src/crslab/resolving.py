"""Resolving sets, completeness-resolving certificates, and the
classification of completeness-resolvable graphs.

A vertex set W resolves a connected graph when the map sending each outside
vertex to its vector of hop counts toward W is injective; W is
completeness-resolving when that map is a bijection onto the full box
[m(W)]^|W|, where m(W) is the largest W-to-outside distance.  Certificates
returned here carry the whole bijection table so downstream relabeling can
re-check them edge by edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product

from .errors import (
    DisconnectedGraph,
    InvalidW,
    OrderCapExceeded,
    UnknownVertex,
    VertexInW,
)
from .graph import (
    Graph,
    LatticeVector,
    Vertex,
    bfs_levels,
    is_path,
    path_endpoints,
    universal_vertices,
    vertex_key,
)

#: Default largest order searched exhaustively by the subset-scanning ops.
DEFAULT_ORDER_CAP = 12

CARDINALITY_MISMATCH = "cardinality-mismatch"
NOT_INJECTIVE = "not-injective"
NOT_SURJECTIVE = "not-surjective"

PATH = "path"
UNIVERSAL_VERTEX = "universal-vertex"
FAMILY_B = "family-b"
FAMILY_C = "family-c"
NOT_COMPLETENESS_RESOLVABLE = "not-completeness-resolvable"


@dataclass(frozen=True)
class CrsCertificate:
    """Witness that an ordered W completeness-resolves a graph.

    ``table`` maps every vertex outside W to its distance vector; the map
    is a bijection onto [m_of_w]^len(w_order).
    """

    w_order: tuple[Vertex, ...]
    m_of_w: int
    table: dict[Vertex, LatticeVector]

    def rows(self) -> list[tuple[Vertex, LatticeVector]]:
        """Table entries sorted by vector, the serialization order."""
        return sorted(self.table.items(), key=lambda kv: kv[1])

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class CrsFailure:
    """Why an ordered W is not completeness-resolving."""

    reason: str
    detail: str

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class ClassificationVerdict:
    """Outcome of the completeness-resolvability classification.

    ``kind`` is one of the module constants PATH, UNIVERSAL_VERTEX,
    FAMILY_B, FAMILY_C, NOT_COMPLETENESS_RESOLVABLE; ``k`` is the witness
    |W| for the two families.  A witness certificate is present exactly
    when the graph is completeness-resolvable.
    """

    kind: str
    k: int | None = None
    witness: CrsCertificate | None = None


def _check_w(g: Graph, w) -> list[Vertex]:
    members = list(w)
    if not members:
        raise InvalidW("W must be nonempty")
    if len(set(members)) != len(members):
        raise InvalidW("W has repeated vertices")
    for v in members:
        if not g.has_vertex(v):
            raise InvalidW(f"W contains {v!r}, which is not a vertex")
    if len(members) >= g.order:
        raise InvalidW("W must be a proper subset of the vertex set")
    return members


def _rows_for(g: Graph, w_list: list[Vertex]) -> list[list[int]]:
    """Hop-count rows from each W vertex; raises if any outside vertex is
    unreachable from any W vertex."""
    w_idx = {g.index_of(v) for v in w_list}
    rows = []
    for v in w_list:
        row = bfs_levels(g.adjacency_masks(), g.index_of(v))
        if any(d < 0 for i, d in enumerate(row) if i not in w_idx):
            raise DisconnectedGraph("some vertex is unreachable from W")
        rows.append(row)
    return rows


def truncation_radius(g: Graph, w) -> int:
    """Largest distance from a W vertex to a vertex outside W."""
    w_list = _check_w(g, w)
    rows = _rows_for(g, w_list)
    outside = [i for i, v in enumerate(g.vertices()) if v not in set(w_list)]
    return max(row[i] for row in rows for i in outside)


def resolve_vector(g: Graph, w_order, u: Vertex) -> LatticeVector:
    """Distance vector of ``u`` toward the ordered W."""
    w_list = _check_w(g, w_order)
    if not g.has_vertex(u):
        raise UnknownVertex(f"vertex {u!r} is not in the graph")
    if u in set(w_list):
        raise VertexInW(f"{u!r} lies inside W")
    ui = g.index_of(u)
    vec = []
    for v in w_list:
        d = bfs_levels(g.adjacency_masks(), g.index_of(v))[ui]
        if d < 0:
            raise DisconnectedGraph(f"{u!r} is unreachable from {v!r}")
        vec.append(d)
    return tuple(vec)


def is_resolving_set(g: Graph, w) -> bool:
    """True iff distance vectors toward W distinguish all outside vertices."""
    w_list = _check_w(g, w)
    rows = _rows_for(g, w_list)
    w_set = set(w_list)
    seen = set()
    for i, v in enumerate(g.vertices()):
        if v in w_set:
            continue
        vec = tuple(row[i] for row in rows)
        if vec in seen:
            return False
        seen.add(vec)
    return True


def check_crs(g: Graph, w_order) -> CrsCertificate | CrsFailure:
    """Certify the ordered W as completeness-resolving, or say why not.

    Failure reasons, checked in order: the outside-vertex count differs
    from m(W)^|W| (the cheap shortcut), two outside vertices share a
    vector, or the image misses a box vector.
    """
    w_list = _check_w(g, w_order)
    rows = _rows_for(g, w_list)
    w_set = set(w_list)
    k = len(w_list)
    outside = [(i, v) for i, v in enumerate(g.vertices()) if v not in w_set]
    m = max(row[i] for row in rows for i, _ in outside)
    if m ** k != len(outside):
        return CrsFailure(
            CARDINALITY_MISMATCH,
            f"|V|-|W| = {len(outside)} but m(W)^|W| = {m}^{k} = {m ** k}",
        )
    table: dict[Vertex, LatticeVector] = {}
    seen: dict[LatticeVector, Vertex] = {}
    for i, v in outside:
        vec = tuple(row[i] for row in rows)
        if vec in seen:
            return CrsFailure(NOT_INJECTIVE, f"{seen[vec]!r} and {v!r} share the vector {vec}")
        seen[vec] = v
        table[v] = vec
    # Injective with matching cardinality already forces surjectivity; the
    # explicit scan keeps the failure reason honest rather than assumed.
    if len(seen) != m ** k:  # pragma: no cover
        box = (tuple(v) for v in product(range(1, m + 1), repeat=k))
        missing = next(vec for vec in box if vec not in seen)
        return CrsFailure(NOT_SURJECTIVE, f"no vertex maps to {missing}")
    return CrsCertificate(w_order=tuple(w_list), m_of_w=m, table=table)


def _permuted_cert(cert: CrsCertificate, perm: tuple[Vertex, ...]) -> CrsCertificate:
    pos = [cert.w_order.index(p) for p in perm]
    table = {u: tuple(vec[p] for p in pos) for u, vec in cert.table.items()}
    return CrsCertificate(w_order=perm, m_of_w=cert.m_of_w, table=table)


def _implied_radius(outside: int, k: int) -> int | None:
    """The only m that could make the outside count equal m^k, if any."""
    for m in (1, 2, 3):
        if outside == m ** k:
            return m
    return None


def find_all_crs(g: Graph, cap: int = DEFAULT_ORDER_CAP) -> list[tuple[tuple[Vertex, ...], CrsCertificate]]:
    """Every ordered completeness-resolving tuple of the graph.

    Singleton W exists only for paths (their endpoints).  Larger W are
    searched by size with two prunings: the outside count must match m^|W|
    for some radius m in {1,2,3}, and a radius-3 candidate must induce no
    edge inside W.  Each unordered W is certified once and all coordinate
    orders of a valid W are emitted, since reordering coordinates preserves
    bijectivity.  The result is sorted canonically.
    """
    n = g.order
    if n > cap:
        raise OrderCapExceeded(f"order {n} exceeds the cap {cap}")
    verts = g.vertices()
    rows_all = [bfs_levels(g.adjacency_masks(), i) for i in range(n)]
    if any(d < 0 for d in rows_all[0]):
        raise DisconnectedGraph("the graph is disconnected")
    out: list[tuple[tuple[Vertex, ...], CrsCertificate]] = []
    if is_path(g):
        for w in path_endpoints(g):
            cert = check_crs(g, (w,))
            assert isinstance(cert, CrsCertificate)
            out.append(((w,), cert))
    for cert in _pruned_certificates(verts, rows_all, (1, 2, 3)):
        for perm in permutations(cert.w_order):
            out.append((perm, _permuted_cert(cert, perm)))
    out.sort(key=lambda item: (len(item[0]), tuple(vertex_key(v) for v in item[0])))
    return out


def _pruned_certificates(verts, rows_all, radii):
    """Certificates of every unordered W with |W| >= 2, by size, then in
    combination order.  Two prunings: the outside count must equal m^|W|
    for a radius m in ``radii``, and a radius-3 candidate must induce no
    edge inside W."""
    n = len(verts)
    for k in range(2, n):
        m_implied = _implied_radius(n - k, k)
        if m_implied not in radii:
            continue
        for combo in combinations(range(n), k):
            if m_implied == 3 and any(
                rows_all[a][b] == 1 for a, b in combinations(combo, 2)
            ):
                continue
            cert = _cert_from_rows(verts, rows_all, combo)
            if cert is not None:
                yield cert


def _cert_from_rows(verts, rows_all, combo) -> CrsCertificate | None:
    """Bijection test over precomputed all-pairs rows; no pruning inside."""
    k = len(combo)
    combo_set = set(combo)
    rest = [i for i in range(len(verts)) if i not in combo_set]
    m = 0
    for w in combo:
        row = rows_all[w]
        for u in rest:
            if row[u] > m:
                m = row[u]
    if m ** k != len(rest):
        return None
    seen = set()
    table = {}
    for u in rest:
        vec = tuple(rows_all[w][u] for w in combo)
        if vec in seen:
            return None
        seen.add(vec)
        table[verts[u]] = vec
    return CrsCertificate(
        w_order=tuple(verts[w] for w in combo), m_of_w=m, table=table
    )


def is_completeness_resolvable(g: Graph, cap: int = DEFAULT_ORDER_CAP) -> ClassificationVerdict:
    """Classify the graph: a path, a graph with a universal vertex, a
    radius-2 family member (with witness |W| = k), a radius-3 family
    member, or not completeness-resolvable at all.

    No isomorphism search is involved: a certificate with radius 2 or 3
    already places the graph in the corresponding family via relabeling.
    """
    n = g.order
    if n > cap:
        raise OrderCapExceeded(f"order {n} exceeds the cap {cap}")
    rows_all = [bfs_levels(g.adjacency_masks(), i) for i in range(n)]
    if any(d < 0 for d in rows_all[0]):
        raise DisconnectedGraph("classification needs a connected graph")
    verts = g.vertices()
    if is_path(g):
        w = path_endpoints(g)[0]
        cert = check_crs(g, (w,))
        assert isinstance(cert, CrsCertificate)
        return ClassificationVerdict(kind=PATH, witness=cert)
    universal = universal_vertices(g)
    if universal:
        u = universal[0]
        w_order = tuple(v for v in verts if v != u)
        cert = check_crs(g, w_order)
        assert isinstance(cert, CrsCertificate)
        return ClassificationVerdict(kind=UNIVERSAL_VERTEX, witness=cert)
    # Radius 1 pairs with a universal vertex, handled above.
    for cert in _pruned_certificates(verts, rows_all, (2, 3)):
        kind = FAMILY_B if cert.m_of_w == 2 else FAMILY_C
        return ClassificationVerdict(kind=kind, k=len(cert.w_order), witness=cert)
    return ClassificationVerdict(kind=NOT_COMPLETENESS_RESOLVABLE)


def metric_dimension(g: Graph, cap: int = DEFAULT_ORDER_CAP) -> tuple[int, tuple[Vertex, ...]]:
    """Minimum resolving-set size with the lexicographically first witness
    at that size."""
    n = g.order
    if n > cap:
        raise OrderCapExceeded(f"order {n} exceeds the cap {cap}")
    rows_all = [bfs_levels(g.adjacency_masks(), i) for i in range(n)]
    if any(d < 0 for d in rows_all[0]):
        raise DisconnectedGraph("metric dimension needs a connected graph")
    verts = g.vertices()
    for c in range(1, n):
        for combo in combinations(range(n), c):
            if _resolves(rows_all, combo, n):
                return c, tuple(verts[i] for i in combo)
    raise AssertionError("any n-1 vertices resolve; unreachable")


def _resolves(rows_all, combo, n) -> bool:
    combo_set = set(combo)
    seen = set()
    for u in range(n):
        if u in combo_set:
            continue
        vec = tuple(rows_all[w][u] for w in combo)
        if vec in seen:
            return False
        seen.add(vec)
    return True


def is_perfectness_resolvable(g: Graph, cap: int = DEFAULT_ORDER_CAP) -> bool:
    """True iff some minimum-size resolving set is completeness-resolving."""
    dim, _ = metric_dimension(g, cap=cap)
    n = g.order
    verts = g.vertices()
    rows_all = [bfs_levels(g.adjacency_masks(), i) for i in range(n)]
    for combo in combinations(range(n), dim):
        if not _resolves(rows_all, combo, n):
            continue
        if _cert_from_rows(verts, rows_all, combo) is not None:
            return True
    return False
