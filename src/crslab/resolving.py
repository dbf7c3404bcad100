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
from itertools import combinations, permutations

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


def _w_rows(g: Graph, w) -> tuple[list[int], list[list[int]], list[int]]:
    """The positions of a checked W, their hop-count rows, and the outside
    positions; raises if any outside vertex is unreachable from any W
    vertex."""
    w_idx = [g.index_of(v) for v in _check_w(g, w)]
    rest = [u for u in range(g.order) if u not in w_idx]
    adj = g.adjacency_masks()
    rows = [bfs_levels(adj, i) for i in w_idx]
    if any(row[u] < 0 for row in rows for u in rest):
        raise DisconnectedGraph("some vertex is unreachable from W")
    return w_idx, rows, rest


def _table(g: Graph, cap: int, disconnected: str) -> list[list[int]]:
    """All-pairs hop-count rows for the subset-scanning operations, after
    the order cap; raises DisconnectedGraph(disconnected) on a disconnected
    graph."""
    n = g.order
    if n > cap:
        raise OrderCapExceeded(f"order {n} exceeds the cap {cap}")
    adj = g.adjacency_masks()
    rows = [bfs_levels(adj, i) for i in range(n)]
    if -1 in rows[0]:
        raise DisconnectedGraph(disconnected)
    return rows


def _injective(w_rows: list[list[int]]) -> bool:
    """True iff the outside vertices have pairwise distinct vectors toward
    the W rows ``w_rows``.  Each W vertex's own vector is the only one with
    a zero, at its own coordinate, so the test may run over every vertex."""
    return len(set(zip(*w_rows))) == len(w_rows[0])


def _bijection(verts, w_idx, w_rows, rest):
    """The bijection test behind every certificate.

    Returns the certificate of W (positions ``w_idx`` with hop-count rows
    ``w_rows``) when the vectors of the outside positions ``rest`` form a
    bijection onto [m(W)]^|W|.  Otherwise returns the first obstruction,
    unformatted: (CARDINALITY_MISMATCH, m(W)) when the outside count differs
    from m(W)^|W| (the cheap shortcut), else (NOT_INJECTIVE, a, b, vector)
    for the first two outside positions sharing a vector.  An injective map
    with the matching count is onto, so there is no third case.
    """
    vecs = list(zip(*w_rows))
    m = max([max(vecs[u]) for u in rest])
    if m ** len(w_rows) != len(rest):
        return CARDINALITY_MISMATCH, m
    seen: dict[LatticeVector, int] = {}
    for u in rest:
        vec = vecs[u]
        if vec in seen:
            return NOT_INJECTIVE, seen[vec], u, vec
        seen[vec] = u
    return CrsCertificate(
        w_order=tuple(verts[w] for w in w_idx),
        m_of_w=m,
        table={verts[u]: vec for vec, u in seen.items()},
    )


def truncation_radius(g: Graph, w) -> int:
    """Largest distance from a W vertex to a vertex outside W."""
    _w_idx, rows, rest = _w_rows(g, w)
    return max(row[u] for row in rows for u in rest)


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
    _w_idx, rows, _rest = _w_rows(g, w)
    return _injective(rows)


def check_crs(g: Graph, w_order) -> CrsCertificate | CrsFailure:
    """Certify the ordered W as completeness-resolving, or say why not.

    Failure reasons, checked in order: the outside-vertex count differs
    from m(W)^|W| (the cheap shortcut), or two outside vertices share a
    vector.
    """
    w_idx, rows, rest = _w_rows(g, w_order)
    verts = g.vertices()
    res = _bijection(verts, w_idx, rows, rest)
    if isinstance(res, CrsCertificate):
        return res
    if res[0] == CARDINALITY_MISMATCH:
        m, k = res[1], len(w_idx)
        return CrsFailure(
            CARDINALITY_MISMATCH,
            f"|V|-|W| = {len(rest)} but m(W)^|W| = {m}^{k} = {m ** k}",
        )
    _reason, a, b, vec = res
    return CrsFailure(NOT_INJECTIVE, f"{verts[a]!r} and {verts[b]!r} share the vector {vec}")


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


def _path_certificates(g: Graph, rows_all) -> list[CrsCertificate]:
    """The singleton certificates, which exist only for paths: one at each
    endpoint, in canonical order."""
    if not is_path(g):
        return []
    verts = g.vertices()
    ends = [g.index_of(v) for v in path_endpoints(g)]
    return [
        _bijection(verts, (e,), [rows_all[e]], [u for u in range(len(verts)) if u != e])
        for e in ends
    ]


def _pruned_certificates(verts, rows_all, radii, sizes=None):
    """Certificates of every unordered W with |W| >= 2 (or |W| in
    ``sizes``), by size, then in combination order.  Two prunings: the
    outside count must equal m^|W| for a radius m in ``radii``, and a
    radius-3 candidate must induce no edge inside W."""
    n = len(verts)
    for k in range(2, n) if sizes is None else sizes:
        m_implied = _implied_radius(n - k, k)
        if m_implied not in radii:
            continue
        for combo in combinations(range(n), k):
            if m_implied == 3 and any(
                rows_all[a][b] == 1 for a, b in combinations(combo, 2)
            ):
                continue
            rest = [u for u in range(n) if u not in combo]
            res = _bijection(verts, combo, [rows_all[w] for w in combo], rest)
            if isinstance(res, CrsCertificate):
                yield res


def find_all_crs(g: Graph, cap: int = DEFAULT_ORDER_CAP) -> list[tuple[tuple[Vertex, ...], CrsCertificate]]:
    """Every ordered completeness-resolving tuple of the graph.

    Singleton W exists only for paths (their endpoints).  Larger W are
    searched by size with two prunings: the outside count must match m^|W|
    for some radius m in {1,2,3}, and a radius-3 candidate must induce no
    edge inside W.  Each unordered W is certified once and all coordinate
    orders of a valid W are emitted, since reordering coordinates preserves
    bijectivity.  The result is sorted canonically.
    """
    rows_all = _table(g, cap, "the graph is disconnected")
    out = [(cert.w_order, cert) for cert in _path_certificates(g, rows_all)]
    for cert in _pruned_certificates(g.vertices(), rows_all, (1, 2, 3)):
        for perm in permutations(cert.w_order):
            out.append((perm, _permuted_cert(cert, perm)))
    out.sort(key=lambda item: (len(item[0]), tuple(vertex_key(v) for v in item[0])))
    return out


def is_completeness_resolvable(g: Graph, cap: int = DEFAULT_ORDER_CAP) -> ClassificationVerdict:
    """Classify the graph: a path, a graph with a universal vertex, a
    radius-2 family member (with witness |W| = k), a radius-3 family
    member, or not completeness-resolvable at all.

    No isomorphism search is involved: a certificate with radius 2 or 3
    already places the graph in the corresponding family via relabeling.
    """
    rows_all = _table(g, cap, "classification needs a connected graph")
    verts = g.vertices()
    paths = _path_certificates(g, rows_all)
    if paths:
        return ClassificationVerdict(kind=PATH, witness=paths[0])
    universal = universal_vertices(g)
    if universal:
        u = g.index_of(universal[0])
        w_idx = [w for w in range(len(verts)) if w != u]
        cert = _bijection(verts, w_idx, [rows_all[w] for w in w_idx], [u])
        return ClassificationVerdict(kind=UNIVERSAL_VERTEX, witness=cert)
    # Radius 1 pairs with a universal vertex, handled above.
    for cert in _pruned_certificates(verts, rows_all, (2, 3)):
        kind = FAMILY_B if cert.m_of_w == 2 else FAMILY_C
        return ClassificationVerdict(kind=kind, k=len(cert.w_order), witness=cert)
    return ClassificationVerdict(kind=NOT_COMPLETENESS_RESOLVABLE)


def _dimension(rows_all) -> tuple[int, tuple[int, ...]]:
    """Minimum resolving-set size with the lexicographically first
    resolving positions at that size."""
    n = len(rows_all)
    for c in range(1, n):
        for combo in combinations(range(n), c):
            if _injective([rows_all[w] for w in combo]):
                return c, combo
    raise AssertionError("any n-1 vertices resolve; unreachable")


def metric_dimension(g: Graph, cap: int = DEFAULT_ORDER_CAP) -> tuple[int, tuple[Vertex, ...]]:
    """Minimum resolving-set size with the lexicographically first witness
    at that size."""
    rows_all = _table(g, cap, "metric dimension needs a connected graph")
    dim, combo = _dimension(rows_all)
    verts = g.vertices()
    return dim, tuple(verts[i] for i in combo)


def is_perfectness_resolvable(g: Graph, cap: int = DEFAULT_ORDER_CAP) -> bool:
    """True iff some minimum-size resolving set is completeness-resolving.

    Dimension 1 belongs to paths alone, whose endpoints certify; above it,
    the pruned certificate search runs at |W| = dim only.  Every
    completeness-resolving set resolves, so no separate resolving test is
    needed.
    """
    rows_all = _table(g, cap, "metric dimension needs a connected graph")
    dim, _combo = _dimension(rows_all)
    if dim == 1:
        return bool(_path_certificates(g, rows_all))
    certs = _pruned_certificates(g.vertices(), rows_all, (1, 2, 3), sizes=(dim,))
    return next(certs, None) is not None
