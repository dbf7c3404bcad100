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
from functools import lru_cache, reduce
from itertools import combinations
from operator import and_

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


class _Distances(dict):
    """A connected graph's all-pairs hop-count ``rows`` and, keyed by
    position, each vertex's tie mask, built from its row on first lookup.

    Bit u*n + v of the tie mask of w is set iff d(w, u) = d(w, v).  A vertex
    set W resolves iff the AND of its masks is ``diagonal``, the bits
    u*n + u: only then do all n vertices get distinct vectors toward W (a W
    vertex's own level is {w}), as in ``_injective``.  A mask holds n^2
    bits, so a mask is built only when a search first reads it: all n masks
    of a 600-vertex cycle take n^3/8 bytes, 27 MB, and its dimension search
    reads two of them.  Masks are read only once ``_table`` has found the
    graph connected.
    """

    def __init__(self, rows: list[list[int]]):
        super().__init__()
        self.rows = rows
        n = len(rows)
        # bits 0, n+1, 2(n+1), ...: the sum of the first n powers of 2^(n+1)
        self.diagonal = ((1 << n * (n + 1)) - 1) // ((1 << n + 1) - 1)

    def __missing__(self, w: int) -> int:
        row = self.rows[w]
        n = len(row)
        levels = [0] * (max(row) + 1)
        for v, d in enumerate(row):
            levels[d] |= 1 << v
        tie = 0
        for u, d in enumerate(row):
            tie |= levels[d] << u * n
        self[w] = tie
        return tie

    def resolves(self, w_idx) -> bool:
        """True iff the positions ``w_idx`` resolve the graph."""
        return reduce(and_, map(self.__getitem__, w_idx)) == self.diagonal


@lru_cache(maxsize=8)
def _distances(g: Graph) -> _Distances:
    """All-pairs hop-count rows, one BFS per vertex, and the tie masks read
    off them, built once per graph and shared by every caller, so no caller
    may mutate them.  The rows stay lists: tuples measured 0.75 MB more peak
    memory on a stream of small graphs, held in the interpreter's tuple free
    lists."""
    adj = g.adjacency_masks()
    return _Distances([bfs_levels(adj, i) for i in range(g.order)])


def _table(g: Graph, cap: int, disconnected: str) -> _Distances:
    """The per-graph distances for the subset-scanning operations, after
    the order cap, which is checked on every call before the cache is read;
    raises DisconnectedGraph(disconnected) on a disconnected graph."""
    n = g.order
    if n > cap:
        raise OrderCapExceeded(f"order {n} exceeds the cap {cap}")
    dist = _distances(g)
    if -1 in dist.rows[0]:
        raise DisconnectedGraph(disconnected)
    return dist


def _injective(w_rows: list[list[int]]) -> bool:
    """True iff the outside vertices have pairwise distinct vectors toward
    the W rows ``w_rows``.  Each W vertex's own vector is the only one with
    a zero, at its own coordinate, so the test may run over every vertex.
    Its one caller is ``is_resolving_set``, whose graph need not be
    connected; the searches test W on the tie masks of ``_Distances``."""
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
    adj = g.adjacency_masks()
    vec = []
    for v in w_list:
        d = bfs_levels(adj, g.index_of(v))[ui]
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


def _implied_radius(outside: int, k: int) -> int | None:
    """The only m that could make the outside count equal m^k, if any.

    Above k = 1 only m <= 3 can occur.  Let W = (w_1, ..., w_k) certify
    with radius m, so its distance map is onto [m]^k.  The outside vertex
    with vector (1, ..., 1) is adjacent to every w_i, so d(w_i, w_j) <= 2
    for i != j.  The one with x_i = m and x_j = 1 is adjacent to w_j, so
    m = d(w_i, x) <= d(w_j, w_i) + 1 <= 3."""
    if k == 1:
        return outside
    for m in (1, 2, 3):
        if outside == m ** k:
            return m
    return None


def _pruned_certificates(verts, dist, sizes):
    """Certificates of every unordered W with |W| in ``sizes``, by size,
    then in combination order, over the distances ``dist`` of a connected
    graph.

    Three prunings.  The outside count must equal m^|W| for the implied
    radius m (at most 3 above |W| = 1).  A bijection onto [m]^|W| sends
    exactly m^(|W|-1) outside vertices to vectors with a 1 at w's
    coordinate, so each w in W has m^(|W|-1) outside neighbours and at most
    |W|-1 inside ones: only vertices of degree m^(|W|-1) .. m^(|W|-1)+|W|-1
    are candidates, and the combinations run over them in position order,
    which keeps the combination order.  A radius-3 candidate must induce no
    edge inside W, so there the degree is exactly m^(|W|-1).  A W of two or
    more vertices with two or more outside vertices is dropped before
    ``_bijection`` unless its tie masks AND to the diagonal; ``_bijection``
    still builds and checks every certificate returned.  (One outside vertex
    is always told apart, and a singleton W is cheaper to test by its row.)"""
    rows_all = dist.rows
    n = len(verts)
    deg = [row.count(1) for row in rows_all]
    for k in sizes:
        m_implied = _implied_radius(n - k, k)
        if m_implied is None:
            continue
        low = m_implied ** (k - 1)
        high = low if m_implied == 3 else low + k - 1
        candidates = [v for v in range(n) if low <= deg[v] <= high]
        for combo in combinations(candidates, k):
            if m_implied == 3 and any(
                rows_all[a][b] == 1 for a, b in combinations(combo, 2)
            ):
                continue
            if 1 < k < n - 1 and not dist.resolves(combo):
                continue
            rest = [u for u in range(n) if u not in combo]
            res = _bijection(verts, combo, [rows_all[w] for w in combo], rest)
            if isinstance(res, CrsCertificate):
                yield res


def find_all_crs(g: Graph, cap: int = DEFAULT_ORDER_CAP) -> list[tuple[tuple[Vertex, ...], CrsCertificate]]:
    """Every completeness-resolving set of the graph, one certificate per
    unordered W in canonical coordinate order, sorted by size and then by
    label.

    One pruned search runs over every size |W| = 1..n-1: the outside count
    must match m^|W| (m = n-1 for a singleton, m in {1,2,3} above it), each
    W vertex needs m^(|W|-1) outside neighbours, and a radius-3 candidate
    must induce no edge inside W.  The singletons it certifies are the
    endpoints of a path, the only graph with a vertex of eccentricity n-1.
    Every coordinate order of a returned W is also completeness-resolving:
    permuting the table's coordinates keeps it a bijection onto the box.
    """
    dist = _table(g, cap, "the graph is disconnected")
    return [(c.w_order, c) for c in _pruned_certificates(g.vertices(), dist, range(1, g.order))]


def is_completeness_resolvable(g: Graph, cap: int = DEFAULT_ORDER_CAP) -> ClassificationVerdict:
    """Classify the graph: a path, a graph with a universal vertex, a
    radius-2 family member (with witness |W| = k), a radius-3 family
    member, or not completeness-resolvable at all.

    A vertex of eccentricity n-1 is a path endpoint (its BFS levels are
    singletons) and one of eccentricity 1 is universal; otherwise the
    search runs at |W| = 2..n-2, where radius 1 cannot occur.  No
    isomorphism search is involved: a certificate with radius 2 or 3
    already places the graph in the corresponding family via relabeling.
    """
    dist = _table(g, cap, "classification needs a connected graph")
    rows_all = dist.rows
    verts = g.vertices()
    n = len(verts)
    ecc = [max(row) for row in rows_all]
    if n - 1 in ecc:
        return ClassificationVerdict(kind=PATH, witness=next(_pruned_certificates(verts, dist, (1,))))
    if 1 in ecc:
        u = ecc.index(1)
        w_idx = [w for w in range(n) if w != u]
        cert = _bijection(verts, w_idx, [rows_all[w] for w in w_idx], [u])
        return ClassificationVerdict(kind=UNIVERSAL_VERTEX, witness=cert)
    for cert in _pruned_certificates(verts, dist, range(2, n - 1)):
        kind = FAMILY_B if cert.m_of_w == 2 else FAMILY_C
        return ClassificationVerdict(kind=kind, k=len(cert.w_order), witness=cert)
    return ClassificationVerdict(kind=NOT_COMPLETENESS_RESOLVABLE)


def _first_basis(dist: _Distances, c: int) -> tuple[int, ...] | None:
    """The first c positions in combination order whose tie masks AND to
    the diagonal, or None.  The combinations are walked depth first, so each
    prefix's AND is taken once and carried to all of its extensions."""
    n, diagonal = len(dist.rows), dist.diagonal

    def extend(start, prefix, acc):
        stop = n - c + len(prefix) + 1
        if len(prefix) == c - 1:
            for w in range(start, stop):
                if acc & dist[w] == diagonal:
                    return (*prefix, w)
            return None
        for w in range(start, stop):
            found = extend(w + 1, (*prefix, w), acc & dist[w])
            if found:
                return found
        return None

    return extend(0, (), -1)


@lru_cache(maxsize=8)
def _dimension(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Minimum resolving-set size with the lexicographically first
    resolving positions at that size, searched once per connected graph
    whose distances ``_table`` has checked.

    Each size is searched by ``_first_basis``, on the tie masks.  A
    resolving c-set gives the n - c outside vertices distinct vectors in
    [diam]^c, so n <= c + diam^c (Chartrand, Eroh, Johnson & Oellermann,
    Discrete Applied Mathematics 105, 2000); every size c with
    n - c > diam^c is skipped unscanned.  Any n - 1 vertices resolve, so
    size n - 1 is not scanned either: its first basis is 0 .. n-2, and the
    masks of a complete graph, whose dimension it is, are never built."""
    dist = _distances(g)
    n = len(dist.rows)
    diam = max(max(row) for row in dist.rows)
    for c in range(1, n - 1):
        if n - c > diam ** c:
            continue
        basis = _first_basis(dist, c)
        if basis is not None:
            return c, basis
    return n - 1, tuple(range(n - 1))


def metric_dimension(g: Graph, cap: int = DEFAULT_ORDER_CAP) -> tuple[int, tuple[Vertex, ...]]:
    """Minimum resolving-set size with the lexicographically first witness
    at that size."""
    _table(g, cap, "metric dimension needs a connected graph")
    dim, combo = _dimension(g)
    verts = g.vertices()
    return dim, tuple(verts[i] for i in combo)


def is_perfectness_resolvable(g: Graph, cap: int = DEFAULT_ORDER_CAP) -> bool:
    """True iff some minimum-size resolving set is completeness-resolving.

    The pruned certificate search runs at |W| = dim only.  Every
    completeness-resolving set resolves, so no separate resolving test is
    needed.
    """
    dist = _table(g, cap, "metric dimension needs a connected graph")
    dim, _combo = _dimension(g)
    return next(_pruned_certificates(g.vertices(), dist, (dim,)), None) is not None
