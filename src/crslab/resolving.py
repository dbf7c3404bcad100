"""Resolving sets, completeness-resolving certificates, and the
classification of completeness-resolvable graphs.

A vertex set W resolves a connected graph when the map sending each outside
vertex to its vector of hop counts toward W is injective; W is
completeness-resolving when that map is a bijection onto the full box
[m(W)]^|W|, where m(W) is the largest W-to-outside distance.  Certificates
returned here carry the whole bijection table so downstream relabeling can
re-check them edge by edge; the table holds positions, the outside vertex of
each box cell in box order, and makes labels only when it is read as a dict.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, product
from operator import and_

from .errors import (
    DisconnectedGraph,
    InvalidW,
    OrderCapExceeded,
)
from .graph import (
    Graph,
    LatticeVector,
    Vertex,
    _iter_bits,
    bfs_frontiers,
)

#: Default largest order searched exhaustively by the subset-scanning ops.
DEFAULT_ORDER_CAP = 12

#: Largest order whose tie masks are built through ``_spread``'s table of
#: 2^n entries.
_SPREAD_ORDER = 12

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
    is a bijection onto [m_of_w]^len(w_order).  A certificate found here
    holds a read-only ``_BoxTable``; any other mapping, such as a dict,
    may be given, and is read as it is.
    """

    w_order: tuple[Vertex, ...]
    m_of_w: int
    table: Mapping[Vertex, LatticeVector]

    def rows(self) -> list[tuple[Vertex, LatticeVector]]:
        """Table entries sorted by vector, the serialization order: a box
        table's own order, any other table's entries sorted."""
        table = self.table
        if type(table) is _BoxTable:
            return table.rows()
        return sorted(table.items(), key=lambda kv: kv[1])

    def __bool__(self) -> bool:
        return True


class _BoxTable(Mapping):
    """Psi_W on positions, as ``_bijection`` finds it: the graph's label
    tuple ``verts``, W's positions ``w_idx``, and ``outside``, the position
    of the outside vertex in each cell of [m]^|W|, in box (lexicographic)
    order.  As a mapping it is the dict {verts[u]: x}, in box order, built
    on its first read; ``len``, ``rows`` and ``positions``, which
    ``families.canonical_relabel`` reads, need no dict."""

    __slots__ = ("verts", "w_idx", "m", "outside", "_labels")

    def __init__(self, verts: tuple[Vertex, ...], w_idx, m: int, outside: list[int]):
        self.verts, self.w_idx, self.m, self.outside = verts, w_idx, m, outside
        self._labels: dict[Vertex, LatticeVector] | None = None

    def rows(self) -> list[tuple[Vertex, LatticeVector]]:
        """(label, vector) in box order, which is vector order."""
        return list(zip(map(self.verts.__getitem__, self.outside), _box(self.m, len(self.w_idx))))

    def positions(self, verts: tuple[Vertex, ...], w_order: tuple[Vertex, ...], m: int):
        """(W's positions, the outside position of each cell) when the table
        is over the labels ``verts``, for the ordered W ``w_order`` and the
        radius m; else None."""
        if (self.m == m and (self.verts is verts or self.verts == verts)
                and tuple(map(verts.__getitem__, self.w_idx)) == w_order):
            return self.w_idx, self.outside
        return None

    def _dict(self) -> dict[Vertex, LatticeVector]:
        if self._labels is None:
            self._labels = dict(self.rows())
        return self._labels

    def __getitem__(self, v: Vertex) -> LatticeVector:
        return self._dict()[v]

    def __iter__(self):
        return iter(self._dict())

    def __len__(self) -> int:
        return len(self.outside)

    def __repr__(self) -> str:
        return repr(self._dict())


@lru_cache(maxsize=64)
def _box(m: int, k: int) -> tuple[LatticeVector, ...]:
    """The vectors of [m]^k in box order, which is lexicographic order."""
    return tuple(product(range(1, m + 1), repeat=k))


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


def _w_levels(g: Graph, w) -> tuple[list[int], list[list[int]], int]:
    """The positions of a checked W, their BFS level masks, and the mask of
    the outside positions; raises if any outside vertex is unreachable from
    any W vertex, that is, if the graph is disconnected, so the first W
    vertex's levels tell.  The levels are the cached record's when
    ``_table`` has built one for the graph; otherwise one BFS runs per W
    vertex, and no record is built."""
    members = list(w)
    if not members:
        raise InvalidW("W must be nonempty")
    # distinct labels have distinct positions, so the labels are checked
    # only when a position is missing or repeated
    w_idx = list(map(g._index.get, members))
    if None in w_idx or len(set(w_idx)) != len(w_idx):
        if len(set(members)) != len(members):
            raise InvalidW("W has repeated vertices")
        raise InvalidW(f"W contains {members[w_idx.index(None)]!r}, which is not a vertex")
    n = g.order
    if len(members) >= n:
        raise InvalidW("W must be a proper subset of the vertex set")
    dist = _distances.get(g)
    if dist is not None:
        levels = list(map(dist.frontiers.__getitem__, w_idx))
    else:
        levels = [bfs_frontiers(g._adj, i) for i in w_idx]
    if sum(map(int.bit_count, levels[0])) < n:
        raise DisconnectedGraph("some vertex is unreachable from W")
    rest_mask = (1 << n) - 1
    for i in w_idx:
        rest_mask ^= 1 << i
    return w_idx, levels, rest_mask


@lru_cache(maxsize=None)
def _spread(n: int) -> list[int]:
    """The table that sends each n-bit mask L to the mask with bit u*n set
    for each bit u of L: ``_spread(n)[L] * L`` is L shifted to the block of
    each of its own bits.  The record reads it only up to ``_SPREAD_ORDER``."""
    table = [0]
    for u in range(n):
        bit = 1 << u * n
        table += [t | bit for t in table]
    return table


class _Distances(dict):
    """A connected graph's labels ``verts``, adjacency rows ``adj``, the
    BFS ``frontiers`` of each vertex (level masks, one BFS per vertex), each
    vertex's eccentricity ``ecc`` (its last level) and degree ``deg`` (the
    popcount of its row), and, keyed by position, each vertex's tie mask,
    built from its frontiers on first lookup.  The searches test W on the
    tie masks, and ``_bijection`` certifies W on its frontiers.  The record
    also computes the graph's classification ``verdict`` and its
    ``dimension`` on first use, so the entry points share one search of
    each.  ``_table`` builds one record per graph and keeps the last few in
    ``_distances``, where ``check_crs`` and ``is_resolving_set`` read W's
    frontiers too; every caller shares the record, so no caller may mutate
    it.

    Bit u*n + v of the tie mask of w is set iff d(w, u) = d(w, v): for each
    level L of w, L shifted to the block of each of its own vertices u.  At
    orders up to ``_SPREAD_ORDER`` that is one lookup and one multiply per
    level, ``_spread(n)[L] * L``; the table has 2^n entries, so above that
    order the mask is built by one shift per vertex.  A vertex set W
    resolves iff the AND of its masks is ``diagonal``, the bits u*n + u:
    only then do all n vertices get distinct vectors toward W (a W vertex's
    own level is {w}).  A mask holds n^2 bits, so a mask is built only when
    a search first reads it: all n masks of a 600-vertex cycle take n^3/8
    bytes, 27 MB, and its dimension search reads two of them.  Masks, the
    verdict and the dimension are read only once ``_table`` has found the
    graph connected.
    """

    def __init__(self, g: Graph):
        super().__init__()
        self.adj = adj = g.adjacency_masks()
        self.verts = g.vertices()
        self.frontiers = frontiers = [bfs_frontiers(adj, i) for i in range(g.order)]
        self.ecc = [len(levels) - 1 for levels in frontiers]
        self.deg = [a.bit_count() for a in adj]
        n = len(adj)
        self._spread = _spread(n) if n <= _SPREAD_ORDER else None
        self._verdict = self._dimension = None
        # bits 0, n+1, 2(n+1), ...: the sum of the first n powers of 2^(n+1)
        self.diagonal = ((1 << n * (n + 1)) - 1) // ((1 << n + 1) - 1)

    def __missing__(self, w: int) -> int:
        tie, spread = 0, self._spread
        if spread is not None:
            for level in self.frontiers[w]:
                tie |= spread[level] * level
        else:
            n = len(self.adj)
            for level in self.frontiers[w]:
                for u in _iter_bits(level):
                    tie |= level << u * n
        self[w] = tie
        return tie

    def resolves(self, w_idx) -> bool:
        """True iff the positions ``w_idx`` resolve the graph."""
        return reduce(and_, map(self.__getitem__, w_idx)) == self.diagonal

    # verdict and dimension are plain memos: functools.cached_property
    # takes a lock on each first access on CPython 3.11, about 1 us per graph

    @property
    def verdict(self) -> ClassificationVerdict:
        """The search behind ``is_completeness_resolvable``, run once."""
        if self._verdict is None:
            self._verdict = self._classify()
        return self._verdict

    @property
    def dimension(self) -> tuple[int, tuple[int, ...]]:
        """Minimum resolving-set size with the lexicographically first
        resolving positions at that size, searched once."""
        if self._dimension is None:
            self._dimension = self._search_dimension()
        return self._dimension

    def _classify(self) -> ClassificationVerdict:
        ecc, verts = self.ecc, self.verts
        n = len(verts)
        if n - 1 in ecc:
            return ClassificationVerdict(kind=PATH, witness=next(_pruned_certificates(self, (1,))))
        if 1 in ecc:
            u = ecc.index(1)
            w_idx = [w for w in range(n) if w != u]
            cert = _bijection(verts, w_idx, list(map(self.frontiers.__getitem__, w_idx)), 1 << u)
            return ClassificationVerdict(kind=UNIVERSAL_VERTEX, witness=cert)
        for cert in _pruned_certificates(self, range(2, n - 1)):
            kind = FAMILY_B if cert.m_of_w == 2 else FAMILY_C
            return ClassificationVerdict(kind=kind, k=len(cert.w_order), witness=cert)
        return ClassificationVerdict(kind=NOT_COMPLETENESS_RESOLVABLE)

    def _search_dimension(self) -> tuple[int, tuple[int, ...]]:
        """Each size is searched by ``_first_basis``, on the tie masks.  A
        resolving c-set gives the n - c outside vertices distinct vectors in
        [diam]^c, so n <= c + diam^c (Chartrand, Eroh, Johnson & Oellermann,
        Discrete Applied Mathematics 105, 2000); every size c with
        n - c > diam^c is skipped unscanned.  Any n - 1 vertices resolve, so
        size n - 1 is not scanned either: its first basis is 0 .. n-2, and
        the masks of a complete graph, whose dimension it is, are never
        built."""
        n, diam = len(self.verts), max(self.ecc)
        found = (_first_basis(self, c) for c in range(1, n - 1) if n - c <= diam ** c)
        basis = next(filter(None, found), tuple(range(n - 1)))
        return len(basis), basis


#: The records ``_table`` built last, by graph, oldest first; past
#: ``_RECORDS`` the oldest is dropped.  ``_w_levels`` reads W's levels here
#: but never builds a record: one per checked graph would cost more than
#: the BFS runs of W it saves.
_distances: OrderedDict[Graph, _Distances] = OrderedDict()
_RECORDS = 8


def _table(g: Graph, cap: int, disconnected: str) -> _Distances:
    """The per-graph distances for the subset-scanning operations, after
    the order cap, which is checked on every call before the cache is read;
    raises DisconnectedGraph(disconnected) on a disconnected graph."""
    n = g.order
    if n > cap:
        raise OrderCapExceeded(f"order {n} exceeds the cap {cap}")
    dist = _distances.get(g)
    if dist is None:
        if len(_distances) >= _RECORDS:
            _distances.popitem(last=False)
        dist = _distances[g] = _Distances(g)
    if sum(map(int.bit_count, dist.frontiers[0])) < n:
        raise DisconnectedGraph(disconnected)
    return dist


def _bijection(verts, w_idx, levels, rest_mask) -> CrsCertificate | CrsFailure:
    """The bijection test behind every certificate, on BFS level masks.

    ``levels[i]`` holds the level masks of W's position ``w_idx[i]``, level
    d at index d, and ``rest_mask`` the outside positions.  m(W) is the
    deepest level of any W vertex that meets ``rest_mask``.  Psi_W sends an
    outside vertex to x iff it lies in the cell of x, ``rest_mask`` ANDed
    with level x_i of each w_i, so the m^|W| cells, built in box order,
    split the outside.  Returns the certificate of W when Psi_W is a
    bijection onto [m(W)]^|W|, else the failure ``check_crs`` describes,
    worded where it is found.  With the counts equal, Psi_W is a bijection
    iff no cell is empty, and then each holds one vertex; otherwise some
    cell holds two, and a scan of the outside positions in order first
    meets a seen vector at the smallest second-lowest bit of any cell,
    which it names after that cell's lowest.  An injective map with the
    matching count is onto, so there is no third reason.
    """
    m, k = 0, len(w_idx)
    for lv in levels:
        d = len(lv) - 1
        while not lv[d] & rest_mask:
            d -= 1
        if d > m:
            m = d
    outside = rest_mask.bit_count()
    if m ** k != outside:
        return CrsFailure(CARDINALITY_MISMATCH, f"|V|-|W| = {outside} but m(W)^|W| = {m}^{k} = {m ** k}")
    cells = [rest_mask]
    for lv in levels:
        box = lv[1:m + 1]
        if len(box) < m:
            box += [0] * (m - len(box))  # no vertex lies past the last level
        cells = [c & level for c in cells for level in box]
    if all(cells):
        return CrsCertificate(
            w_order=tuple(map(verts.__getitem__, w_idx)),
            m_of_w=m,
            table=_BoxTable(verts, w_idx, m, [c.bit_length() - 1 for c in cells]),
        )
    b, a, vec = min(((t & -t).bit_length() - 1, (c & -c).bit_length() - 1, vec)
                    for c, vec in zip(cells, _box(m, k)) if (t := c & c - 1))
    return CrsFailure(NOT_INJECTIVE, f"{verts[a]!r} and {verts[b]!r} share the vector {vec}")


def is_resolving_set(g: Graph, w) -> bool:
    """True iff distance vectors toward W distinguish all outside vertices.

    The vertex set is split by each W vertex's levels in turn; W resolves
    iff every part ends up a single vertex.  A W vertex's own vector is the
    only one with a zero at its own coordinate, so the count may run over
    every vertex."""
    _w_idx, levels, _rest = _w_levels(g, w)
    parts = [(1 << g.order) - 1]
    for lv in levels:
        parts = [part for p in parts for level in lv if (part := p & level)]
    return len(parts) == g.order


def check_crs(g: Graph, w_order) -> CrsCertificate | CrsFailure:
    """Certify the ordered W as completeness-resolving, or say why not.

    Failure reasons, checked in order: the outside-vertex count differs
    from m(W)^|W| (the cheap shortcut), or two outside vertices share a
    vector.
    """
    return _bijection(g.vertices(), *_w_levels(g, w_order))


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


def _pruned_certificates(dist, sizes):
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
    still builds and checks every certificate returned, and the
    ``CrsFailure`` of each W it rejects is dropped.  (One outside vertex is
    always told apart, and a singleton W is cheaper to test by its levels.)"""
    verts, adj, deg, frontiers = dist.verts, dist.adj, dist.deg, dist.frontiers
    n = len(verts)
    full = (1 << n) - 1
    for k in sizes:
        m_implied = _implied_radius(n - k, k)
        if m_implied is None:
            continue
        low = m_implied ** (k - 1)
        high = low if m_implied == 3 else low + k - 1
        candidates = [v for v in range(n) if low <= deg[v] <= high]
        for combo in combinations(candidates, k):
            if m_implied == 3 and any(adj[a] >> b & 1 for a, b in combinations(combo, 2)):
                continue
            if 1 < k < n - 1 and not dist.resolves(combo):
                continue
            rest_mask = full
            for w in combo:
                rest_mask ^= 1 << w
            res = _bijection(verts, combo, list(map(frontiers.__getitem__, combo)), rest_mask)
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
    Kept for the tests: they check it against a brute-force scan, and the
    resolving golden file pins its certificates.
    """
    dist = _table(g, cap, "the graph is disconnected")
    return [(c.w_order, c) for c in _pruned_certificates(dist, range(1, g.order))]


def is_completeness_resolvable(g: Graph, cap: int = DEFAULT_ORDER_CAP) -> ClassificationVerdict:
    """Classify the graph: a path, a graph with a universal vertex, a
    radius-2 family member (with witness |W| = k), a radius-3 family
    member, or not completeness-resolvable at all.

    A vertex of eccentricity n-1 is a path endpoint (its BFS levels are
    singletons) and one of eccentricity 1 is universal; otherwise the
    search runs at |W| = 2..n-2, where radius 1 cannot occur.  No
    isomorphism search is involved: a certificate with radius 2 or 3
    already places the graph in the corresponding family via relabeling.
    The verdict is computed once per graph and shared by every caller; its
    certificate's ``table`` is read-only.
    """
    return _table(g, cap, "classification needs a connected graph").verdict


def _first_basis(dist: _Distances, c: int) -> tuple[int, ...] | None:
    """The first c positions in combination order whose tie masks AND to
    the diagonal, or None.  The combinations are walked depth first, so each
    prefix's AND is taken once and carried to all of its extensions."""
    return _extend(dist, len(dist.verts) - c + 1, c - 1, 0, (), -1)


def _extend(dist: _Distances, slack: int, last: int, start: int, prefix: tuple[int, ...], acc: int):
    """``_first_basis``'s search below ``prefix``, whose tie masks AND to
    ``acc``: the next position runs from ``start`` up to, not including,
    ``slack + len(prefix)``, and the one at index ``last`` ends a basis.  A
    module-level function, not a closure over itself, so a search leaves no
    reference cycle behind."""
    stop = slack + len(prefix)
    if len(prefix) == last:
        diagonal = dist.diagonal
        for w in range(start, stop):
            if acc & dist[w] == diagonal:
                return (*prefix, w)
        return None
    for w in range(start, stop):
        found = _extend(dist, slack, last, w + 1, (*prefix, w), acc & dist[w])
        if found:
            return found
    return None


def metric_dimension(g: Graph, cap: int = DEFAULT_ORDER_CAP) -> tuple[int, tuple[Vertex, ...]]:
    """Minimum resolving-set size with the lexicographically first witness
    at that size."""
    dist = _table(g, cap, "metric dimension needs a connected graph")
    dim, combo = dist.dimension
    return dim, tuple(dist.verts[i] for i in combo)


def is_perfectness_resolvable(g: Graph, cap: int = DEFAULT_ORDER_CAP) -> bool:
    """True iff some minimum-size resolving set is completeness-resolving.

    A completeness-resolving set's map is a bijection, so the set resolves:
    each has at least dim(G) vertices, and the graph is perfect iff the
    smallest has exactly dim(G).  Once the graph is classified, that is read
    off the verdict.  A size-1 set is a path endpoint, and a size n-1 set
    leaves one outside vertex, adjacent to all of W: a universal vertex.  So
    the witness of a path (size 1) and of a family (from the complete pruned
    search over sizes 2..n-2, by increasing size) is a smallest set, and a
    graph with no witness is not perfect.  A universal vertex's witness has
    size n-1 and a smaller set may exist.  So for a universal-vertex graph
    with dim(G) < n-1, and for a graph not yet classified, one pruned search
    runs at |W| = dim(G) instead.
    """
    dist = _table(g, cap, "metric dimension needs a connected graph")
    verdict, dim = dist._verdict, dist.dimension[0]
    if verdict is None or (verdict.kind == UNIVERSAL_VERTEX and dim < g.order - 1):
        return next(_pruned_certificates(dist, (dim,)), None) is not None
    return verdict.witness is not None and len(verdict.witness.w_order) == dim
