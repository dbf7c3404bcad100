"""Finite simple graphs with typed vertex labels.

Vertices carry one of three label kinds:

* ``BaseVertex(i)``    -- an element of [k], used for the base part of a
  composite graph;
* ``LatticeVertex(v)`` -- a vector in [m]^k, used for the lattice part;
* ``PlainVertex(n)``   -- an anonymous vertex, used for ordinary graphs
  (graph6 files, the small-order sweeps, ...).

Vertex identity is by label value.  All graphs are stored canonically:
vertices sorted under a fixed total order (base < lattice < plain, numeric
or lexicographic within each kind) and edges as sorted endpoint pairs, so
two graphs compare equal exactly when they have the same labeled vertices
and edges.  Adjacency is kept as one bit set (a Python int) per vertex over
the canonical vertex order; the exhaustive suites lean on this.

Graphs are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import (
    DisconnectedGraph,
    InvalidGraph,
    UnknownVertex,
    VertexSetMismatch,
)

LatticeVector = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class BaseVertex:
    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise InvalidGraph(f"base vertex index must be >= 1, got {self.index}")

    def __repr__(self) -> str:
        return f"b{self.index}"


@dataclass(frozen=True, slots=True)
class LatticeVertex:
    vector: LatticeVector

    def __post_init__(self) -> None:
        if not self.vector or any(c < 1 for c in self.vector):
            raise InvalidGraph(f"lattice components must be >= 1, got {self.vector}")

    def __repr__(self) -> str:
        return "(" + ",".join(str(c) for c in self.vector) + ")"


@dataclass(frozen=True, slots=True)
class PlainVertex:
    id: int

    def __post_init__(self) -> None:
        if self.id < 0:
            raise InvalidGraph(f"plain vertex id must be >= 0, got {self.id}")

    def __repr__(self) -> str:
        return f"v{self.id}"


Vertex = BaseVertex | LatticeVertex | PlainVertex
Edge = tuple[Vertex, Vertex]


def vertex_key(v: Vertex) -> tuple[int, tuple[int, ...]]:
    """Sort key realizing the canonical total order on vertex labels."""
    if type(v) is BaseVertex:
        return (0, (v.index,))
    if type(v) is LatticeVertex:
        return (1, v.vector)
    if type(v) is PlainVertex:
        return (2, (v.id,))
    raise TypeError(f"not a vertex label: {v!r}")


class Graph:
    """An immutable finite simple graph on at least two labeled vertices."""

    __slots__ = ("_verts", "_index", "_adj", "_edges", "_hash")

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[tuple[Vertex, Vertex]]):
        verts = sorted(set(vertices), key=vertex_key)
        if len(verts) < 2:
            raise InvalidGraph("a graph needs at least two vertices")
        index = {v: i for i, v in enumerate(verts)}
        adj = [0] * len(verts)
        canon: set[Edge] = set()
        for u, v in edges:
            if u == v:
                raise InvalidGraph(f"loop at {u!r}")
            try:
                iu, iv = index[u], index[v]
            except KeyError as exc:
                raise InvalidGraph(f"edge endpoint {exc.args[0]!r} is not a declared vertex") from None
            adj[iu] |= 1 << iv
            adj[iv] |= 1 << iu
            # positions follow vertex_key order, so this is the canonical orientation
            canon.add((u, v) if iu < iv else (v, u))
        self._verts = tuple(verts)
        self._index = index
        self._adj = adj
        self._edges = frozenset(canon)
        self._hash = hash((self._verts, self._edges))

    # -- basic accessors ------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._verts)

    @property
    def size(self) -> int:
        return len(self._edges)

    def vertices(self) -> tuple[Vertex, ...]:
        """Vertices in canonical order."""
        return self._verts

    def edges(self) -> list[Edge]:
        """Edges as canonically sorted endpoint pairs, in canonical order:
        by position pair, read off the upper triangle of the adjacency bits."""
        verts = self._verts
        out = []
        for i, mask in enumerate(self._adj):
            u = verts[i]
            mask >>= i + 1
            while mask:
                low = mask & -mask
                out.append((u, verts[i + low.bit_length()]))
                mask ^= low
        return out

    def edge_set(self) -> frozenset[Edge]:
        return self._edges

    def has_vertex(self, v: Vertex) -> bool:
        return v in self._index

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Adjacency bit test; False when either label is not in the graph."""
        iu = self._index.get(u)
        iv = self._index.get(v)
        return iu is not None and iv is not None and self._adj[iu] >> iv & 1 == 1

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        mask = self._adj[self._vertex_index(v)]
        return tuple(self._verts[i] for i in _iter_bits(mask))

    def index_of(self, v: Vertex) -> int:
        return self._vertex_index(v)

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighbor bit sets over the canonical vertex order."""
        return list(self._adj)

    def _vertex_index(self, v: Vertex) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertex(f"vertex {v!r} is not in the graph") from None

    # -- value semantics -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._verts == other._verts and self._edges == other._edges

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, size={self.size})"


# -- construction helpers ----------------------------------------------


def complete_graph(vertices: Iterable[Vertex]) -> Graph:
    verts = list(vertices)
    return Graph(verts, [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]])


def null_graph(vertices: Iterable[Vertex]) -> Graph:
    return Graph(vertices, [])


def path_graph(vertices: Iterable[Vertex]) -> Graph:
    """Path through the given vertices in the given order."""
    verts = list(vertices)
    return Graph(verts, list(zip(verts, verts[1:])))


def plain_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on PlainVertex(0..n-1) from integer edge pairs."""
    verts = [PlainVertex(i) for i in range(n)]
    return Graph(verts, [(PlainVertex(a), PlainVertex(b)) for a, b in edges])


# -- distances ----------------------------------------------------------


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bfs_levels(adj: list[int], source: int) -> list[int]:
    """Hop counts from ``source`` over adjacency bit sets; -1 = unreachable."""
    n = len(adj)
    full = (1 << n) - 1
    dist = [-1] * n
    dist[source] = 0
    seen = 1 << source
    frontier = seen
    d = 0
    while frontier and seen != full:
        d += 1
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= adj[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
        seen |= frontier
        f = frontier
        while f:
            low = f & -f
            dist[low.bit_length() - 1] = d
            f ^= low
    return dist


def distances(g: Graph) -> dict[tuple[Vertex, Vertex], int | None]:
    """Exact hop counts for all ordered vertex pairs.

    Pairs in different components map to None; disconnection is
    representable here, not an error.
    """
    adj = g._adj
    verts = g.vertices()
    table: dict[tuple[Vertex, Vertex], int | None] = {}
    for si, u in enumerate(verts):
        row = bfs_levels(adj, si)
        for ti, v in enumerate(verts):
            d = row[ti]
            table[(u, v)] = d if d >= 0 else None
    return table


def is_connected(g: Graph) -> bool:
    return all(d >= 0 for d in bfs_levels(g._adj, 0))


def diameter(g: Graph) -> int:
    """Largest hop count over all pairs; raises on disconnected input."""
    adj = g._adj
    best = 0
    for s in range(g.order):
        row = bfs_levels(adj, s)
        if -1 in row:
            raise DisconnectedGraph("diameter is undefined on a disconnected graph")
        best = max(best, max(row))
    return best


# -- the spanning-subgraph partial order and union ------------------------


def union(g1: Graph, g2: Graph) -> Graph:
    """Edge-set union of two graphs on the same vertex set."""
    if g1.vertices() != g2.vertices():
        raise VertexSetMismatch("union requires equal vertex sets")
    return Graph(g1.vertices(), list(g1.edge_set() | g2.edge_set()))


def is_spanning_subgraph(g1: Graph, g2: Graph) -> bool:
    """The relation g1 <= g2: equal vertex sets and E(g1) a subset of E(g2)."""
    return g1.vertices() == g2.vertices() and g1.edge_set() <= g2.edge_set()


def degree(g: Graph, v: Vertex) -> int:
    """Number of edges covering ``v``."""
    return g._adj[g._vertex_index(v)].bit_count()


# -- structural predicates -------------------------------------------------


def is_path(g: Graph) -> bool:
    """True iff the graph is a path: connected, two endpoints of degree 1,
    every other vertex of degree 2."""
    degs = sorted(m.bit_count() for m in g._adj)
    if degs[:2] != [1, 1] or any(d != 2 for d in degs[2:]):
        return False
    return is_connected(g)


def universal_vertices(g: Graph) -> tuple[Vertex, ...]:
    """Vertices adjacent to every other vertex, in canonical order."""
    full = (1 << g.order) - 1
    return tuple(
        v for i, v in enumerate(g.vertices()) if g._adj[i] | (1 << i) == full
    )
