"""Finite simple graphs with typed vertex labels.

Vertices carry one of three label kinds:

* ``BaseVertex(i)``    -- an element of [k], used for the base part of a
  composite graph;
* ``LatticeVertex(v)`` -- a vector in [m]^k, used for the lattice part;
* ``PlainVertex(n)``   -- an anonymous vertex, used for ordinary graphs
  (graph6 files, the small-order sweeps, ...).

Vertex identity is by label value.  All graphs are stored canonically:
vertices sorted under a fixed total order (base < lattice < plain, numeric
or lexicographic within each kind), and the edges as one adjacency bit set
(a Python int) per vertex over that order.  The bits are the only edge
store: ``edges()`` and ``edge_set()`` read the sorted endpoint pairs off
them, and two graphs compare equal exactly when they have the same labeled
vertices and adjacency.  The exhaustive suites lean on the bits.

Every edge list -- of labels (``Graph``), vectors (``families.span_lattice``)
or integers (``plain_graph``) -- becomes rows in ``_rows``, the one place that
refuses too few vertices, an undeclared endpoint and a loop.

Graphs are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

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

    __slots__ = ("_verts", "_index", "_adj", "_hash")

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[tuple[Vertex, Vertex]]):
        verts = tuple(sorted(set(vertices), key=vertex_key))
        index = {v: i for i, v in enumerate(verts)}
        adj = _rows(verts, edges, index.get, lambda u: u)
        self._verts = verts
        self._index = index
        self._adj = adj
        self._hash = hash((verts, tuple(adj)))

    @classmethod
    def _from_adj(cls, verts: tuple[Vertex, ...], index: dict[Vertex, int], adj: list[int]) -> Graph:
        """The graph with the given adjacency rows, built without a check:
        the caller vouches that ``verts`` holds at least two labels in
        canonical order, ``index`` maps each to its position, and the rows
        are symmetric and loopless.  ``verts`` and ``index`` may be shared
        between graphs, as no graph mutates them; ``adj`` becomes the
        graph's own."""
        g = cls.__new__(cls)
        g._verts = verts
        g._index = index
        g._adj = adj
        g._hash = hash((verts, tuple(adj)))
        return g

    # -- basic accessors ------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._verts)

    @property
    def size(self) -> int:
        return sum(mask.bit_count() for mask in self._adj) // 2

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
        return frozenset(self.edges())

    def has_vertex(self, v: Vertex) -> bool:
        return v in self._index

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Adjacency bit test; False when either label is not in the graph."""
        iu = self._index.get(u)
        iv = self._index.get(v)
        return iu is not None and iv is not None and self._adj[iu] >> iv & 1 == 1

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        mask = self._adj[self.index_of(v)]
        return tuple(self._verts[i] for i in _iter_bits(mask))

    def index_of(self, v: Vertex) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertex(f"vertex {v!r} is not in the graph") from None

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighbor bit sets over the canonical vertex order."""
        return list(self._adj)

    # -- value semantics -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._verts == other._verts and self._adj == other._adj

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, size={self.size})"


# -- construction helpers ----------------------------------------------


def _rows(verts: tuple[Vertex, ...], edges: Iterable, position: Callable, name: Callable) -> list[int]:
    """Symmetric loopless adjacency rows over ``verts`` from endpoint pairs,
    whatever the endpoints are: ``position(x)`` is x's place in ``verts``,
    or None, and then ``name(x)`` is the label the refusal names (it may
    refuse x itself).  Every graph built from an edge list is refused here:
    too few vertices, an endpoint not among them, a loop, in that order,
    at the first bad edge."""
    if len(verts) < 2:
        raise InvalidGraph("a graph needs at least two vertices")
    adj = [0] * len(verts)
    for x, y in edges:
        a, b = position(x), position(y)
        if a is None or b is None:
            raise InvalidGraph(f"edge endpoint {name(x if a is None else y)!r} is not a declared vertex")
        if a == b:
            raise InvalidGraph(f"loop at {verts[a]!r}")
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def complete_graph(vertices: Iterable[Vertex]) -> Graph:
    verts = list(vertices)
    return Graph(verts, [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]])


def null_graph(vertices: Iterable[Vertex]) -> Graph:
    return Graph(vertices, [])


def path_graph(vertices: Iterable[Vertex]) -> Graph:
    """Path through the given vertices in the given order."""
    verts = list(vertices)
    return Graph(verts, list(zip(verts, verts[1:])))


@lru_cache(maxsize=64)
def _plain_labels(n: int) -> tuple[tuple[PlainVertex, ...], dict[Vertex, int]]:
    """PlainVertex(0..n-1) in canonical order, and each one's position."""
    verts = tuple(PlainVertex(i) for i in range(n))
    return verts, {v: i for i, v in enumerate(verts)}


def plain_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on PlainVertex(0..n-1) from integer edge pairs."""
    verts, index = _plain_labels(n)
    adj = _rows(verts, edges, lambda a: a if 0 <= a < n else None, PlainVertex)
    return Graph._from_adj(verts, index, adj)


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
    return Graph(g1.vertices(), g1.edges() + g2.edges())


def is_spanning_subgraph(g1: Graph, g2: Graph) -> bool:
    """The relation g1 <= g2: equal vertex sets and E(g1) a subset of E(g2)."""
    return g1.vertices() == g2.vertices() and all(a & ~b == 0 for a, b in zip(g1._adj, g2._adj))


def degree(g: Graph, v: Vertex) -> int:
    """Number of edges covering ``v``."""
    return g._adj[g.index_of(v)].bit_count()


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
