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
store, and there are two edge readers: ``adjacency_masks()`` copies the
rows, over the positions ``index_of`` gives, and ``edges()`` reads the
sorted endpoint pairs off them.  Two graphs compare equal exactly when they
have the same labeled vertices and adjacency.  A graph hashes by its
adjacency rows alone, ``hash(tuple(rows))``: equal graphs have equal rows,
so equal graphs hash equal, and a graph built on a shared label table does
not hash its labels again.  Graphs with the same rows on different labels
hash alike and still compare unequal.

Every edge list -- of labels (``Graph``), vectors (``families.span_lattice``)
or integers (``plain_graph``) -- becomes rows in ``_rows``, the one place that
refuses too few vertices, an undeclared endpoint and a loop.

Every hop count comes from one BFS, ``bfs_frontiers``, which gives a
vertex's level sets as bit sets.  The resolving record and the bijection
test read the level sets themselves; ``bfs_levels`` reads a row of hop
counts off them for the callers that want rows.

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
        self._hash = hash(tuple(adj))

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
        g._hash = hash(tuple(adj))
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

    def has_vertex(self, v: Vertex) -> bool:
        return v in self._index

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


def bfs_frontiers(adj: list[int], source: int) -> list[int]:
    """The BFS level sets from ``source`` over adjacency bit sets, as bit
    sets, level d at index d: ``[1 << source, N(source), ...]``, up to the
    last level of ``source``'s component.  The one BFS of the package:
    every hop count is read off these levels, and the tests check both the
    levels and the rows read off them against networkx."""
    full = (1 << len(adj)) - 1
    seen = 1 << source
    levels = [seen]
    frontier = adj[source]  # level 1 is the source's row (rows are loopless)
    while frontier:
        seen |= frontier
        levels.append(frontier)
        if seen == full:
            break
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= adj[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
    return levels


def bfs_levels(adj: list[int], source: int) -> list[int]:
    """Hop counts from ``source`` over adjacency bit sets; -1 = unreachable.
    The row read off ``bfs_frontiers``: d on each vertex of level d."""
    row = [-1] * len(adj)
    for d, level in enumerate(bfs_frontiers(adj, source)):
        while level:
            low = level & -level
            row[low.bit_length() - 1] = d
            level ^= low
    return row


def distances(g: Graph) -> dict[tuple[Vertex, Vertex], int | None]:
    """Exact hop counts for all ordered vertex pairs.

    Pairs in different components map to None; disconnection is
    representable here, not an error.  Kept as the distance table of the
    tests' brute-force certificate search and distance identity checks;
    its BFS is the one the tests check against networkx.
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


# -- the spanning-subgraph partial order ----------------------------------


def is_spanning_subgraph(g1: Graph, g2: Graph) -> bool:
    """The relation g1 <= g2: equal vertex sets and E(g1) a subset of E(g2).
    The paper's posets are ordered by it; kept as the reference that the
    tests check members against their family's maximum graph with."""
    return g1.vertices() == g2.vertices() and all(a & ~b == 0 for a, b in zip(g1._adj, g2._adj))


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
