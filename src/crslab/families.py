"""Lattice scaffolding, the base/lattice composition, and the two
constructive families of completeness-resolvable graphs.

The family with truncation radius 2 ("B") lives on [2]^k lattices over an
arbitrary base graph on [k]; the radius-3 family ("C") lives on [3]^k
lattices over the edgeless base.  Membership in either family reduces to
edge-covering conditions on per-coordinate bipartite scaffolds.  This
module collects them into one cover system per family, k and base, and
decides membership on it, with witnesses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Iterator

from .errors import (
    CrossEdgeMismatch,
    IndexOutOfRange,
    InvalidCertificate,
    SizeOverflow,
    UnknownName,
    WrongVertexSet,
)
from .graph import (
    BaseVertex,
    Edge,
    Graph,
    LatticeVector,
    LatticeVertex,
    PlainVertex,
    Vertex,
    _iter_bits,
    complete_graph,
    null_graph,
)
from .resolving import CrsCertificate

#: Largest lattice materialized by default (3^10 vectors).
DEFAULT_SIZE_CAP = 3 ** 10


def lattice_vertices(k: int, m: int, cap: int = DEFAULT_SIZE_CAP) -> list[LatticeVector]:
    """All m^k vectors with components in [m], in lexicographic order."""
    if k < 1 or m < 1:
        raise IndexOutOfRange(f"need k >= 1 and m >= 1, got k={k}, m={m}")
    if m ** k > cap:
        raise SizeOverflow(f"m^k = {m ** k} exceeds the cap {cap}")
    return [tuple(v) for v in product(range(1, m + 1), repeat=k)]


@dataclass(frozen=True)
class Slice:
    """The vectors of [m]^k whose components at the given positions all lie
    in the given value set."""

    k: int
    m: int
    positions: frozenset[int]
    values: frozenset[int]

    def __contains__(self, vec: LatticeVector) -> bool:
        return all(vec[i - 1] in self.values for i in self.positions)

    def size(self) -> int:
        return len(self.values) ** len(self.positions) * self.m ** (self.k - len(self.positions))

    def vectors(self) -> list[LatticeVector]:
        return [v for v in lattice_vertices(self.k, self.m) if v in self]


def lattice_slice(k: int, m: int, positions, values) -> Slice:
    positions = frozenset(positions)
    values = frozenset(values)
    if any(i < 1 or i > k for i in positions):
        raise IndexOutOfRange(f"slice positions must lie in [k]={k}")
    if any(j < 1 or j > m for j in values):
        raise IndexOutOfRange(f"slice values must lie in [m]={m}")
    return Slice(k, m, positions, values)


def _check_index(k: int, i: int) -> None:
    if not 1 <= i <= k:
        raise IndexOutOfRange(f"coordinate index {i} not in [1, {k}]")


def span_lattice(k: int, m: int, edges) -> Graph:
    """Spanning subgraph of the complete graph on [m]^k with the given
    vector-pair edges."""
    verts = [LatticeVertex(v) for v in lattice_vertices(k, m)]
    return Graph(verts, [(LatticeVertex(tuple(x)), LatticeVertex(tuple(y))) for x, y in edges])


def base_complete(k: int) -> Graph:
    return complete_graph([BaseVertex(i) for i in range(1, k + 1)])


def base_null(k: int) -> Graph:
    return null_graph([BaseVertex(i) for i in range(1, k + 1)])


def lattice_complete(k: int, m: int) -> Graph:
    return complete_graph([LatticeVertex(v) for v in lattice_vertices(k, m)])


# -- scaffolds ------------------------------------------------------------


def scaffold(k: int, i: int, kind: str) -> Graph:
    """The per-coordinate bipartite scaffold.

    Kind "B" (on [2]^k): complete bipartite between the coordinate-i value-1
    and value-2 slices.  Kinds "C" / "D" (on [3]^k): bipartite between the
    value-1/2 (resp. 2/3) slices, with every other coordinate differing by
    at most one.  gamma() checks these graphs against its direct rule.
    """
    _check_index(k, i)
    if kind not in ("B", "C", "D"):
        raise ValueError(f"scaffold kind must be B, C or D, got {kind!r}")
    m, lo = (2, 1) if kind == "B" else (3, 1 if kind == "C" else 2)
    part1 = lattice_slice(k, m, {i}, {lo}).vectors()
    part2 = lattice_slice(k, m, {i}, {lo + 1}).vectors()
    # coordinate i changes by exactly one, so the gap rule covers the others
    return span_lattice(k, m, [(x, y) for x in part1 for y in part2 if _gaps_ok(x, y)])


def s_set(k: int, i: int) -> set[LatticeVector]:
    """Vectors with all components in {2, 3} and component i equal to 3:
    the targets of the radius-3 cover system's (i, "s-set") constraints."""
    _check_index(k, i)
    return set(cover_system("C", k).targets(i, "s-set"))


def is_edge_covering(edges, s) -> bool:
    """True iff every vertex of ``s`` is an endpoint of some edge."""
    covered = {u for e in edges for u in e}
    return all(v in covered for v in s)


# -- composition ----------------------------------------------------------


@dataclass(frozen=True)
class CompositeGraph:
    """A graph on [k] + [m]^k split into its base and lattice parts.

    Cross edges join base vertex i to every lattice vertex whose i-th
    component is 1; they are fully determined by the labels and are never
    stored.
    """

    k: int
    m: int
    base: Graph
    lattice: Graph

    @property
    def order(self) -> int:
        return self.k + self.m ** self.k

    @property
    def size(self) -> int:
        return self.base.size + self.lattice.size + self.k * self.m ** (self.k - 1)

    def cross_edges(self) -> Iterator[Edge]:
        for i in range(1, self.k + 1):
            for v in lattice_vertices(self.k, self.m):
                if v[i - 1] == 1:
                    yield (BaseVertex(i), LatticeVertex(v))

    def materialize(self) -> Graph:
        verts = list(self.base.vertices()) + list(self.lattice.vertices())
        edges = list(self.base.edge_set()) + list(self.lattice.edge_set())
        edges.extend(self.cross_edges())
        return Graph(verts, edges)


def _require_base(base: Graph) -> int:
    k = base.order
    if base.vertices() != tuple(BaseVertex(i) for i in range(1, k + 1)):
        raise WrongVertexSet("base graph must live on BaseVertex(1..k)")
    return k


def _require_lattice(lattice: Graph, k: int, m: int) -> None:
    want = tuple(LatticeVertex(v) for v in lattice_vertices(k, m))
    if lattice.vertices() != want:
        raise WrongVertexSet(f"lattice graph must live on all of [{m}]^{k}")


def _lattice_shape(lattice: Graph) -> tuple[int, int]:
    first = lattice.vertices()[0]
    if not isinstance(first, LatticeVertex):
        raise WrongVertexSet("lattice graph must use lattice vertex labels")
    k = len(first.vector)
    m = max(c for v in lattice.vertices() for c in v.vector)  # type: ignore[union-attr]
    _require_lattice(lattice, k, m)
    return k, m


def compose(base: Graph, lattice: Graph, k: int, m: int) -> CompositeGraph:
    """Assemble the composite of a base graph on [k] and a lattice graph on
    [m]^k; the implied cross edges make the size obey
    |E(base)| + |E(lattice)| + k * m^(k-1)."""
    if _require_base(base) != k:
        raise WrongVertexSet(f"base has order {base.order}, expected k={k}")
    _require_lattice(lattice, k, m)
    return CompositeGraph(k, m, base, lattice)


# -- membership -----------------------------------------------------------


@dataclass(frozen=True)
class IndexDiagnostic:
    """Per-coordinate covering evidence for a membership test."""

    i: int
    covering_edges: tuple[Edge, ...]        # L_i (family B) or M_i (family C)
    secondary_edges: tuple[Edge, ...] = ()  # N_i (family C only)
    uncovered: Vertex | None = None
    uncovered_secondary: Vertex | None = None


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    family: str
    k: int
    diagnostics: tuple[IndexDiagnostic, ...]
    bad_edge: Edge | None = None  # family C: an edge outside the allowed scaffolds

    def __bool__(self) -> bool:
        return self.member


def closed_neighborhood(base: Graph, i: int) -> frozenset[int]:
    """{i} together with the indices adjacent to i in the base graph."""
    v = BaseVertex(i)
    return frozenset({i} | {u.index for u in base.neighbors(v)})  # type: ignore[union-attr]


def member_b(base: Graph, lattice: Graph) -> MembershipReport:
    """Decide membership of base o lattice in the radius-2 family.

    For each coordinate i, the lattice edges that change coordinate i must
    cover every vector that is 2 on all of i's closed base neighborhood.
    """
    k = _require_base(base)
    if k < 2:
        raise WrongVertexSet("the family is defined for k >= 2")
    _require_lattice(lattice, k, 2)
    return cover_system("B", k, base).report(lattice)


def member_c(lattice: Graph) -> MembershipReport:
    """Decide membership of nullbase o lattice in the radius-3 family.

    Three conditions: every edge changes coordinates by at most one; the
    1-2 edges in each coordinate cover the value-2 slice; the 2-3 edges in
    each coordinate cover the all-{2,3} vectors whose i-th component is 3.
    """
    k, m = _lattice_shape(lattice)
    if m < 3:
        # An edgeless or gap-free [3]^k lattice can present m < 3 only when
        # it is not on [3]^k at all.
        raise WrongVertexSet("the radius-3 family lives on [3]^k lattices")
    if m != 3:
        raise WrongVertexSet(f"lattice components exceed 3 (m={m})")
    if k < 2:
        raise WrongVertexSet("the family is defined for k >= 2")
    return cover_system("C", k).report(lattice)


# -- the cover system ---------------------------------------------------------


@dataclass(frozen=True)
class CoverSystem:
    """The covering constraints of one family, decided edge by edge.

    The universe is the complete graph on [2]^k (family B) or Gamma_k
    (family C).  A universe edge lies in the (i, condition) scaffold when it
    changes coordinate i between the condition's two values: 1 and 2 for
    "slice", 2 and 3 for "s-set" (family C only).  Constraint (i, condition,
    x) holds the scaffold edges at its target x: family B's targets are 2
    on all of i's closed base neighborhood; family C's "slice" targets have
    x_i = 2, its "s-set" targets are all-{2,3} with x_i = 3.  Constraints
    run by i, then condition, then x: the order in which reports name their
    witnesses.

    A lattice is a member exactly when it has no edge outside the universe
    and hits every constraint; an edge is critical when it is the only hit
    of some constraint.  Membership and minimality read a lattice's own
    edges; the exhaustive scans use the bit-mask view (``edges``,
    ``masks``), built on first use.
    """

    family: str
    k: int
    hoods: tuple[frozenset[int], ...] | None  # family B: the base's closed neighborhoods

    @property
    def m(self) -> int:
        return 2 if self.family == "B" else 3

    @property
    def conditions(self) -> tuple[str, ...]:
        return ("slice",) if self.family == "B" else ("slice", "s-set")

    @cached_property
    def _allowed(self) -> dict[tuple[int, str], tuple[tuple[int, ...], ...]]:
        """Per constraint group, the values each target component may take."""
        out = {}
        for i in range(1, self.k + 1):
            for cond in self.conditions:
                if self.family == "B":
                    hood = self.hoods[i - 1]  # type: ignore[index]
                    out[i, cond] = tuple((2,) if j in hood else (1, 2) for j in range(1, self.k + 1))
                else:
                    pinned, other = ((2,), (1, 2, 3)) if cond == "slice" else ((3,), (2, 3))
                    out[i, cond] = tuple(pinned if j == i else other for j in range(1, self.k + 1))
        return out

    def targets(self, i: int, cond: str) -> Iterator[LatticeVector]:
        """The targets of the (i, cond) constraints, in lexicographic order."""
        return product(*self._allowed[i, cond])

    def is_target(self, i: int, cond: str, x: LatticeVector) -> bool:
        return all(c in allowed for c, allowed in zip(x, self._allowed[i, cond]))

    def constraints(self) -> Iterator[tuple[int, str, LatticeVector]]:
        """Every constraint tag (i, condition, target), in constraint order."""
        for i in range(1, self.k + 1):
            for cond in self.conditions:
                for x in self.targets(i, cond):
                    yield i, cond, x

    def in_universe(self, x: LatticeVector, y: LatticeVector) -> bool:
        return self.family == "B" or _gaps_ok(x, y)

    def incidence(self, x: LatticeVector, y: LatticeVector):
        """For each scaffold holding the universe edge x-y, in constraint
        order: (i, condition, the target it hits there, or None)."""
        for i in range(1, self.k + 1):
            a, b = x[i - 1], y[i - 1]
            if a != b:
                cond = "slice" if min(a, b) == 1 else "s-set"
                z = x if a > b else y
                yield i, cond, z if self.is_target(i, cond, z) else None

    def scan(self, lattice: Graph):
        """One pass over a lattice's edges: those outside the universe, the
        edges in each (i, condition) scaffold, and for each constraint hit
        its hitting edges -- all in canonical edge order."""
        outside: list[Edge] = []
        in_scaffold: dict[tuple[int, str], list[Edge]] = {
            (i, cond): [] for i in range(1, self.k + 1) for cond in self.conditions
        }
        hits: dict[tuple[int, str, LatticeVector], list[Edge]] = {}
        for e in lattice.edges():
            x, y = e[0].vector, e[1].vector  # type: ignore[union-attr]
            if not self.in_universe(x, y):
                outside.append(e)
                continue
            for i, cond, z in self.incidence(x, y):
                in_scaffold[i, cond].append(e)
                if z is not None:
                    hits.setdefault((i, cond, z), []).append(e)
        return outside, in_scaffold, hits

    def order(self, tag: tuple[int, str, LatticeVector]) -> tuple:
        """Sort key of a constraint tag in constraint order."""
        i, cond, x = tag
        return i, self.conditions.index(cond), x

    def report(self, lattice: Graph) -> MembershipReport:
        """Membership with witnesses: per coordinate and condition, the
        lattice edges in the scaffold and the first target they miss."""
        outside, in_scaffold, hits = self.scan(lattice)
        missed = {}
        for i, cond in in_scaffold:
            x = next((x for x in self.targets(i, cond) if (i, cond, x) not in hits), None)
            missed[i, cond] = None if x is None else LatticeVertex(x)
        diagnostics = []
        for i in range(1, self.k + 1):
            covering = [tuple(in_scaffold[i, c]) for c in self.conditions] + [()]
            uncovered = [missed[i, c] for c in self.conditions] + [None]
            diagnostics.append(
                IndexDiagnostic(i, covering[0], covering[1], uncovered[0], uncovered[1])
            )
        return MembershipReport(
            member=not outside and not any(missed.values()),
            family=self.family,
            k=self.k,
            diagnostics=tuple(diagnostics),
            bad_edge=outside[0] if outside else None,
        )

    # -- the bit-mask view, for exhaustive scans over the universe --

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The universe in canonical edge order."""
        vecs = lattice_vertices(self.k, self.m)
        return tuple(
            (LatticeVertex(x), LatticeVertex(y))
            for a, x in enumerate(vecs)
            for y in vecs[a + 1:]
            if self.in_universe(x, y)
        )

    @cached_property
    def index(self) -> dict[Edge, int]:
        return {e: b for b, e in enumerate(self.edges)}

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """One bit mask over the universe per constraint, in constraint
        order; the bits are set in byte arrays, so building is linear."""
        size = (len(self.edges) + 7) // 8
        rows = {tag: bytearray(size) for tag in self.constraints()}
        for b, (u, v) in enumerate(self.edges):
            for i, cond, z in self.incidence(u.vector, v.vector):  # type: ignore[union-attr]
                if z is not None:
                    rows[i, cond, z][b >> 3] |= 1 << (b & 7)
        return tuple(int.from_bytes(row, "little") for row in rows.values())

    def graph(self, mask: int) -> Graph:
        verts = [LatticeVertex(v) for v in lattice_vertices(self.k, self.m)]
        return Graph(verts, [self.edges[b] for b in _iter_bits(mask)])

    def covers(self, mask: int) -> bool:
        """True iff the mask hits every constraint."""
        for cm in self.masks:
            if not mask & cm:
                return False
        return True

    def is_minimal(self, mask: int) -> bool:
        """True iff the mask hits every constraint and every edge of it is
        the only hit of some constraint."""
        needed = 0
        for cm in self.masks:
            hit = mask & cm
            if not hit:
                return False
            if not hit & (hit - 1):
                needed |= hit
        return needed == mask


def cover_system(family: str, k: int, base: Graph | None = None) -> CoverSystem:
    """The cover system of a family at k.  Family B depends on the base
    (edgeless by default) only through its closed neighborhoods; family C
    ignores the base.  The last few are cached, with their mask views."""
    if family == "C":
        return _cover_system("C", k, None)
    if family != "B":
        raise ValueError(f"family must be B or C, got {family!r}")
    if base is None:
        base = base_null(k)
    return _cover_system("B", k, tuple(closed_neighborhood(base, i) for i in range(1, k + 1)))


@lru_cache(maxsize=64)
def _cover_system(family: str, k: int, hoods: tuple[frozenset[int], ...] | None) -> CoverSystem:
    return CoverSystem(family, k, hoods)


def scan_ranges(fn, total: int, jobs: int) -> list:
    """``fn((lo, hi))`` over a split of range(total), one result per range
    in range order.  The ranges go to min(jobs, os.cpu_count(), total)
    worker processes; with one range (as for jobs < 1, which the CLI
    rejects), ``fn`` runs in this process."""
    workers = max(1, min(jobs, os.cpu_count() or 1, total))
    chunk = -(-total // workers)
    ranges = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    if len(ranges) == 1:
        return [fn(ranges[0])]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
        return list(pool.map(fn, ranges))


# -- the maximal radius-3 lattice ------------------------------------------


def _gaps_ok(x: LatticeVector, y: LatticeVector) -> bool:
    return all(abs(a - b) <= 1 for a, b in zip(x, y))


def gamma(k: int, cap: int = DEFAULT_SIZE_CAP) -> Graph:
    """The [3]^k graph joining vectors that differ by at most one in every
    coordinate.

    Built twice -- by the direct rule and as the union of the C/D scaffolds
    -- and asserted equal, so the scaffold decomposition is checked at every
    construction.
    """
    if k < 2:
        raise IndexOutOfRange(f"need k >= 2, got {k}")
    if 3 ** k > cap:
        raise SizeOverflow(f"3^k = {3 ** k} exceeds the cap {cap}")
    vecs = lattice_vertices(k, 3)
    direct = []
    for a in range(len(vecs)):
        for b in range(a + 1, len(vecs)):
            if _gaps_ok(vecs[a], vecs[b]):
                direct.append((vecs[a], vecs[b]))
    g = span_lattice(k, 3, direct)
    scaffold_union: set = set()
    for i in range(1, k + 1):
        scaffold_union |= scaffold(k, i, "C").edge_set()
        scaffold_union |= scaffold(k, i, "D").edge_set()
    assert g.edge_set() == frozenset(scaffold_union), "scaffold union disagrees with the direct rule"
    return g


# -- named example graphs ---------------------------------------------------


def example_graph(name: str, k: int) -> Graph | CompositeGraph:
    """The named lattice examples and the two family maxima.

    U, V, R, P2box live on [2]^k; T and Qcanon on [3]^k.  MaxB and MaxC are
    the composite maxima of the two families.
    """
    if k < 2:
        raise IndexOutOfRange(f"need k >= 2, got {k}")
    ones = tuple([1] * k)
    twos = tuple([2] * k)
    if name == "U":
        return span_lattice(k, 2, [(ones, twos)])
    if name == "V":
        edges = []
        for i in range(k):
            x = list(twos)
            x[i] = 1
            edges.append((tuple(x), twos))
        return span_lattice(k, 2, edges)
    if name == "R":
        edges = []
        for v in lattice_vertices(k, 2):
            w = tuple(3 - c for c in v)
            if v < w:
                edges.append((v, w))
        return span_lattice(k, 2, edges)
    if name == "P2box":
        return cartesian_power(path_on(2), k)
    if name == "T":
        x_slice = lattice_slice(k, 3, range(1, k + 1), {2, 3})
        e_x = [(v, tuple(c - 1 for c in v)) for v in x_slice.vectors()]
        in_y = lattice_slice(k, 3, range(1, k + 1), {1, 3})
        z = [v for v in lattice_vertices(k, 3) if v not in x_slice and v not in in_y]
        e_z = []
        for v in z:
            w = tuple({1: 2, 2: 1, 3: 3}[c] for c in v)
            if v < w:
                e_z.append((v, w))
        return span_lattice(k, 3, e_x + e_z)
    if name == "Qcanon":
        cube = cartesian_power(path_on(3), k)
        keep = []
        for e in cube.edges():
            x, y = e[0].vector, e[1].vector  # type: ignore[union-attr]
            moved = [t for t in range(k) if x[t] != y[t]]
            drop = (
                len(moved) == 1
                and {x[moved[0]], y[moved[0]]} == {2, 3}
                and any(x[t] == y[t] == 1 for t in range(k))
            )
            if not drop:
                keep.append((x, y))
        return span_lattice(k, 3, keep)
    if name == "Gamma":
        return gamma(k)
    if name == "MaxB":
        return compose(base_complete(k), lattice_complete(k, 2), k, 2)
    if name == "MaxC":
        return compose(base_null(k), gamma(k), k, 3)
    raise UnknownName(f"unknown example graph {name!r}")


def path_on(n: int) -> Graph:
    """The path with plain vertices 1..n (coordinate alphabet for products)."""
    return Graph([PlainVertex(i) for i in range(1, n + 1)],
                 [(PlainVertex(i), PlainVertex(i + 1)) for i in range(1, n)])


def cartesian_power(g: Graph, s: int, cap: int = DEFAULT_SIZE_CAP) -> Graph:
    """Cartesian product of s copies of a plain-labeled graph; vertices
    become lattice vectors of coordinate ids."""
    if s < 1:
        raise IndexOutOfRange(f"need s >= 1, got {s}")
    ids = []
    for v in g.vertices():
        if not isinstance(v, PlainVertex) or v.id < 1:
            raise WrongVertexSet("cartesian power needs PlainVertex ids >= 1 as coordinates")
        ids.append(v.id)
    if g.order ** s > cap:
        raise SizeOverflow(f"|V|^s = {g.order ** s} exceeds the cap {cap}")
    ids.sort()
    vecs = [tuple(v) for v in product(ids, repeat=s)]
    edges = []
    adj = {
        (a.id, b.id) for a, b in g.edge_set()  # type: ignore[union-attr]
    }
    adj |= {(b, a) for a, b in adj}
    for x in vecs:
        for pos in range(s):
            for other in ids:
                if (x[pos], other) in adj and other > x[pos]:
                    y = x[:pos] + (other,) + x[pos + 1:]
                    edges.append((x, y))
    verts = [LatticeVertex(v) for v in vecs]
    return Graph(verts, [(LatticeVertex(x), LatticeVertex(y)) for x, y in edges])


# -- relabeling a certified graph onto the canonical vertex sets ------------


def canonical_relabel(g: Graph, cert: CrsCertificate) -> CompositeGraph:
    """Rebuild a certified graph on [k] + [m]^k so that family membership
    can be tested on the canonical labels.

    The base part keeps the adjacency among the certificate's ordered W;
    lattice edges are carried through the certificate's vector table; cross
    edges are implied.  Every W-to-rest adjacency of the input is checked
    against the implied cross edges, so a broken certificate cannot slip
    through.
    """
    k = len(cert.w_order)
    m = cert.m_of_w
    if m not in (2, 3):
        raise InvalidCertificate(f"relabeling needs truncation radius 2 or 3, got {m}")
    w_set = set(cert.w_order)
    if not all(g.has_vertex(w) for w in cert.w_order):
        raise InvalidCertificate("certificate W is not inside the graph")
    rest = [v for v in g.vertices() if v not in w_set]
    if set(cert.table) != set(rest):
        raise InvalidCertificate("certificate table does not cover V minus W")
    base_edges = [
        (BaseVertex(i + 1), BaseVertex(j + 1))
        for i in range(k)
        for j in range(i + 1, k)
        if g.has_edge(cert.w_order[i], cert.w_order[j])
    ]
    base = Graph([BaseVertex(i) for i in range(1, k + 1)], base_edges)
    lattice_edges = [
        (cert.table[u], cert.table[v])
        for u, v in g.edges()
        if u not in w_set and v not in w_set
    ]
    lattice = span_lattice(k, m, lattice_edges)
    for i, w in enumerate(cert.w_order):
        for u in rest:
            if g.has_edge(w, u) != (cert.table[u][i] == 1):
                raise CrossEdgeMismatch(
                    f"adjacency of {w!r} and {u!r} disagrees with the certificate vector"
                )
    return CompositeGraph(k, m, base, lattice)
