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

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Iterator

from .errors import (
    CrossEdgeMismatch,
    IndexOutOfRange,
    InvalidCertificate,
    NotMember,
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
    _rows,
    complete_graph,
    null_graph,
    path_graph,
)
from .resolving import CrsCertificate

#: Largest lattice materialized by default (3^10 vectors).
DEFAULT_SIZE_CAP = 3 ** 10


def _check_power(what: str, m: int, k: int) -> None:
    """Raise SizeOverflow when m^k or k exceeds DEFAULT_SIZE_CAP.  For
    m >= 2 an exponent of the cap's bit length or more already does, so a
    huge k is rejected at once and the power is neither computed nor
    printed; for m = 1 the bound on k keeps the one k-tuple small."""
    if m > 1 and k >= DEFAULT_SIZE_CAP.bit_length() or m ** k > DEFAULT_SIZE_CAP:
        raise SizeOverflow(f"{what} = {m}^{k} exceeds the cap {DEFAULT_SIZE_CAP}")
    if k > DEFAULT_SIZE_CAP:
        raise SizeOverflow(f"{what} needs k <= {DEFAULT_SIZE_CAP}, got k={k}")


def lattice_vertices(k: int, m: int) -> list[LatticeVector]:
    """All m^k vectors of [m]^k in lexicographic order; SizeOverflow past DEFAULT_SIZE_CAP."""
    if k < 1 or m < 1:
        raise IndexOutOfRange(f"need k >= 1 and m >= 1, got k={k}, m={m}")
    _check_power("m^k", m, k)
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


def _check_k(k: int) -> None:
    if k < 2:
        raise IndexOutOfRange(f"need k >= 2, got {k}")


def _check_kind(kind: str) -> None:
    if kind not in ("B", "C"):
        raise ValueError(f"kind must be B or C, got {kind!r}")


@lru_cache(maxsize=8)
def _lattice_labels(
    k: int, m: int
) -> tuple[tuple[LatticeVertex, ...], dict[Vertex, int], dict[LatticeVector, int]]:
    """The labels of [m]^k in lexicographic order, and the position of
    each one, by label and by vector."""
    verts = tuple(LatticeVertex(v) for v in lattice_vertices(k, m))
    return verts, {x: p for p, x in enumerate(verts)}, {x.vector: p for p, x in enumerate(verts)}


@lru_cache(maxsize=8)
def _composite_labels(k: int, m: int) -> tuple[tuple[Vertex, ...], dict[Vertex, int], tuple[int, ...]]:
    """The labels of [k] + [m]^k in canonical order, the position of each
    one, and the rows of the cross edges over them."""
    lattice = _lattice_labels(k, m)[0]
    verts = tuple(BaseVertex(i) for i in range(1, k + 1)) + lattice
    cross = [0] * len(verts)
    for p, x in enumerate(lattice, k):
        for i, c in enumerate(x.vector):
            if c == 1:
                cross[i] |= 1 << p
                cross[p] |= 1 << i
    return verts, {x: p for p, x in enumerate(verts)}, tuple(cross)


def span_lattice(k: int, m: int, edges) -> Graph:
    """Spanning subgraph of the complete graph on [m]^k with the given
    vector-pair edges; a vector may be any sequence, and one outside [m]^k
    is named by its label, which refuses components below 1."""
    verts, index, pos = _lattice_labels(k, m)
    adj = _rows(verts, ((tuple(x), tuple(y)) for x, y in edges), pos.get, LatticeVertex)
    return Graph._from_adj(verts, index, adj)


def base_complete(k: int) -> Graph:
    return complete_graph([BaseVertex(i) for i in range(1, k + 1)])


def base_null(k: int) -> Graph:
    return null_graph([BaseVertex(i) for i in range(1, k + 1)])


def lattice_complete(k: int, m: int) -> Graph:
    return complete_graph(_lattice_labels(k, m)[0])


# -- scaffolds ------------------------------------------------------------


def scaffold(k: int, i: int, kind: str) -> Graph:
    """The per-coordinate bipartite scaffold.

    Kind "B" (on [2]^k): complete bipartite between the coordinate-i value-1
    and value-2 slices.  Kinds "C" / "D" (on [3]^k): bipartite between the
    value-1/2 (resp. 2/3) slices, with every other coordinate differing by
    at most one.  The C and D scaffolds together make up gamma(); the
    tests check that union against the direct rule.
    """
    _check_k(k)
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
        verts = _lattice_labels(self.k, self.m)[0]
        for i in range(1, self.k + 1):
            b = BaseVertex(i)
            for v in verts:
                if v.vector[i - 1] == 1:
                    yield (b, v)

    def materialize(self) -> Graph:
        """The composite as one graph: base rows, then lattice rows shifted
        past the base, each joined with its cross-edge row.  The parts must
        be on [k] and [m]^k, as compose() ensures."""
        k, m, base, lattice = self.k, self.m, self.base, self.lattice
        _check_base(base, k)
        _require_lattice(lattice, k, m)
        verts, index, cross = _composite_labels(k, m)
        rows = base.adjacency_masks() + [row << k for row in lattice.adjacency_masks()]
        return Graph._from_adj(verts, index, [a | b for a, b in zip(rows, cross)])


def _require_base(base: Graph) -> int:
    k = base.order
    if base.vertices() != tuple(BaseVertex(i) for i in range(1, k + 1)):
        raise WrongVertexSet("base graph must live on BaseVertex(1..k)")
    return k


def _check_base(base: Graph, k: int) -> None:
    if _require_base(base) != k:
        raise WrongVertexSet(f"base has order {base.order}, expected k={k}")


def _require_lattice(lattice: Graph, k: int, m: int) -> None:
    if lattice.vertices() != _lattice_labels(k, m)[0]:
        raise WrongVertexSet(f"lattice graph must live on all of [{m}]^{k}")


def compose(base: Graph, lattice: Graph, k: int, m: int) -> CompositeGraph:
    """Assemble the composite of a base graph on [k] and a lattice graph on
    [m]^k; the implied cross edges make the size obey
    |E(base)| + |E(lattice)| + k * m^(k-1)."""
    _check_base(base, k)
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


def member_b(base: Graph, lattice: Graph) -> MembershipReport:
    """Decide membership of base o lattice in the radius-2 family.

    For each coordinate i, the lattice edges that change coordinate i must
    cover every vector that is 2 on all of i's closed base neighborhood.
    """
    return _cover("B", base, lattice).check(lattice)[0]


def member_c(lattice: Graph) -> MembershipReport:
    """Decide membership of nullbase o lattice in the radius-3 family.

    Three conditions: every edge changes coordinates by at most one; the
    1-2 edges in each coordinate cover the value-2 slice; the 2-3 edges in
    each coordinate cover the all-{2,3} vectors whose i-th component is 3.
    """
    return _cover("C", None, lattice).check(lattice)[0]


def _cover(kind: str, base: Graph | None, lattice: Graph) -> CoverSystem:
    """The cover system a lattice of kind B or C is checked against, once
    the lattice lives on all of the system's [m]^k.  Kind B takes k from
    its base, which it needs; any other kind takes k from the lattice's
    first vector, and cover_system refuses the kind, k, size and base."""
    if kind == "B":
        if base is None:
            raise ValueError("kind B needs a base")
        k = base.order
    else:
        first = lattice.vertices()[0]
        if not isinstance(first, LatticeVertex):
            raise WrongVertexSet("lattice graph must use lattice vertex labels")
        k = len(first.vector)
    cs = cover_system(kind, k, base)
    _require_lattice(lattice, cs.k, cs.m)
    return cs


# -- the cover system ---------------------------------------------------------


@dataclass(frozen=True)
class CoverSystem:
    """The covering constraints of one family, decided edge by edge.

    One rule serves both families.  The lattice is [m]^k, and every base
    on [k] contributes its closed neighbourhoods ``hoods`` (the edgeless
    base, the radius-3 family's only one, gives {1}, ..., {k}).  The
    universe joins every pair of vectors within one in each coordinate:
    the complete graph on [2]^k at m = 2 (family B), Gamma_k at m = 3
    (family C).  A universe edge lies in the (i, condition) scaffold when
    it changes coordinate i between the condition's two values: 1 and 2
    for "slice", 2 and 3 for "s-set".  Constraint (i, condition, x) holds
    the scaffold edges at its target x: the "slice" targets are 2 on all of
    N[i] and any value of [m] elsewhere; at m = 3 the "s-set" targets are
    3 at i and 2 or 3 elsewhere.  Constraints run by i, then condition,
    then x: the order in which reports name their witnesses.

    A lattice is a member exactly when it has no edge outside the universe
    and hits every constraint; an edge is critical when it is the only hit
    of some constraint.  Membership, minimality and the critical edges read
    one ``check`` pass over a lattice's own edges, cached for the last
    (system, lattice) pair and shared, so the reports on one lattice, or
    on an equal one, do not run it again.  The exhaustive scans use the
    bit-mask view (``edges``, ``masks``), built on first use.  Both stay
    because the mask view needs the whole universe: Gamma_k has
    (7^k - 3^k)/2 edges, 58 460 at k = 6 and 141 208 100 at k = 10, which
    DEFAULT_SIZE_CAP allows, while a check costs time in proportion to the
    lattice.
    """

    k: int
    m: int
    hoods: tuple[frozenset[int], ...]  # the base's closed neighbourhoods

    @property
    def family(self) -> str:
        return "B" if self.m == 2 else "C"

    @property
    def conditions(self) -> tuple[str, ...]:
        return ("slice",) if self.m == 2 else ("slice", "s-set")

    @cached_property
    def _allowed(self) -> dict[tuple[int, str], tuple[tuple[int, ...], ...]]:
        """Per constraint group, the values each target component may take."""
        out = {}
        coords = range(1, self.k + 1)
        for i, hood in enumerate(self.hoods, 1):
            out[i, "slice"] = tuple((2,) if j in hood else tuple(range(1, self.m + 1)) for j in coords)
            if self.m == 3:
                out[i, "s-set"] = tuple((3,) if j == i else (2, 3) for j in coords)
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
        # every pair of [2]^k is within one in each coordinate
        return self.m == 2 or _gaps_ok(x, y)

    def incidence(self, x: LatticeVector, y: LatticeVector):
        """For each scaffold holding the universe edge x-y, in constraint
        order: (i, condition, the target it hits there, or None)."""
        for i in range(1, self.k + 1):
            a, b = x[i - 1], y[i - 1]
            if a != b:
                cond = "slice" if min(a, b) == 1 else "s-set"
                z = x if a > b else y
                yield i, cond, z if self.is_target(i, cond, z) else None

    def check(self, lattice: Graph):
        """The membership report (per coordinate and condition, the lattice
        edges in the scaffold and the first target they miss), the edges
        outside the universe, for each constraint hit its hitting edges in
        canonical edge order, and for each edge the constraints it alone
        hits, in constraint order.

        The last result is cached by (system, lattice) and shared, so a
        membership report and the minimality and critical-edge reports of
        an equal lattice read one pass; only one is kept, so a large
        lattice and its hit tables are not held much past their use.  No
        caller may mutate ``outside``, ``hits`` or ``sole``."""
        return _check(self, lattice)

    def _pass(self, lattice: Graph):
        """One pass over a lattice's edges: what ``check`` returns."""
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
        # each edge files its hits in constraint order and is the first hit of those it alone hits
        sole: dict[Edge, list[tuple[int, str, LatticeVector]]] = {}
        for tag, hit_edges in hits.items():
            if len(hit_edges) == 1:
                sole.setdefault(hit_edges[0], []).append(tag)
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
        report = MembershipReport(
            member=not outside and not any(missed.values()),
            family=self.family,
            k=self.k,
            diagnostics=tuple(diagnostics),
            bad_edge=outside[0] if outside else None,
        )
        return report, outside, hits, sole

    def order(self, tag: tuple[int, str, LatticeVector]) -> tuple:
        """Sort key of a constraint tag in constraint order."""
        i, cond, x = tag
        return i, self.conditions.index(cond), x

    # -- the bit-mask view, for exhaustive scans over the universe --

    def _near(self, x: LatticeVector) -> Iterator[LatticeVector]:
        """The vectors of [m]^k within one of x in every coordinate, x
        included, in lexicographic order: x's neighbours in the universe."""
        return product(*(range(max(c - 1, 1), min(c + 1, self.m) + 1) for c in x))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The universe in canonical edge order: each vertex with its later
        neighbours."""
        verts, _index, pos = _lattice_labels(self.k, self.m)
        return tuple((u, verts[pos[y]]) for u in verts for y in self._near(u.vector) if y > u.vector)

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
        pairs = (self.edges[b] for b in _iter_bits(mask))
        vectors = [(u.vector, v.vector) for u, v in pairs]  # type: ignore[union-attr]
        return span_lattice(self.k, self.m, vectors)

    def covers(self, mask: int) -> bool:
        """True iff the mask hits every constraint."""
        for cm in self.masks:
            if not mask & cm:
                return False
        return True


@lru_cache(maxsize=1)
def _check(cs: CoverSystem, lattice: Graph):
    # equal lattices have equal labels and adjacency, so a hit is what a pass would give
    return cs._pass(lattice)


def cover_system(family: str, k: int, base: Graph | None = None) -> CoverSystem:
    """The cover system of a family at k >= 2 over a base on [k], edgeless
    by default, on at most DEFAULT_SIZE_CAP vectors; family C refuses a base
    with edges.  The last few are cached, masks too, by the base itself:
    equal bases, and an edgeless base and none, share one system."""
    _check_kind(family)
    return _cover_system(2 if family == "B" else 3, k, base)


@lru_cache(maxsize=64)
def _cover_system(m: int, k: int, base: Graph | None) -> CoverSystem:
    # the one gate for k and size, passed before any graph is built
    _check_k(k)
    _check_power("m^k", m, k)
    if base is None:
        # cached under both keys, so the default costs a lookup, not a base
        return _cover_system(m, k, base_null(k))
    _check_base(base, k)
    if m == 3 and base.size:
        raise NotMember("the radius-3 family needs a null base")
    hoods = tuple(
        frozenset({i} | {u.index for u in base.neighbors(BaseVertex(i))})  # type: ignore[union-attr]
        for i in range(1, k + 1)
    )
    return CoverSystem(k, m, hoods)


# -- the maximal radius-3 lattice ------------------------------------------


def _gaps_ok(x: LatticeVector, y: LatticeVector) -> bool:
    return all(abs(a - b) <= 1 for a, b in zip(x, y))


def gamma(k: int) -> Graph:
    """The [3]^k graph joining vectors that differ by at most one in every
    coordinate: the universe of the radius-3 cover system."""
    # generated, not read off ``edges``: the cached cover system would keep
    # the universe alive after the graph is gone
    near = cover_system("C", k)._near
    return span_lattice(k, 3, ((x, y) for x in lattice_vertices(k, 3) for y in near(x) if y > x))


# -- named example graphs ---------------------------------------------------


def example_graph(name: str, k: int) -> Graph | CompositeGraph:
    """The named lattice examples and the two family maxima.

    U, V, R, P2box live on [2]^k; T and Qcanon on [3]^k.  MaxB and MaxC are
    the composite maxima of the two families.
    """
    _check_k(k)
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
    # the lattice first: its cap check must run before a k-vertex base is built
    if name == "MaxB":
        lattice = lattice_complete(k, 2)
        return compose(base_complete(k), lattice, k, 2)
    if name == "MaxC":
        lattice = gamma(k)
        return compose(base_null(k), lattice, k, 3)
    raise UnknownName(f"unknown example graph {name!r}")


def path_on(n: int) -> Graph:
    """The path with plain vertices 1..n (coordinate alphabet for products)."""
    return path_graph(PlainVertex(i) for i in range(1, n + 1))


def cartesian_power(g: Graph, s: int) -> Graph:
    """Cartesian product of s copies of a plain-labeled graph; vertices
    become lattice vectors of coordinate ids.  SizeOverflow past
    DEFAULT_SIZE_CAP vertices."""
    if s < 1:
        raise IndexOutOfRange(f"need s >= 1, got {s}")
    ids = []
    for v in g.vertices():
        if not isinstance(v, PlainVertex) or v.id < 1:
            raise WrongVertexSet("cartesian power needs PlainVertex ids >= 1 as coordinates")
        ids.append(v.id)
    _check_power("|V|^s", g.order, s)
    ids.sort()
    vecs = [tuple(v) for v in product(ids, repeat=s)]
    edges = []
    adj = {(a.id, b.id) for a, b in g.edges()}  # type: ignore[union-attr]
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
    if not all(g.has_vertex(w) for w in cert.w_order):
        raise InvalidCertificate("certificate W is not inside the graph")
    verts = g.vertices()
    adj = g.adjacency_masks()
    w_pos = [g.index_of(w) for w in cert.w_order]
    w_mask = 0
    for i in w_pos:
        w_mask |= 1 << i
    rest_mask = (1 << len(verts)) - 1 & ~w_mask
    rest = [u for u in range(len(verts)) if rest_mask >> u & 1]
    table = cert.table
    if len(table) != len(rest) or not all(verts[u] in table for u in rest):
        raise InvalidCertificate("certificate table does not cover V minus W")
    vec = {u: table[verts[u]] for u in rest}
    base_edges = [
        (BaseVertex(i + 1), BaseVertex(j + 1))
        for i in range(k)
        for j in range(i + 1, k)
        if adj[w_pos[i]] >> w_pos[j] & 1
    ]
    base = Graph([BaseVertex(i) for i in range(1, k + 1)], base_edges)
    lattice_edges = []
    for u in rest:
        later = adj[u] & rest_mask & ~((2 << u) - 1)
        while later:
            low = later & -later
            lattice_edges.append((vec[u], vec[low.bit_length() - 1]))
            later ^= low
    lattice = span_lattice(k, m, lattice_edges)
    for i, w in enumerate(cert.w_order):
        row = adj[w_pos[i]]
        for u in rest:
            if row >> u & 1 != (vec[u][i] == 1):
                raise CrossEdgeMismatch(
                    f"adjacency of {w!r} and {verts[u]!r} disagrees with the certificate vector"
                )
    return CompositeGraph(k, m, base, lattice)
