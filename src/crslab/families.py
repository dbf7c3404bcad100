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
    Vertex,
    _iter_bits,
    _rows,
)
from .resolving import CrsCertificate, _BoxTable

#: Largest lattice materialized by default (3^10 vectors).
DEFAULT_SIZE_CAP = 3 ** 10


def _check_power(m: int, k: int) -> None:
    """Raise IndexOutOfRange unless k, m >= 1, and SizeOverflow when m^k or
    k exceeds DEFAULT_SIZE_CAP.  For m >= 2 an exponent of the cap's bit
    length or more already does, so a huge k is rejected at once and the
    power is neither computed nor printed; for m = 1 the bound on k keeps
    the one k-tuple small.  Every builder of [m]^k runs it first."""
    if k < 1 or m < 1:
        raise IndexOutOfRange(f"need k >= 1 and m >= 1, got k={k}, m={m}")
    if m > 1 and k >= DEFAULT_SIZE_CAP.bit_length() or m ** k > DEFAULT_SIZE_CAP:
        raise SizeOverflow(f"m^k = {m}^{k} exceeds the cap {DEFAULT_SIZE_CAP}")
    if k > DEFAULT_SIZE_CAP:
        raise SizeOverflow(f"m^k needs k <= {DEFAULT_SIZE_CAP}, got k={k}")


def lattice_vertices(k: int, m: int) -> list[LatticeVector]:
    """All m^k vectors of [m]^k in lexicographic order; SizeOverflow past DEFAULT_SIZE_CAP."""
    _check_power(m, k)
    return [tuple(v) for v in product(range(1, m + 1), repeat=k)]


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
def _base_labels(k: int) -> tuple[tuple[BaseVertex, ...], dict[Vertex, int]]:
    """BaseVertex(1..k) in canonical order, and the position of each one."""
    verts = tuple(BaseVertex(i) for i in range(1, k + 1))
    return verts, {v: p for p, v in enumerate(verts)}


@lru_cache(maxsize=8)
def _composite_labels(k: int, m: int) -> tuple[tuple[Vertex, ...], dict[Vertex, int], tuple[int, ...]]:
    """The labels of [k] + [m]^k in canonical order, the position of each
    one, and the rows of the cross edges over them."""
    lattice = _lattice_labels(k, m)[0]
    verts = _base_labels(k)[0] + lattice
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
    _check_power(m, k)
    verts, index, pos = _lattice_labels(k, m)
    adj = _rows(verts, ((tuple(x), tuple(y)) for x, y in edges), pos.get, LatticeVertex)
    return Graph._from_adj(verts, index, adj)


def _labeled_graph(verts: tuple[Vertex, ...], index: dict[Vertex, int], complete: bool) -> Graph:
    """The complete or the edgeless graph on a cached label table."""
    adj = _rows(verts, (), int, int)
    if complete:
        full = (1 << len(verts)) - 1
        adj = [row | full ^ 1 << p for p, row in enumerate(adj)]
    return Graph._from_adj(verts, index, adj)


def base_complete(k: int) -> Graph:
    return _labeled_graph(*_base_labels(k), True)


def base_null(k: int) -> Graph:
    return _labeled_graph(*_base_labels(k), False)


def lattice_complete(k: int, m: int) -> Graph:
    return _labeled_graph(*_lattice_labels(k, m)[:2], True)


# -- composition ----------------------------------------------------------


@dataclass(frozen=True)
class CompositeGraph:
    """A graph on [k] + [m]^k split into its base and lattice parts.

    The base lives on BaseVertex(1..k) and the lattice on all of [m]^k,
    checked once, when the composite is built.  Cross edges join base
    vertex i to every lattice vertex whose i-th component is 1; they follow
    from the labels and appear only in the graph ``materialize()`` builds.
    """

    k: int
    m: int
    base: Graph
    lattice: Graph

    def __post_init__(self) -> None:
        _check_base(self.base, self.k)
        _require_lattice(self.lattice, self.k, self.m)

    def materialize(self) -> Graph:
        """The composite as one graph: base rows, then lattice rows shifted
        past the base, each joined with its cross-edge row."""
        k = self.k
        verts, index, cross = _composite_labels(k, self.m)
        rows = self.base.adjacency_masks() + [row << k for row in self.lattice.adjacency_masks()]
        return Graph._from_adj(verts, index, [a | b for a, b in zip(rows, cross)])


def _require_base(base: Graph) -> int:
    k = base.order
    if base.vertices() != _base_labels(k)[0]:
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
    [m]^k; with the implied cross edges, its materialized graph has
    |E(base)| + |E(lattice)| + k * m^(k-1) edges."""
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
    3 at i and 2 or 3 elsewhere.  The constraints are one table per
    system, ``constraints``, built on first use and cached with it: every
    tag (i, condition, x) numbered in constraint order, by i, then "slice"
    before "s-set", then x in lexicographic order, the order in which
    reports name their witnesses.  A hit, a witness and a mask row are
    each one lookup in it.

    A lattice is a member exactly when it has no edge outside the universe
    and hits every constraint; an edge is critical when it is the only hit
    of some constraint.  Membership, minimality and the critical edges read
    one ``check`` pass over a lattice's own edges, which numbers each edge
    once and files hits and sole hits by edge number; ``check`` itself keeps
    the last (system, lattice) pass and shares it, so the reports on one
    lattice, or on an equal one, do not run it again.  The pass works on
    positions and constraint numbers: ``_positions``, built from
    ``constraints`` on first use, packs each vector of [m]^k two bits per
    coordinate and gives, per coordinate, the number of the constraint an
    edge going down from it there hits.  A lattice edge is then one XOR of
    two packed vectors: a coordinate moving between 1 and 3 puts it outside
    the universe, and only the coordinates it changes are looked up.  The
    first pass to walk a universe edge, by its positions p < q, keeps what
    that gave in the pair table ``_pairs`` at p * m^k + q: its scaffold
    slots and the numbers of the constraints it hits, in coordinate order.
    Every later pass over the pair reads them in one lookup; a pair outside
    the universe is worked out again on every pass and never kept.  The
    table holds no labels, since a lattice on other labels is reported in
    its own.  Tags and labels are made once, for the sole hits and misses
    the reports return.  The exhaustive scans use the bit-mask view
    (``edges``, ``masks``), built on first use; a pass builds neither.
    Both views stay because the mask view needs the whole universe:
    Gamma_k has (7^k - 3^k)/2 edges, 58 460 at k = 6 and 141 208 100 at
    k = 10, which DEFAULT_SIZE_CAP allows, while the position table has
    k * m^k numbers (at most 590 490 under DEFAULT_SIZE_CAP, for C at
    k = 10) and the constraint table at most about 250 000 tags (201 950
    for C at k = 10).  The pair table grows only with the distinct
    universe edges that passes have walked, never past the universe, and
    goes with its system when the system cache drops it.  It costs about
    250 bytes a pair, 15 MB once all of Gamma_6 has been walked.  The first
    pass over a pair pays for the fill: over all of Gamma_6 a first pass
    takes up to twice as long as the bit rule alone, a later one about two
    thirds as long.
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
    def constraints(self) -> dict[tuple[int, str, LatticeVector], int]:
        """Every constraint tag (i, condition, target), numbered in
        constraint order."""
        coords = range(1, self.k + 1)
        values = range(1, self.m + 1)
        tags = []
        for i, hood in enumerate(self.hoods, 1):
            tags += [(i, "slice", x) for x in product(*((2,) if j in hood else values for j in coords))]
            if self.m == 3:
                tags += [(i, "s-set", x) for x in product(*((3,) if j == i else (2, 3) for j in coords))]
        return {tag: n for n, tag in enumerate(tags)}

    def targets(self, i: int, cond: str) -> Iterator[LatticeVector]:
        """The targets of the (i, cond) constraints, in lexicographic order."""
        return (x for j, c, x in self.constraints if j == i and c == cond)

    def incidence(self, x: LatticeVector, y: LatticeVector):
        """For each scaffold holding the universe edge x-y, in constraint
        order: (i, condition, the target it hits there, or None)."""
        for i in range(1, self.k + 1):
            a, b = x[i - 1], y[i - 1]
            if a != b:
                cond = "slice" if min(a, b) == 1 else "s-set"
                z = x if a > b else y
                yield i, cond, z if (i, cond, z) in self.constraints else None

    @cached_property
    def _positions(self) -> tuple[list[int], list[int], tuple[tuple[int, str, LatticeVector], ...], int]:
        """The pass's view of the constraints, by position of [m]^k in
        lexicographic order: each vector packed two bits per coordinate
        (component - 1 at bits 2t and 2t + 1 for coordinate t + 1); at
        k * p + t, the number of the constraint that an edge going down
        from vector p in coordinate t + 1 hits, or -1; the tags by number;
        and the mask of bit 2t for every coordinate."""
        k, number = self.k, self.constraints
        packed: list[int] = []
        down: list[int] = []
        for u in _lattice_labels(k, self.m)[0]:
            x = u.vector  # type: ignore[union-attr]
            packed.append(sum(c - 1 << 2 * t for t, c in enumerate(x)))
            # down from 2 is a slice move, down from 3 an s-set move; from 1 there
            # is none, and (i, "s-set", x) with x_i = 1 is no tag
            down += [number.get((i, "slice" if c == 2 else "s-set", x), -1) for i, c in enumerate(x, 1)]
        return packed, down, tuple(number), ((1 << 2 * k) - 1) // 3

    @cached_property
    def _pairs(self) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
        """The pass's table of walked universe edges, filled by ``check``: at
        p * m^k + q for positions p < q, the edge's scaffold slots (2t for
        coordinate t + 1's slice, 2t + 1 for its s-set) and the numbers of
        the constraints it hits, each in coordinate order."""
        return {}

    # equal lattices have equal labels and adjacency, so a hit is what a pass would give
    @lru_cache(maxsize=1)
    def check(self, lattice: Graph):
        """One pass over the lattice's edges, returning five things:
        the membership report (per coordinate and condition, the lattice
        edges in the scaffold and the first target they miss); the edges
        outside the universe; for each constraint hit, by number, the
        numbers of its hitting edges in canonical edge order; the walked
        edges, numbered in canonical edge order, so equal to
        ``lattice.edges()``; and, aligned with them, each edge's sole hits,
        its tags in constraint order, or () if none.  Edges are walked by
        position pair, each pair's slots and constraint numbers read from
        ``_pairs`` or, on its first walk, worked out and kept there, and
        hits are filed by constraint number, so each edge's tags come out
        in constraint order, and no table keyed by label edges is built.

        The last result is cached by (system, lattice) and shared, so a
        membership report and the minimality and critical-edge reports of
        an equal lattice read one pass; only one is kept, so a large
        lattice and its hit tables are not held much past their use.  No
        caller may mutate any part of it."""
        k = self.k
        packed, down, tags, ones = self._positions
        pairs = self._pairs
        size = len(packed)
        verts = lattice.vertices()
        edges: list[Edge] = []
        j = -1  # the number of the edge being walked
        outside: list[Edge] = []
        # coordinate t's slice edges at 2t, its s-set edges at 2t + 1
        in_scaffold: list[list[Edge]] = [[] for _ in range(2 * k)]
        hit: dict[int, list[int]] = {}
        for p, row in enumerate(lattice.adjacency_masks()):
            u, a, key = verts[p], packed[p], p * size
            row >>= p + 1
            while row:
                low = row & -row
                row ^= low
                q = p + low.bit_length()
                e = (u, verts[q])
                edges.append(e)
                j += 1
                entry = pairs.get(key + q)
                if entry is None:
                    b = packed[q]
                    d = a ^ b
                    # 1 <-> 3 is the only move that XORs a coordinate to 0b10
                    if d >> 1 & ~d & ones:
                        outside.append(e)
                        continue
                    slots: list[int] = []
                    numbers: list[int] = []
                    moved = (d | d >> 1) & ones
                    while moved:
                        bit = moved & -moved
                        moved ^= bit
                        s = bit.bit_length() - 1
                        # a 1-2 move XORs to 0b01 (a slice), a 2-3 move to 0b11 (an
                        # s-set); bit c is then set in the upper end's component only
                        c = s + (d >> s + 1 & 1)
                        slots.append(c)
                        n = down[k * (q if b >> c & 1 else p) + (s >> 1)]
                        if n >= 0:
                            numbers.append(n)
                    entry = pairs[key + q] = (tuple(slots), tuple(numbers))
                for c in entry[0]:
                    in_scaffold[c].append(e)
                for n in entry[1]:
                    if n in hit:
                        hit[n].append(j)
                    else:
                        hit[n] = [j]
        # an edge's sole hits were filed while it was walked, so in constraint order
        sole: list[tuple[tuple[int, str, LatticeVector], ...]] = [()] * len(edges)
        for n, hit_edges in hit.items():
            if len(hit_edges) == 1:
                sole[hit_edges[0]] += (tags[n],)
        # the first target each (i, condition) misses
        missed: dict[tuple[int, str], Vertex] = {}
        if len(hit) < len(tags):
            labels, _index, pos = _lattice_labels(k, self.m)
            for n in range(len(tags)):
                if n not in hit:
                    i, cond, x = tags[n]
                    if (i, cond) not in missed:
                        missed[i, cond] = labels[pos[x]]
        diagnostics = [
            IndexDiagnostic(
                i, tuple(in_scaffold[2 * i - 2]), tuple(in_scaffold[2 * i - 1]),
                missed.get((i, "slice")), missed.get((i, "s-set")),
            )
            for i in range(1, k + 1)
        ]
        report = MembershipReport(
            member=not outside and not missed,
            family=self.family,
            k=k,
            diagnostics=tuple(diagnostics),
            bad_edge=outside[0] if outside else None,
        )
        return report, outside, hit, edges, sole

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
    def masks(self) -> tuple[int, ...]:
        """One bit mask over the universe per constraint, in constraint
        order; the bits are set in byte arrays, so building is linear."""
        size = (len(self.edges) + 7) // 8
        rows = {tag: bytearray(size) for tag in self.constraints}
        for b, (u, v) in enumerate(self.edges):
            for i, cond, z in self.incidence(u.vector, v.vector):  # type: ignore[union-attr]
                if z is not None:
                    rows[i, cond, z][b >> 3] |= 1 << (b & 7)
        return tuple(int.from_bytes(row, "little") for row in rows.values())

    @cached_property
    def choice_masks(self) -> tuple[int, ...]:
        """Each constraint's private part, in constraint order: the universe
        edges that hit it and no other constraint.  One pass ORs each mask's
        overlap with the masks before it into ``twice``.

        These are the choice sets of the upper bound.  Let L be a minimal
        lattice with as many edges as there are constraints.  By minimality
        each edge is the only hit of some constraint, and no constraint has
        two only-hitters, so this is a bijection.  Every constraint is then
        hit by exactly one edge of L, and counting hits gives each edge
        exactly one constraint: every edge of L is private.  Conversely, one
        private edge per constraint is such a lattice when no private set is
        empty.  So the upper-tight minimal lattices are exactly the choice
        tuples, and there are as many as the product of the private-set
        sizes."""
        seen = twice = 0
        for mask in self.masks:
            twice |= seen & mask
            seen |= mask
        return tuple(mask & ~twice for mask in self.masks)

    def graph(self, mask: int) -> Graph:
        pairs = (self.edges[b] for b in _iter_bits(mask))
        vectors = [(u.vector, v.vector) for u, v in pairs]  # type: ignore[union-attr]
        return span_lattice(self.k, self.m, vectors)


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
    _check_power(m, k)
    if base is None:
        # cached under both keys, so the default costs a lookup, not a base
        return _cover_system(m, k, base_null(k))
    _check_base(base, k)
    if m == 3 and base.size:
        raise NotMember("the radius-3 family needs a null base")
    hoods = tuple(
        frozenset({i} | {j + 1 for j in _iter_bits(row)}) for i, row in enumerate(base.adjacency_masks(), 1)
    )
    return CoverSystem(k, m, hoods)


# -- the maximal radius-3 lattice ------------------------------------------


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

    U, V, R, P2box live on [2]^k; T and Qcanon on [3]^k.  Each is built by
    its rule on the vectors: P2box raises one 1 to 2 (the hypercube);
    Qcanon takes the grid moves 1 -> 2, and 2 -> 3 only from a vector with
    no 1; T steps each 1-free vector down by one in every coordinate and
    swaps 1 and 2 in each vector holding both.  MaxB and MaxC are the
    composite maxima of the two families.
    """
    _check_k(k)
    # the size check runs before any vector list, label table or base is built
    _check_power(3 if name in ("T", "Qcanon", "Gamma", "MaxC") else 2, k)
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
        edges = [(v, v[:t] + (2,) + v[t + 1:]) for v in lattice_vertices(k, 2) for t in range(k) if v[t] == 1]
        return span_lattice(k, 2, edges)
    if name == "Qcanon":
        edges = []
        for v in lattice_vertices(k, 3):
            up = [t for t, c in enumerate(v) if c == 1 or c == 2 and 1 not in v]
            edges += [(v, v[:t] + (v[t] + 1,) + v[t + 1:]) for t in up]
        return span_lattice(k, 3, edges)
    if name == "T":
        swap = {1: 2, 2: 1, 3: 3}
        edges = []
        for v in lattice_vertices(k, 3):
            if 1 not in v:
                edges.append((v, tuple(c - 1 for c in v)))
            elif 2 in v:  # each swap pair comes twice and sets its bits once
                edges.append((v, tuple(swap[c] for c in v)))
        return span_lattice(k, 3, edges)
    if name == "Gamma":
        return gamma(k)
    if name == "MaxB":
        return compose(base_complete(k), lattice_complete(k, 2), k, 2)
    if name == "MaxC":
        return compose(base_null(k), gamma(k), k, 3)
    raise UnknownName(f"unknown example graph {name!r}")


# -- relabeling a certified graph onto the canonical vertex sets ------------


def canonical_relabel(g: Graph, cert: CrsCertificate) -> CompositeGraph:
    """Rebuild a certified graph on [k] + [m]^k so that family membership
    can be tested on the canonical labels.

    The base part keeps the adjacency among the certificate's ordered W;
    lattice edges are carried through the certificate's vector table, which
    must map the vertices outside W one to one onto [m]^k; cross edges are
    implied.  Every W-to-rest adjacency of the input is checked against the
    implied cross edges, so a broken certificate cannot slip through.  The
    table is read once, by ``_box_positions``; the rest runs on positions.
    """
    k = len(cert.w_order)
    m = cert.m_of_w
    if m not in (2, 3):
        raise InvalidCertificate(f"relabeling needs truncation radius 2 or 3, got {m}")
    w_pos, outside = _box_positions(g, cert, k, m)
    verts = g.vertices()
    adj = g.adjacency_masks()
    # the base's position pairs go through _rows, which refuses k = 1
    base_verts, base_index = _base_labels(k)
    base_pairs = [(i, j) for i in range(k) for j in range(i + 1, k) if adj[w_pos[i]] >> w_pos[j] & 1]
    base = Graph._from_adj(base_verts, base_index, _rows(base_verts, base_pairs, int, int))
    verts_l, index_l, _pos = _lattice_labels(k, m)
    # every vertex's neighbours outside W, carried to lattice positions: by
    # one shift when W holds the first k positions and the cells follow in
    # position order, as on a materialized composite, else bit by bit
    if [*w_pos, *outside] == list(range(len(verts))):
        carried = [row >> k for row in adj]
    else:
        carried = _carry(adj, w_pos, outside)
    lattice = Graph._from_adj(verts_l, index_l, [carried[u] for u in outside])
    # W's i-th vertex must be joined to the lattice vectors whose i-th
    # component is 1, which is the cached cross row of BaseVertex(i + 1)
    cross = _composite_labels(k, m)[2]
    for i, w in enumerate(cert.w_order):
        if carried[w_pos[i]] == cross[i] >> k:
            continue
        row = adj[w_pos[i]]
        cell = {u: p for p, u in enumerate(outside)}
        for u in sorted(cell):
            if row >> u & 1 != (verts_l[cell[u]].vector[i] == 1):
                raise CrossEdgeMismatch(
                    f"adjacency of {w!r} and {verts[u]!r} disagrees with the certificate vector"
                )
    return CompositeGraph(k, m, base, lattice)


def _carry(adj: list[int], w_pos, outside: list[int]) -> list[int]:
    """Each row of ``adj`` without W's positions, its bits moved to the
    lattice positions of the cells that ``outside`` lists in box order."""
    where = [0] * len(adj)
    for p, u in enumerate(outside):
        where[u] = p
    rest_mask = (1 << len(adj)) - 1
    for i in w_pos:
        rest_mask &= ~(1 << i)
    carried = []
    for row in adj:
        row &= rest_mask
        out = 0
        while row:
            low = row & -row
            row ^= low
            out |= 1 << where[low.bit_length() - 1]
        carried.append(out)
    return carried


def _box_positions(g: Graph, cert: CrsCertificate, k: int, m: int) -> tuple[list[int], list[int]]:
    """W's positions in g, and the position of the vertex in each cell of
    [m]^k, in box order, which is the lattice's position order.  A box
    table over g's own labels, W and m gives them as they are; any other
    table is checked and converted, refused in this order: W not inside
    the graph, a table that does not cover V minus W, and one whose image
    is not [m]^k."""
    table, verts = cert.table, g.vertices()
    found = table.positions(verts, cert.w_order, m) if type(table) is _BoxTable else None
    if found is not None:
        return found
    if not all(g.has_vertex(w) for w in cert.w_order):
        raise InvalidCertificate("certificate W is not inside the graph")
    w_pos = [g.index_of(w) for w in cert.w_order]
    w_mask = 0
    for i in w_pos:
        w_mask |= 1 << i
    rest = [u for u in range(len(verts)) if not w_mask >> u & 1]
    vec = {u: table.get(verts[u]) for u in rest}
    if len(table) != len(rest) or None in vec.values():
        raise InvalidCertificate("certificate table does not cover V minus W")
    pos = _lattice_labels(k, m)[2]
    image = set(vec.values())
    if len(image) != len(vec) or image != pos.keys():
        raise InvalidCertificate(f"certificate table does not map V minus W onto [{m}]^{k}")
    outside = [0] * len(pos)
    for u, x in vec.items():
        outside[pos[x]] = u
    return w_pos, outside
