"""Minimality analysis and extremal enumeration for the two families.

A lattice graph is minimal (relative to its base for the radius-2 family,
absolutely for the radius-3 family) when family membership holds but breaks
under every single-edge deletion; because membership is closed upward under
edge addition, single deletions decide minimality against the whole
spanning-subgraph order.  This module computes the cover-index calculus
behind those checks, the edge-count bounds for minimal graphs with their
tightness characterizations, the per-vertex edge-choice sets whose products
realize every maximum-size minimal lattice, and the exhaustive minimal
enumerations at k = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product

from .errors import (
    EnumerationCapExceeded,
    IndexOutOfRange,
    NotMember,
    NotMinimal,
    VertexNotEligible,
    WrongVertexSet,
)
from .graph import BaseVertex, Edge, Graph, LatticeVector, LatticeVertex, Vertex, degree
from .families import (
    CoverSystem,
    MembershipReport,
    _require_base,
    _require_lattice,
    base_null,
    cover_system,
    lattice_vertices,
    member_b,
    member_c,
    scan_ranges,
    span_lattice,
)

#: Largest choice-product materialized by enumerate_q.
DEFAULT_Q_CAP = 100_000


# -- the cover-index calculus (radius-2 family) -----------------------------


@dataclass(frozen=True)
class CoverIndexSets:
    """For a fixed base and lattice: which coordinates constrain each
    vector (J), which are actually served (I), per edge (I_x(e)), and which
    an edge serves uniquely (the tilde sets)."""

    k: int
    j_sets: dict[LatticeVector, frozenset[int]]
    i_sets: dict[LatticeVector, frozenset[int]]
    i_edge: dict[tuple[LatticeVector, Edge], frozenset[int]]
    i_tilde: dict[tuple[LatticeVector, Edge], frozenset[int]]

    def j(self, x: LatticeVector) -> frozenset[int]:
        return self.j_sets.get(x, frozenset())

    def i(self, x: LatticeVector) -> frozenset[int]:
        return self.i_sets.get(x, frozenset())

    def i_of(self, x: LatticeVector, e: Edge) -> frozenset[int]:
        return self.i_edge.get((x, e), frozenset())

    def i_tilde_of(self, x: LatticeVector, e: Edge) -> frozenset[int]:
        return self.i_tilde.get((x, e), frozenset())


def cover_index_sets(base: Graph, lattice: Graph) -> CoverIndexSets:
    """Evaluate the whole index calculus on the cover system: J(x) holds
    the coordinates with a constraint on x, I_x(e) those whose constraint
    on x the edge e hits, and the tilde sets those it hits alone."""
    k = _require_base(base)
    _require_lattice(lattice, k, 2)
    cs = cover_system("B", k, base)
    _outside, _in_scaffold, hits = cs.scan(lattice)
    j_sets: dict[LatticeVector, frozenset[int]] = {x: frozenset() for x in lattice_vertices(k, 2)}
    i_sets = dict(j_sets)
    i_edge: dict[tuple[LatticeVector, Edge], frozenset[int]] = {}
    i_tilde: dict[tuple[LatticeVector, Edge], frozenset[int]] = {}
    for i, cond, x in cs.constraints():
        j_sets[x] |= {i}
        hit_edges = hits.get((i, cond, x), [])
        for e in hit_edges:
            i_edge[x, e] = i_edge.get((x, e), frozenset()) | {i}
            i_sets[x] |= {i}
        if len(hit_edges) == 1:
            i_tilde[x, hit_edges[0]] = i_tilde.get((x, hit_edges[0]), frozenset()) | {i}
    return CoverIndexSets(k=k, j_sets=j_sets, i_sets=i_sets, i_edge=i_edge, i_tilde=i_tilde)


# -- minimality reports ------------------------------------------------------


@dataclass(frozen=True)
class EdgeCriticality:
    edge: Edge
    critical: bool
    witness_vertex: Vertex | None = None
    witness_indices: tuple[int, ...] = ()
    condition: str | None = None  # radius-3 family: "slice" or "s-set"


@dataclass(frozen=True)
class MinimalityReport:
    minimal: bool
    member: bool
    family: str
    membership: MembershipReport
    edges: tuple[EdgeCriticality, ...]

    def __bool__(self) -> bool:
        return self.minimal

    def redundant_edges(self) -> list[Edge]:
        return [ec.edge for ec in self.edges if not ec.critical]


def _minimality(membership: MembershipReport, edges: list[EdgeCriticality]) -> MinimalityReport:
    return MinimalityReport(
        minimal=membership.member and all(ec.critical for ec in edges),
        member=membership.member,
        family=membership.family,
        membership=membership,
        edges=tuple(edges),
    )


def _sole_hits(hits: dict) -> dict[Edge, list]:
    """For each edge, the constraints it is the only hit of, in constraint
    order (a cover system's scan files an edge's hits in that order)."""
    sole: dict[Edge, list] = {}
    for tag, hit_edges in hits.items():
        if len(hit_edges) == 1:
            sole.setdefault(hit_edges[0], []).append(tag)
    return sole


def is_h1_minimal(base: Graph, lattice: Graph) -> MinimalityReport:
    """Minimality of the lattice relative to the fixed base.

    Two conditions, evaluated on the cover system: every constraint is hit,
    and every edge is the only hit of some constraint.  An edge's witness is
    its smaller endpoint that it alone covers, with every coordinate in
    which it does so.
    """
    membership = member_b(base, lattice)
    sole = _sole_hits(cover_system("B", membership.k, base).scan(lattice)[2])
    edges = []
    for e in lattice.edges():
        tags = sole.get(e, [])
        witness = min((x for _i, _cond, x in tags), default=None)
        edges.append(
            EdgeCriticality(
                edge=e,
                critical=witness is not None,
                witness_vertex=None if witness is None else LatticeVertex(witness),
                witness_indices=tuple(sorted(i for i, _cond, x in tags if x == witness)),
            )
        )
    return _minimality(membership, edges)


def is_k_minimal(lattice: Graph) -> MinimalityReport:
    """Minimality of a radius-3 lattice: membership holds and every
    single-edge deletion breaks it.  Single deletions suffice because
    membership is an up-set of the spanning-subgraph order.

    Deleting an edge leaves unhit the constraints that were unhit already
    and those it was the only hit of; the first of them is its witness.  The
    deletion also breaks membership while another edge lies outside the
    maximal lattice.
    """
    membership = member_c(lattice)
    cs = cover_system("C", membership.k)
    outside, _in_scaffold, hits = cs.scan(lattice)
    first = next((tag for tag in cs.constraints() if tag not in hits), None)
    sole = _sole_hits(hits)
    edges = []
    for e in lattice.edges():
        unhit = [tag for tag in (first, *sole.get(e, [])[:1]) if tag is not None]
        if unhit:
            i, cond, x = min(unhit, key=cs.order)
            edges.append(EdgeCriticality(e, True, LatticeVertex(x), (i,), cond))
        else:
            edges.append(EdgeCriticality(e, any(f != e for f in outside)))
    return _minimality(membership, edges)


def is_minimal_in_b(base: Graph, lattice: Graph) -> bool:
    """Minimality of the whole composite inside the radius-2 family.

    Lattice minimality relative to the base does not imply this: a base
    edge may also be deletable.  Both directions are rechecked with single
    deletions.
    """
    if not is_h1_minimal(base, lattice).minimal:
        return False
    for e in base.edges():
        smaller = Graph(base.vertices(), [f for f in base.edge_set() if f != e])
        if member_b(smaller, lattice).member:
            return False
    return True


# -- edge-count bounds -------------------------------------------------------


def bounds_b(base: Graph) -> tuple[int, int]:
    """Size bounds for a lattice minimal relative to the base, from the
    base's vertex degrees."""
    k = _require_base(base)
    degs = [degree(base, BaseVertex(i)) for i in range(1, k + 1)]
    lower = 2 ** (k - min(degs) - 1)
    upper = sum(2 ** (k - d - 1) for d in degs)
    return lower, upper


def bounds_c(k: int) -> tuple[int, int]:
    """Size bounds for a minimal radius-3 lattice, in closed form."""
    if k < 2:
        raise IndexOutOfRange(f"need k >= 2, got {k}")
    return (3 ** k + 1) // 2, k * (3 ** (k - 1) + 2 ** (k - 1))


def composite_size_bounds(kind: str, base_or_k) -> tuple[int, int]:
    """Edge-count bounds for whole minimal composites of either family."""
    if kind == "B":
        base: Graph = base_or_k
        k = _require_base(base)
        degs = [degree(base, BaseVertex(i)) for i in range(1, k + 1)]
        lower = k * 2 ** (k - 1) + sum(degs) // 2 + 2 ** (k - min(degs) - 1)
        upper = k * 2 ** (k - 1) + sum(2 ** (k - d) + d for d in degs) // 2
        return lower, upper
    if kind == "C":
        k = base_or_k
        if k < 2:
            raise IndexOutOfRange(f"need k >= 2, got {k}")
        lower = ((2 * k + 3) * 3 ** (k - 1) + 1) // 2
        upper = 2 * k * (3 ** (k - 1) + 2 ** (k - 2))
        return lower, upper
    raise ValueError(f"kind must be B or C, got {kind!r}")


# -- tightness of the radius-2 bounds ----------------------------------------


@dataclass(frozen=True)
class BoundsReport:
    family: str
    lower: int
    upper: int
    actual: int
    lower_tight: bool
    upper_tight: bool
    lower_witness_index: int | None
    upper_violation: tuple | None


def tightness_b(base: Graph, lattice: Graph) -> BoundsReport:
    """Decide which bound a minimal lattice attains, by the structural
    characterizations, and cross-assert against the raw edge counts."""
    report = is_h1_minimal(base, lattice)
    if not report.minimal:
        raise NotMinimal("tightness analysis needs a minimal lattice")
    k = base.order
    lower, upper = bounds_b(base)
    actual = lattice.size
    degs = {i: degree(base, BaseVertex(i)) for i in range(1, k + 1)}
    min_deg = min(degs.values())
    edges = lattice.edges()
    cs = cover_system("B", k, base)
    _outside, _in_scaffold, hits = cs.scan(lattice)
    lower_witness = None
    for i in range(1, k + 1):
        # each slice constraint of i has exactly one hitting edge, and those
        # are all the edges (an edge hits at most one target of i)
        counts = [len(hits.get((i, "slice", x), ())) for x in cs.targets(i, "slice")]
        if degs[i] == min_deg and counts == [1] * actual:
            lower_witness = i
            break
    lower_tight = lower_witness is not None

    cis = cover_index_sets(base, lattice)
    violation: tuple | None = None
    edge_key = lambda item: (item[0][0], item[0][1][0].vector, item[0][1][1].vector)  # noqa: E731
    for (x, e), got in sorted(cis.i_edge.items(), key=edge_key):
        if len(got) > 1:
            violation = ("a", x, e)
            break
    if violation is None:
        for e in edges:
            xv, yv = e[0].vector, e[1].vector  # type: ignore[union-attr]
            if cis.i_of(xv, e) and cis.i_of(yv, e):
                violation = ("b", e)
                break
    if violation is None:
        # a constraint hit by two edges, first by (vector, coordinate)
        doubles = [(x, i) for (i, _cond, x), hit_edges in hits.items() if len(hit_edges) > 1]
        if doubles:
            violation = ("c", *min(doubles))
    upper_tight = violation is None

    assert lower_tight == (actual == lower), "lower-tightness test disagrees with the edge count"
    assert upper_tight == (actual == upper), "upper-tightness test disagrees with the edge count"
    return BoundsReport(
        family="B",
        lower=lower,
        upper=upper,
        actual=actual,
        lower_tight=lower_tight,
        upper_tight=upper_tight,
        lower_witness_index=lower_witness,
        upper_violation=violation,
    )


# -- critical edges ----------------------------------------------------------


@dataclass(frozen=True)
class CriticalEdgeSets:
    """Per-coordinate sets of edges whose removal breaks the covering."""

    family: str
    primary: dict[int, frozenset[Edge]]          # E'_i or M'_i
    secondary: dict[int, frozenset[Edge]] | None  # N'_i (radius-3 only)


def critical_edges(kind: str, base: Graph | None, lattice: Graph) -> CriticalEdgeSets:
    """For each coordinate and condition, the edges that are the only hit
    of some constraint of the cover system: the last cover of a
    constrained vertex."""
    if kind == "B":
        assert base is not None
        rep = member_b(base, lattice)
    elif kind == "C":
        rep = member_c(lattice)
    else:
        raise ValueError(f"kind must be B or C, got {kind!r}")
    if not rep.member:
        raise NotMember("critical edges are defined for members only")
    cs = cover_system(kind, rep.k, base)
    sets: dict[tuple[int, str], set[Edge]] = {
        (i, cond): set() for i in range(1, rep.k + 1) for cond in cs.conditions
    }
    for e, tags in _sole_hits(cs.scan(lattice)[2]).items():
        for i, cond, _x in tags:
            sets[i, cond].add(e)
    by_i = {
        cond: {i: frozenset(sets[i, cond]) for i in range(1, rep.k + 1)}
        for cond in cs.conditions
    }
    return CriticalEdgeSets(family=kind, primary=by_i["slice"], secondary=by_i.get("s-set"))


# -- maximum-size minimal lattices via edge choices ---------------------------


def epsilon(k: int, i: int, x: LatticeVector) -> set[Edge]:
    """The candidate edges that may serve vector x in coordinate i inside a
    maximum-size minimal radius-3 lattice.

    The partner always drops coordinate i by one; the other coordinates are
    pinned or left free depending on which region x lies in.
    """
    if not 1 <= i <= k:
        raise IndexOutOfRange(f"coordinate index {i} not in [1, {k}]")
    x = tuple(x)
    if len(x) != k or any(c not in (1, 2, 3) for c in x):
        raise VertexNotEligible(f"{x} is not a [3]^{k} vector")
    cs = cover_system("C", k)
    conditions = [cond for cond in cs.conditions if cs.is_target(i, cond, x)]
    if not conditions:
        raise VertexNotEligible(f"{x} is neither on the value-2 slice nor in the s-set of {i}")
    in_s = "s-set" in conditions
    choices_per_t: list[list[int]] = []
    all_23 = all(c in (2, 3) for c in x)
    for t in range(k):
        if t == i - 1:
            choices_per_t.append([x[t] - 1])
        elif in_s:
            choices_per_t.append([x[t]])
        elif all_23:  # value-2 slice, inside the all-{2,3} region
            choices_per_t.append([2, 3] if x[t] == 2 else [3])
        else:  # value-2 slice, outside the region
            choices_per_t.append([1] if x[t] == 1 else [2, 3])
    out = set()
    for combo in product(*choices_per_t):
        partner = tuple(combo)
        a, b = sorted((x, partner))
        out.add((LatticeVertex(a), LatticeVertex(b)))
    return out


def q_choice_points(k: int) -> list[tuple[int, LatticeVector]]:
    """All (coordinate, vector) pairs with an edge choice -- the targets of
    the radius-3 cover system -- in canonical (i, vector) order."""
    return sorted((i, x) for i, _cond, x in cover_system("C", k).constraints())


def q_choice_lists(k: int) -> list[tuple[int, LatticeVector, list[Edge]]]:
    """Choice points with their candidate edges sorted canonically."""
    out = []
    for i, x in q_choice_points(k):
        edges = sorted(epsilon(k, i, x), key=lambda e: (e[0].vector, e[1].vector))  # type: ignore[union-attr]
        out.append((i, x, edges))
    return out


def q_count(k: int) -> int:
    """Number of distinct choice tuples (= graphs, by disjointness)."""
    total = 1
    for _i, _x, edges in q_choice_lists(k):
        total *= len(edges)
    return total


def iter_q(k: int):
    """Stream every maximum-size minimal lattice, one per choice tuple, in
    lexicographic choice order."""
    lists = [edges for _i, _x, edges in q_choice_lists(k)]
    for combo in product(*lists):
        yield span_lattice(k, 3, [(e[0].vector, e[1].vector) for e in combo])  # type: ignore[union-attr]


def enumerate_q(k: int, cap: int = DEFAULT_Q_CAP) -> list[Graph]:
    """Materialize the choice-product family; use iter_q for large k."""
    total = q_count(k)
    if total > cap:
        raise EnumerationCapExceeded(f"{total} choice tuples exceed the cap {cap}")
    graphs = list(iter_q(k))
    assert len(set(graphs)) == total, "choice tuples must give distinct graphs"
    return sorted(graphs, key=_graph_sort_key)


def _graph_sort_key(g: Graph):
    return tuple(
        (e[0].vector, e[1].vector) for e in g.edges()  # type: ignore[union-attr]
    )


# -- exhaustive minimal enumeration at k = 2 ----------------------------------


def enumerate_minimal(kind: str, k: int, base: Graph | None = None, jobs: int = 1) -> list[Graph]:
    """All minimal lattices of the chosen family at k = 2, canonically
    sorted: one scan over every mask of the cover system's universe,
    partitionable across workers with order-independent output.  Larger k
    is past the enumeration cap (the radius-3 space alone is 2^|E| over
    hundreds of edges)."""
    if k != 2:
        raise EnumerationCapExceeded(f"exhaustive minimal enumeration is capped at k=2, got k={k}")
    if kind == "B":
        if base is None:
            base = base_null(2)
        _require_base(base)
        if base.order != 2:
            raise WrongVertexSet("kind B at k=2 needs a base on [2]")
    elif kind != "C":
        raise ValueError(f"kind must be B or C, got {kind!r}")
    cs = cover_system(kind, k, base)
    parts = scan_ranges(partial(_minimal_masks, cs), 1 << len(cs.edges), jobs)
    return sorted((cs.graph(mask) for part in parts for mask in part), key=_graph_sort_key)


def _minimal_masks(cs: CoverSystem, bounds: tuple[int, int]) -> list[int]:
    """The minimal masks of the cover system in [lo, hi)."""
    return [mask for mask in range(*bounds) if cs.is_minimal(mask)]
