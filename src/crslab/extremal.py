"""Minimality analysis and extremal enumeration for the two families.

A lattice graph is minimal (relative to its base for the radius-2 family,
absolutely for the radius-3 family) when family membership holds but breaks
under every single-edge deletion; because membership is closed upward under
edge addition, single deletions decide minimality against the whole
spanning-subgraph order.  The minimality checks read the sole hits of the
cover system, found in the pass that checks membership; that pass is
cached and shared, so a report on a lattice whose membership was just
decided does not run it again.  The pass numbers the lattice's edges once,
in canonical edge order, and hands back each edge's sole hits aligned with
them, so the reports zip the two and hash no vertex label; a witness label
is read from the cached label table.  Also here: edge-count bounds for
minimal graphs with their tightness characterizations, read off the same
pass, and the exhaustive minimal enumerations at k = 2.  The choice sets
whose products are the maximum-size minimal lattices of either family are
the private parts of the constraint masks, ``CoverSystem.choice_masks``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress

from .errors import EnumerationCapExceeded, NotMember, NotMinimal, SizeOverflow
from .graph import Edge, Graph, Vertex, _iter_bits
from .families import (
    MembershipReport,
    _check_k,
    _check_kind,
    _cover,
    _lattice_labels,
    _require_base,
    cover_system,
)


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


def is_h1_minimal(base: Graph, lattice: Graph) -> MinimalityReport:
    """Minimality of the lattice relative to the fixed base.

    Two conditions, evaluated on the cover system: every constraint is hit,
    and every edge is the only hit of some constraint.  An edge's witness is
    its smaller endpoint that it alone covers, with every coordinate in
    which it does so.
    """
    cs = _cover("B", base, lattice)
    membership, _outside, _hits, walked, sole = cs.check(lattice)
    labels, _index, pos = _lattice_labels(cs.k, 2)
    edges = []
    for e, tags in zip(walked, sole):
        if not tags:
            edges.append(EdgeCriticality(e, False))
            continue
        witness = min(x for _i, _cond, x in tags)
        # the tags come in constraint order, so by coordinate
        indices = tuple(i for i, _cond, x in tags if x == witness)
        edges.append(EdgeCriticality(e, True, labels[pos[witness]], indices))
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
    cs = _cover("C", None, lattice)
    membership, outside, hits, walked, sole = cs.check(lattice)
    number = cs.constraints
    unhit = first = None
    if len(hits) != len(number):
        unhit, first = next(item for item in number.items() if item[1] not in hits)
    labels, _index, pos = _lattice_labels(cs.k, 3)
    edges = []
    for e, own in zip(walked, sole):
        tag = own[0] if own and (first is None or number[own[0]] < first) else unhit
        if tag is not None:
            i, cond, x = tag
            edges.append(EdgeCriticality(e, True, labels[pos[x]], (i,), cond))
        else:
            edges.append(EdgeCriticality(e, bool(outside) and any(f != e for f in outside)))
    return _minimality(membership, edges)


# -- edge-count bounds -------------------------------------------------------


#: Largest k the bounds of either family are computed for: their values
#: then have under 2 000 digits and print within Python's default
#: int-to-str limit.
_MAX_BOUNDS_K = 4096


def _power(base: int, exp: int) -> int:
    """``base ** exp``: every power of the bounds is taken here, and only
    once k is known to be at most _MAX_BOUNDS_K."""
    return base ** exp


def bounds_b(base: Graph) -> tuple[int, int]:
    """Size bounds for a lattice minimal relative to the base, from the
    base's vertex degrees.  The lower bound need not be attained: over the
    bases 2K2 and C4 on [4], more constraints than it are pairwise disjoint,
    and each needs an edge of its own."""
    k = _require_base(base)
    if k > _MAX_BOUNDS_K:
        raise SizeOverflow(f"radius-2 bounds need k <= {_MAX_BOUNDS_K}, got k={k}")
    degs = [row.bit_count() for row in base.adjacency_masks()]
    lower = _power(2, k - min(degs) - 1)
    upper = sum(_power(2, k - d - 1) for d in degs)
    return lower, upper


def bounds_c(k: int) -> tuple[int, int]:
    """Size bounds for a minimal radius-3 lattice, in closed form."""
    _check_k(k)
    if k > _MAX_BOUNDS_K:
        raise SizeOverflow(f"radius-3 bounds need k <= {_MAX_BOUNDS_K}, got k={k}")
    return (_power(3, k) + 1) // 2, k * (_power(3, k - 1) + _power(2, k - 1))


def composite_size_bounds(kind: str, base_or_k) -> tuple[int, int]:
    """Edge-count bounds for whole minimal composites of either family: the
    lattice bounds plus the k * m^(k-1) cross edges and the base edges."""
    _check_kind(kind)
    if kind == "B":
        base: Graph = base_or_k
        lower, upper = bounds_b(base)
        fixed = base.order * _power(2, base.order - 1) + base.size
    else:
        lower, upper = bounds_c(base_or_k)
        fixed = base_or_k * _power(3, base_or_k - 1)
    return lower + fixed, upper + fixed


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
    characterizations read off one cover-system pass.  The tightness suite
    and the tests compare them against the raw edge counts.

    I_x(e) is the set of coordinates i whose constraint on x (x is 2 on
    all of N[i]) the edge e hits.  The upper bound is attained exactly
    when no (x, e) has (a) |I_x(e)| >= 2 and no edge e = uv has (b) both
    I_u(e) and I_v(e) nonempty; the report names the first violation.  The
    lower bound is attained exactly when some coordinate of least base
    degree has as many constraints as the lattice has edges, each hit
    once."""
    cs = _cover("B", base, lattice)
    membership, _outside, hit, edges, sole = cs.check(lattice)
    if not membership.member or not all(sole):
        raise NotMinimal("tightness analysis needs a minimal lattice")
    # the one reader of the hits by tag and by edge builds them here
    hits = {tag: [edges[j] for j in hit[n]] for tag, n in cs.constraints.items() if n in hit}
    lower, upper = bounds_b(base)
    actual = len(edges)
    degs = [row.bit_count() for row in base.adjacency_masks()]
    min_deg = min(degs)
    lower_witness = None
    for i, deg in enumerate(degs, 1):
        # each slice constraint of i has exactly one hitting edge, and those
        # are all the edges (an edge hits at most one target of i)
        counts = [len(hits.get((i, "slice", x), ())) for x in cs.targets(i, "slice")]
        if deg == min_deg and counts == [1] * actual:
            lower_witness = i
            break
    lower_tight = lower_witness is not None

    # |I_x(e)| for each served (x, e); (a) is the first (x, e) with two,
    # by vector and then edge
    served = Counter((x, e) for (_i, _cond, x), hit_edges in hits.items() for e in hit_edges)
    multi = [((x, e[0].vector, e[1].vector), x, e) for (x, e), n in served.items() if n > 1]
    violation: tuple | None = ("a", *min(multi)[1:]) if multi else None
    if violation is None:
        for e in edges:
            if (e[0].vector, e) in served and (e[1].vector, e) in served:  # type: ignore[union-attr]
                violation = ("b", e)
                break
    # Without (a) and (b) each edge hits one constraint, of which it is the
    # sole hit, so no constraint has two hits: the third way to miss the
    # upper bound cannot occur in a minimal lattice.
    upper_tight = violation is None

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
    cs = _cover(kind, base, lattice)
    rep, _outside, _hits, walked, sole = cs.check(lattice)
    if not rep.member:
        raise NotMember("critical edges are defined for members only")
    sets: dict[tuple[int, str], set[Edge]] = {
        (i, cond): set() for i in range(1, rep.k + 1) for cond in cs.conditions
    }
    for e, tags in compress(zip(walked, sole), sole):
        for i, cond, _x in tags:
            sets[i, cond].add(e)
    by_i = {
        cond: {i: frozenset(sets[i, cond]) for i in range(1, rep.k + 1)}
        for cond in cs.conditions
    }
    return CriticalEdgeSets(family=kind, primary=by_i["slice"], secondary=by_i.get("s-set"))


# -- minimal lattices at k = 2: minimal hitting sets of the cover system ------


def enumerate_minimal(kind: str, k: int, base: Graph | None = None) -> list[Graph]:
    """All minimal lattices of the chosen family at k = 2, canonically
    sorted: the minimal hitting sets of the cover system's constraint
    masks.  The cover system refuses a bad kind, k, size or base first;
    larger k is past the enumeration cap, as the output grows fast and has
    no size cap yet.  The masks sort as their lattices' edge vectors do,
    by their ascending set bits: ``CoverSystem.edges`` lists the universe in
    canonical edge order (vertices in lexicographic order, each with its
    later neighbours), and ``Graph.edges()`` reads a lattice's edges in
    that same order."""
    cs = cover_system(kind, k, base)
    if k != 2:
        raise EnumerationCapExceeded(f"exhaustive minimal enumeration is capped at k=2, got k={k}")
    masks = _minimal_masks(cs.masks, len(cs.edges))
    return [cs.graph(mask) for mask in sorted(masks, key=lambda mask: tuple(_iter_bits(mask)))]


def _minimal_masks(masks: tuple[int, ...], width: int) -> list[int]:
    """Every minimal mask over ``width`` bits that hits all of ``masks``, by
    MMCS (Murakami & Uno, Discrete Applied Mathematics 170, 2014): branch
    on the candidate bits of the unhit mask with the fewest, keep a set
    while each of its bits is the sole hit of some mask, and hold a branch's
    later bits back from the earlier ones, so each comes out once."""
    out: list[int] = []
    _grow(masks, out, 0, (1 << width) - 1)
    return out


def _grow(masks: tuple[int, ...], out: list[int], chosen: int, cand: int) -> None:
    """``_minimal_masks``' branch at the set ``chosen`` with the bits
    ``cand`` still open: append ``chosen`` to ``out`` once it hits every
    mask, else branch.  A module-level function, not a closure over itself,
    so an enumeration leaves no reference cycle behind."""
    unhit = [m for m in masks if not m & chosen]
    if not unhit:
        out.append(chosen)
        return
    branch = cand & min(unhit, key=lambda m: (m & cand).bit_count())
    cand &= ~branch
    for b in _iter_bits(branch):
        grown = chosen | 1 << b
        sole = {h for m in masks if (h := m & grown) and not h & (h - 1)}
        if len(sole) == grown.bit_count():
            _grow(masks, out, grown, cand)
        cand |= 1 << b
