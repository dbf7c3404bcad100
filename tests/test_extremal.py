import dataclasses
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from functools import reduce
from itertools import combinations, islice, product
from math import prod
from operator import or_
from pathlib import Path

import pytest

from crslab.errors import (
    EnumerationCapExceeded,
    IndexOutOfRange,
    NotMember,
    NotMinimal,
    SizeOverflow,
    WrongVertexSet,
)
from crslab.graph import BaseVertex, Graph, LatticeVertex, _iter_bits
from crslab.families import (
    CoverSystem,
    base_complete,
    base_null,
    canonical_relabel,
    compose,
    cover_system,
    example_graph,
    gamma,
    lattice_complete,
    lattice_vertices,
    member_b,
    member_c,
    span_lattice,
)
from crslab import extremal, families, sweeps
from crslab.extremal import (
    EdgeCriticality,
    _minimal_masks,
    bounds_b,
    bounds_c,
    composite_size_bounds,
    critical_edges,
    enumerate_minimal,
    is_h1_minimal,
    is_k_minimal,
    tightness_b,
)
from crslab.resolving import check_crs
from crslab.sweeps import random_b_member

import reference


def vpair(a, b):
    return tuple(sorted((a, b)))


def eps_vectors(edges):
    return {vpair(e[0].vector, e[1].vector) for e in edges}


def all_lattices_k2():
    """Every spanning subgraph of the complete graph on [2]^2."""
    full = lattice_complete(2, 2)
    edges = full.edges()
    for mask in range(1 << len(edges)):
        chosen = [edges[b] for b in range(len(edges)) if mask >> b & 1]
        yield Graph(full.vertices(), chosen)


def definitional_minimal_b(base, lattice):
    """Minimality by its definition: member, and no proper spanning
    subgraph is a member (all 2^|E| subsets tested)."""
    if not member_b(base, lattice).member:
        return False
    edges = lattice.edges()
    for r in range(len(edges)):
        for combo in combinations(edges, r):
            if member_b(base, Graph(lattice.vertices(), list(combo))).member:
                return False
    return True


def brute_minimal_masks(masks, width):
    """Minimality by its rule, checked on all 2^width masks: a mask is
    minimal when it hits every constraint and each of its bits is the sole
    hit of some constraint."""
    out = []
    for mask in range(1 << width):
        needed = 0
        for cm in masks:
            hit = mask & cm
            if not hit:
                break
            if not hit & (hit - 1):
                needed |= hit
        else:
            if needed == mask:
                out.append(mask)
    return out


def single_deletion_minimal_b(base, lattice):
    if not member_b(base, lattice).member:
        return False
    return all(
        not member_b(base, Graph(lattice.vertices(), [f for f in lattice.edges() if f != e])).member
        for e in lattice.edges()
    )


def labeled_bases(k):
    """Every base graph on b1..bk, one per edge subset."""
    pairs = list(combinations(range(1, k + 1), 2))
    for mask in range(1 << len(pairs)):
        edges = [(BaseVertex(a), BaseVertex(b)) for n, (a, b) in enumerate(pairs) if mask >> n & 1]
        yield Graph(base_null(k).vertices(), edges)


def greedy_packing(masks):
    """Pairwise disjoint constraint masks, smallest first: each one needs
    an edge of its own in every member."""
    packing, used = [], 0
    for mask in sorted(masks, key=int.bit_count):
        if not mask & used:
            packing.append(mask)
            used |= mask
    return packing


def region_epsilon(k, i, x):
    """The edge-choice sets by the region rule: the partner drops
    coordinate i by one; an s-set target pins every other coordinate; a
    value-2 slice target inside the all-{2,3} region frees a 2 to {2, 3}
    and pins a 3, one outside it pins a 1 and frees the rest to {2, 3}."""
    in_s = x[i - 1] == 3
    all_23 = all(c in (2, 3) for c in x)
    choices = []
    for t, c in enumerate(x):
        if t == i - 1:
            choices.append([c - 1])
        elif in_s:
            choices.append([c])
        elif all_23:
            choices.append([2, 3] if c == 2 else [3])
        else:
            choices.append([1] if c == 1 else [2, 3])
    return {
        tuple(LatticeVertex(v) for v in sorted((x, partner)))
        for partner in product(*choices)
    }


def choice_set(k, i, x):
    """The edge-choice set of family C's (i, ., x) constraint, read off
    ``CoverSystem.choice_masks`` as edges."""
    cs = cover_system("C", k)
    cond = "slice" if x[i - 1] == 2 else "s-set"
    return {cs.edges[b] for b in _iter_bits(cs.choice_masks[cs.constraints[i, cond, x]])}


def choice_tuples(cs):
    """Every choice tuple of a cover system as a lattice mask, in product
    order: one bit from each of its choice masks."""
    bits = [[1 << b for b in _iter_bits(mask)] for mask in cs.choice_masks]
    return (reduce(or_, picks) for picks in product(*bits))


def q_lattices(k):
    """The maximum-size minimal lattices of family C, one per choice tuple."""
    cs = cover_system("C", k)
    return (cs.graph(mask) for mask in choice_tuples(cs))


def tuple_count(k):
    """The number of choice tuples of family C: the product of the choice
    sets' sizes."""
    return prod(mask.bit_count() for mask in cover_system("C", k).choice_masks)


def widen_choice_masks(monkeypatch, widen):
    """Give each family C constraint (k, tag) for which ``widen`` holds its
    whole mask as its choice set, not only its private part.  A property
    is a data descriptor, so it wins over a value already cached."""
    private = families.CoverSystem.choice_masks.func

    def choice_masks(cs):
        return tuple(
            whole if cs.m == 3 and widen(cs.k, tag) else own
            for tag, whole, own in zip(cs.constraints, cs.masks, private(cs))
        )

    monkeypatch.setattr(families.CoverSystem, "choice_masks", property(choice_masks))


def overlapping_pairs(k):
    """Pairs of choice points whose edge-choice sets share an edge, read
    off the choice masks as the sizes suite reads them."""
    sets = cover_system("C", k).choice_masks
    return sum(
        bool(sets[a] & sets[b]) for a in range(len(sets)) for b in range(a + 1, len(sets))
    )


def widened_size_violations():
    """The sizes suite's lines for choice sets that overlap at k = 2 and 3
    but keep their points and none empty."""
    lines = []
    for k, points in ((2, 10), (3, 39)):
        overlaps = overlapping_pairs(k)
        assert overlaps > 0
        lines.append(
            f"q{k} choice sets: {points} points (want {points}), {overlaps} overlapping pairs, 0 empty sets"
        )
    return lines


class TestMinimalityB:
    def test_named_examples(self):
        assert is_h1_minimal(base_complete(2), example_graph("U", 2)).minimal
        assert is_h1_minimal(base_complete(3), example_graph("V", 3)).minimal
        assert is_h1_minimal(base_null(2), example_graph("R", 2)).minimal
        assert is_h1_minimal(base_null(3), example_graph("P2box", 3)).minimal

    def test_extra_edge_breaks_minimality(self):
        bloated = span_lattice(2, 2, [((1, 1), (2, 2)), ((1, 2), (2, 2))])
        rep = is_h1_minimal(base_complete(2), bloated)
        assert rep.member and not rep.minimal
        assert rep.redundant_edges()
        # oracle: deleting the redundant edge keeps membership
        e = rep.redundant_edges()[0]
        smaller = Graph(bloated.vertices(), [f for f in bloated.edges() if f != e])
        assert member_b(base_complete(2), smaller).member

    def test_equivalent_to_definitional_check_exhaustively(self):
        # index-calculus minimality == single-deletion == all-subsets, over
        # the whole 2 x 2^6 space
        for base in (base_null(2), base_complete(2)):
            for lattice in all_lattices_k2():
                lemma = is_h1_minimal(base, lattice).minimal
                assert lemma == single_deletion_minimal_b(base, lattice)
                assert lemma == definitional_minimal_b(base, lattice)

    def test_composite_minimality_deletes_each_base_edge(self):
        # minimality relative to a fixed base says nothing about the base's
        # own edges: U and V are minimal over the complete base and lose
        # membership without its edge; R_3 is minimal over a one-edge base,
        # yet that edge can go, as R_3 is a member over the null base too
        for name in ("U", "V"):
            assert is_h1_minimal(base_complete(2), example_graph(name, 2)).minimal
            assert not member_b(base_null(2), example_graph(name, 2)).member
        base = Graph(base_null(3).vertices(), [(BaseVertex(1), BaseVertex(2))])
        r3 = example_graph("R", 3)
        assert is_h1_minimal(base, r3).minimal
        assert member_b(base_null(3), r3).member

    def test_critical_witnesses_are_reported(self):
        rep = is_h1_minimal(base_null(2), example_graph("P2box", 2))
        for ec in rep.edges:
            assert ec.critical and ec.witness_vertex is not None
            assert ec.witness_indices


class TestMinimalityC:
    def test_t2_minimal(self):
        rep = is_k_minimal(example_graph("T", 2))
        assert rep.minimal
        assert all(ec.critical for ec in rep.edges)

    def test_gamma_not_minimal(self):
        rep = is_k_minimal(gamma(2))
        assert rep.member and not rep.minimal
        assert rep.redundant_edges()

    def test_q_members_minimal(self):
        for g in q_lattices(2):
            assert is_k_minimal(g).minimal

    def test_critical_edges_match_single_deletions(self):
        # the kernel's sole-hit rule against deleting each edge and asking
        # member_c again, on members, non-members and lattices with an edge
        # outside the maximal lattice
        rng = random.Random(7)
        vecs = lattice_vertices(2, 3)
        pairs = [(x, y) for a, x in enumerate(vecs) for y in vecs[a + 1:]]
        for trial in range(60):
            chosen = [e for e in pairs if rng.random() < (0.4 if trial % 3 else 0.25)]
            lattice = span_lattice(2, 3, chosen)
            rep = is_k_minimal(lattice)
            for ec in rep.edges:
                after = Graph(lattice.vertices(), [f for f in lattice.edges() if f != ec.edge])
                assert ec.critical == (not member_c(after).member)

    @pytest.mark.parametrize("case", ["member", "misses-a-constraint", "hits-all-with-an-edge-outside"])
    def test_the_all_hit_shortcut(self, case):
        # the first unhit constraint is looked for only when one is unhit;
        # each report is checked against the direct rule and single deletions
        cs = cover_system("C", 3)
        t3, g3 = example_graph("T", 3), gamma(3)
        if case == "member":
            lattice = t3
        elif case == "misses-a-constraint":
            # Gamma_3 without the hits of one s-set constraint misses it alone
            gone = (1, "s-set", (3, 3, 3))
            lattice = Graph(g3.vertices(), [
                (u, v) for u, v in g3.edges() if gone not in cs.incidence(u.vector, v.vector)
            ])
        else:
            lattice = Graph(g3.vertices(), g3.edges() + [(LatticeVertex((1, 1, 1)), LatticeVertex((3, 1, 1)))])
        hit_by, bad = {}, []
        for e in lattice.edges():
            x, y = e[0].vector, e[1].vector
            if not reference.in_universe(x, y):
                bad.append(e)
                continue
            for i, cond, z in cs.incidence(x, y):
                if z is not None:
                    hit_by.setdefault((i, cond, z), []).append(e)
        assert len(cs.constraints) - len(hit_by) == (case == "misses-a-constraint")
        assert bool(bad) == (case == "hits-all-with-an-edge-outside")
        rep = is_k_minimal(lattice)
        # the pass files each hit by constraint number and edge number
        _report, _outside, hits, walked, _sole = cs.check(lattice)
        assert walked == lattice.edges()
        assert {tag: [walked[j] for j in hits[n]] for tag, n in cs.constraints.items() if n in hits} == hit_by
        assert [ec.edge for ec in rep.edges] == lattice.edges()
        for ec in rep.edges:
            # unhit once ec.edge is gone, in constraint order
            lost = [tag for tag in cs.constraints if hit_by.get(tag, [ec.edge]) == [ec.edge]]
            if lost:
                i, cond, x = lost[0]
                assert ec == EdgeCriticality(ec.edge, True, LatticeVertex(x), (i,), cond)
            else:
                assert ec == EdgeCriticality(ec.edge, any(f != ec.edge for f in bad))
            after = Graph(lattice.vertices(), [f for f in lattice.edges() if f != ec.edge])
            assert ec.critical == (not member_c(after).member)
        assert rep.member == rep.minimal == (case == "member")
        if case == "hits-all-with-an-edge-outside":
            assert rep.redundant_edges() == bad

    def test_composite_level_split(self):
        # R is minimal over the null base, so the complete-base composite
        # can still lose its base edge
        assert is_h1_minimal(base_null(2), example_graph("R", 2)).minimal
        assert member_b(base_complete(2), example_graph("R", 2)).member


def eager_records(kind, base, lattice):
    """The two per-edge loops that built every record before any report was
    read, restated on the cover pass: the rule the lazy records must equal."""
    cs = families._cover(kind, base, lattice)
    _membership, outside, hits, walked, sole = cs.check(lattice)
    labels, _index, pos = families._lattice_labels(cs.k, cs.m)
    edges = []
    if kind == "B":
        for e, tags in zip(walked, sole):
            if not tags:
                edges.append(EdgeCriticality(e, False))
                continue
            witness = min(x for _i, _cond, x in tags)
            indices = tuple(i for i, _cond, x in tags if x == witness)
            edges.append(EdgeCriticality(e, True, labels[pos[witness]], indices))
        return tuple(edges)
    number = cs.constraints
    unhit = first = None
    if len(hits) != len(number):
        unhit, first = next(item for item in number.items() if item[1] not in hits)
    for e, own in zip(walked, sole):
        tag = own[0] if own and (first is None or number[own[0]] < first) else unhit
        if tag is not None:
            i, cond, x = tag
            edges.append(EdgeCriticality(e, True, labels[pos[x]], (i,), cond))
        else:
            edges.append(EdgeCriticality(e, bool(outside) and any(f != e for f in outside)))
    return tuple(edges)


def outside_edge(k):
    """An edge outside Gamma_k: a 1-3 move in the first coordinate."""
    return (LatticeVertex((1,) * k), LatticeVertex((3,) + (1,) * (k - 1)))


def lazy_record_cases():
    """(kind, base, lattice): every lattice of the cover golden file, T_k
    less one edge, seeded members of both families and a lattice next to
    each (one edge dropped, and for family C one edge outside Gamma_k
    added), and Gamma_2 with one edge outside it."""
    from test_cover_golden import B_NAMES, C_NAMES

    cases = []
    for k in (2, 3):
        for name in B_NAMES:
            for base in (base_null(k), base_complete(k)):
                cases.append(("B", base, example_graph(name, k)))
        for name in C_NAMES:
            cases.append(("C", None, example_graph(name, k)))
        # a minimal member less one edge misses a constraint, also beside an
        # edge outside Gamma_k
        t = example_graph("T", k)
        cases.append(("C", None, Graph(t.vertices(), t.edges()[1:])))
        cases.append(("C", None, Graph(t.vertices(), t.edges()[1:] + [outside_edge(k)])))
    rng = random.Random(17)
    for k in (2, 3):
        for _ in range(4):
            base, lattice = random_b_member(rng, k)
            cases.append(("B", base, lattice))
            edges = lattice.edges()
            cases.append(("B", base, Graph(lattice.vertices(), edges[:-1])))
            lattice = sweeps.random_c_member(rng, k)
            cases.append(("C", None, lattice))
            edges = lattice.edges()
            cases.append(("C", None, Graph(lattice.vertices(), edges[1:])))
            cases.append(("C", None, Graph(lattice.vertices(), edges + [outside_edge(k)])))
    g2 = gamma(2)
    cases.append(("C", None, Graph(g2.vertices(), g2.edges() + [outside_edge(2)])))
    return cases


def minimality_report(kind, base, lattice):
    return is_h1_minimal(base, lattice) if kind == "B" else is_k_minimal(lattice)


class TestLazyRecords:
    """A found report's ``edges`` is built on first read; until then the
    report answers from the cover pass's sole hits."""

    def test_records_equal_the_eager_rule(self):
        seen = Counter()
        for kind, base, lattice in lazy_record_cases():
            want = eager_records(kind, base, lattice)
            rep = minimality_report(kind, base, lattice)
            assert type(rep.edges) is extremal._EdgeRecords
            # read before any record exists
            redundant = [ec.edge for ec in want if not ec.critical]
            assert len(rep.edges) == len(want)
            assert rep.redundant_edges() == redundant
            assert rep.minimal == bool(rep) == (rep.member and all(ec.critical for ec in want))
            assert tuple(rep.edges) == want
            seen[kind, rep.member, rep.minimal, bool(redundant)] += 1
        # members minimal and not, and non-members with and without a
        # redundant edge, of both families
        assert {(kind, member, minimal) for kind, member, minimal, _r in seen} == {
            (kind, member, minimal) for kind in "BC" for member, minimal in
            ((True, True), (True, False), (False, False))
        }
        assert ("C", False, False, True) in seen and ("C", False, False, False) in seen

    def test_records_read_as_the_tuple(self):
        for kind, base, lattice in lazy_record_cases():
            want = eager_records(kind, base, lattice)
            rep = minimality_report(kind, base, lattice)
            seq = rep.edges
            assert repr(seq) == repr(want)
            assert seq == want and want == seq and not seq != want and not want != seq
            assert hash(seq) == hash(want)
            assert seq == minimality_report(kind, base, lattice).edges
            assert seq != list(want) and list(want) != seq
            assert list(seq) == list(want) and list(reversed(seq)) == list(reversed(want))
            for i in range(-len(want), len(want)):
                assert seq[i] == want[i]
            for i in (len(want), -len(want) - 1):
                with pytest.raises(IndexError):
                    seq[i]
            assert seq[1:] == want[1:] and seq[::-2] == want[::-2] and seq[:0] == ()
            assert type(seq[1:]) is tuple
            # a report with its edges as a plain tuple equals it and hashes alike
            hand = dataclasses.replace(rep, edges=want)
            assert hand == rep and rep == hand and hash(hand) == hash(rep)
            assert hand.redundant_edges() == rep.redundant_edges()
            same = dataclasses.replace(rep)
            assert same.edges is seq and same == rep and hash(same) == hash(rep)
            if want:
                # a different record in any place breaks the equality
                other = dataclasses.replace(want[-1], critical=not want[-1].critical)
                assert seq != want[:-1] + (other,) and want[:-1] + (other,) != seq
                assert dataclasses.replace(rep, edges=want[:-1] + (other,)) != rep

    def test_reports_answer_without_building_a_record(self, monkeypatch):
        real = extremal.EdgeCriticality
        built = []

        def refuse(*args, **kwargs):
            raise AssertionError("a record was built")

        def counting(*args, **kwargs):
            built.append(args[0])
            return real(*args, **kwargs)

        probed = 0
        for kind, base, lattice in lazy_record_cases():
            want = eager_records(kind, base, lattice)
            monkeypatch.setattr(extremal, "EdgeCriticality", refuse)
            rep = minimality_report(kind, base, lattice)
            answers = (rep.minimal, rep.member, bool(rep), len(rep.edges), rep.redundant_edges())
            if want:
                # the control: the patched class bites
                with pytest.raises(AssertionError, match="a record was built"):
                    tuple(rep.edges)
                probed += 1
            monkeypatch.setattr(extremal, "EdgeCriticality", counting)
            built.clear()
            assert tuple(rep.edges) == want and len(built) == len(want)
            assert list(rep.edges) == list(want) and repr(rep.edges) == repr(want)
            assert len(built) == len(want) and built == [ec.edge for ec in want]
            monkeypatch.undo()
            member = (member_b(base, lattice) if kind == "B" else member_c(lattice)).member
            minimal = member and all(ec.critical for ec in want)
            assert answers == (minimal, member, minimal, len(want), [ec.edge for ec in want if not ec.critical])
        assert probed > 20


class TestBounds:
    def test_b_bounds(self):
        assert bounds_b(base_complete(2)) == (1, 2)
        assert bounds_b(base_null(2)) == (2, 4)
        assert bounds_b(base_null(3)) == (4, 12)

    def test_c_bounds(self):
        assert bounds_c(2) == (5, 10)
        assert bounds_c(3) == (14, 39)
        assert bounds_c(4) == (41, 140)

    #: composite_size_bounds by sorted base degree sequence, every labeled
    #: base on [2]..[4]
    COMPOSITE_B = {
        (0, 0): (6, 8),
        (1, 1): (6, 7),
        (0, 0, 0): (16, 24),
        (0, 1, 1): (17, 21),
        (1, 1, 2): (16, 19),
        (2, 2, 2): (16, 18),
        (0, 0, 0, 0): (40, 64),
        (0, 0, 1, 1): (41, 57),
        (0, 1, 1, 2): (42, 52),
        (0, 2, 2, 2): (43, 49),
        (1, 1, 1, 1): (38, 50),
        (1, 1, 1, 3): (39, 48),
        (1, 1, 2, 2): (39, 47),
        (1, 2, 2, 3): (40, 45),
        (2, 2, 2, 2): (38, 44),
        (2, 2, 3, 3): (39, 43),
        (3, 3, 3, 3): (39, 42),
    }

    def test_composite_bounds(self):
        assert [composite_size_bounds("C", k) for k in range(2, 7)] == [
            (11, 16), (41, 66), (149, 248), (527, 890), (1823, 3108),
        ]
        seen = set()
        for k in (2, 3, 4):
            for base in labeled_bases(k):
                degs = tuple(sorted(sum(v in e for e in base.edges()) for v in base.vertices()))
                assert composite_size_bounds("B", base) == self.COMPOSITE_B[degs], base.edges()
                seen.add(degs)
        assert seen == set(self.COMPOSITE_B)

    def test_upper_bound_is_the_number_of_constraints(self):
        # each edge of a minimal member is the only hit of some constraint
        for k, count in zip((2, 3, 4, 5), (10, 39, 140, 485)):
            assert bounds_c(k)[1] == len(cover_system("C", k).masks) == count
        for k in (2, 3, 4):
            for base in labeled_bases(k):
                assert bounds_b(base)[1] == len(cover_system("B", k, base).masks), base.edges()

    @pytest.mark.parametrize(
        "edges, packed",
        [([(1, 2), (3, 4)], 5), ([(1, 3), (1, 4), (2, 3), (2, 4)], 3)],
        ids=["2K2", "C4"],
    )
    def test_lower_bound_is_not_attained_everywhere(self, edges, packed):
        base = Graph(base_null(4).vertices(), [(BaseVertex(a), BaseVertex(b)) for a, b in edges])
        packing = greedy_packing(cover_system("B", 4, base).masks)
        for a, b in combinations(packing, 2):
            assert not a & b
        # every member needs one edge per packed mask
        assert len(packing) == packed == bounds_b(base)[0] + 1

    def test_composite_bounds_consistent_with_parts(self):
        for base in (base_null(2), base_complete(2)):
            lo, hi = bounds_b(base)
            clo, chi = composite_size_bounds("B", base)
            cross = 2 * 2 ** (2 - 1)
            assert clo == cross + base.size + lo
            assert chi == cross + base.size + hi

    def test_enumerated_sizes_lie_within_bounds(self):
        for base in (base_null(2), base_complete(2)):
            lo, hi = bounds_b(base)
            for g in enumerate_minimal("B", 2, base=base):
                assert lo <= g.size <= hi
        lo, hi = bounds_c(2)
        for g in enumerate_minimal("C", 2):
            assert lo <= g.size <= hi


class TestTightness:
    def test_named_extremes(self):
        rep = tightness_b(base_complete(2), example_graph("U", 2))
        assert rep.lower_tight and not rep.upper_tight
        assert rep.lower_witness_index is not None
        rep = tightness_b(base_complete(2), example_graph("V", 2))
        assert rep.upper_tight and not rep.lower_tight
        assert rep.upper_violation is None
        rep = tightness_b(base_null(2), example_graph("P2box", 2))
        assert rep.upper_tight and not rep.lower_tight
        rep = tightness_b(base_null(2), example_graph("R", 2))
        assert rep.lower_tight and not rep.upper_tight
        assert rep.upper_violation is not None

    def test_requires_minimality(self):
        with pytest.raises(NotMinimal):
            tightness_b(base_null(2), gamma_2_as_binary())

    def test_agrees_with_raw_counts_everywhere(self):
        for base in (base_null(2), base_complete(2)):
            lo, hi = bounds_b(base)
            for lattice in enumerate_minimal("B", 2, base=base):
                rep = tightness_b(base, lattice)
                assert rep.lower_tight == (lattice.size == lo)
                assert rep.upper_tight == (lattice.size == hi)

    def test_non_regular_base_above_the_lower_bound(self):
        # every edge changes coordinate 2, a minimum-degree coordinate, yet
        # (1,2,1)-(2,1,2) hits none of its slice targets (2,2,1) and (2,2,2)
        base = Graph(base_null(3).vertices(), [(BaseVertex(1), BaseVertex(2)), (BaseVertex(1), BaseVertex(3))])
        lattice = span_lattice(3, 2, [
            ((1, 1, 1), (2, 2, 1)), ((1, 1, 1), (2, 2, 2)), ((1, 2, 1), (2, 1, 2)),
        ])
        assert definitional_minimal_b(base, lattice)
        rep = tightness_b(base, lattice)
        assert bounds_b(base) == (2, 5) and lattice.size == 3
        assert not rep.lower_tight and rep.lower_witness_index is None
        assert not rep.upper_tight

    def test_suite_cross_check_can_fail(self, monkeypatch):
        # the tightness suite compares the characterization with the raw
        # counts itself, so a wrong report is a FAIL line, not a crash
        assert sweeps.check_tightness() == []

        def wrong_lower(base, lattice):
            rep = tightness_b(base, lattice)
            return dataclasses.replace(rep, lower_tight=not rep.lower_tight)

        monkeypatch.setattr(sweeps, "tightness_b", wrong_lower)
        assert sweeps.check_tightness()
        monkeypatch.undo()
        # the pass hands back no hits, so no (x, e) is served and every
        # minimal lattice reads upper-tight; over the null base on [2], whose
        # bounds are 2 and 4, a lattice of 3 edges reads its lower side
        # right, so its mismatch is the upper side's
        check = families.CoverSystem.check

        def no_hits(cs, lattice):
            report, outside, _hits, edges, sole = check(cs, lattice)
            return report, outside, {}, edges, sole

        monkeypatch.setattr(families.CoverSystem, "check", no_hits)
        assert bounds_b(base_null(2)) == (2, 4)
        assert "tightness mismatch at size 3" in sweeps.check_tightness()

    def test_agrees_with_raw_counts_at_k3(self):
        rng = random.Random(7)
        lower_tight = 0
        for _ in range(300):
            base, lattice = random_b_member(rng, 3)
            edges = lattice.edges()
            rng.shuffle(edges)
            for e in edges:
                smaller = Graph(lattice.vertices(), [f for f in lattice.edges() if f != e])
                if member_b(base, smaller).member:
                    lattice = smaller
            lo, hi = bounds_b(base)
            rep = tightness_b(base, lattice)
            assert rep.lower_tight == (lattice.size == lo)
            assert rep.upper_tight == (lattice.size == hi)
            lower_tight += rep.lower_tight
        assert lower_tight > 0

    def test_one_sole_edge_per_constraint_is_upper_tight_at_k3(self):
        # over each of the 8 labeled bases on [3], take for every constraint
        # its first edge that hits no other constraint: one edge per
        # constraint, so the minimal lattice has the upper bound's size
        uppers = []
        for base in labeled_bases(3):
            cs = cover_system("B", 3, base)
            mask = 0
            for alone in cs.choice_masks:
                mask |= alone & -alone  # its lowest bit: the first such edge
            lattice = cs.graph(mask)
            assert is_h1_minimal(base, lattice).minimal
            assert lattice.size == bounds_b(base)[1]
            rep = tightness_b(base, lattice)
            assert rep.upper_tight and rep.upper_violation is None, base.edges()
            uppers.append(lattice.size)
        assert sorted(uppers, reverse=True) == [12, 8, 8, 8, 5, 5, 5, 3]


def gamma_2_as_binary():
    # any non-minimal member over the null base
    return lattice_complete(2, 2)


class TestEpsilon:
    def test_s_set_case_pins_everything(self):
        assert eps_vectors(choice_set(2, 1, (3, 3))) == {vpair((3, 3), (2, 3))}

    def test_inside_region_frees_twos(self):
        assert eps_vectors(choice_set(2, 1, (2, 2))) == {
            vpair((2, 2), (1, 2)), vpair((2, 2), (1, 3))
        }

    def test_outside_region_pins_ones(self):
        assert eps_vectors(choice_set(2, 1, (2, 1))) == {vpair((2, 1), (1, 1))}

    def test_private_edges_match_the_region_rule(self):
        checked = 0
        for k in (2, 3, 4, 5):
            for i, _cond, x in cover_system("C", k).constraints:
                assert choice_set(k, i, x) == region_epsilon(k, i, x), (k, i, x)
                checked += 1
        assert checked == 10 + 39 + 140 + 485

    def test_widened_choice_sets_overlap(self, monkeypatch):
        assert overlapping_pairs(2) == 0
        widen_choice_masks(monkeypatch, lambda k, tag: True)
        assert overlapping_pairs(2) > 0
        assert sweeps.check_minimal_enumeration() == [
            "size-10 stratum differs from the choice-product family"
        ]

    def test_widened_choice_sets_break_the_q3_sizes(self, monkeypatch):
        # widening the all-3 vector alone already shares edges between its
        # coordinates, at k = 2 as at k = 3
        widen_choice_masks(monkeypatch, lambda k, tag: tag[2] == (3,) * k)
        assert sweeps.check_size_identities() == widened_size_violations()

    def test_widened_s_set_choice_sets_break_the_q3_sizes(self, monkeypatch):
        # the 12 s-set choice points widened to every edge of their
        # constraint: more tuples than the 256^3 of q(3), and some with
        # fewer than 39 distinct edges, as their sets overlap
        widen_choice_masks(monkeypatch, lambda k, tag: tag[2] in reference.s_set(k, tag[0]))
        assert tuple_count(3) > 256 ** 3
        assert sweeps.check_size_identities() == widened_size_violations()

    def test_disjointness_exhaustive(self):
        # choice points by the region rule, not by the cover system: nonempty,
        # pairwise-disjoint sets, bounds_c(k)[1] of them, as the sizes
        # suite's facts say at k = 2, 3
        for k in (2, 3, 4, 5):
            points = [
                (i, x)
                for i in range(1, k + 1)
                for x in lattice_vertices(k, 3)
                if x[i - 1] == 2 or x in reference.s_set(k, i)
            ]
            n = len(points)
            assert n == bounds_c(k)[1] == (10, 39, 140, 485)[k - 2]
            assert n == len(cover_system("C", k).constraints)
            sets = [choice_set(k, i, x) for i, x in points]
            assert all(sets)
            for a in range(n):
                for b in range(a + 1, n):
                    assert sets[a].isdisjoint(sets[b]), (k, points[a], points[b])
            assert sweeps._choice_set_facts(k) == (n, n * (n - 1) // 2, 0, 0)


class TestEnumerateQ:
    def test_q2(self):
        q2 = list(q_lattices(2))
        assert len(q2) == tuple_count(2) == 4
        assert all(g.size == 10 for g in q2)
        assert len(set(q2)) == 4
        assert example_graph("Qcanon", 2) in q2

    def test_q3_is_capped(self):
        # past k = 2 the exhaustive enumeration refuses, and the choice
        # tuples are the only way to the top stratum
        assert tuple_count(3) == 256 ** 3
        with pytest.raises(EnumerationCapExceeded):
            enumerate_minimal("C", 3)

    def test_q3_sample_members_are_minimal(self):
        want = 3 * (9 + 4)
        for g in islice(q_lattices(3), 5):
            assert g.size == want
            assert member_c(g).member
        # full minimality is slower; one streamed member suffices here
        g = next(q_lattices(3))
        assert is_k_minimal(g).minimal


class TestCriticalEdges:
    def test_t2_every_edge_critical(self):
        ce = critical_edges("C", None, example_graph("T", 2))
        covered = set().union(*ce.primary.values(), *ce.secondary.values())
        assert covered == set(example_graph("T", 2).edges())

    def test_gamma_has_slack(self):
        ce = critical_edges("C", None, gamma(2))
        covered = set().union(*ce.primary.values(), *ce.secondary.values())
        assert len(covered) < gamma(2).size

    def test_r_unique_cover(self):
        r2 = example_graph("R", 2)
        ce = critical_edges("B", base_null(2), r2)
        assert ce.primary[1] == frozenset(r2.edges())
        assert ce.primary[2] == frozenset(r2.edges())

    def test_cardinality_caps(self):
        for g in q_lattices(2):
            ce = critical_edges("C", None, g)
            for i, edges in ce.primary.items():
                assert len(edges) <= 3 ** (2 - 1)
            for i, edges in ce.secondary.items():
                assert len(edges) <= 2 ** (2 - 1)

    def test_needs_membership(self):
        with pytest.raises(NotMember):
            critical_edges("C", None, span_lattice(2, 3, []))

    def test_c_reads_the_given_base(self):
        t2 = example_graph("T", 2)
        assert critical_edges("C", base_null(2), t2) == critical_edges("C", None, t2)
        with pytest.raises(NotMember, match="the radius-3 family needs a null base"):
            critical_edges("C", base_complete(2), t2)


class TestOnePass:
    """Each report reads its lattice in one cover-system pass, and the
    reports of one membership request share it."""

    @pytest.fixture
    def passes(self):
        # counts the uncached passes, from an empty cache: a report that
        # reads a cached pass adds none
        CoverSystem.check.cache_clear()
        yield lambda: CoverSystem.check.cache_info().misses
        CoverSystem.check.cache_clear()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: member_b(base_complete(3), example_graph("U", 3)),
            lambda: member_c(example_graph("T", 3)),
            lambda: is_h1_minimal(base_complete(3), example_graph("U", 3)),
            lambda: is_k_minimal(example_graph("T", 3)),
            lambda: critical_edges("B", base_complete(3), example_graph("U", 3)),
            lambda: critical_edges("C", None, example_graph("T", 3)),
        ],
        ids=["member_b", "member_c", "is_h1_minimal", "is_k_minimal", "critical_edges-B", "critical_edges-C"],
    )
    def test_one_check_per_report(self, passes, call):
        assert call()
        assert passes() == 1

    def test_tightness_reads_the_lattice_at_most_three_times(self, passes):
        assert tightness_b(base_complete(3), example_graph("U", 3)).lower_tight
        assert 1 <= passes() <= 3

    @pytest.mark.parametrize("family", ["B", "C"], ids=["U-over-K3", "T3"])
    def test_a_membership_request_makes_one_pass(self, passes, family):
        # what a membership request runs: membership, W = b1..bk certified
        # on the materialized composite, then the relabel's minimality and
        # critical edges, which read the pass of an equal lattice
        if family == "B":
            comp = compose(base_complete(3), example_graph("U", 3), 3, 2)
            report = member_b(comp.base, comp.lattice)
        else:
            comp = compose(base_null(3), example_graph("T", 3), 3, 3)
            report = member_c(comp.lattice)
        g = comp.materialize()
        cert = check_crs(g, tuple(BaseVertex(i) for i in range(1, 4)))
        rel = canonical_relabel(g, cert)
        assert rel.lattice == comp.lattice and rel.lattice is not comp.lattice
        if family == "B":
            minimality = is_h1_minimal(rel.base, rel.lattice)
        else:
            minimality = is_k_minimal(rel.lattice)
        critical = critical_edges(family, rel.base if family == "B" else None, rel.lattice)
        assert report.member and minimality.minimal and critical.primary[1]
        assert passes() == 1

    def test_a_pass_is_kept_per_system_and_lattice(self, passes):
        # a repeat reads the kept pass; a cache keyed on the system alone
        # would hand the empty lattice U_3's report, and one keyed on the
        # lattice alone would hand U_3 over the null base the one over K_3
        u3, empty = example_graph("U", 3), span_lattice(3, 2, [])
        cs = cover_system("B", 3, base_complete(3))
        seen = []
        for system, lattice, member in [
            (cs, u3, True), (cs, u3, True), (cs, empty, False), (cs, u3, True), (cover_system("B", 3), u3, False),
        ]:
            assert system.check(lattice)[0].member == member
            seen.append(passes())
        # passes on u3, empty, u3, and u3 over the null base
        assert seen == [1, 1, 2, 3, 4]

    def test_reports_on_a_cached_pass_hash_no_label(self, monkeypatch):
        # members, minimal or not, and non-members of both families: once the
        # pass is cached, the reports read edges and sole hits by edge number,
        # and every witness is the cached label itself
        g3 = gamma(3)
        cases = [
            (base_complete(3), example_graph("U", 3)),
            (base_null(3), example_graph("V", 3)),
            (base_null(3), example_graph("P2box", 3)),
            (base_complete(3), lattice_complete(3, 2)),
            (None, example_graph("T", 3)),
            (None, g3),
            (None, Graph(g3.vertices(), g3.edges()[::2])),
        ]
        hashed = []
        real_hash = LatticeVertex.__hash__

        def counted(self):
            hashed.append(self)
            return real_hash(self)

        witnesses = 0
        for base, lattice in cases:
            CoverSystem.check.cache_clear()
            if base is None:
                member_c(lattice)
            else:
                member_b(base, lattice)
            monkeypatch.setattr(LatticeVertex, "__hash__", counted)
            rep = is_k_minimal(lattice) if base is None else is_h1_minimal(base, lattice)
            monkeypatch.undo()
            assert hashed == [] and CoverSystem.check.cache_info().misses == 1
            labels, _index, pos = families._lattice_labels(3, 2 if base else 3)
            for ec in rep.edges:
                if ec.witness_vertex is not None:
                    assert ec.witness_vertex is labels[pos[ec.witness_vertex.vector]]
                    witnesses += 1
        CoverSystem.check.cache_clear()
        # the control: the patched hash counts, and witnesses were checked
        monkeypatch.setattr(LatticeVertex, "__hash__", counted)
        hash(LatticeVertex((1, 1)))
        monkeypatch.undo()
        assert len(hashed) == 1 and witnesses > len(cases)


class TestEnumerateMinimal:
    def test_complete_base_strata(self):
        out = enumerate_minimal("B", 2, base=base_complete(2))
        assert [g.size for g in out] == [1, 2]
        assert out[0] == example_graph("U", 2)
        assert out[1] == example_graph("V", 2)

    def test_null_base_strata(self):
        out = enumerate_minimal("B", 2, base=base_null(2))
        assert [g for g in out if g.size == 2] == [example_graph("R", 2)]
        assert [g for g in out if g.size == 4] == [example_graph("P2box", 2)]

    def test_b_matches_definitional_oracle(self):
        for base in (base_null(2), base_complete(2)):
            got = set(enumerate_minimal("B", 2, base=base))
            want = {g for g in all_lattices_k2() if definitional_minimal_b(base, g)}
            assert got == want

    def test_c_members_validate(self):
        out = enumerate_minimal("C", 2)
        assert len(out) == 140
        t2 = example_graph("T", 2)
        assert [g for g in out if g.size == 5] == [t2]
        for g in out[:10]:
            assert is_k_minimal(g).minimal

    def test_c_takes_only_the_edgeless_base(self):
        assert enumerate_minimal("C", 2, base=base_null(2)) == enumerate_minimal("C", 2)
        with pytest.raises(NotMember, match="the radius-3 family needs a null base"):
            enumerate_minimal("C", 2, base=base_complete(2))
        with pytest.raises(WrongVertexSet, match="^base has order 3, expected k=2$"):
            enumerate_minimal("C", 2, base=base_null(3))

    def test_k3_is_capped(self):
        with pytest.raises(EnumerationCapExceeded):
            enumerate_minimal("C", 3)

    @pytest.mark.parametrize("kind", ["B", "C"])
    def test_k3_is_capped_before_the_search(self, monkeypatch, kind):
        # the cap must stop k = 3 before the minimal search starts
        def search(masks, width):
            raise RuntimeError("the minimal search ran")

        monkeypatch.setattr(extremal, "_minimal_masks", search)
        with pytest.raises(EnumerationCapExceeded, match="capped at k=2, got k=3"):
            enumerate_minimal(kind, 3)

    def test_k_below_two_is_malformed(self):
        with pytest.raises(IndexOutOfRange):
            enumerate_minimal("C", 0)
        with pytest.raises(IndexOutOfRange):
            enumerate_minimal("B", 1)


class TestMinimalMasks:
    def test_matches_brute_force_on_random_constraints(self):
        rng = random.Random(0x3C5)
        for _ in range(200):
            width = rng.randint(0, 10)
            dense = rng.random() < 0.5
            masks = tuple(
                rng.getrandbits(width) | (rng.getrandbits(width) if dense else 0)
                for _ in range(rng.randint(0, 8))
            )
            got = _minimal_masks(masks, width)
            assert sorted(got) == brute_minimal_masks(masks, width), (masks, width)
            assert len(set(got)) == len(got)

    def test_edge_cases(self):
        assert _minimal_masks((), 4) == [0]  # no constraints: the empty mask
        assert _minimal_masks((0b0110, 0), 4) == []  # an empty constraint: none
        assert _minimal_masks((0,), 0) == []
        assert sorted(_minimal_masks((0b011, 0b110), 3)) == [0b010, 0b101]

    @pytest.mark.parametrize(
        "edges, sizes, extremes",
        [
            ([(1, 2), (2, 3)], {2: 1, 3: 15, 4: 55, 5: 9}, None),
            ([(1, 2)], {4: 19, 5: 177, 6: 424, 7: 225, 8: 27}, None),
            ([(1, 2), (1, 3), (2, 3)], {1: 1, 2: 6, 3: 1}, ("U", "V")),
            ([], {4: 1, 5: 18, 6: 169, 7: 881, 8: 1989, 9: 1121, 10: 244, 11: 24, 12: 1}, ("R", "P2box")),
        ],
        ids=["path", "one-edge", "complete", "null"],
    )
    def test_b_at_k3(self, edges, sizes, extremes):
        # the census of minimal lattices by size, equal over every labeled
        # base of the class; both ends of bounds_b are reached on each
        base = Graph(base_null(3).vertices(), [(BaseVertex(a), BaseVertex(b)) for a, b in edges])
        copies = [b for b in labeled_bases(3) if b.size == base.size]
        for copy in copies:
            cs = cover_system("B", 3, copy)
            masks = _minimal_masks(cs.masks, len(cs.edges))
            assert Counter(mask.bit_count() for mask in masks) == sizes
            assert bounds_b(copy) == (min(sizes), max(sizes))
            # the top stratum is the choice tuples
            top = sorted(mask for mask in masks if mask.bit_count() == max(sizes))
            assert top == sorted(choice_tuples(cs)), copy.edges()
            if copy == base:
                lattices = [cs.graph(mask) for mask in masks]
                # enumerate_minimal's order, masks by their ascending set
                # bits, against its reference: lattices by edge vectors
                by_bits = sorted(range(len(masks)), key=lambda j: tuple(_iter_bits(masks[j])))
                assert [lattices[j] for j in by_bits] == sorted(
                    lattices, key=lambda g: tuple((u.vector, v.vector) for u, v in g.edges())
                )
        lo, hi = bounds_b(base)
        ends = sorted((g for g in lattices if g.size in (lo, hi)), key=lambda g: g.size)
        if extremes:
            assert ends == [example_graph(name, 3) for name in extremes]
        # is_h1_minimal takes about 0.1 ms a lattice, so on the null base's
        # 4 448 it reads only the two ends; the census pins the rest
        for lattice in ends if not base.size else lattices:
            assert is_h1_minimal(base, lattice).minimal


def run_python(script, *flags, timeout=60):
    """The output lines of a script run by a fresh interpreter on this
    checkout's sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script], capture_output=True, text=True, env=env, timeout=timeout
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_checks_survive_python_dash_o():
    # an explicit raise, not an assert statement, which python -O strips: a
    # kind-B request without a base
    script = textwrap.dedent(
        """
        from crslab import extremal
        from crslab.families import example_graph

        try:
            extremal.critical_edges("B", None, example_graph("R", 2))
        except ValueError as exc:
            print("ValueError:", exc)
        """
    )
    assert run_python(script, "-O") == ["ValueError: kind B needs a base"]


#: Every public entry point that takes k, a kind, a family-B base or a
#: lattice, with what the cover system's gate answers to a bad one: k below
#: 2, an unknown kind, no base or one of the wrong order, a lattice without
#: lattice labels, or m^k past DEFAULT_SIZE_CAP.  A new entry point of that
#: kind joins the list.
GATE_IMPORTS = """
from crslab.graph import plain_graph
from crslab.families import (
    base_null, cover_system, example_graph, gamma, member_b, member_c, span_lattice,
)
from crslab.extremal import (
    critical_edges, enumerate_minimal, is_h1_minimal, is_k_minimal, tightness_b,
)
"""
GATE_REFUSALS = [
    ('cover_system("B", 1)', IndexOutOfRange, "need k >= 2, got 1"),
    ('cover_system("C", 1)', IndexOutOfRange, "need k >= 2, got 1"),
    ("gamma(1)", IndexOutOfRange, "need k >= 2, got 1"),
    ("member_c(span_lattice(1, 3, []))", IndexOutOfRange, "need k >= 2, got 1"),
    ("is_k_minimal(span_lattice(1, 3, []))", IndexOutOfRange, "need k >= 2, got 1"),
    ('critical_edges("C", None, span_lattice(1, 3, []))', IndexOutOfRange, "need k >= 2, got 1"),
    ('enumerate_minimal("B", 1)', IndexOutOfRange, "need k >= 2, got 1"),
    ('enumerate_minimal("C", 2, base=base_null(3))', WrongVertexSet, "base has order 3, expected k=2"),
    ("member_c(plain_graph(3, [(0, 1)]))", WrongVertexSet, "lattice graph must use lattice vertex labels"),
    ('cover_system("X", 2)', ValueError, "kind must be B or C, got 'X'"),
    ('enumerate_minimal("X", 2)', ValueError, "kind must be B or C, got 'X'"),
    ('critical_edges("X", None, example_graph("U", 2))', ValueError, "kind must be B or C, got 'X'"),
    ('member_b(None, example_graph("U", 2))', ValueError, "kind B needs a base"),
    ('is_h1_minimal(None, example_graph("U", 2))', ValueError, "kind B needs a base"),
    ('tightness_b(None, example_graph("U", 2))', ValueError, "kind B needs a base"),
    ('critical_edges("B", None, example_graph("U", 2))', ValueError, "kind B needs a base"),
    ('cover_system("C", 10**6)', SizeOverflow, "m^k = 3^1000000 exceeds the cap 59049"),
    ('cover_system("B", 16)', SizeOverflow, "m^k = 2^16 exceeds the cap 59049"),
    ('cover_system("C", 11)', SizeOverflow, "m^k = 3^11 exceeds the cap 59049"),
]


@pytest.mark.parametrize(
    "call, error, message",
    [row for row in GATE_REFUSALS if row[1] is not SizeOverflow],
    ids=[row[0] for row in GATE_REFUSALS if row[1] is not SizeOverflow],
)
def test_gate_refuses_k_below_two_and_a_missing_base(call, error, message):
    names: dict = {}
    exec(GATE_IMPORTS, names)
    with pytest.raises(error) as info:
        eval(call, names)
    assert str(info.value) == message


def test_gate_refuses_sizes_before_building():
    # a fresh interpreter with a timeout: past the gate these calls build
    # for seconds or do not finish
    rows = [row for row in GATE_REFUSALS if row[1] is SizeOverflow]
    script = GATE_IMPORTS + textwrap.dedent(
        f"""
        for call in {[call for call, _error, _message in rows]!r}:
            try:
                eval(call)
            except Exception as exc:
                print(type(exc).__name__ + ":", exc)
        """
    )
    assert run_python(script, timeout=30) == [f"SizeOverflow: {message}" for _call, _error, message in rows]
