"""Cross-cutting invariants: seeded random trials and regression anchors
that do not fit a single module."""

import ast
import gc
import random
from collections import Counter
from dataclasses import fields, replace
from functools import reduce
from itertools import combinations, islice, permutations, product
from math import factorial, prod
from operator import or_
from pathlib import Path

import pytest

from crslab import sweeps
from crslab.errors import DisconnectedGraph
from crslab.graph import (
    BaseVertex,
    Graph,
    LatticeVertex,
    _iter_bits,
    bfs_levels,
    is_connected,
    is_path,
    plain_graph,
    universal_vertices,
)
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
)
from crslab.resolving import (
    FAMILY_B,
    NOT_COMPLETENESS_RESOLVABLE,
    NOT_INJECTIVE,
    PATH,
    UNIVERSAL_VERTEX,
    CrsCertificate,
    CrsFailure,
    check_crs,
    is_completeness_resolvable,
    is_perfectness_resolvable,
    metric_dimension,
)
from crslab.extremal import enumerate_minimal, is_k_minimal
from crslab.sweeps import (
    out_of_range_counterexample,
    random_b_member,
    random_c_member,
    _cert_code_w_base,
    _raw_crs_scan,
    _raw_dimension,
    _relabel_failures,
    sweep_b_equivalence,
    sweep_c_equivalence,
    sweep_small_order,
)


def test_region_cardinalities():
    # the complement of the two corner regions has 3^k - 2^(k+1) + 1 vectors
    for k in (2, 3, 4):
        in_x, in_y = set(product((2, 3), repeat=k)), set(product((1, 3), repeat=k))
        z = [v for v in lattice_vertices(k, 3) if v not in in_x and v not in in_y]
        assert len(z) == 3 ** k - 2 ** (k + 1) + 1


def test_upset_closure_spot_checks():
    rng = random.Random(97)
    for k in (2, 3):
        for _ in range(25):
            base, lattice = random_b_member(rng, k)
            assert member_b(base, lattice).member
            lattice2 = random_c_member(rng, k)
            assert member_c(lattice2).member


def test_adding_out_of_range_edge_always_breaks_membership():
    rng = random.Random(101)
    vecs = lattice_vertices(2, 3)
    gamma_set = set(gamma(2).edges())
    all_pairs = [
        (LatticeVertex(x), LatticeVertex(y))
        for a, x in enumerate(vecs)
        for y in vecs[a + 1:]
    ]
    out_pairs = [e for e in all_pairs if e not in gamma_set]
    for _ in range(50):
        lattice = random_c_member(rng, 2)
        extra = out_pairs[rng.randrange(len(out_pairs))]
        bigger = Graph(lattice.vertices(), lattice.edges() + [extra])
        rep = member_c(bigger)
        assert not rep.member and rep.bad_edge is not None


def test_out_of_range_counterexample_is_stable():
    """Regression anchor for the known gap in the sampled negative control:
    a lattice with a gap-2 edge whose composite is still certified.  The
    certificate must swap labels and its relabeling must be a member, so
    the phenomenon is the label/isomorphism distinction, not a bug."""
    lattice = out_of_range_counterexample()
    rep = member_c(lattice)
    assert not rep.member and rep.bad_edge is not None
    g = compose(base_null(2), lattice, 2, 3).materialize()
    cert = check_crs(g, (BaseVertex(1), BaseVertex(2)))
    assert isinstance(cert, CrsCertificate)
    assert cert.m_of_w == 3
    # non-identity table: two labels trade places
    table = {v: cert.table[LatticeVertex(v)] for v in lattice_vertices(2, 3)}
    assert table[(2, 1)] == (3, 1) and table[(3, 1)] == (2, 1)
    assert all(table[v] == v for v in lattice_vertices(2, 3) if v not in ((2, 1), (3, 1)))
    relabeled = canonical_relabel(g, cert)
    assert member_c(relabeled.lattice).member


def test_out_of_range_control_can_fail(monkeypatch):
    # a membership test that rejects every lattice also rejects the
    # relabeling of a certified sample, which the control must flag
    real_member_c = sweeps.member_c
    monkeypatch.setattr(
        sweeps, "member_c", lambda lattice: replace(real_member_c(lattice), member=False)
    )
    tested, failures, inconsistent = sweeps._out_of_gamma_samples()
    assert tested == sweeps.OUT_OF_GAMMA_SAMPLES
    assert failures > 0
    assert inconsistent > 0


@pytest.mark.parametrize("width", [1, 6, 31, 36, 158])
def test_coin_mask_reads_the_random_stream_in_whole_words(width):
    # the mask and the generator state after it are those of one
    # rng.random() < 0.5 per bit, draw for draw
    for seed in range(24):
        words, floats = random.Random(seed), random.Random(seed)
        for _ in range(20):
            want = sum(1 << t for t in range(width) if floats.random() < 0.5)
            assert sweeps._coin_mask(words, width) == want, seed
        assert words.getstate() == floats.getstate()


def test_out_of_range_samples_are_the_random_draws(monkeypatch):
    # the 1000 sampled masks, rejections included, are those of the
    # rng.random() < 0.5 expression on the sample seed
    real_certify = sweeps._certify_masks
    batches = []

    def spy(frame, masks):
        batches.append(list(masks))
        return real_certify(frame, masks)

    monkeypatch.setattr(sweeps, "_certify_masks", spy)
    sweeps._out_of_gamma_samples()
    rng = random.Random(sweeps.SAMPLE_SEED)
    edges = lattice_complete(2, 3).edges()
    gap2 = [max(abs(a - b) for a, b in zip(u.vector, v.vector)) == 2 for u, v in edges]
    want = []
    while len(want) < sweeps.OUT_OF_GAMMA_SAMPLES:
        mask = sum(1 << t for t in range(len(edges)) if rng.random() < 0.5)
        if any(gap2[t] for t in _iter_bits(mask)):
            want.append(mask)
    assert batches == [want]


def _sample_lattice(mask):
    all_edges = lattice_complete(2, 3).edges()
    return Graph(lattice_complete(2, 3).vertices(), [all_edges[t] for t in range(36) if mask >> t & 1])


def test_out_of_range_tested_counts_the_checked_samples(monkeypatch):
    # member_c reports on the first _SUBSAMPLE samples, on the certified
    # lane and on its relabeling, and on nothing else; the masks decide
    # the other samples
    real_member_c = sweeps.member_c
    real_certify = sweeps._certify_masks
    lattices, batches = [], []

    def counting_member_c(lattice):
        lattices.append(lattice)
        return real_member_c(lattice)

    def spy(frame, masks):
        batches.append((masks, real_certify(frame, masks)))
        return batches[-1][1]

    monkeypatch.setattr(sweeps, "member_c", counting_member_c)
    monkeypatch.setattr(sweeps, "_certify_masks", spy)
    assert sweeps._out_of_gamma_samples() == (1000, 1, 0)
    [(masks, (certified, _identity))] = batches
    [lane] = [j for j in range(len(masks)) if certified >> j & 1]
    assert lane >= sweeps._SUBSAMPLE
    checked = [_sample_lattice(masks[j]) for j in [*range(sweeps._SUBSAMPLE), lane]]
    g = compose(base_null(2), checked[-1], 2, 3).materialize()
    relabeled = canonical_relabel(g, check_crs(g, (BaseVertex(1), BaseVertex(2)))).lattice
    assert lattices == [*checked, relabeled]
    assert all(real_member_c(lattice).bad_edge is not None for lattice in checked)


def test_out_of_range_tested_can_fail(monkeypatch):
    # a membership test blind to edges outside Gamma_2 names no bad edge,
    # so none of the samples it reports on (the first _SUBSAMPLE and the
    # certified lane) counts as tested
    real_member_c = sweeps.member_c
    monkeypatch.setattr(
        sweeps, "member_c", lambda lattice: replace(real_member_c(lattice), bad_edge=None)
    )
    tested, _failures, _inconsistent = sweeps._out_of_gamma_samples()
    assert tested == sweeps.OUT_OF_GAMMA_SAMPLES - sweeps._SUBSAMPLE - 1


def test_out_of_range_tested_needs_the_outside_mask(monkeypatch):
    # a universe that takes in every gap-2 edge leaves the outside mask
    # empty, so no sample counts as tested, while the draw (read off the
    # vectors) and the certified lane stay as they are
    class AllEdges(CoverSystem):
        edges = lattice_complete(2, 3).edges()

    cs = AllEdges(2, 3, cover_system("C", 2).hoods)
    monkeypatch.setattr(sweeps, "cover_system", lambda family, k: cs)
    assert sweeps._out_of_gamma_samples() == (0, 1, 0)


def test_out_of_range_lanes_agree_with_check_crs(monkeypatch):
    # every seeded sample: its lane is certified exactly when check_crs
    # returns a certificate, and a disconnected composite is an uncertified
    # lane
    real_certify = sweeps._certify_masks
    batches = []

    def spy(frame, masks):
        batches.append((masks, real_certify(frame, masks)))
        return batches[-1][1]

    monkeypatch.setattr(sweeps, "_certify_masks", spy)
    assert sweeps._out_of_gamma_samples() == (1000, 1, 0)
    [(masks, (certified, _identity))] = batches
    assert len(masks) == sweeps.OUT_OF_GAMMA_SAMPLES
    seen = Counter()
    for j, mask in enumerate(masks):
        g = compose(base_null(2), _sample_lattice(mask), 2, 3).materialize()
        try:
            res = check_crs(g, (BaseVertex(1), BaseVertex(2)))
        except DisconnectedGraph:
            res = None
            seen["disconnected"] += 1
        assert certified >> j & 1 == isinstance(res, CrsCertificate), j
        seen["certified"] += isinstance(res, CrsCertificate)
    assert seen["certified"] == 1
    assert seen["disconnected"] == 22


def test_out_of_range_lane_check_can_fail(monkeypatch):
    # a certified lane that check_crs then rejects is flagged inconsistent
    real_check_crs = sweeps.check_crs

    def rejecting(g, w):
        real_check_crs(g, w)
        raise DisconnectedGraph("rejected")

    monkeypatch.setattr(sweeps, "check_crs", rejecting)
    assert sweeps._out_of_gamma_samples() == (1000, 1, 1)


def test_out_of_range_identity_lane_is_inconsistent(monkeypatch):
    # no sample keeps every label, so a lane batch that reports the
    # certified lane as the identity is flagged inconsistent
    real_certify = sweeps._certify_masks

    def identity_lanes(frame, masks):
        certified, _identity = real_certify(frame, masks)
        return certified, certified

    monkeypatch.setattr(sweeps, "_certify_masks", identity_lanes)
    assert sweeps._out_of_gamma_samples() == (1000, 1, 1)


def test_out_of_range_member_sample_is_inconsistent(monkeypatch):
    # a sample is never a member on its own labels, so a membership test
    # that accepts every sample counts each one it reports on (the first
    # _SUBSAMPLE and the certified lane) as a failure and flags it
    real_member_c = sweeps.member_c
    monkeypatch.setattr(sweeps, "member_c", lambda lattice: replace(real_member_c(lattice), member=True))
    checked = sweeps._SUBSAMPLE + 1
    assert sweeps._out_of_gamma_samples() == (1000, checked, checked)


def _base_graph(k, bits):
    pairs = base_complete(k).edges()
    return Graph(base_null(k).vertices(), [pairs[t] for t in range(len(pairs)) if bits >> t & 1])


def _mixed_batch(family, k, rng):
    """(base edge bits, lattice mask) lattices for one lane batch: seeded
    members, each followed by a copy with every hit of one constraint
    removed and, for family B, by a lattice that is a member only with one
    base edge, with and then without that edge."""
    batch = []
    edge_bound = 0
    for _ in range(40):
        bits, cs, mask = sweeps._random_member(rng, family, k)
        batch += [(bits, mask), (bits, mask & ~rng.choice(cs.masks))]
        if family == "C":
            continue
        t = rng.randrange(k * (k - 1) // 2)
        with_edge, without = bits | 1 << t, bits & ~(1 << t)
        # shed lattice edges, in seeded order, while the base with edge t
        # keeps the lattice a member
        cs_with = cover_system("B", k, _base_graph(k, with_edge))
        for b in rng.sample(range(len(cs.edges)), len(cs.edges)):
            if mask >> b & 1 and cs_with.covers(mask & ~(1 << b)):
                mask &= ~(1 << b)
        if not cover_system("B", k, _base_graph(k, without)).covers(mask):
            batch += [(with_edge, mask), (without, mask)]
            edge_bound += 1
    return batch, edge_bound


@pytest.mark.parametrize("family, k", [("B", 2), ("B", 3), ("C", 2), ("C", 3)])
def test_member_lanes_agree_with_the_cover_system(family, k):
    # one lane per lattice of a mixed batch, whose neighbouring lanes often
    # differ: a lane shifted by one, an edge lane read from the wrong bit or
    # base edges left out of the lanes all break the agreement
    batch, edge_bound = _mixed_batch(family, k, random.Random(400 + k))
    lanes = sweeps._member_lanes(family, k, batch)
    assert lanes >> len(batch) == 0
    verdicts = Counter()
    for j, (bits, mask) in enumerate(batch):
        want = cover_system(family, k, _base_graph(k, bits)).covers(mask)
        assert lanes >> j & 1 == want, j
        verdicts[want] += 1
    assert verdicts[True] and verdicts[False], verdicts
    assert edge_bound > 0 or family == "C"


def _reference_member(rng, family, k):
    """The member draw as it was first written, kept as the oracle of
    sweeps._random_member: rng.randrange for each constraint's hit and one
    rng.random() per universe edge for the extras."""
    base_bits = 0
    if family == "B":
        for t in range(k * (k - 1) // 2):
            if rng.random() < 0.5:
                base_bits |= 1 << t
    cs = cover_system(family, k, _base_graph(k, base_bits))
    mask = 0
    for cm in cs.masks:
        hit = [1 << t for t in _iter_bits(cm)]
        mask |= hit[rng.randrange(len(hit))]
    for b in range(len(cs.edges)):
        if rng.random() < 0.15:
            mask |= 1 << b
    return base_bits, cs, mask


def _reference_upset_trial(rng, family, k):
    """The up-set trial as it was first written: a pool list of the
    missing lattice edges, then the missing base edges, and one
    rng.randrange over it."""
    base_bits, cs, mask = _reference_member(rng, family, k)
    pool = [(0, 1 << b) for b in range(len(cs.edges)) if not mask >> b & 1]
    if family == "B":
        pool += [(1 << t, 0) for t in range(k * (k - 1) // 2) if not base_bits >> t & 1]
    trial = ((base_bits, mask),)
    if pool:
        more_bits, more = pool[rng.randrange(len(pool))]
        trial += ((base_bits | more_bits, mask | more),)
    return trial


@pytest.mark.parametrize("family", ["B", "C"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_member_draws_keep_the_random_stream(family, k):
    # draw for draw: the same member and the same generator state after
    # each one, so the trials, and every counter they feed, stay put
    rng, ref = random.Random(900 + k), random.Random(900 + k)
    for j in range(40):
        bits, cs, mask = sweeps._random_member(rng, family, k)
        want_bits, want_cs, want_mask = _reference_member(ref, family, k)
        assert (bits, mask) == (want_bits, want_mask), j
        assert cs.edges == want_cs.edges
        assert rng.getstate() == ref.getstate(), j


@pytest.mark.parametrize("family", ["B", "C"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_upset_trials_keep_the_random_stream(family, k):
    rng, ref = random.Random(950 + k), random.Random(950 + k)
    added = Counter()
    for j in range(100):
        trial = sweeps._upset_trial(rng, family, k)
        assert trial == _reference_upset_trial(ref, family, k), j
        assert rng.getstate() == ref.getstate(), j
        (bits, mask), (more_bits, more) = trial
        added["base" if more_bits != bits else "lattice"] += 1
    # for family B the pick reaches past the universe into the base
    assert added["lattice"] and (added["base"] or family == "C"), added


def test_upset_trial_of_a_full_member_adds_nothing(monkeypatch):
    # every edge already in: the trial is the member alone, and no draw
    # is made for the pick
    cs = cover_system("B", 2, base_complete(2))
    full = (1 << len(cs.edges)) - 1
    monkeypatch.setattr(sweeps, "_random_member", lambda rng, family, k: (1, cs, full))
    rng = random.Random(1)
    state = rng.getstate()
    assert sweeps._upset_trial(rng, "B", 2) == ((1, full),)
    assert rng.getstate() == state


@pytest.fixture(scope="module")
def transpose_frames():
    """Lane frames of widths 6, 20, 31, 36 and 158: family B at k = 2, the
    family C universe at k = 2, family B at k = 3 with its base edges, every
    edge of [3]^2, and the family C universe at k = 3."""
    b2, c2, b3, c3 = (cover_system(f, k) for f, k in (("B", 2), ("C", 2), ("B", 3), ("C", 3)))
    return {
        6: (b2, sweeps._lane_frame(b2, base_null(2), b2.edges)),
        20: (c2, sweeps._lane_frame(c2, base_null(2), c2.edges)),
        31: (b3, sweeps._lane_frame(b3, base_null(3), [*b3.edges, *base_complete(3).edges()])),
        36: (c2, sweeps._lane_frame(c2, base_null(2), lattice_complete(2, 3).edges())),
        158: (c3, sweeps._lane_frame(c3, base_null(3), c3.edges)),
    }


def _reference_lanes(masks, width):
    """Edge t's lanes, one set bit at a time: bit j is bit t of masks[j]."""
    lanes = [0] * width
    for j, mask in enumerate(masks):
        for t in range(width):
            if mask >> t & 1:
                lanes[t] |= 1 << j
    return lanes


@pytest.mark.parametrize("batch", [0, 1, 500, 1000])
@pytest.mark.parametrize("width", [6, 20, 31, 36, 158])
def test_certify_masks_transposes_bit_by_bit(monkeypatch, transpose_frames, width, batch):
    # the lanes handed to the certifier, and its verdicts, are those of the
    # one-bit-at-a-time transpose; the empty and the full mask are in every
    # batch of two or more
    cs, frame = transpose_frames[width]
    assert len(frame[3]) == width
    rng = random.Random(width * 10_000 + batch)
    masks = [rng.getrandbits(width) for _ in range(batch)]
    if batch > 1:
        masks[0], masks[-1] = 0, (1 << width) - 1
    seen = []

    def spy(frame, edge_lanes, lanes):
        seen.append((list(edge_lanes), lanes))
        return _cert_code_w_base(frame, edge_lanes, lanes)

    monkeypatch.setattr(sweeps, "_cert_code_w_base", spy)
    got = sweeps._certify_masks(frame, masks)
    want = _reference_lanes(masks, width)
    full = (1 << batch) - 1
    assert seen == [(want, full)]
    assert got == _cert_code_w_base(frame, want, full)


def test_certify_masks_refuses_a_mask_wider_than_the_frame(transpose_frames):
    cs, frame = transpose_frames[20]
    top = 1 << 19
    sweeps._certify_masks(frame, [top, 0])  # bit 19 is the last edge
    for masks in ([1 << 20], [0, top, 1 << 20 | 1], [1 << 158]):
        with pytest.raises(ValueError, match="at or above the frame's 20 edges"):
            sweeps._certify_masks(frame, masks)


def test_certify_masks_keeps_the_fixed_edges_in_every_lane(transpose_frames):
    # the full Gamma_2 mask is a member on its own labels, so every copy
    # certifies with the identity, also past lane 2^14: a frame whose fixed
    # edges are on in 2^14 lanes only loses them there
    cs, frame = transpose_frames[20]
    full_mask = (1 << 20) - 1
    assert cs.covers(full_mask)
    batch = (1 << 14) + 2
    every = (1 << batch) - 1
    assert sweeps._certify_masks(frame, [full_mask] * batch) == (every, every)


def test_certify_masks_keeps_the_fixed_edges_past_the_block_width(transpose_frames):
    # the same, past the equivalence scans' block of 2^_LANE_BITS lanes: a
    # frame whose fixed edges are on in the lanes of _LANES only loses them
    # there
    cs, frame = transpose_frames[20]
    full_mask = (1 << 20) - 1
    batch = (1 << sweeps._LANE_BITS) + 2
    every = (1 << batch) - 1
    assert sweeps._certify_masks(frame, [full_mask] * batch) == (every, every)


def test_every_frame_carries_its_cover_systems_k_and_m(monkeypatch, transpose_frames):
    # the fixture's frames and every frame the sweeps build: the certifier
    # takes k and m from the frame alone
    real = sweeps._lane_frame
    built = list(transpose_frames.values())

    def spy(cs, base, edges):
        built.append((cs, real(cs, base, edges)))
        return built[-1][1]

    monkeypatch.setattr(sweeps, "_lane_frame", spy)
    sweeps._equivalence_sweep("B", (base_null(2), base_complete(2)))
    sweeps._out_of_gamma_samples()
    for family in ("B", "C"):
        for k in (2, 3):
            sweeps._member_lanes(family, k, [(0, 0)])
    assert len(built) == 5 + 7
    for cs, (k, m, fixed, _ends) in built:
        assert (k, m) == (cs.k, cs.m)
        assert len(fixed) == k + m ** k


def _code_names(code):
    """The global and attribute names a code object reads, with those of
    the code objects nested in it (comprehensions, on CPython before 3.12)."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _code_names(const)
    return names


def test_certifier_never_reads_the_cover_system():
    # the oracle contract: the certifier reads the frame's adjacency only
    forbidden = {
        "cover_system", "CoverSystem", "masks", "constraints", "covers", "member_b", "member_c", "check"
    }
    names = _code_names(_cert_code_w_base.__code__)
    assert {"append", "enumerate"} <= names
    assert not names & forbidden


def _member_count(cs):
    """The lattices inside a cover system's universe U that hit every
    constraint, by inclusion-exclusion over the constraint masks: the sum
    over sets S of constraints of (-1)^|S| 2^(|U| - |union of S|), with the
    terms of equal unions merged as they arise."""
    terms = Counter({0: 1})
    for mask in cs.masks:
        step = terms.copy()
        for union, sign in terms.items():
            step[union | mask] -= sign
        terms = step
    return sum(sign << (len(cs.edges) - union.bit_count()) for union, sign in terms.items())


def test_member_counts_found_without_lanes_or_bfs():
    # family B at k = 3 over every labeled base on [3], by base class
    # (edgeless, one edge, path, triangle); 2^28 lattices each
    per_class = [138_646_801, 170_235_328, 201_801_728, 228_589_568]
    counts = [_member_count(cover_system("B", 3, _base_graph(3, bits))) for bits in range(8)]
    assert counts == [per_class[bits.bit_count()] for bits in range(8)]
    assert sum(counts) == 1_483_347_537
    # the k = 2 sweeps count their members with the lane kernel and the BFS
    assert _member_count(cover_system("C", 2)) == sweep_c_equivalence().members == 152_500
    b_counts = [_member_count(cover_system("B", 2, base)) for base in (base_null(2), base_complete(2))]
    assert b_counts == [25, 40] and sum(b_counts) == sweep_b_equivalence().members


@pytest.mark.parametrize(
    "mutant, violations",
    [
        # lane 0 of each of the eight batches: the first trial of each group
        (lambda real: lambda frame, *lanes: tuple(x & ~1 for x in real(frame, *lanes)), (4, 4)),
        # a frame with m - 1: every family C trial; at m = 2 one level
        # leaves the single cell (1, ..., 1), which family B members fill
        # anyway
        (lambda real: lambda frame, *lanes: real((frame[0], frame[1] - 1, *frame[2:]), *lanes), (500, 500)),
    ],
    ids=["cleared-lane", "one-level-short"],
)
def test_property_sweep_can_fail_on_the_lanes(monkeypatch, mutant, violations):
    monkeypatch.setattr(sweeps, "_cert_code_w_base", mutant(sweeps._cert_code_w_base))
    result = sweeps.sweep_properties.__wrapped__()
    assert (result.upset_violations, result.union_violations) == violations


def test_property_sweep_can_fail_on_the_subsample(monkeypatch):
    # a member_c that rejects everything fails the first trials of every
    # family C group, which the Graph path decides as well
    real_member_c = sweeps.member_c
    monkeypatch.setattr(
        sweeps, "member_c", lambda lattice: replace(real_member_c(lattice), member=False)
    )
    result = sweeps.sweep_properties.__wrapped__()
    subsample = 2 * sweeps._SUBSAMPLE  # k = 2 and 3
    assert (result.upset_violations, result.union_violations) == (subsample, subsample)


def _patch_choice_masks(monkeypatch, k, change):
    """Family C's choice masks at k become change(cover system, its private
    masks).  A property is a data descriptor, so it wins over a value
    already cached."""
    private = CoverSystem.choice_masks.func

    def choice_masks(cs):
        masks = private(cs)
        return tuple(change(cs, list(masks))) if (cs.m, cs.k) == (3, k) else masks

    monkeypatch.setattr(CoverSystem, "choice_masks", property(choice_masks))


def test_property_sweep_can_fail_on_the_choice_sets(monkeypatch):
    # one edge offered at every choice point of k = 2: each of its 10 * 9 / 2
    # pairs overlaps, and none of the 741 pairs at k = 3
    shared = (LatticeVertex((1, 1)), LatticeVertex((1, 2)))
    _patch_choice_masks(monkeypatch, 2, lambda cs, masks: [mask | 1 << cs.edges.index(shared) for mask in masks])
    result = sweeps.sweep_properties.__wrapped__()
    assert (result.epsilon_pairs_checked, result.epsilon_overlaps) == (786, 45)
    assert not result.ok


def test_certified_within_range_forces_identity_labels():
    # on spanning subgraphs of the maximal lattice, certification pins every
    # distance vector to its label, exhaustively; the counts are pinned, and
    # the last block (masks with all 20 edges) is the densest in members
    result = sweeps._equivalence_sweep("C", (base_null(2),))
    assert (result.total, result.members, result.certified) == (1 << 20, 152500, 152500)
    assert result.mismatches == 0
    assert result.identity_violations == 0


def _sweep_blocks(monkeypatch, family, bases):
    """The sweep's counters and, block by block, the (edge lanes, lanes)
    that _equivalence_sweep hands the certifier and the (certified,
    identity) lanes it gets back.  No mismatch in the counters means each
    block's member lanes are its certified lanes."""
    blocks = []

    def spy(frame, edge_lanes, lanes):
        blocks.append((list(edge_lanes), lanes, _cert_code_w_base(frame, edge_lanes, lanes)))
        return blocks[-1][2]

    monkeypatch.setattr(sweeps, "_cert_code_w_base", spy)
    return sweeps._equivalence_sweep(family, bases), blocks


def _lane_mask(edge_lanes, width, j):
    """The mask lane j stands for: bit t is bit j of edge t's lanes."""
    return sum((edge_lanes[t] >> j & 1) << t for t in range(width))


def test_radius_2_sweep_reads_each_base_in_one_block(monkeypatch):
    # the radius-2 universe at k = 2 has 6 edges, so one block holds the 64
    # lattices of a base and lanes 64.. stand for none; every base counts
    bases = (base_null(2), base_complete(2))
    result, blocks = _sweep_blocks(monkeypatch, "B", bases)
    assert len(blocks) == len(bases)
    members = 0
    for base, (edge_lanes, valid, (certified, identity)) in zip(bases, blocks):
        cs = cover_system("B", 2, base)
        assert valid == (1 << 64) - 1
        assert [_lane_mask(edge_lanes, 6, j) for j in range(64)] == list(range(64))
        assert certified == sum(cs.covers(mask) << mask for mask in range(64))
        assert identity & certified == certified
        members += certified.bit_count()
    assert (result.total, result.members, result.certified) == (128, members, members)
    assert result.mismatches == result.identity_violations == 0


def test_q3_size_check_can_fail(monkeypatch):
    # one edge offered at a choice point of i = 1 and again at one of i = 2,
    # both with a second edge: a tuple that takes it at both has 38 distinct
    # edges, not 39, and the two sets are the one overlapping pair
    def share(cs, masks):
        tags = list(cs.constraints)
        first, second = (
            next(n for n, mask in enumerate(masks) if tags[n][0] == i and mask.bit_count() == 2)
            for i in (1, 2)
        )
        # the second set's lowest edge swapped for the first set's
        low = masks[second] & -masks[second]
        masks[second] ^= low | masks[first] & -masks[first]
        return masks

    _patch_choice_masks(monkeypatch, 3, share)
    assert sweeps.check_size_identities() == [
        "q3 choice sets: 39 points (want 39), 1 overlapping pairs, 0 empty sets"
    ]


def test_q3_size_check_sees_an_empty_choice_set(monkeypatch):
    # an empty set leaves no choice tuple at all, so no tuple has the wrong
    # size; the choice-set facts still name it
    _patch_choice_masks(monkeypatch, 3, lambda cs, masks: masks[:7] + [0] + masks[8:])
    assert prod(mask.bit_count() for mask in cover_system("C", 3).choice_masks) == 0
    assert sweeps.check_size_identities() == [
        "q3 choice sets: 39 points (want 39), 0 overlapping pairs, 1 empty sets"
    ]


def test_choice_set_point_count_can_fail(monkeypatch):
    # a choice point dropped at k = 2: 9 disjoint sets give 9-edge tuples
    _patch_choice_masks(monkeypatch, 2, lambda cs, masks: masks[1:])
    assert sweeps.check_size_identities() == [
        "q2 choice sets: 9 points (want 10), 0 overlapping pairs, 0 empty sets"
    ]


def test_named_size_identity_can_fail(monkeypatch):
    # V_2 in place of U_2 has one edge too many
    real_example_graph = sweeps.example_graph
    monkeypatch.setattr(
        sweeps, "example_graph", lambda name, k: real_example_graph("V" if (name, k) == ("U", 2) else name, k)
    )
    assert sweeps.check_size_identities() == ["U_2: 2 != 1"]


def test_diameter_check_can_fail(monkeypatch):
    # U in place of the complete lattice over the complete base: diameter 3
    real_example_graph = sweeps.example_graph

    def u_for_max_b(name, k):
        if name == "MaxB":
            return compose(base_complete(k), real_example_graph("U", k), k, 2)
        return real_example_graph(name, k)

    monkeypatch.setattr(sweeps, "example_graph", u_for_max_b)
    assert sweeps.check_diameters() == ["complete base o complete lattice: diameter 3 != 2"]


@pytest.mark.parametrize(
    "kind, lost_base, size, message",
    [
        ("C", None, 5, "size-5 stratum has 0 graphs"),
        ("C", None, 10, "size-10 stratum differs from the choice-product family"),
        ("B", base_complete(2), 1, "complete base: size-1 minimal is not U"),
        ("B", base_complete(2), 2, "complete base: size-2 minimal is not V"),
        ("B", base_null(2), 2, "null base: size-2 minimal is not R"),
        ("B", base_null(2), 4, "null base: size-4 minimal is not P2box"),
    ],
    ids=["C-5", "C-10", "complete-1", "complete-2", "null-2", "null-4"],
)
def test_minimal_strata_checks_can_fail(monkeypatch, kind, lost_base, size, message):
    # an enumeration that loses one stratum of one kind and base
    real_enumerate_minimal = sweeps.enumerate_minimal

    def stratum_lost(which, k, base=None):
        graphs = real_enumerate_minimal(which, k, base=base)
        if (which, base) == (kind, lost_base):
            graphs = [g for g in graphs if g.size != size]
        return graphs

    monkeypatch.setattr(sweeps, "enumerate_minimal", stratum_lost)
    assert sweeps.check_minimal_enumeration() == [message]


def test_minimal_bounds_check_can_fail(monkeypatch):
    # an upper bound one short of the size-10 stratum
    real_bounds_c = sweeps.bounds_c
    monkeypatch.setattr(sweeps, "bounds_c", lambda k: (real_bounds_c(k)[0], real_bounds_c(k)[1] - 1))
    assert sweeps.check_minimal_enumeration() == ["minimal size outside the bounds"]


def test_equivalence_scan_checks_the_composite_order(monkeypatch):
    # the kernel's counts hold only for n = k + m^k: one extra vertex in
    # the composite stops the scan before any mask is certified
    real_compose = sweeps.compose

    class Padded:
        def __init__(self, comp):
            self.comp = comp

        def materialize(self):
            g = self.comp.materialize()
            return Graph([*g.vertices(), BaseVertex(3)], g.edges())

    monkeypatch.setattr(sweeps, "compose", lambda *args: Padded(real_compose(*args)))
    with pytest.raises(ValueError, match="order 7, expected k \\+ m\\^k = 6"):
        sweeps._equivalence_sweep("B", (base_null(2),))


def test_q3_streamed_members_are_minimal_sample():
    rng = random.Random(103)
    picks = sorted(rng.sample(range(256), 3))
    cs = cover_system("C", 3)
    bits = [[1 << b for b in _iter_bits(mask)] for mask in cs.choice_masks]
    count = 0
    for n, chosen in enumerate(islice(product(*bits), picks[-1] + 1)):
        if n in picks:
            assert is_k_minimal(cs.graph(reduce(or_, chosen))).minimal
            count += 1
    assert count == 3


def _kernel_and_check_crs(base, lattice, k, m):
    g = compose(base, lattice, k, m).materialize()
    # one lane, lane 0, which holds every edge of the composite
    rows = [[(u, 1) for u in range(g.order) if a >> u & 1] for a in g.adjacency_masks()]
    certified, identity = _cert_code_w_base((k, m, rows, []), [], 1)
    verdict = bool(identity) if certified else None
    try:
        res = check_crs(g, tuple(BaseVertex(i) for i in range(1, k + 1)))
    except DisconnectedGraph:
        return verdict, None
    if not isinstance(res, CrsCertificate):
        return verdict, False
    return verdict, all(res.table[LatticeVertex(v)] == v for v in lattice_vertices(k, m))


def test_index_lanes_are_the_division_patterns():
    # lane j of _INDEX_BITS[t] is bit t of j, as the quotient of all ones by
    # 2^(2^(t+1)) - 1 times a run of 2^t ones over 2^t zeros lays it out
    lanes = sweeps._LANES
    assert lanes == (1 << (1 << sweeps._LANE_BITS)) - 1
    assert len(sweeps._INDEX_BITS) == sweeps._LANE_BITS
    for t, got in enumerate(sweeps._INDEX_BITS):
        assert got == lanes // ((1 << (2 << t)) - 1) * (((1 << (1 << t)) - 1) << (1 << t)), t


def test_lane_kernel_agrees_with_check_crs_across_blocks(monkeypatch):
    cs = cover_system("C", 2)
    width = 1 << sweeps._LANE_BITS
    result, found = _sweep_blocks(monkeypatch, "C", (base_null(2),))
    assert result.mismatches == result.identity_violations == 0
    blocks = dict(zip(range(0, 1 << 20, width), found, strict=True))
    # every lane of the masks 0xF4000..0xFFFFF, in whichever blocks hold
    # them, where the high edges differ: lane j is the mask start + j, a
    # member exactly when the cover system says so, certified exactly then
    covered = 0
    for start in range(0xF4000 // width * width, 1 << 20, width):
        edge_lanes, _valid, (certified, identity) = blocks[start]
        first = max(0xF4000 - start, 0)
        covered += width - first
        window = (1 << width - first) - 1
        assert [x >> first & window for x in edge_lanes[:20]] == _reference_lanes(
            range(start + first, start + width), 20
        )
        for j in range(first, width):
            i = start + j
            assert certified >> j & 1 == cs.covers(i), i
        assert certified == identity & certified
    assert covered == 49_152
    # every block of the whole space, where the high edges change from block
    # to block: its first and last lane and seeded ones against the cover
    # system, and some of them against check_crs, as many seeded ones over
    # the space as in blocks of 2^14 lanes
    rng = random.Random(29)
    scale = max(width >> 14, 1)
    seen = Counter()
    for start, (edge_lanes, valid, (certified, identity)) in blocks.items():
        assert valid == (1 << width) - 1
        assert certified == identity & certified
        lanes = {0, width - 1, *(rng.randrange(width) for _ in range(200 * scale))}
        for j in lanes:
            i = start + j
            assert _lane_mask(edge_lanes, 20, j) == i
            assert certified >> j & 1 == cs.covers(i), i
        for j in (0, width - 1, *rng.sample(sorted(lanes), 2 * scale)):
            i = start + j
            g = compose(base_null(2), cs.graph(i), 2, 3).materialize()
            try:
                res = check_crs(g, (BaseVertex(1), BaseVertex(2)))
            except DisconnectedGraph:
                res = None
            cert = isinstance(res, CrsCertificate)
            ident = cert and all(res.table[LatticeVertex(v)] == v for v in lattice_vertices(2, 3))
            assert (certified >> j & 1, identity >> j & 1) == (cert, ident), i
            seen[cert] += 1
    assert seen[True] and seen[False], seen


def _assert_kernel_agrees(cases, k):
    # None from the kernel exactly when check_crs rejects W = [k] or finds
    # the composite disconnected; otherwise the kernel's identity flag is
    # whether the certificate's table maps every lattice vertex to itself
    seen = {"disconnected": 0, "rejected": 0, "identity": 0}
    for base, lattice, m in cases:
        verdict, expected = _kernel_and_check_crs(base, lattice, k, m)
        if expected is None:
            assert verdict is None
            seen["disconnected"] += 1
        elif expected is False:
            assert verdict is None
            seen["rejected"] += 1
        else:
            assert verdict is True
            seen["identity"] += 1
    assert all(seen.values()), seen


def test_level_mask_kernel_agrees_with_check_crs():
    cases = []
    for base in (base_null(2), base_complete(2)):
        cs = cover_system("B", 2, base)
        cases += [(base, cs.graph(mask), 2) for mask in range(1 << len(cs.edges))]
    rng = random.Random(5)
    cs = cover_system("C", 2)
    masks = [0, (1 << len(cs.edges)) - 1]
    masks += [rng.getrandbits(len(cs.edges)) for _ in range(200)]
    masks += [rng.getrandbits(len(cs.edges)) & rng.getrandbits(len(cs.edges)) for _ in range(100)]
    cases += [(base_null(2), cs.graph(mask), 3) for mask in masks]
    _assert_kernel_agrees(cases, 2)


@pytest.mark.parametrize("base_edges", [0, 1, 3], ids=["null", "one-edge", "complete"])
def test_level_mask_kernel_agrees_with_check_crs_at_k3(base_edges):
    # at k = 3, m = 2 every BFS level of a certified composite holds
    # m^(k-1) = 4 outside vertices, and base vertices show up on the levels
    # too (by a base edge at level 1, or through the lattice at level 2)
    base = Graph(base_null(3).vertices(), base_complete(3).edges()[:base_edges])
    cs = cover_system("B", 3, base)
    nbits = len(cs.edges)
    rng = random.Random(300 + base_edges)
    masks = [rng.getrandbits(nbits) for _ in range(35)]
    masks += [rng.getrandbits(nbits) & rng.getrandbits(nbits) & rng.getrandbits(nbits) for _ in range(30)]
    for _ in range(35):
        # one hit per constraint is a member; dropping one hit is, mostly, not
        hits = [rng.choice([b for b in range(nbits) if cm >> b & 1]) for cm in cs.masks]
        mask = sum(1 << b for b in set(hits))
        masks.append(mask if rng.random() < 0.5 else mask & ~(1 << rng.choice(hits)))
    _assert_kernel_agrees([(base, cs.graph(mask), 2) for mask in masks], 3)


def test_level_mask_kernel_flags_a_permuted_table():
    # a certified composite whose table swaps two labels: the kernel
    # certifies it and says the vectors do not reproduce the labels
    verdict, identity = _kernel_and_check_crs(base_null(2), out_of_range_counterexample(), 2, 3)
    assert identity is False
    assert verdict is False


def _plain_family_b_graph():
    # the complete composite of family B at k = 2, order 6, on plain labels
    g = example_graph("MaxB", 2).materialize()
    edges = [(g.index_of(u), g.index_of(v)) for u, v in g.edges()]
    return plain_graph(g.order, edges), edges


def _radius_2_certificates(g):
    adj = g.adjacency_masks()
    rows = [bfs_levels(adj, s) for s in range(g.order)]
    return [c for c in _raw_crs_scan(rows, g.order) if c[1:] == (2, 2)]


def test_relabel_check_can_fail(monkeypatch):
    # a membership test that rejects every relabel fails both orders of
    # every radius-2 certificate
    g, _edges = _plain_family_b_graph()
    found = _radius_2_certificates(g)
    assert found
    real_member_b = sweeps.member_b
    monkeypatch.setattr(
        sweeps, "member_b", lambda base, lattice: replace(real_member_b(base, lattice), member=False)
    )
    assert _relabel_failures(g, found) == 2 * len(found)


def test_relabel_check_fails_a_rejected_certificate(monkeypatch):
    # a check_crs that rejects every W fails both orders of every
    # radius-2 certificate of the raw scan
    g, _edges = _plain_family_b_graph()
    found = _radius_2_certificates(g)
    assert found
    monkeypatch.setattr(sweeps, "check_crs", lambda g, w: CrsFailure(NOT_INJECTIVE, "rejected"))
    assert _relabel_failures(g, found) == 2 * len(found)


def test_radius_4_count_says_it_is_zero_by_counting(monkeypatch):
    # the counter cannot be nonzero below order 18, and the detail says so
    zero = sweeps.PropertySweep(1000, 0, 1000, 0, 786, 0, 0, 0)
    monkeypatch.setattr(sweeps, "sweep_properties", lambda: zero)
    passed, detail = sweeps._run_properties()
    assert passed
    assert "0 radius>=4 certificates (zero by counting below order 18" in detail
    assert "TestRadiusFour" in detail


def test_verdict_check_can_fail(monkeypatch):
    # a classifier that ranks a universal vertex above a path (P2 and P3
    # have both) disagrees with the sweep's oracles on exactly those graphs
    real_classify = sweeps.is_completeness_resolvable

    def universal_first(g):
        verdict = real_classify(g)
        if verdict.kind == PATH and universal_vertices(g):
            return replace(verdict, kind=UNIVERSAL_VERTEX)
        return verdict

    monkeypatch.setattr(sweeps, "is_completeness_resolvable", universal_first)
    assert sweep_small_order.__wrapped__(4).verdict_mismatches > 0


def test_sweeps_import_no_private_name_from_another_module():
    # a sweep that checks a private seam vouches for code users never call;
    # _iter_bits is the one shared bit-set helper
    tree = ast.parse(Path(sweeps.__file__).read_text(encoding="utf-8"))
    private = [
        f"{(node.module or '').removeprefix('crslab.')}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("crslab."))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    leaked = sorted(name for name in private if name != "graph._iter_bits")
    assert not leaked, f"sweeps imports private names: {leaked}"


def _scan_plus(extra):
    """A raw scan that reports one more certificate on every graph where it
    finds any."""

    def scan(rows, n):
        found = list(_raw_crs_scan(rows, n))
        return found + [extra] if found else found

    return scan


def _scan_blind_to_long_paths(rows, n):
    # P4 and P5: the paths without a universal vertex
    if n >= 4 and any(max(row) == n - 1 for row in rows):
        return iter(())
    return _raw_crs_scan(rows, n)


def _metric_dimension_off_by(delta):
    def off(g):
        dim, basis = metric_dimension(g)
        return dim + delta, basis

    return off


@pytest.mark.parametrize(
    "patches, fired",
    [
        # a radius-2 singleton W on a graph that is no path
        ({"_raw_crs_scan": _scan_plus(((0,), 1, 2))}, {"path_mismatches": 280}),
        # a radius-1 pair on a graph without a universal vertex
        ({"_raw_crs_scan": _scan_plus(((0, 1), 2, 1))}, {"universal_mismatches": 72}),
        ({"_raw_crs_scan": _scan_plus(((0, 1), 2, 4))}, {"m_at_least_4": 356}),
        # the classifier and is_path still say path, so only the scan's
        # own check fires
        ({"_raw_crs_scan": _scan_blind_to_long_paths}, {"path_mismatches": 72}),
        # both dimensions one low, so they still agree with each other
        (
            {
                "_raw_dimension": lambda rows, n: _raw_dimension(rows, n) - 1,
                "metric_dimension": _metric_dimension_off_by(-1),
            },
            {"dimension_inequality_violations": 686},
        ),
        ({"metric_dimension": _metric_dimension_off_by(1)}, {"dimension_spot_mismatches": 771}),
    ],
    ids=["path", "universal", "m-at-least-4", "verdict-vs-scan", "inequality", "dimension-spot"],
)
def test_classification_checks_can_fail(monkeypatch, patches, fired):
    for name, mutant in patches.items():
        monkeypatch.setattr(sweeps, name, mutant)
    result = sweep_small_order.__wrapped__(5)
    checks = {
        f.name: getattr(result, f.name)
        for f in fields(result)
        if f.name not in ("connected_graphs", "crs_successes")
    }
    assert checks == {**dict.fromkeys(checks, 0), **fired}
    assert not result.ok


def _labeled_small_order(max_order):
    """The classification sweep over every connected labeled graph of order
    2..max_order, one edge mask at a time: the reference that the
    orbit-weighted sweep_small_order must match counter for counter.  It
    checks metric_dimension on every graph."""
    connected = successes = 0
    path_mism = universal_mism = verdict_mism = relabel_fail = 0
    m_big = dim_viol = dim_spot = 0
    for n in range(2, max_order + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            adj = [0] * n
            edges = []
            for b, (i, j) in enumerate(pairs):
                if mask >> b & 1:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
                    edges.append((i, j))
            row0 = bfs_levels(adj, 0)
            if -1 in row0:
                continue
            rows = [row0] + [bfs_levels(adj, s) for s in range(1, n)]
            connected += 1

            found = list(_raw_crs_scan(rows, n))
            successes += len(found)
            has_k1 = any(k == 1 for _w, k, _m in found)
            has_m1 = any(m == 1 for _w, _k, m in found)
            if any(k >= 2 and m >= 4 for _w, k, m in found):
                m_big += 1

            g = plain_graph(n, edges)
            struct_path = is_path(g)
            struct_universal = bool(universal_vertices(g))
            if has_k1 != struct_path:
                path_mism += 1
            if has_m1 != struct_universal:
                universal_mism += 1

            verdict = is_completeness_resolvable(g)
            expected_kind = (
                PATH
                if struct_path
                else UNIVERSAL_VERTEX
                if struct_universal
                else FAMILY_B
                if found
                else NOT_COMPLETENESS_RESOLVABLE
            )
            if verdict.kind != expected_kind:
                verdict_mism += 1

            if any(k == m == 2 for _w, k, m in found):
                relabel_fail += _relabel_failures(g, found)

            dim = _raw_dimension(rows, n)
            diam = max(max(r) for r in rows)
            if n > dim + diam ** dim:
                dim_viol += 1
            if metric_dimension(g)[0] != dim:
                dim_spot += 1
    return sweeps.SmallOrderSweep(
        connected_graphs=connected,
        crs_successes=successes,
        path_mismatches=path_mism,
        universal_mismatches=universal_mism,
        verdict_mismatches=verdict_mism,
        relabel_failures=relabel_fail,
        m_at_least_4=m_big,
        dimension_inequality_violations=dim_viol,
        dimension_spot_mismatches=dim_spot,
    )


def test_orbit_sweep_matches_the_labeled_oracle():
    labeled = _labeled_small_order(5)
    assert labeled.connected_graphs == 1 + 4 + 38 + 728
    assert labeled.crs_successes > 0
    assert sweep_small_order(5) == labeled


def test_orbit_weight_check_can_fail(monkeypatch):
    # one order-5 class whose |Aut| is off by one stands for 5!/(|Aut| + 1)
    # labeled graphs instead of 5!/|Aut|
    real_classes = sweeps._connected_classes

    def one_aut_off(max_order):
        for n, classes in real_classes(max_order):
            if n == max_order:
                canon = next(iter(classes))
                classes = {**classes, canon: classes[canon] + 1}
            yield n, classes

    monkeypatch.setattr(sweeps, "_connected_classes", one_aut_off)
    assert sweep_small_order.__wrapped__(5).connected_graphs != 771


def test_class_generator_matches_the_graph_atlas():
    # connected graphs of order 1..6 up to isomorphism (OEIS A001349):
    # the representatives are pairwise non-isomorphic, as many as the
    # atlas holds, and each |Aut| is the number of self-isomorphisms
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    atlas = Counter(g.order() for g in nx.graph_atlas_g() if 0 < g.order() <= 6 and nx.is_connected(g))
    counts = []
    for n, classes in sweeps._connected_classes(6):
        graphs = []
        for canon in classes:
            g = nx.empty_graph(n)
            g.add_edges_from((i, j) for i in range(n) for j in range(i + 1, n) if canon[i] >> j & 1)
            assert nx.is_connected(g)
            graphs.append(g)
        assert not any(nx.is_isomorphic(a, b) for a, b in combinations(graphs, 2))
        for g, (canon, aut) in zip(graphs, classes.items()):
            _rows, maps = sweeps._canonical_form(list(canon))
            assert sum(1 for _ in GraphMatcher(g, g).isomorphisms_iter()) == aut == len(maps)
        counts.append(len(classes))
    assert counts == [atlas[n] for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]


def test_class_generator_counts_connected_graphs_to_order_7():
    # up to isomorphism (OEIS A001349) and labeled (A001187, the sum of
    # n!/|Aut| over the classes), one order past the atlas
    unlabeled, labeled = [], []
    for n, classes in sweeps._connected_classes(7):
        unlabeled.append(len(classes))
        labeled.append(sum(factorial(n) // aut for aut in classes.values()))
    assert unlabeled == [1, 1, 2, 6, 21, 112, 853]
    assert labeled == [1, 1, 4, 38, 728, 26704, 1866256]


def relabel_rows(rows, perm):
    """The adjacency rows of the graph with vertex v renamed perm[v]."""
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        out[perm[v]] = sum(1 << perm[u] for u in range(len(rows)) if row >> u & 1)
    return out


def test_canonical_form_returns_the_automorphisms_of_its_rows():
    # a shuffled class representative canonicalises back to it, and its
    # maps are |Aut| distinct automorphisms of the canonical rows
    rng = random.Random(33)
    for n, classes in sweeps._connected_classes(6):
        for canon, aut in classes.items():
            perm = list(range(n))
            rng.shuffle(perm)
            rows, maps = sweeps._canonical_form(relabel_rows(canon, perm))
            assert rows == canon
            assert len(set(maps)) == len(maps) == aut
            assert all(relabel_rows(rows, sigma) == list(rows) for sigma in maps)


def test_searches_leave_no_cyclic_garbage():
    # the recursive searches (the dimension search, the canonical form, the
    # minimal hitting sets) are module-level functions, so classifying,
    # sweeping and enumerating free what they build by reference counting
    # and leave the cyclic collector nothing to find
    rng = random.Random(52)
    gc.disable()
    try:
        gc.collect()
        graphs = 0
        while graphs < 30:
            n = rng.randint(4, 10)
            g = plain_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4])
            if not is_connected(g):
                continue
            graphs += 1
            is_completeness_resolvable(g)
            metric_dimension(g)
            is_perfectness_resolvable(g)
        sweep_small_order.__wrapped__(5)
        enumerate_minimal("C", 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_orbit_step_grows_one_neighbourhood_per_orbit(monkeypatch):
    # order n + 1 canonicalises one extension per orbit of each order-n
    # class's automorphism group on its nonempty subsets: 333 graphs at
    # order 6, not 21 * 31 = 651.  The groups here are found by trying
    # every permutation, not read from the generator.
    real = sweeps._canonical_form
    built = Counter()

    def counting(adj):
        built[len(adj)] += 1
        return real(adj)

    monkeypatch.setattr(sweeps, "_canonical_form", counting)
    expected = Counter()
    for n, classes in sweeps._connected_classes(6):
        if n == 6:
            break
        for canon in classes:
            group = [sigma for sigma in permutations(range(n)) if relabel_rows(canon, sigma) == list(canon)]
            orbits = {
                min(sum(1 << sigma[v] for v in range(n) if s >> v & 1) for sigma in group)
                for s in range(1, 1 << n)
            }
            expected[n + 1] += len(orbits)
    assert built == expected and built[6] == 333
