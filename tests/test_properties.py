"""Cross-cutting invariants: seeded random trials and regression anchors
that do not fit a single module."""

import random
from dataclasses import replace

from crslab import sweeps
from crslab.graph import BaseVertex, Graph, LatticeVertex
from crslab.families import (
    base_null,
    canonical_relabel,
    compose,
    gamma,
    lattice_slice,
    lattice_vertices,
    member_b,
    member_c,
)
from crslab.resolving import CrsCertificate, check_crs
from crslab.extremal import is_k_minimal, iter_q
from crslab.sweeps import (
    out_of_range_counterexample,
    random_b_member,
    random_c_member,
    _scan_c_range,
)


def test_region_cardinalities():
    # the complement of the two corner regions has 3^k - 2^(k+1) + 1 vectors
    for k in (2, 3, 4):
        in_x = lattice_slice(k, 3, range(1, k + 1), {2, 3})
        in_y = lattice_slice(k, 3, range(1, k + 1), {1, 3})
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
    gamma_set = gamma(2).edge_set()
    all_pairs = [
        (LatticeVertex(x), LatticeVertex(y))
        for a, x in enumerate(vecs)
        for y in vecs[a + 1:]
    ]
    out_pairs = [e for e in all_pairs if e not in gamma_set]
    for _ in range(50):
        lattice = random_c_member(rng, 2)
        extra = out_pairs[rng.randrange(len(out_pairs))]
        bigger = Graph(lattice.vertices(), list(lattice.edge_set()) + [extra])
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


def test_out_of_range_tested_counts_the_checked_samples(monkeypatch):
    # every sample has an edge outside Gamma_2, so each membership report
    # that names a bad edge belongs to one sampled lattice
    real_member_c = sweeps.member_c
    reports = []

    def counting_member_c(lattice):
        reports.append(real_member_c(lattice))
        return reports[-1]

    monkeypatch.setattr(sweeps, "member_c", counting_member_c)
    tested, _failures, _inconsistent = sweeps._out_of_gamma_samples()
    assert tested == sum(rep.bad_edge is not None for rep in reports)
    assert tested == sweeps.OUT_OF_GAMMA_SAMPLES


def test_out_of_range_tested_can_fail(monkeypatch):
    # a membership test blind to edges outside Gamma_2 names no bad edge,
    # so no sample counts as tested
    real_member_c = sweeps.member_c
    monkeypatch.setattr(
        sweeps, "member_c", lambda lattice: replace(real_member_c(lattice), bad_edge=None)
    )
    tested, _failures, _inconsistent = sweeps._out_of_gamma_samples()
    assert tested == 0


def test_certified_within_range_forces_identity_labels():
    # on spanning subgraphs of the maximal lattice, certification pins every
    # distance vector to its label, exhaustively over a mask slice
    members, certified, mismatches, identity_violations = _scan_c_range((0, 40000))
    assert mismatches == 0
    assert identity_violations == 0


def test_q3_streamed_members_are_minimal_sample():
    rng = random.Random(103)
    picks = sorted(rng.sample(range(256), 3))
    count = 0
    for n, g in enumerate(iter_q(3)):
        if n in picks:
            assert is_k_minimal(g).minimal
            count += 1
        if n > picks[-1]:
            break
    assert count == 3


def test_scan_ranges_merge_associatively():
    whole = _scan_c_range((0, 4096))
    lo = _scan_c_range((0, 2048))
    hi = _scan_c_range((2048, 4096))
    assert whole == tuple(a + b for a, b in zip(lo, hi))
