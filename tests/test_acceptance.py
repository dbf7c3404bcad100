"""The acceptance gate: one test per criterion, each printing a PASS/FAIL
line, with stated tolerances pinned (integer equality unless noted).

Criterion 2 has two parts.  The exhaustive 2^20 equivalence is the
theorem itself.  The sampled out-of-range control is label-bound: a
lattice with an edge outside Gamma_2 is never a member on its own
labels, W = [2] never resolves its composite with every lattice vertex
on its own label, and a sample that is certified anyway is certified
through a label permutation whose relabeled lattice is a member.
Certification is isomorphism-invariant, so such samples are allowed;
tests/test_properties.py::test_out_of_range_counterexample_is_stable
pins the deterministic witness.
"""

import ast
import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from crslab import sweeps
from crslab.families import base_complete, base_null, example_graph
from crslab.extremal import tightness_b
from crslab.sweeps import (
    OUT_OF_GAMMA_SAMPLES,
    check_diameters,
    check_minimal_enumeration,
    check_size_identities,
    check_tightness,
    run_suite,
    sweep_b_equivalence,
    sweep_c_equivalence,
    sweep_properties,
    sweep_small_order,
)

TIMINGS: dict[str, float] = {}
WORK = Path(__file__).resolve().parents[1] / "perfbench" / "work.py"


def _timed(name, fn, *args, **kwargs):
    start = time.monotonic()
    result = fn(*args, **kwargs)
    TIMINGS.setdefault(name, time.monotonic() - start)
    return result


@pytest.fixture(scope="module")
def b_sweep():
    return _timed("b", sweep_b_equivalence)


@pytest.fixture(scope="module")
def c_sweep():
    return _timed("c", sweep_c_equivalence)


@pytest.fixture(scope="module")
def small_sweep():
    return _timed("small", sweep_small_order, 6)


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}")


def test_criterion_1_b_equivalence(b_sweep):
    ok = (
        b_sweep.total == 128
        and b_sweep.exhaustive_ok
        and TIMINGS["b"] < 1.0
    )
    _report(
        "1 (radius-2 equivalence, exhaustive k=2)",
        ok,
        f"{b_sweep.members}/128 members, {b_sweep.mismatches} mismatches, {TIMINGS['b']:.3f}s",
    )
    assert b_sweep.total == 128
    assert b_sweep.mismatches == 0
    assert b_sweep.members == b_sweep.certified
    assert TIMINGS["b"] < 1.0


def test_criterion_2_c_equivalence_exhaustive(c_sweep):
    ok = (
        c_sweep.total == 1 << 20
        and c_sweep.mismatches == 0
        and c_sweep.members == c_sweep.certified
        and TIMINGS["c"] < 600.0
    )
    _report(
        "2 (radius-3 equivalence, exhaustive 2^20)",
        ok,
        f"{c_sweep.members} members, {c_sweep.mismatches} mismatches, {TIMINGS['c']:.1f}s",
    )
    assert c_sweep.total == 1 << 20
    assert c_sweep.mismatches == 0
    assert c_sweep.members == c_sweep.certified
    assert TIMINGS["c"] < 600.0


def test_criterion_2_out_of_range_samples(c_sweep):
    """The sampled negative control, stated on labels.  Each sample is a
    [3]^2 lattice with an edge whose coordinates differ by two, and:

    1. it is never a member of C on its own labels;
    2. W = [2] never resolves its composite with every lattice vertex
       mapped to its own label -- adjacent vertices would then differ by
       at most one in each coordinate, putting every edge inside Gamma_2;
    3. a sample that is certified is certified through a non-identity
       table, and its canonical relabeling is a member.

    A completeness-resolving set is a property of the graph and W alone,
    so certification cannot see labels: a composite whose lattice is a
    relabeled member is completeness-resolvable, and rejecting it would be
    wrong.  Such samples are reported, not failed; the sweep counts
    violations of 1-3 in out_of_range_inconsistent."""
    ok = (
        c_sweep.out_of_range_tested == OUT_OF_GAMMA_SAMPLES
        and c_sweep.out_of_range_inconsistent == 0
    )
    _report(
        "2 (sampled out-of-range negative control, label-bound)",
        ok,
        f"{c_sweep.out_of_range_inconsistent}/{c_sweep.out_of_range_tested} inconsistent, "
        f"{c_sweep.out_of_range_failures} certified through a label permutation",
    )
    assert c_sweep.out_of_range_tested == OUT_OF_GAMMA_SAMPLES
    assert c_sweep.out_of_range_inconsistent == 0, (
        "an out-of-range sample was a member on its own labels, was certified "
        "with the identity table, or was certified without its relabeling "
        "being a member"
    )


def test_criterion_3_size_identities():
    bad = check_size_identities()
    _report("3 (size identities, k=2..4, exact)", not bad, "; ".join(bad) or "all exact")
    assert not bad


def test_criterion_4_minimal_enumeration():
    bad = check_minimal_enumeration()
    _report("4 (minimal enumeration corollaries, k=2)", not bad, "; ".join(bad) or "exact set equality")
    assert not bad


def test_criterion_5_distance_identity(b_sweep, c_sweep):
    violations = b_sweep.identity_violations + c_sweep.identity_violations
    _report("5 (distance identity on every member)", violations == 0, f"{violations} violations")
    assert violations == 0


def test_criterion_6_diameters():
    bad = check_diameters()
    _report("6 (named composite diameters 2,3,3,4,5)", not bad, "; ".join(bad) or "exact")
    assert not bad


def test_criterion_7_small_order_classification(small_sweep):
    ok = small_sweep.ok and TIMINGS["small"] < 300.0
    _report(
        "7 (order<=6 classification sweep)",
        ok,
        f"{small_sweep.connected_graphs} graphs, {small_sweep.crs_successes} certificates, "
        f"{TIMINGS['small']:.1f}s",
    )
    assert small_sweep.connected_graphs == 27475
    assert small_sweep.path_mismatches == 0
    assert small_sweep.universal_mismatches == 0
    assert small_sweep.verdict_mismatches == 0
    assert small_sweep.relabel_failures == 0
    assert TIMINGS["small"] < 300.0


def test_criterion_8_property_suites(small_sweep):
    props = sweep_properties()
    ok = props.ok
    _report(
        "8 (closure, disjointness, counting properties)",
        ok,
        f"{props.upset_trials} up-set + {props.union_trials} union trials, "
        f"{props.epsilon_pairs_checked} choice-set pairs",
    )
    assert props.upset_violations == 0
    assert props.union_violations == 0
    assert props.epsilon_overlaps == 0
    assert small_sweep.m_at_least_4 == 0
    assert small_sweep.dimension_inequality_violations == 0


def test_criterion_9_tightness():
    bad = check_tightness()
    _report("9 (tightness vs raw edge counts)", not bad, "; ".join(bad) or "exact agreement")
    assert not bad


def test_criterion_9_named_extremes():
    # the characterized extremes hit exactly their own bound
    cases = [
        (base_complete(2), example_graph("U", 2), True, False),
        (base_complete(2), example_graph("V", 2), False, True),
        (base_null(2), example_graph("R", 2), True, False),
        (base_null(2), example_graph("P2box", 2), False, True),
    ]
    for base, lattice, lower, upper in cases:
        rep = tightness_b(base, lattice)
        assert (rep.lower_tight, rep.upper_tight) == (lower, upper)


def test_benchmark_selftest_passes():
    # the benchmark's own checks must still be able to fail: pinned counters
    # that no longer fit their sweep dataclass, or an expected failure that
    # a passing suite no longer trips, fail here. No bytecode is left in
    # perfbench/
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=root, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def stale_benchmark_pins(work: Path = WORK) -> list[str]:
    """What the benchmark's work file pins and this tree no longer gives: a
    ``PINNED_SWEEPS`` counter set that differs from its sweep's, or an
    ``EXPECTED_FAIL`` that is not the set of failing suites.  The file is
    read as text, so nothing is imported from it and no bytecode is left
    under perfbench/."""
    assigned = {
        target.id: node.value
        for node in ast.parse(work.read_text()).body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }
    expected_fail = ast.literal_eval(assigned["EXPECTED_FAIL"])
    stale = []
    for fn, (suite, pinned) in ast.literal_eval(assigned["PINNED_SWEEPS"]).items():
        counters = dataclasses.asdict(getattr(sweeps, fn)())
        if counters != pinned:
            stale.append(f"{suite}: {fn} gives {counters}, pinned {pinned}")
    failing = {r.name for r in run_suite("all") if not r.passed}
    if failing != expected_fail:
        stale.append(f"failing suites {sorted(failing)}, pinned {sorted(expected_fail)}")
    return stale


def test_benchmark_pins_match_the_sweeps():
    assert stale_benchmark_pins() == []


@pytest.mark.parametrize(
    "old, new",
    [('"members": 65,', '"members": 66,'), ('EXPECTED_FAIL = {"c-equivalence"}', "EXPECTED_FAIL = set()")],
    ids=["b-equivalence-members", "no-expected-failure"],
)
def test_a_stale_benchmark_pin_is_caught(tmp_path, old, new):
    text = WORK.read_text()
    assert text.count(old) == 1
    work = tmp_path / "work.py"
    work.write_text(text.replace(old, new))
    assert len(stale_benchmark_pins(work)) == 1
