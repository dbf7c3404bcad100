"""What the suites and each kind of request call in crslab, and the checks
that decide whether an answer is correct.

Each request pipeline takes an ``api`` namespace holding the crslab
functions it calls.  The untraced run passes the functions themselves; the traced run
passes the same functions wrapped in spans, so both runs execute one code
path.  Checks run outside the timed region and return a list of problems
(empty = correct).
"""

from __future__ import annotations

import dataclasses
import importlib
import json
from types import SimpleNamespace

import crslab
from crslab import formats, sweeps
from crslab.resolving import FAMILY_B, FAMILY_C, NOT_COMPLETENESS_RESOLVABLE, CrsCertificate

import gen

# -- layers ------------------------------------------------------------------

# Every call the classify and membership pipelines make into crslab.
REQUEST_SPANS = [
    "graph6.read_graph6",
    "resolving.is_completeness_resolvable", "resolving.check_crs",
    "resolving.metric_dimension", "resolving.is_perfectness_resolvable",
    "families.canonical_relabel", "families.member_b", "families.member_c",
    "families.materialize",
    "extremal.is_h1_minimal", "extremal.is_k_minimal", "extremal.critical_edges",
    "formats.composite_from_json", "formats.verdict_to_json",
    "formats.membership_to_json", "formats.certificate_to_json",
    "formats.failure_to_json",
]

# Every public layer function that crslab.sweeps imports.  Classes are left
# alone except Graph, which sweeps only ever calls.
SWEEP_SPANS = [
    "graph.Graph", "graph.plain_graph", "graph.bfs_levels", "graph.diameter",
    "resolving.is_completeness_resolvable", "resolving.check_crs",
    "resolving.metric_dimension",
    "families.gamma", "families.scaffold", "families.span_lattice",
    "families.member_b", "families.member_c", "families.canonical_relabel",
    "families.base_complete", "families.base_null", "families.compose",
    "families.example_graph", "families.lattice_complete",
    "families.lattice_vertices", "families.s_set",
    "extremal.enumerate_minimal", "extremal.bounds_b", "extremal.bounds_c",
    "extremal.c_constraint_masks", "extremal.enumerate_q", "extremal.epsilon",
    "extremal.q_choice_lists", "extremal.q_choice_points", "extremal.q_count",
    "extremal.tightness_b",
]

# Every span a traced run can record.  "sweeps" is one suite run and
# "request" one request; their self time is what no layer span covers.
SPANS = ["sweeps", "request", *dict.fromkeys(SWEEP_SPANS + REQUEST_SPANS)]

# ratio metric -> spans whose truthy results (a certificate, a member, a
# minimal lattice) it divides by their calls, counted where the calls happen.
RATIOS = {
    "resolving.certified_ratio": ("resolving.check_crs",),
    "families.member_ratio": ("families.member_b", "families.member_c"),
    "extremal.minimal_ratio": ("extremal.is_h1_minimal", "extremal.is_k_minimal"),
}
COUNTED = {name for names in RATIOS.values() for name in names}


def _layer_function(layer: str):
    if layer == "families.materialize":
        return lambda comp: comp.materialize()
    module, name = layer.split(".")
    return getattr(importlib.import_module(f"crslab.{module}"), name)


def layer_api(tracer=None) -> SimpleNamespace:
    """The functions the request pipelines call, by short name, wrapped in
    spans when a tracer is given."""
    calls = {}
    for layer in REQUEST_SPANS:
        fn = _layer_function(layer)
        if tracer is not None:
            fn = tracer.wrap(layer, fn, count_truthy=layer in COUNTED)
        calls[layer.split(".")[1]] = fn
    return SimpleNamespace(**calls)


def trace_sweeps(tracer) -> None:
    """Rebind, inside crslab.sweeps only, each imported layer function to a
    traced wrapper, so the suites' calls into the layers become spans."""
    for layer in SWEEP_SPANS:
        name = layer.split(".")[1]
        fn = getattr(sweeps, name, None)
        if fn is not None:
            setattr(sweeps, name, tracer.wrap(layer, fn, count_truthy=layer in COUNTED))


# -- suites ------------------------------------------------------------------

# Every counter of the sweep result dataclasses, pinned at the commit that
# introduced this benchmark.  c-equivalence is the designed failure: one of
# the 1000 out-of-range samples certifies, none inconsistently.
PINNED_SWEEPS = {
    "sweep_b_equivalence": ("b-equivalence", {
        "total": 128, "members": 65, "certified": 65, "mismatches": 0,
        "identity_violations": 0, "out_of_range_tested": 0,
        "out_of_range_failures": 0, "out_of_range_inconsistent": 0,
    }),
    "sweep_c_equivalence": ("c-equivalence", {
        "total": 1048576, "members": 152500, "certified": 152500, "mismatches": 0,
        "identity_violations": 0, "out_of_range_tested": 1000,
        "out_of_range_failures": 1, "out_of_range_inconsistent": 0,
    }),
    "sweep_small_order": ("classification", {
        "connected_graphs": 27475, "crs_successes": 30774, "path_mismatches": 0,
        "universal_mismatches": 0, "verdict_mismatches": 0, "relabel_failures": 0,
        "m_at_least_4": 0, "dimension_inequality_violations": 0,
        "dimension_spot_mismatches": 0,
    }),
    "sweep_properties": ("properties", {
        "upset_trials": 1000, "upset_violations": 0, "union_trials": 1000,
        "union_violations": 0, "epsilon_pairs_checked": 786, "epsilon_overlaps": 0,
        "m_at_least_4": 0, "dimension_inequality_violations": 0,
    }),
}

# The designed failure keeps failing until its spec changes.
EXPECTED_FAIL = {"c-equivalence"}


def capture_sweeps() -> dict[str, object]:
    """Rebind the four sweep functions in crslab.sweeps so the suites leave
    their result dataclasses behind for checking; caching is unchanged."""
    captured: dict[str, object] = {}

    def capture(name, fn):
        def inner(*args, **kwargs):
            captured[name] = fn(*args, **kwargs)
            return captured[name]
        return inner

    for name in PINNED_SWEEPS:
        setattr(sweeps, name, capture(name, getattr(sweeps, name)))
    return captured


def check_suites(results, captured) -> dict[str, list[str]]:
    """Problems per suite: an unexpected pass flag, or a sweep counter that
    differs from its pinned value."""
    problems = {r.name: [] for r in results}
    for r in results:
        if r.passed == (r.name in EXPECTED_FAIL):
            problems[r.name].append(f"passed={r.passed}: {r.detail}")
    for fn_name, (suite, pinned) in PINNED_SWEEPS.items():
        if suite not in problems:
            continue
        got = captured.get(fn_name)
        if got is None:
            problems[suite].append(f"{fn_name} was never called")
            continue
        counters = dataclasses.asdict(got)
        if counters != pinned:
            problems[suite].append(f"{fn_name} counters {counters} != pinned {pinned}")
    return problems


def suites_record(results, captured) -> dict:
    """What the suites report, minus timings: the digest input."""
    return {
        "suites": [[r.name, r.passed, r.detail] for r in results],
        "counters": {k: dataclasses.asdict(v) for k, v in sorted(captured.items())},
    }


# -- classify ----------------------------------------------------------------

FAMILY_KINDS = (FAMILY_B, FAMILY_C)


def classify(api, text: str) -> SimpleNamespace:
    """What `crslab classify` and then `crslab dim` do for one graph6 line,
    plus re-certification of the witness and membership of the relabel."""
    g = api.read_graph6(text)
    verdict = api.is_completeness_resolvable(g)
    recert = relabel_member = None
    if verdict.witness is not None:
        recert = api.check_crs(g, verdict.witness.w_order)
    if verdict.kind in FAMILY_KINDS:
        comp = api.canonical_relabel(g, verdict.witness)
        if verdict.kind == FAMILY_B:
            relabel_member = api.member_b(comp.base, comp.lattice).member
        else:
            relabel_member = api.member_c(comp.lattice).member
    dim, basis = api.metric_dimension(g)
    perfect = api.is_perfectness_resolvable(g)
    verdict_json = api.verdict_to_json(verdict)
    return SimpleNamespace(
        graph=g, verdict=verdict, recert=recert, relabel_member=relabel_member,
        dim=dim, basis=basis, perfect=perfect, verdict_json=verdict_json,
    )


def check_classify(req: gen.Request, out) -> list[str]:
    problems = []
    v = out.verdict
    if req.expect is not None and v.kind not in req.expect:
        problems.append(f"{req.cls} classified as {v.kind}")
    if v.kind == NOT_COMPLETENESS_RESOLVABLE:
        if v.witness is not None:
            problems.append("negative verdict carries a witness")
    elif not isinstance(out.recert, CrsCertificate):
        problems.append(f"witness does not re-certify: {out.recert}")
    elif (out.recert.m_of_w, out.recert.table) != (v.witness.m_of_w, v.witness.table):
        problems.append("re-certified table differs from the witness")
    if v.kind in FAMILY_KINDS and out.relabel_member is not True:
        problems.append(f"{v.kind} relabel is not a member")
    if len(out.basis) != out.dim or not crslab.is_resolving_set(out.graph, out.basis):
        problems.append(f"dimension basis {out.basis} does not resolve")
    return problems


def classify_record(out) -> dict:
    return {
        "classify": out.verdict_json,
        "dim": {
            "dimension": out.dim,
            "basis": [formats.vertex_to_json(v) for v in out.basis],
            "perfectness_resolvable": out.perfect,
        },
    }


# -- membership -----------------------------------------------------------------


def membership(api, text: str) -> SimpleNamespace:
    """Membership of one composite JSON, certification of W = b1..bk on the
    materialized graph, and for certified composites the minimality report
    of the relabel and, for members, its critical edges."""
    comp = api.composite_from_json(json.loads(text))
    if comp.m == 2:
        report = api.member_b(comp.base, comp.lattice)
    else:
        report = api.member_c(comp.lattice)
    g = api.materialize(comp)
    w = tuple(crslab.BaseVertex(i) for i in range(1, comp.k + 1))
    cert = api.check_crs(g, w)
    minimality = critical = None
    if isinstance(cert, CrsCertificate):
        rel = api.canonical_relabel(g, cert)
        if comp.m == 2:
            minimality = api.is_h1_minimal(rel.base, rel.lattice)
        else:
            minimality = api.is_k_minimal(rel.lattice)
        if report.member:
            kind = "B" if comp.m == 2 else "C"
            critical = api.critical_edges(kind, rel.base if kind == "B" else None, rel.lattice)
        cert_json = api.certificate_to_json(cert)
    else:
        cert_json = api.failure_to_json(cert)
    return SimpleNamespace(
        report=report, cert=cert, minimality=minimality, critical=critical,
        membership_json=api.membership_to_json(report), cert_json=cert_json,
    )


def check_membership(req: gen.Request, out) -> list[str]:
    problems = []
    member = out.report.member
    certified = isinstance(out.cert, CrsCertificate)
    if member != req.expect:
        problems.append(f"{req.cls} decided member={member}")
    if member != certified:
        problems.append(f"member={member} but certified={certified}")
    if member and certified:
        wrong = [
            u for u, vec in out.cert.table.items()
            if not isinstance(u, crslab.LatticeVertex) or u.vector != vec
        ]
        if wrong:
            problems.append(f"member table is not the identity at {wrong[0]!r}")
    # With member == certified checked above, this also makes the minimality
    # report's membership agree with member_b/member_c.
    if certified and (out.minimality is None or out.minimality.member is not True):
        problems.append("certified composite's relabel is not a member")
    if member and out.critical is None:
        problems.append("member without critical edges")
    return problems


def _edges_json(edges) -> list:
    return sorted([formats.vertex_to_json(u), formats.vertex_to_json(v)] for u, v in edges)


def membership_record(out) -> dict:
    record = {"membership": out.membership_json, "certificate": out.cert_json}
    if out.minimality is not None:
        record["minimal"] = out.minimality.minimal
        record["redundant"] = _edges_json(out.minimality.redundant_edges())
    if out.critical is not None:
        record["critical"] = {
            part: {str(i): _edges_json(es) for i, es in sorted(sets.items())}
            for part, sets in (("primary", out.critical.primary),
                               ("secondary", out.critical.secondary or {}))
        }
    return record


# request kind -> (pipeline, check, record)
PIPELINES = {
    "classify": (classify, check_classify, classify_record),
    "membership": (membership, check_membership, membership_record),
}
