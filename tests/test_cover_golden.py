"""Byte-level regression anchor for everything the covering conditions feed:
membership and minimality reports, critical edges, the k = 2 minimal
enumerations and the seeded random family members.

``tests/data/cover_golden.json`` holds the reference values.  Regenerate it
only when an output is meant to change:

    PYTHONPATH=src python tests/test_cover_golden.py
"""

import json
import random
from pathlib import Path

from crslab import formats
from crslab.families import base_complete, base_null, compose, example_graph, member_b, member_c
from crslab.extremal import critical_edges, enumerate_minimal, is_h1_minimal, is_k_minimal
from crslab.sweeps import random_b_member, random_c_member

GOLDEN = Path(__file__).parent / "data" / "cover_golden.json"
B_NAMES = ("U", "V", "R", "P2box")
C_NAMES = ("T", "Qcanon", "Gamma")
DRAWS = 20


def _edges(edges):
    return sorted(formats._edge_json(e) for e in edges)


def _critical_json(ce):
    return {
        "primary": {str(i): _edges(es) for i, es in sorted(ce.primary.items())},
        "secondary": None if ce.secondary is None else {
            str(i): _edges(es) for i, es in sorted(ce.secondary.items())
        },
    }


def _reports(family, base, lattice):
    if family == "B":
        membership = member_b(base, lattice)
        minimality = is_h1_minimal(base, lattice)
    else:
        membership = member_c(lattice)
        minimality = is_k_minimal(lattice)
    return {
        "membership": formats.membership_to_json(membership),
        "minimality": formats.minimality_to_json(minimality),
        "critical_edges": (
            _critical_json(critical_edges(family, base, lattice)) if membership.member else None
        ),
    }


def _enumeration(kind, base=None):
    return [json.dumps(formats.graph_to_json(g)) for g in enumerate_minimal(kind, 2, base=base)]


def capture() -> dict:
    named = {}
    for k in (2, 3):
        for name in B_NAMES:
            for base_name, base in (("null", base_null(k)), ("complete", base_complete(k))):
                named[f"{name}/{base_name}/{k}"] = _reports("B", base, example_graph(name, k))
        for name in C_NAMES:
            named[f"{name}/{k}"] = _reports("C", None, example_graph(name, k))
    random_members = {}
    for k in (2, 3):
        rng = random.Random(1000 + k)
        random_members[f"B/{k}"] = [
            formats.composite_to_json(compose(*random_b_member(rng, k), k, 2))
            for _ in range(DRAWS)
        ]
        rng = random.Random(2000 + k)
        random_members[f"C/{k}"] = [
            formats.graph_to_json(random_c_member(rng, k)) for _ in range(DRAWS)
        ]
    return {
        "named": named,
        "enumerate_minimal": {
            "B/null": _enumeration("B", base_null(2)),
            "B/complete": _enumeration("B", base_complete(2)),
            "C": _enumeration("C"),
        },
        "random_members": random_members,
    }


def test_cover_outputs_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(capture()))
    for section in want:
        assert got[section] == want[section], section
    assert got == want


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
