"""Byte-level regression anchor for the resolving entry points: the
classification verdict, the metric dimension, perfectness and every
completeness-resolving set.

The inputs are every connected labeled graph of order 2..5 and a seeded
sample of order 6..9 (paths with shuffled labels, stars and wheels with the
hub at a random label, random connected graphs), plus the k = 2 composite
family members for the two family verdicts.  ``tests/data/resolving_golden.json``
holds the reference values.  The completeness-resolving sets are found by
the brute force of ``tests/reference.py``, by size and then in combination
order, and each is written as ``check_crs`` certifies it: the file holds
their count and the SHA-256 of that JSON.
Regenerate the file only when an output is meant to change:

    PYTHONPATH=src python tests/test_resolving_golden.py
"""

import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

from crslab import formats, resolving
from crslab.families import base_complete, base_null, compose, example_graph
from crslab.graph import is_connected, plain_graph, universal_vertices
from crslab.resolving import (
    check_crs,
    is_completeness_resolvable,
    is_perfectness_resolvable,
    metric_dimension,
)

import reference

GOLDEN = Path(__file__).parent / "data" / "resolving_golden.json"
SEED = 0x6010
RANDOM_PER_ORDER = 6
#: Largest sampled order with a universal vertex: no star, wheel or random
#: graph above it has one.
UNIVERSAL_MAX_ORDER = 8
#: (lattice name, base, m) of the k = 2 composites: orders 6 (family B) and 11 (family C).
COMPOSITES = (
    ("U", base_complete, 2), ("V", base_complete, 2), ("R", base_null, 2),
    ("P2box", base_null, 2), ("T", base_null, 3), ("Qcanon", base_null, 3),
)


def _labeled_graphs(n):
    """Every connected labeled graph on PlainVertex(0..n-1), by edge mask."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        g = plain_graph(n, [e for b, e in enumerate(pairs) if mask >> b & 1])
        if is_connected(g):
            yield f"all/{n}/{mask}", g


def _sampled_graphs():
    rng = random.Random(SEED)
    for n in range(6, 10):
        labels = list(range(n))
        rng.shuffle(labels)
        yield f"path/{n}", plain_graph(n, list(zip(labels, labels[1:])))
        if n <= UNIVERSAL_MAX_ORDER:
            hub = rng.randrange(n)
            rim = [v for v in range(n) if v != hub]
            spokes = [(hub, v) for v in rim]
            yield f"star/{n}", plain_graph(n, spokes)
            yield f"wheel/{n}", plain_graph(n, spokes + list(zip(rim, rim[1:] + rim[:1])))
        pairs = list(combinations(range(n), 2))
        drawn = 0
        while drawn < RANDOM_PER_ORDER:
            g = plain_graph(n, [e for e in pairs if rng.random() < 0.4])
            if is_connected(g) and (n <= UNIVERSAL_MAX_ORDER or not universal_vertices(g)):
                yield f"random/{n}/{drawn}", g
                drawn += 1
    for name, base, m in COMPOSITES:
        yield f"composite/{name}/2", compose(base(2), example_graph(name, 2), 2, m).materialize()
    for name in ("MaxB", "MaxC"):
        yield f"composite/{name}/2", example_graph(name, 2).materialize()


def _record(g):
    dim, witness = metric_dimension(g)
    found = reference.find_all_crs(g.vertices(), g.edges())
    crs = json.dumps(
        [[[formats.vertex_to_json(v) for v in w], formats.certificate_to_json(check_crs(g, w))]
         for w, _m, _table in found]
    )
    return {
        "verdict": formats.verdict_to_json(is_completeness_resolvable(g)),
        "dimension": [dim, [formats.vertex_to_json(v) for v in witness]],
        "perfect": is_perfectness_resolvable(g),
        "crs": {"count": len(found), "sha256": hashlib.sha256(crs.encode()).hexdigest()},
    }


def capture() -> dict:
    out = {}
    for n in range(2, 6):
        out.update((key, _record(g)) for key, g in _labeled_graphs(n))
    out.update((key, _record(g)) for key, g in _sampled_graphs())
    return out


def test_resolving_outputs_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(capture()))
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def test_two_swapped_cells_of_a_box_table_fail_the_golden_digests(monkeypatch):
    # every certificate's table written with the vertices of its first two
    # cells swapped: each verdict whose witness has two or more rows, and
    # each crs digest over such a certificate, must differ from the file
    real = resolving._BoxTable.__init__

    def swapped(self, verts, w_idx, m, outside):
        outside = list(outside)
        outside[:2] = outside[1::-1]
        real(self, verts, w_idx, m, outside)

    want = json.loads(GOLDEN.read_text())
    monkeypatch.setattr(resolving._BoxTable, "__init__", swapped)
    resolving._distances.clear()
    try:
        got = json.loads(json.dumps(capture()))
    finally:
        resolving._distances.clear()
    long_witness = {
        key for key in got
        if want[key]["verdict"]["witness"] and len(want[key]["verdict"]["witness"]["table"]) > 1
    }
    assert len(long_witness) == 87
    assert {key for key in got if got[key]["verdict"] != want[key]["verdict"]} == long_witness
    assert all(got[key]["crs"]["sha256"] != want[key]["crs"]["sha256"] for key in long_witness)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
