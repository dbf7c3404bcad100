"""The references stand alone: ``tests/reference.py`` imports nothing
from crslab, and its BFS and brute force agree with networkx, so the chain
of references that the tests check crslab against ends outside crslab."""

import ast
import random
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest

from crslab.families import base_complete, base_null, compose, example_graph
from crslab.graph import is_connected, plain_graph
from crslab.sweeps import random_b_member, random_c_member

import reference

REFERENCE = Path(reference.__file__)


def crslab_imports(path):
    """The modules that a file's import statements name from crslab, or
    relatively, in the order they appear."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        found += [name for name in names if name.split(".")[0] in ("crslab", "")]
    return found


def test_the_reference_imports_nothing_from_crslab():
    assert crslab_imports(REFERENCE) == []


def test_the_lint_reports_an_import_from_crslab(tmp_path):
    copy = tmp_path / "reference.py"
    copy.write_text(
        REFERENCE.read_text()
        + "\nimport crslab.graph\nfrom crslab import families\nfrom . import sibling\n"
    )
    assert crslab_imports(copy) == ["crslab.graph", "crslab", "."]


def test_the_reference_imports_in_isolation(tmp_path):
    # a fresh interpreter in isolated mode, outside the checkout and without
    # the sources on its path, loads the reference and no crslab module
    script = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('reference', sys.argv[1])\n"
        "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'crslab'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", script, str(REFERENCE)], capture_output=True, text=True, cwd=tmp_path, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def distance_identity_graphs():
    """The composites of ``test_families.py::TestDistanceIdentity``."""
    graphs = []
    for k in (2, 3):
        graphs += [
            compose(base_complete(k), example_graph("U", k), k, 2),
            compose(base_complete(k), example_graph("V", k), k, 2),
            compose(base_null(k), example_graph("R", k), k, 2),
            compose(base_null(k), example_graph("P2box", k), k, 2),
            example_graph("MaxB", k),
            compose(base_null(k), example_graph("T", k), k, 3),
            compose(base_null(k), example_graph("Qcanon", k), k, 3),
            example_graph("MaxC", k),
        ]
    rng = random.Random(17)
    for k in (2, 3):
        for _ in range(5):
            graphs.append(compose(*random_b_member(rng, k), k, 2))
            graphs.append(compose(base_null(k), random_c_member(rng, k), k, 3))
    return [comp.materialize() for comp in graphs]


def find_all_crs_graphs():
    """The path P4, the cycle C4, the composite of ``R`` at k = 2, K12 and
    the 40 seeded graphs of ``test_resolving.py::TestFindAllCrs``."""
    graphs = [
        plain_graph(4, [(0, 1), (1, 2), (2, 3)]),
        plain_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        compose(base_null(2), example_graph("R", 2), 2, 2).materialize(),
        plain_graph(12, list(combinations(range(12), 2))),
    ]
    rng = random.Random(31)
    while len(graphs) < 44:
        n = rng.randint(3, 7)
        g = plain_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5])
        if is_connected(g):
            graphs.append(g)
    return graphs


def nx_distances(nx, g):
    graph = nx.Graph()
    graph.add_nodes_from(g.vertices())
    graph.add_edges_from(g.edges())
    return dict(nx.all_pairs_shortest_path_length(graph))


def test_the_reference_bfs_matches_networkx():
    nx = pytest.importorskip("networkx")
    for g in distance_identity_graphs() + find_all_crs_graphs():
        d = nx_distances(nx, g)
        want = {(u, v): d[u].get(v) for u in g.vertices() for v in g.vertices()}
        assert reference.distances(g.vertices(), g.edges()) == want, g.edges()


def test_the_reference_brute_force_matches_networkx():
    # the definition read the other way: W certifies when the sorted vectors
    # of V minus W are the box itself (the box is listed only when the
    # lengths agree, as no list of another length can equal it)
    nx = pytest.importorskip("networkx")
    total = 0
    for g in find_all_crs_graphs():
        d, verts = nx_distances(nx, g), g.vertices()
        want = []
        for k in range(1, len(verts)):
            for w in combinations(verts, k):
                rest = [u for u in verts if u not in w]
                if all(u in d[x] for x in w for u in rest):
                    table = {u: tuple(d[x][u] for x in w) for u in rest}
                    m = max(map(max, table.values()))
                    box = m ** k == len(rest) and list(product(range(1, m + 1), repeat=k))
                    if sorted(table.values()) == box:
                        want.append((w, m, table))
        assert reference.find_all_crs(verts, g.edges()) == want, g.edges()
        total += len(want)
    assert total > 44, total
