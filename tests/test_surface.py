"""The public surface is what the program reaches.

Every public top-level function and class of ``src/crslab``, and every
public method and property of a public class (as ``module.Class.member``),
must be reached from a root: ``cli.main`` (every command), ``sweeps.SUITES``
and ``run_suite`` (every suite), and the benchmark's calls, read from
``perfbench/work.py``: each ``REQUEST_SPANS`` entry and every attribute name
read there, as result objects leave crslab there.  Reaching follows
``Name`` and ``Attribute`` identifiers by name: through top-level
definitions, and through a method once reached code reads its name, so a
name that two classes share is reached in both.  A reached class brings
its decorators, bases, fields and dunder methods; a private class all of
its body, as its members are exempt.  A name that nothing reaches is kept
only as a reference that named tests check against, listed in ``KEPT``
with the test nodes that need it; a ``KEPT`` name that the program does
reach is a stale row.
"""

import ast
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "crslab"
WORK = ROOT / "perfbench" / "work.py"

# module.name -> the test nodes that use it as the independent side of a check
KEPT = {
    "graph.distances": (
        "tests/test_resolving.py::brute_force_crs",
        "tests/test_families.py::TestDistanceIdentity",
        "tests/test_resolving.py::TestCheckCrs::test_reasons_follow_the_definition",
    ),
    "graph.is_spanning_subgraph": (
        "tests/test_families.py::TestMaximumGraphs::test_members_are_spanning_subgraphs_of_the_maximum",
    ),
    "families.scaffold": ("tests/test_families.py::TestGamma::test_scaffold_union_equals_direct",),
    "families.s_set": ("tests/test_extremal.py::TestEpsilon::test_disjointness_exhaustive",),
    "resolving.find_all_crs": (
        "tests/test_resolving.py::TestFindAllCrs::test_matches_oracle_on_random_graphs",
        "tests/test_resolving_golden.py::test_resolving_outputs_match_golden",
    ),
    # until the single-edge neighbours of the named members replace the draws
    "sweeps.random_b_member": ("tests/test_cover_golden.py::test_cover_outputs_match_golden",),
    "sweeps.random_c_member": ("tests/test_cover_golden.py::test_cover_outputs_match_golden",),
    # until the label orbit decides the out-of-range half exactly
    "sweeps.out_of_range_counterexample": (
        "tests/test_properties.py::test_out_of_range_counterexample_is_stable",
    ),
    # the direct reads of one constraint that the lane kernels and the cover
    # pass are checked against
    "families.CoverSystem.covers": (
        "tests/test_properties.py::test_member_lanes_agree_with_the_cover_system",
        "tests/test_properties.py::test_radius_2_sweep_reads_each_base_in_one_block",
        "tests/test_properties.py::test_lane_kernel_agrees_with_check_crs_across_blocks",
    ),
    "families.CoverSystem.in_universe": (
        "tests/test_families.py::reference_pass",
        "tests/test_extremal.py::TestMinimalityC::test_the_all_hit_shortcut",
    ),
}


def _roots(work: Path) -> set[str]:
    roots = {"main", "SUITES", "run_suite"}
    tree = ast.parse(work.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["REQUEST_SPANS"]:
            roots |= {ast.literal_eval(e).split(".")[1] for e in node.value.elts}
    return roots | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def surface_faults(src: Path = SRC, work: Path = WORK, kept=KEPT) -> tuple[list[str], list[str]]:
    """The public names neither reached nor kept, and the kept names that
    are reached or not defined at all."""
    defs: dict[str, list[ast.AST]] = {}
    public = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
                if not node.name.startswith("_"):
                    public.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            parts = [node]
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                # a member is reached by its name, the rest (dunders too) with the class
                members = [n for n in node.body if isinstance(n, ast.FunctionDef) and not n.name.endswith("__")]
                for member in members:
                    defs.setdefault(member.name, []).append(member)
                    if not member.name.startswith("_"):
                        public.add(f"{path.stem}.{node.name}.{member.name}")
                parts = [*node.decorator_list, *node.bases, *(n for n in node.body if n not in members)]
            for name in names:
                defs.setdefault(name, []).extend(parts)
    reached: set[str] = set()
    todo = list(_roots(work))
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in defs.get(name, ()):
                todo += [n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]
    unreached = sorted(q for q in public - kept.keys() if q.split(".")[-1] not in reached)
    stale = sorted(q for q in kept if q not in public or q.split(".")[-1] in reached)
    return unreached, stale


def _node_exists(node: str) -> bool:
    path, *names = node.split("::")
    body = ast.parse((ROOT / path).read_text()).body
    for name in names:
        found = [n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name]
        if not found:
            return False
        body = found[0].body
    return True


def test_every_public_name_is_reached_or_kept():
    # formats included: a writer that no command prints and the benchmark
    # does not call fails here
    assert surface_faults() == ([], [])


def test_every_kept_name_names_existing_test_nodes():
    missing = [node for nodes in KEPT.values() for node in nodes if not _node_exists(node)]
    assert missing == []


def test_the_lint_reports_an_unreached_exported_helper(tmp_path):
    src = tmp_path / "crslab"
    shutil.copytree(SRC, src)
    with open(src / "graph.py", "a") as f:
        f.write("\n\ndef helper():\n    ...\n")
    with open(src / "__init__.py", "a") as f:
        f.write("from .graph import helper\n")
    assert surface_faults(src) == (["graph.helper"], [])


def test_the_lint_reports_a_stale_kept_row():
    kept = {**KEPT, "formats.graph_to_json": ("tests/test_formats.py",)}
    assert surface_faults(kept=kept) == ([], ["formats.graph_to_json"])


def test_the_lint_reports_an_unreached_public_method(tmp_path):
    src = tmp_path / "crslab"
    shutil.copytree(SRC, src)
    text = (src / "graph.py").read_text()
    anchor = "    def index_of(self, v: Vertex) -> int:\n"
    assert text.count(anchor) == 1
    members = "    def helper(self):\n        ...\n\n    @property\n    def spare(self):\n        ...\n\n"
    (src / "graph.py").write_text(text.replace(anchor, members + anchor))
    assert surface_faults(src) == (["graph.Graph.helper", "graph.Graph.spare"], [])


def test_the_lint_reports_a_stale_kept_member_row():
    kept = {**KEPT, "graph.Graph.edges": ("tests/test_graph.py",)}
    assert surface_faults(kept=kept) == ([], ["graph.Graph.edges"])


def test_a_member_read_only_by_the_benchmark_is_reached(tmp_path):
    # MinimalityReport.redundant_edges leaves crslab only in perfbench/work.py
    work = tmp_path / "work.py"
    work.write_text(WORK.read_text().replace(".redundant_edges()", "()"))
    assert surface_faults() == ([], [])
    assert surface_faults(work=work) == (["extremal.MinimalityReport.redundant_edges"], [])
