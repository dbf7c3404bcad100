"""JSON and DOT serialization for graphs, composites, certificates and
reports.

JSON is the canonical labeled-graph format: plain vertices are integers,
lattice vertices are arrays of components, base vertices are strings
"b<i>".  All output is canonically sorted and carries no timestamps, so
files are diffable.  graph6 (see the graph6 module) is offered only for
plain-labeled graphs, which it can represent losslessly.
"""

from __future__ import annotations

import json
import re
from typing import Any

from .errors import FormatError
from .graph import (
    BaseVertex,
    Graph,
    LatticeVertex,
    PlainVertex,
    Vertex,
)
from .families import CompositeGraph, IndexDiagnostic, MembershipReport, compose, span_lattice
from .resolving import ClassificationVerdict, CrsCertificate, CrsFailure
from .extremal import BoundsReport, MinimalityReport

_BASE_RE = re.compile(r"^b([0-9]+)$")


# -- vertices ----------------------------------------------------------------


def vertex_to_json(v: Vertex) -> Any:
    if isinstance(v, BaseVertex):
        return f"b{v.index}"
    if isinstance(v, LatticeVertex):
        return list(v.vector)
    if isinstance(v, PlainVertex):
        return v.id
    raise FormatError(f"not a vertex: {v!r}")


def vertex_from_json(data: Any) -> Vertex:
    if isinstance(data, bool):
        raise FormatError(f"not a vertex encoding: {data!r}")
    if isinstance(data, int):
        return PlainVertex(data)
    if isinstance(data, list):
        if not all(isinstance(c, int) for c in data):
            raise FormatError(f"lattice components must be integers: {data!r}")
        return LatticeVertex(tuple(data))
    if isinstance(data, str):
        m = _BASE_RE.match(data)
        if m:
            return BaseVertex(int(m.group(1)))
    raise FormatError(f"not a vertex encoding: {data!r}")


def parse_vertex_text(text: str) -> Vertex:
    """Vertex from CLI text: 'b2', '(1,3)' or a plain integer id."""
    text = text.strip()
    m = _BASE_RE.match(text)
    if m:
        return BaseVertex(int(m.group(1)))
    if text.startswith("(") and text.endswith(")"):
        try:
            comps = tuple(int(part) for part in text[1:-1].split(","))
        except ValueError:
            raise FormatError(f"bad lattice vertex {text!r}") from None
        return LatticeVertex(comps)
    try:
        return PlainVertex(int(text))
    except ValueError:
        raise FormatError(f"cannot parse vertex {text!r}") from None


def parse_vertex_list(text: str) -> list[Vertex]:
    """Comma-separated vertices; parentheses group lattice components."""
    parts = []
    depth = 0
    current = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += ch
    if current.strip():
        parts.append(current)
    if depth != 0:
        raise FormatError(f"unbalanced parentheses in {text!r}")
    return [parse_vertex_text(p) for p in parts if p.strip()]


# -- graphs -------------------------------------------------------------------


def graph_to_json(g: Graph) -> dict:
    return {
        "vertices": [vertex_to_json(v) for v in g.vertices()],
        "edges": [[vertex_to_json(u), vertex_to_json(v)] for u, v in g.edges()],
    }


def graph_from_json(data: Any) -> Graph:
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise FormatError("graph JSON needs 'vertices' and 'edges'")
    if not isinstance(data["vertices"], list) or not isinstance(data["edges"], list):
        raise FormatError("graph JSON 'vertices' and 'edges' must be lists")
    verts = [vertex_from_json(v) for v in data["vertices"]]
    edges = []
    for e in data["edges"]:
        if not isinstance(e, list) or len(e) != 2:
            raise FormatError(f"edge must be a pair: {e!r}")
        edges.append((vertex_from_json(e[0]), vertex_from_json(e[1])))
    return Graph(verts, edges)


def composite_to_json(c: CompositeGraph) -> dict:
    base_edges = sorted(
        [u.index, v.index] for u, v in c.base.edges()  # type: ignore[union-attr]
    )
    lattice_edges = sorted(
        [list(u.vector), list(v.vector)] for u, v in c.lattice.edges()  # type: ignore[union-attr]
    )
    return {"k": c.k, "m": c.m, "base_edges": base_edges, "lattice_edges": lattice_edges}


def composite_from_json(data: Any) -> CompositeGraph:
    try:
        k = int(data["k"])
        m = int(data["m"])
        base_edges = [
            (BaseVertex(int(i)), BaseVertex(int(j))) for i, j in data["base_edges"]
        ]
        lattice_edges = [
            (tuple(int(c) for c in x), tuple(int(c) for c in y))
            for x, y in data["lattice_edges"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad composite JSON: {exc}") from None
    base = Graph([BaseVertex(i) for i in range(1, k + 1)], base_edges)
    lattice = span_lattice(k, m, lattice_edges)
    return compose(base, lattice, k, m)


def is_composite_json(data: Any) -> bool:
    return isinstance(data, dict) and "base_edges" in data and "k" in data


# -- certificates and verdicts --------------------------------------------------


def certificate_to_json(cert: CrsCertificate) -> dict:
    return {
        "w": [vertex_to_json(v) for v in cert.w_order],
        "m": cert.m_of_w,
        "table": [[vertex_to_json(u), list(vec)] for u, vec in cert.rows()],
    }


def failure_to_json(fail: CrsFailure) -> dict:
    return {"certified": False, "reason": fail.reason, "detail": fail.detail}


def verdict_to_json(v: ClassificationVerdict) -> dict:
    return {
        "verdict": v.kind,
        "k": v.k,
        "witness": None if v.witness is None else certificate_to_json(v.witness),
    }


# -- reports --------------------------------------------------------------------


def _edge_json(e) -> list:
    return [vertex_to_json(e[0]), vertex_to_json(e[1])]


def _diag_json(d: IndexDiagnostic, family: str) -> dict:
    out: dict[str, Any] = {
        "i": d.i,
        "covering_edges": [_edge_json(e) for e in d.covering_edges],
        "uncovered": None if d.uncovered is None else vertex_to_json(d.uncovered),
    }
    if family == "C":
        out["secondary_edges"] = [_edge_json(e) for e in d.secondary_edges]
        out["uncovered_secondary"] = (
            None if d.uncovered_secondary is None else vertex_to_json(d.uncovered_secondary)
        )
    return out


def membership_to_json(rep: MembershipReport) -> dict:
    return {
        "member": rep.member,
        "family": rep.family,
        "k": rep.k,
        "bad_edge": None if rep.bad_edge is None else _edge_json(rep.bad_edge),
        "per_index": [_diag_json(d, rep.family) for d in rep.diagnostics],
    }


def minimality_to_json(rep: MinimalityReport) -> dict:
    return {
        "minimal": rep.minimal,
        "member": rep.member,
        "family": rep.family,
        "edges": [
            {
                "edge": _edge_json(ec.edge),
                "critical": ec.critical,
                "witness_vertex": (
                    None if ec.witness_vertex is None else vertex_to_json(ec.witness_vertex)
                ),
                "witness_indices": list(ec.witness_indices),
                "condition": ec.condition,
            }
            for ec in rep.edges
        ],
    }


def bounds_report_to_json(rep: BoundsReport) -> dict:
    violation = None
    if rep.upper_violation is not None:
        violation = [_violation_part(part) for part in rep.upper_violation]
    return {
        "family": rep.family,
        "lower": rep.lower,
        "upper": rep.upper,
        "actual": rep.actual,
        "lower_tight": rep.lower_tight,
        "upper_tight": rep.upper_tight,
        "lower_witness_index": rep.lower_witness_index,
        "upper_violation": violation,
    }


def _violation_part(part) -> Any:
    # Parts are the condition letter, a vector, an edge, or an index.
    if isinstance(part, (str, int)):
        return part
    if isinstance(part, tuple) and part and isinstance(part[0], LatticeVertex):
        return _edge_json(part)
    if isinstance(part, tuple):
        return list(part)
    raise FormatError(f"unexpected violation part {part!r}")


# -- DOT export -----------------------------------------------------------------


def _dot_name(v: Vertex) -> str:
    if isinstance(v, BaseVertex):
        return f'"b{v.index}"'
    if isinstance(v, LatticeVertex):
        return '"(' + ",".join(str(c) for c in v.vector) + ')"'
    return f'"{v.id}"'


def graph_to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    for v in g.vertices():
        lines.append(f"  {_dot_name(v)};")
    for u, v in g.edges():
        lines.append(f"  {_dot_name(u)} -- {_dot_name(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def composite_to_dot(c: CompositeGraph, name: str = "G") -> str:
    return graph_to_dot(c.materialize(), name=name)


def dumps(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=False) + "\n"
