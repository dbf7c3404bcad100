"""JSON and DOT serialization of the records the CLI reads and prints:
graphs, composites, certificates and their failures, classification
verdicts and membership reports.

JSON is the canonical labeled-graph format: plain vertices are integers,
lattice vertices are arrays of components, base vertices are strings
"b<i>".  All output is canonically sorted and carries no timestamps, so
files are diffable.  graph6 (see the graph6 module) is offered only for
plain-labeled graphs, which it can represent losslessly.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from typing import Any

from .errors import FormatError
from .graph import (
    BaseVertex,
    Graph,
    LatticeVertex,
    PlainVertex,
    Vertex,
    _rows,
)
from .families import CompositeGraph, IndexDiagnostic, MembershipReport, _base_labels, compose, span_lattice
from .resolving import ClassificationVerdict, CrsCertificate, CrsFailure

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


def _is_int(x: Any) -> bool:
    """True iff a decoded JSON value is an integer: json reads true as a
    bool, which is an int, and 2.9 or 1e999 as a float."""
    return isinstance(x, int) and not isinstance(x, bool)


def vertex_from_json(data: Any) -> Vertex:
    if _is_int(data):
        return PlainVertex(data)
    if isinstance(data, list):
        if not all(_is_int(c) for c in data):
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
    edges = [(vertex_from_json(u), vertex_from_json(v)) for u, v in map(_pair, data["edges"])]
    return Graph(verts, edges)


def _pair(e: Any) -> list:
    """An edge read from JSON: a list of two endpoints."""
    if not isinstance(e, list) or len(e) != 2:
        raise FormatError(f"edge must be a pair: {e!r}")
    return e


def _vector(x: Any) -> tuple:
    """The components of a lattice vertex read from composite JSON.  A
    non-empty string is read as its characters, which the integer check
    then refuses by the first one."""
    if isinstance(x, list) or (isinstance(x, str) and x):
        return tuple(x)
    raise FormatError(f"bad composite JSON: a lattice vertex must be a list, got {x!r}")


def composite_to_json(c: CompositeGraph) -> dict:
    # Graph.edges() walks position pairs and positions follow label order,
    # so both lists come out sorted
    base_edges = [[u.index, v.index] for u, v in c.base.edges()]  # type: ignore[union-attr]
    lattice_edges = [[list(u.vector), list(v.vector)] for u, v in c.lattice.edges()]  # type: ignore[union-attr]
    return {"k": c.k, "m": c.m, "base_edges": base_edges, "lattice_edges": lattice_edges}


def composite_from_json(data: Any) -> CompositeGraph:
    try:
        k, m = data["k"], data["m"]
        if not isinstance(data["base_edges"], list) or not isinstance(data["lattice_edges"], list):
            raise FormatError("composite JSON 'base_edges' and 'lattice_edges' must be lists")
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad composite JSON: {exc}") from None
    base_edges = list(map(_pair, data["base_edges"]))
    lattice_edges = [(_vector(x), _vector(y)) for x, y in map(_pair, data["lattice_edges"])]
    numbers = (k, m, *chain(*base_edges), *chain(*chain(*lattice_edges)))
    # json gives exactly int for every integer; the loop only names the first other value
    if not all(type(n) is int for n in numbers):
        for n in numbers:
            if not _is_int(n):
                raise FormatError(f"bad composite JSON: expected an integer, got {n!r}")
    # the lattice first: its cap check must run before a k-vertex base is built
    lattice = span_lattice(k, m, lattice_edges)
    # the base on the cached label table, as span_lattice builds the lattice;
    # BaseVertex refuses the first index below 1 before _rows refuses anything
    for i in chain(*base_edges):
        if i < 1:
            BaseVertex(i)
    verts, index = _base_labels(k)
    adj = _rows(verts, base_edges, lambda i: i - 1 if i <= k else None, BaseVertex)
    return compose(Graph._from_adj(verts, index, adj), lattice, k, m)


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
    # every diagnostic edge is a lattice edge
    out: dict[str, Any] = {
        "i": d.i,
        "covering_edges": [[list(u.vector), list(v.vector)] for u, v in d.covering_edges],  # type: ignore[union-attr]
        "uncovered": None if d.uncovered is None else vertex_to_json(d.uncovered),
    }
    if family == "C":
        out["secondary_edges"] = [[list(u.vector), list(v.vector)] for u, v in d.secondary_edges]  # type: ignore[union-attr]
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


# -- DOT export -----------------------------------------------------------------


def _dot_name(v: Vertex) -> str:
    """A plain vertex by its id, any other by its label (b<i>, (x_1,...,x_k))."""
    return f'"{v.id}"' if isinstance(v, PlainVertex) else f'"{v!r}"'


def graph_to_dot(g: Graph) -> str:
    """DOT text of a graph named G."""
    lines = ["graph G {"]
    for v in g.vertices():
        lines.append(f"  {_dot_name(v)};")
    for u, v in g.edges():
        lines.append(f"  {_dot_name(u)} -- {_dot_name(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dumps(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=False) + "\n"
