"""Batch command-line front end.

Commands: construct, verify, enumerate, bounds, classify, dim, suite.
Everything is deterministic given its arguments and inputs; all data output
is canonically sorted JSON (or graph6/DOT where requested) with no
timestamps.  Exit codes: 0 success, 1 negative verdict where the command
asserts a positive, 2 malformed arguments or input, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    CrslabError,
    EnumerationCapExceeded,
    FormatError,
    OrderCapExceeded,
    SizeOverflow,
)
from .graph import Graph, plain_graph
from .graph6 import read_graph6, write_graph6
from .families import (
    CompositeGraph,
    base_complete,
    base_null,
    compose,
    example_graph,
    member_b,
    member_c,
)
from .resolving import (
    DEFAULT_ORDER_CAP,
    CrsCertificate,
    check_crs,
    is_completeness_resolvable,
    is_perfectness_resolvable,
    metric_dimension,
)
from .extremal import bounds_b, bounds_c, composite_size_bounds, enumerate_minimal
from . import formats
from .sweeps import SUITE_ORDER, run_suite

FAMILY_NAMES = ["U", "V", "R", "P2box", "T", "Qcanon", "Gamma", "MaxB", "MaxC"]
_COMPLETE_BASE_FAMILIES = {"U", "V"}

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_graph_file(path: str) -> Graph | CompositeGraph:
    """Graph or composite from a file: JSON when it looks like JSON,
    graph6 otherwise."""
    text = _read_input(path).strip()
    if not text:
        raise FormatError(f"{path}: empty input")
    if text.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: {exc}") from None
        if formats.is_composite_json(data):
            return formats.composite_from_json(data)
        return formats.graph_from_json(data)
    return read_graph6(text)


def _emit_graph(obj: Graph | CompositeGraph, fmt: str) -> str:
    if fmt == "json":
        if isinstance(obj, CompositeGraph):
            return formats.dumps(formats.composite_to_json(obj))
        return formats.dumps(formats.graph_to_json(obj))
    if fmt == "dot":
        if isinstance(obj, CompositeGraph):
            return formats.composite_to_dot(obj)
        return formats.graph_to_dot(obj)
    if fmt == "g6":
        g = obj.materialize() if isinstance(obj, CompositeGraph) else obj
        # graph6 cannot carry typed labels: the documented lossy step
        # relabels onto 0..n-1 in canonical vertex order
        plain = plain_graph(g.order, [(g.index_of(u), g.index_of(v)) for u, v in g.edges()])
        return write_graph6(plain) + "\n"
    raise FormatError(f"unknown format {fmt!r}")


def cmd_construct(args) -> int:
    obj = example_graph(args.family, args.k)
    if args.compose and isinstance(obj, Graph):
        if args.family in _COMPLETE_BASE_FAMILIES:
            base = base_complete(args.k)
            m = 2
        else:
            base = base_null(args.k)
            m = 2 if args.family in ("R", "P2box") else 3
        obj = compose(base, obj, args.k, m)
    sys.stdout.write(_emit_graph(obj, args.format))
    return EXIT_OK


def cmd_verify(args) -> int:
    loaded = load_graph_file(args.graph)
    if args.w is not None:
        g = loaded.materialize() if isinstance(loaded, CompositeGraph) else loaded
        w_order = formats.parse_vertex_list(args.w)
        result = check_crs(g, w_order)
        if isinstance(result, CrsCertificate):
            sys.stdout.write(formats.dumps(formats.certificate_to_json(result)))
            return EXIT_OK
        sys.stdout.write(formats.dumps(formats.failure_to_json(result)))
        return EXIT_NEGATIVE
    if args.membership == "B":
        if not isinstance(loaded, CompositeGraph):
            raise FormatError("membership B needs a composite JSON file (base + lattice)")
        report = member_b(loaded.base, loaded.lattice)
    else:
        if isinstance(loaded, CompositeGraph):
            if loaded.base.size:
                raise FormatError("the radius-3 family needs a null base")
            lattice = loaded.lattice
        else:
            lattice = loaded
        report = member_c(lattice)
    sys.stdout.write(formats.dumps(formats.membership_to_json(report)))
    return EXIT_OK if report.member else EXIT_NEGATIVE


def _load_base(path: str) -> Graph:
    loaded = load_graph_file(path)
    if isinstance(loaded, CompositeGraph):
        raise FormatError("--base expects a plain base graph on b1..bk")
    return loaded


def _load_materialized(path: str) -> Graph:
    loaded = load_graph_file(path)
    return loaded.materialize() if isinstance(loaded, CompositeGraph) else loaded


def cmd_enumerate(args) -> int:
    base = None if args.base is None else _load_base(args.base)
    for g in enumerate_minimal(args.minimal, args.k, base=base):
        sys.stdout.write(json.dumps(formats.graph_to_json(g)) + "\n")
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.kind == "B":
        if args.base is None:
            raise FormatError("bounds B needs --base FILE")
        base = _load_base(args.base)
        lo, hi = composite_size_bounds("B", base) if args.composite else bounds_b(base)
    else:
        if args.k is None:
            raise FormatError("bounds C needs --k N")
        lo, hi = (
            composite_size_bounds("C", args.k) if args.composite else bounds_c(args.k)
        )
    sys.stdout.write(formats.dumps({"lower": lo, "upper": hi}))
    return EXIT_OK


def _order_cap(args) -> int:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("CRSLAB_ORDER_CAP")
    if env is None:
        return DEFAULT_ORDER_CAP
    try:
        return _positive_int(env)
    except argparse.ArgumentTypeError:
        raise FormatError(f"CRSLAB_ORDER_CAP must be a positive integer, got {env!r}") from None


def cmd_classify(args) -> int:
    cap = _order_cap(args)
    verdict = is_completeness_resolvable(_load_materialized(args.graph), cap=cap)
    sys.stdout.write(formats.dumps(formats.verdict_to_json(verdict)))
    return EXIT_OK


def cmd_dim(args) -> int:
    cap = _order_cap(args)
    g = _load_materialized(args.graph)
    dimension, basis = metric_dimension(g, cap=cap)
    perfect = is_perfectness_resolvable(g, cap=cap)
    sys.stdout.write(
        formats.dumps(
            {
                "dimension": dimension,
                "basis": [formats.vertex_to_json(v) for v in basis],
                "perfectness_resolvable": perfect,
            }
        )
    )
    return EXIT_OK


def cmd_suite(args) -> int:
    results = run_suite(args.name)
    width = max(len(r.name) for r in results)
    all_passed = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_passed = all_passed and r.passed
        sys.stdout.write(f"{status}  {r.name:<{width}}  {r.seconds:7.1f}s  {r.detail}\n")
    sys.stdout.write(("all suites passed" if all_passed else "some suites FAILED") + "\n")
    return EXIT_OK if all_passed else EXIT_NEGATIVE


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors in one stderr line, like every other malformed input."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crslab",
        description="Construct, verify and enumerate completeness-resolvable graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a named family graph")
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--compose", action="store_true",
                   help="wrap a lattice example into its composite")
    p.add_argument("--format", default="json", choices=["json", "g6", "dot"])
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="certify a W or test family membership")
    p.add_argument("--graph", required=True, help="graph file (JSON or graph6), - for stdin")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--w", help="comma-separated ordered W, e.g. 'b1,b2' or '(1,2),(2,1)'")
    group.add_argument("--membership", choices=["B", "C"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="stream minimal lattices as JSON lines")
    p.add_argument("--minimal", required=True, choices=["B", "C"])
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--base", help="base graph file for kind B (default: edgeless)")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("bounds", help="edge-count bounds for minimal graphs")
    p.add_argument("kind", choices=["B", "C"])
    p.add_argument("--base", help="base graph file (kind B)")
    p.add_argument("--k", type=int, help="coordinate count (kind C)")
    p.add_argument("--composite", action="store_true",
                   help="bounds for the whole composite instead of the lattice")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("classify", help="classify a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--cap", type=_positive_int, help="order cap (default 12, or CRSLAB_ORDER_CAP)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("dim", help="metric dimension, witness basis, perfectness")
    p.add_argument("--graph", required=True)
    p.add_argument("--cap", type=_positive_int)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("suite", help="run a named acceptance suite")
    p.add_argument("--name", required=True, choices=SUITE_ORDER + ["all"])
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OrderCapExceeded, SizeOverflow, EnumerationCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (CrslabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
