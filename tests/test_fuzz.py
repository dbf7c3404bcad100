"""Hostile input for the parsers and the command line.

Inside, every malformed input raises a CrslabError and nothing else.  At the
command line, every input ends in exit code 0-3; codes 2 and 3 come with
exactly one stderr line and no stdout, and nothing escapes main() as a
traceback.  Inputs are small and the runs derandomized, so the module runs
in a few seconds and the same way every time.
"""

import contextlib
import io
import json
import math
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from crslab.cli import main  # noqa: E402
from crslab.errors import CrslabError  # noqa: E402
from crslab.formats import composite_from_json, graph_from_json, parse_vertex_list  # noqa: E402
from crslab.graph6 import read_graph6  # noqa: E402

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=120)

# Small JSON values over short alphabets (a full Unicode alphabet costs
# seconds to set up).  The floats include the infinities and NaN that
# json.loads makes of 1e999 and NaN; the integers stay small, so a
# well-formed lattice has at most 4^4 vectors.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet="bkmv0123456789-_", max_size=3),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(alphabet="bkmv", max_size=2), inner, max_size=2),
    ),
    max_leaves=10,
)
# Documents shaped like the graph and composite inputs, any key may be missing.
documents = st.one_of(
    json_values,
    st.dictionaries(
        st.sampled_from(["k", "m", "base_edges", "lattice_edges", "vertices", "edges"]),
        json_values,
        max_size=6,
    ),
)
# graph6 lines: an order byte for orders 0..8 then a body near the length
# that order needs, or any short text
graph6_text = st.one_of(
    st.builds(
        lambda header, n, body: header + chr(n + 63) + body,
        st.sampled_from(["", ">>graph6<<", " "]),
        st.integers(0, 8),
        st.text(alphabet=[chr(c) for c in range(60, 130)], max_size=6),
    ),
    st.text(alphabet=[chr(c) for c in range(32, 130)], max_size=12),
)
vertex_text = st.text(alphabet="b0123456789(),-_ ", max_size=16)

INF = math.inf


def raises_only_crslab_errors(parse, data) -> None:
    try:
        parse(data)
    except CrslabError:
        pass


@FUZZ
@given(documents)
@example({"vertices": [0, 1]})
@example({"edges": []})
@example({"vertices": [[1, 1], [1, INF]], "edges": []})
def test_graph_from_json(data):
    raises_only_crslab_errors(graph_from_json, data)


@FUZZ
@given(documents)
@example({"k": 2, "base_edges": []})
@example({"k": 2, "m": 3, "base_edges": []})
@example({"k": INF, "m": 3, "base_edges": [], "lattice_edges": []})
@example({"k": 2, "m": INF, "base_edges": [], "lattice_edges": []})
@example({"k": 2, "m": 3, "base_edges": [[1, INF]], "lattice_edges": []})
@example({"k": 2, "m": 3, "base_edges": [], "lattice_edges": [[[1, 1], [2, INF]]]})
@example({"k": 10**6, "m": 1, "base_edges": [], "lattice_edges": []})
def test_composite_from_json(data):
    raises_only_crslab_errors(composite_from_json, data)


@FUZZ
@given(graph6_text)
@example("A_")
@example(">>graph6<<")
@example("~")
def test_read_graph6(text):
    raises_only_crslab_errors(read_graph6, text)


@FUZZ
@given(vertex_text)
@example("()")
@example("(1,(2))")
@example("b0,-1")
def test_parse_vertex_list(text):
    raises_only_crslab_errors(parse_vertex_list, text)


def run_main(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


def assert_exit_contract(code, out, err) -> None:
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        assert err == ""


COMMANDS = [
    ["verify", "--graph", "-", "--membership", "B"],
    ["verify", "--graph", "-", "--membership", "C"],
    ["classify", "--graph", "-"],
]


@FUZZ
@given(st.sampled_from(COMMANDS), documents.map(json.dumps) | graph6_text)
@example(COMMANDS[1], '{"k": 2, "base_edges": []}')
@example(COMMANDS[1], '{"k": 1e999, "m": 3, "base_edges": [], "lattice_edges": []}')
@example(COMMANDS[2], '{"vertices": [0, 1]}')
@example(COMMANDS[2], "Bw")
def test_cli_exit_contract(argv, text):
    assert_exit_contract(*run_main(argv, text))


@FUZZ
@given(vertex_text)
@example("b1,b2")
@example("(1,2")
def test_cli_exit_contract_for_w(text):
    # the path on 3 vertices, then a hostile ordered W (one argument, even
    # when it starts with a dash)
    assert_exit_contract(*run_main(["verify", "--graph", "-", f"--w={text}"], "Bw"))


BASE_COMMANDS = [
    ["bounds", "B", "--base", "-"],
    ["bounds", "B", "--base", "-", "--composite"],
    ["enumerate", "--minimal", "B", "--k", "2", "--base", "-"],
]
# Documents shaped like a base graph on b1..bk for k <= 4, with stray
# labels and malformed edges mixed in
base_vertices = st.sampled_from(["b1", "b2", "b3", "b4", "b0", 1])
base_documents = st.fixed_dictionaries(
    {
        "vertices": st.integers(2, 4).map(lambda k: [f"b{i}" for i in range(1, k + 1)]),
        "edges": st.lists(
            st.tuples(base_vertices, base_vertices) | st.lists(base_vertices, max_size=3),
            max_size=3,
        ),
    }
)
COMPOSITE = '{"k": 2, "m": 3, "base_edges": [], "lattice_edges": []}'
BASE_OF_3 = '{"vertices": ["b1", "b2", "b3"], "edges": []}'


@FUZZ
@given(
    st.sampled_from(BASE_COMMANDS),
    base_documents.map(json.dumps) | documents.map(json.dumps) | graph6_text,
)
@example(BASE_COMMANDS[0], COMPOSITE)
@example(BASE_COMMANDS[2], BASE_OF_3)
@example(BASE_COMMANDS[2], '{"vertices": ["b1", "b2"], "edges": [["b1", "b2"]]}')
def test_cli_exit_contract_for_base(argv, text):
    assert_exit_contract(*run_main(argv, text))


@pytest.mark.parametrize(
    "argv,text,message",
    [
        (BASE_COMMANDS[0], COMPOSITE, "error: --base expects a plain base graph on b1..bk"),
        (BASE_COMMANDS[1], COMPOSITE, "error: --base expects a plain base graph on b1..bk"),
        (BASE_COMMANDS[2], COMPOSITE, "error: --base expects a plain base graph on b1..bk"),
        (BASE_COMMANDS[2], BASE_OF_3, "error: kind B at k=2 needs a base on [2]"),
    ],
    ids=["bounds-composite", "bounds-composite-composite", "enumerate-composite", "enumerate-order-3"],
)
def test_base_loader_refusals(argv, text, message):
    assert run_main(argv, text) == (2, "", message + "\n")
