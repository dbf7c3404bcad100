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
from itertools import combinations, product

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


# -- composite JSON against a per-item reference ------------------------------
#
# The reference reads a composite document one item at a time, in document
# order: each edge a pair, each vector a list (a non-empty string is read as
# its characters), every number an integer, then each lattice edge (an
# endpoint outside [m]^k, then a loop) and the base (an index below 1 anywhere,
# too few vertices, then each edge).  It imports nothing from crslab.  Each
# document is a valid composite on small k and m with at most one corruption.


class Refused(Exception):
    pass


def _ref_pair(e):
    if not isinstance(e, list) or len(e) != 2:
        raise Refused("FormatError", f"edge must be a pair: {e!r}")
    return e


def _ref_vector(x):
    if isinstance(x, list) or isinstance(x, str) and x:
        return tuple(x)
    raise Refused("FormatError", f"bad composite JSON: a lattice vertex must be a list, got {x!r}")


def _ref_label(vector):
    return "(" + ",".join(map(str, vector)) + ")"


def reference_composite(doc):
    """("decoded", k, m, base edges, lattice edges), each edge a frozenset of
    its ends, or ("refused", the error's class name, its message)."""
    k, m = doc["k"], doc["m"]
    try:
        base = [_ref_pair(e) for e in doc["base_edges"]]
        lattice = [tuple(map(_ref_vector, _ref_pair(e))) for e in doc["lattice_edges"]]
        for n in [k, m, *(i for e in base for i in e), *(c for e in lattice for x in e for c in x)]:
            if not isinstance(n, int) or isinstance(n, bool):
                raise Refused("FormatError", f"bad composite JSON: expected an integer, got {n!r}")
        cells = set(product(range(1, m + 1), repeat=k))
        for x, y in lattice:
            for v in (x, y):
                if v not in cells and (not v or min(v) < 1):
                    raise Refused("InvalidGraph", f"lattice components must be >= 1, got {v}")
                if v not in cells:
                    raise Refused("InvalidGraph", f"edge endpoint {_ref_label(v)} is not a declared vertex")
            if x == y:
                raise Refused("InvalidGraph", f"loop at {_ref_label(x)}")
        for i in (i for e in base for i in e):
            if i < 1:
                raise Refused("InvalidGraph", f"base vertex index must be >= 1, got {i}")
        if k < 2:
            raise Refused("InvalidGraph", "a graph needs at least two vertices")
        for a, b in base:
            for i in (a, b):
                if i > k:
                    raise Refused("InvalidGraph", f"edge endpoint b{i} is not a declared vertex")
            if a == b:
                raise Refused("InvalidGraph", f"loop at b{a}")
    except Refused as exc:
        return ("refused", *exc.args)
    return ("decoded", k, m, {frozenset(e) for e in base}, {frozenset(e) for e in lattice})


def decoded_composite(doc):
    """composite_from_json's answer, in the reference's terms."""
    try:
        comp = composite_from_json(doc)
    except CrslabError as exc:
        return ("refused", type(exc).__name__, str(exc))
    return (
        "decoded", comp.k, comp.m,
        {frozenset((u.index, v.index)) for u, v in comp.base.edges()},
        {frozenset((u.vector, v.vector)) for u, v in comp.lattice.edges()},
    )


CORRUPTIONS = (
    "none", "bool", "float", "string-vector", "empty-vector", "outside", "loop",
    "triple", "not-a-list", "base-zero", "base-above-k", "k1",
)


def corrupted_composite(rng, corruption):
    """A valid composite document on k, m in {2, 3}, its edges in random order
    and orientation, with the named corruption at a random place."""
    k, m = rng.choice((2, 3)), rng.choice((2, 3))
    cells = list(product(range(1, m + 1), repeat=k))
    pairs = list(combinations(range(1, k + 1), 2))
    base = [list(p) for p in rng.sample(pairs, rng.randint(0, len(pairs)))]
    lattice = [[list(x), list(y)] for x, y in rng.sample(list(combinations(cells, 2)), rng.randint(1, 6))]
    for e in base + lattice:
        rng.shuffle(e)
    doc = {"k": k, "m": m, "base_edges": base, "lattice_edges": lattice}
    edge = rng.choice(lattice)
    end = rng.randrange(2)
    vector = edge[end]
    c = rng.randrange(k)
    at = rng.randint(0, len(base))
    if corruption == "bool":
        ones = [i for i, x in enumerate(vector) if x == 1]
        if ones:
            vector[rng.choice(ones)] = True
        else:
            vector[c] = False
    elif corruption == "float":
        vector[c] = rng.choice((float(vector[c]), 2.5))
    elif corruption == "string-vector":
        edge[end] = "".join(map(str, vector))
    elif corruption == "empty-vector":
        edge[end] = rng.choice(([], ""))
    elif corruption == "outside":
        change = rng.randrange(4)
        if change < 2:
            vector[c] = (0, m + 1)[change]
        elif change == 2:
            vector.append(1)
        else:
            del vector[c]
    elif corruption == "loop" and rng.random() < 0.5:
        edge[1 - end] = list(vector)
    elif corruption == "loop":
        base.insert(at, [c + 1, c + 1])
    elif corruption == "triple":
        rng.choice((base, lattice, lattice)).insert(at, [list(vector), list(vector), list(vector)])
    elif corruption == "not-a-list":
        rng.choice((base, lattice)).insert(at, rng.choice((5, None, "ab", {"a": 1}, 2.5, True)))
    elif corruption in ("base-zero", "base-above-k"):
        bad = rng.choice((0, -1)) if corruption == "base-zero" else k + 1
        base.insert(at, rng.sample([bad, rng.randint(1, k)], 2))
    elif corruption == "k1":
        doc["k"] = 1
        if rng.random() < 0.5:
            doc["base_edges"] = []
            doc["lattice_edges"] = [[[1], [2]]]
    return doc


@pytest.mark.parametrize("corruption", CORRUPTIONS)
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.randoms(use_true_random=False))
def test_composite_from_json_matches_per_item_reference(corruption, rng):
    doc = corrupted_composite(rng, corruption)
    assert decoded_composite(doc) == reference_composite(doc)


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
        (BASE_COMMANDS[2], BASE_OF_3, "error: base has order 3, expected k=2"),
    ],
    ids=["bounds-composite", "bounds-composite-composite", "enumerate-composite", "enumerate-order-3"],
)
def test_base_loader_refusals(argv, text, message):
    assert run_main(argv, text) == (2, "", message + "\n")
