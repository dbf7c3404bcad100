"""Round trips through the Graph core: graph6 reads and writes adjacency
bits (write_graph6 reads the adjacency rows pair by pair), graph JSON lists edges()
in canonical order.  Drawn plain graphs of order 2-20."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from crslab.formats import graph_from_json, graph_to_json
from crslab.graph import plain_graph
from crslab.graph6 import read_graph6, write_graph6


@st.composite
def plain_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=20))
    pairs = [(a, b) for b in range(n) for a in range(b)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    flip = draw(st.booleans())
    edges = [(b, a) if flip else (a, b) for (a, b), k in zip(pairs, keep) if k]
    return plain_graph(n, edges)


ROUND_TRIP = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@ROUND_TRIP
@given(plain_graphs())
def test_graph6_round_trip(g):
    assert read_graph6(write_graph6(g)) == g


@ROUND_TRIP
@given(plain_graphs())
def test_graph_json_round_trip(g):
    data = graph_to_json(g)
    back = graph_from_json(json.loads(json.dumps(data)))
    assert back == g
    assert graph_to_json(back) == data
