import random

import pytest

from crslab.errors import FormatError, WrongVertexSet
from crslab.graph import PlainVertex, plain_graph
from crslab.graph6 import read_graph6, write_graph6
from crslab.families import span_lattice

# Frozen reference encodings (checked against the standard tooling).
KNOWN = [
    ("A_", 2, [(0, 1)]),
    ("A?", 2, []),
    ("Ch", 4, [(0, 1), (1, 2), (2, 3)]),
    ("C~", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    ("Dhc", 5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
]


@pytest.mark.parametrize("text,n,edges", KNOWN)
def test_known_encodings(text, n, edges):
    g = plain_graph(n, edges)
    assert write_graph6(g) == text
    assert read_graph6(text) == g


def test_header_is_accepted():
    g = plain_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert read_graph6(">>graph6<<Ch") == g


def test_round_trip_random():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(2, 20)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3]
        g = plain_graph(n, edges)
        assert read_graph6(write_graph6(g)) == g


def test_rejects_labeled_graphs():
    with pytest.raises(WrongVertexSet):
        write_graph6(span_lattice(2, 2, [((1, 1), (2, 2))]))


def test_rejects_sparse_ids():
    g = plain_graph(3, [(0, 1)])
    shifted = plain_graph(3, [])  # ids 0..2 are fine ...
    assert write_graph6(shifted)
    from crslab.graph import Graph

    bad = Graph([PlainVertex(0), PlainVertex(2)], [])  # ... a gap is not
    with pytest.raises(WrongVertexSet):
        write_graph6(bad)


def test_rejects_orders_above_62():
    g = plain_graph(63, [])
    with pytest.raises(FormatError):
        write_graph6(g)
    with pytest.raises(FormatError):
        read_graph6("~??")


def test_rejects_malformed_bodies():
    with pytest.raises(FormatError):
        read_graph6("")
    with pytest.raises(FormatError):
        read_graph6("C")  # truncated body
    with pytest.raises(FormatError):
        read_graph6("Chh")  # spurious extra character


@pytest.mark.parametrize(
    "text, ch",
    [("C!", "!"), ("C\x7f", "\x7f"), ("C\xe9", "\xe9"), ("D!\x7f", "!"), ("D!~", "!")],
    # D (order 5) takes two data characters; in "D!~" the "~" also sets
    # both padding bits, and the invalid character is still the one named
    ids=["below-?", "above-~", "non-ascii", "first-of-two", "with-nonzero-padding"],
)
def test_rejects_data_bytes_outside_the_printable_range(text, ch):
    with pytest.raises(FormatError) as info:
        read_graph6(text)
    assert str(info.value) == f"invalid graph6 character {ch!r}"
