import random

import pytest

from crslab.errors import (
    DisconnectedGraph,
    InvalidGraph,
    UnknownVertex,
    VertexSetMismatch,
)
from crslab.graph import (
    BaseVertex,
    Graph,
    LatticeVertex,
    PlainVertex,
    bfs_levels,
    complete_graph,
    degree,
    diameter,
    distances,
    is_path,
    is_spanning_subgraph,
    path_graph,
    plain_graph,
    union,
    universal_vertices,
    vertex_key,
)
from crslab.families import (
    base_complete,
    base_null,
    compose,
    example_graph,
    gamma,
    span_lattice,
)


def p(i):
    return PlainVertex(i)


class TestConstruction:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Graph([p(0)], []), "a graph needs at least two vertices"),
            (lambda: Graph([p(0), p(1)], [(p(0), p(0))]), "loop at v0"),
            (lambda: Graph([p(0), p(1)], [(p(0), p(2))]), "edge endpoint v2 is not a declared vertex"),
            (lambda: span_lattice(2, 1, []), "a graph needs at least two vertices"),
            (lambda: span_lattice(2, 2, [((2, 2), (2, 2))]), "loop at (2,2)"),
            (lambda: span_lattice(2, 2, [((1, 1), (3, 1))]), "edge endpoint (3,1) is not a declared vertex"),
            (lambda: plain_graph(1, []), "a graph needs at least two vertices"),
            (lambda: plain_graph(3, [(0, 1), (1, 1)]), "loop at v1"),
            (lambda: plain_graph(3, [(0, 1), (0, 3)]), "edge endpoint v3 is not a declared vertex"),
            (lambda: plain_graph(3, [(0, 1), (0, -1)]), "plain vertex id must be >= 0, got -1"),
            # doubly malformed: the endpoint is looked up before the loop is
            # seen, the first bad edge is refused, and the vertex count first
            (lambda: Graph([p(0), p(1)], [(p(2), p(2))]), "edge endpoint v2 is not a declared vertex"),
            (lambda: plain_graph(3, [(5, 5)]), "edge endpoint v5 is not a declared vertex"),
            (
                lambda: span_lattice(2, 2, [((3, 1), (1, 1)), ((0, 1), (1, 1))]),
                "edge endpoint (3,1) is not a declared vertex",
            ),
            (lambda: span_lattice(2, 1, [((0, 1), (1, 1))]), "a graph needs at least two vertices"),
        ],
        ids=[
            "graph-too-few", "graph-loop", "graph-undeclared",
            "span-too-few", "span-loop", "span-undeclared",
            "plain-too-few", "plain-loop", "plain-undeclared", "plain-negative-id",
            "graph-loop-on-undeclared", "plain-loop-on-undeclared",
            "span-first-bad-edge-wins", "span-count-before-edges",
        ],
    )
    def test_refusal_text(self, build, message):
        with pytest.raises(InvalidGraph) as exc:
            build()
        assert str(exc.value) == message

    def test_duplicate_edges_collapse(self):
        g = Graph([p(0), p(1)], [(p(0), p(1)), (p(1), p(0))])
        assert g.size == 1

    def test_vertex_identity_by_value(self):
        g1 = Graph([p(1), p(0)], [(p(1), p(0))])
        g2 = Graph([p(0), p(1)], [(p(0), p(1))])
        assert g1 == g2
        assert hash(g1) == hash(g2)

    def test_canonical_vertex_order(self):
        g = Graph([p(3), LatticeVertex((1, 2)), BaseVertex(1)], [])
        kinds = [type(v) for v in g.vertices()]
        assert kinds == [BaseVertex, LatticeVertex, PlainVertex]

    def test_vertex_key_orders_within_kinds(self):
        assert vertex_key(BaseVertex(1)) < vertex_key(BaseVertex(2))
        assert vertex_key(LatticeVertex((1, 2))) < vertex_key(LatticeVertex((2, 1)))
        assert vertex_key(BaseVertex(99)) < vertex_key(LatticeVertex((1,)))
        assert vertex_key(LatticeVertex((9, 9))) < vertex_key(PlainVertex(0))

    def test_vertex_key_rejects_a_non_label(self):
        with pytest.raises(TypeError, match="^not a vertex label: 'x'$"):
            vertex_key("x")


class TestDistances:
    def test_path_metric(self):
        g = path_graph([p(0), p(1), p(2), p(3)])
        d = distances(g)
        assert d[(p(0), p(3))] == 3
        assert d[(p(1), p(3))] == 2

    def test_complete_graph(self):
        g = complete_graph([p(0), p(1), p(2)])
        d = distances(g)
        assert all(d[(u, v)] == 1 for u in g.vertices() for v in g.vertices() if u != v)

    def test_disconnected_is_representable(self):
        g = Graph([p(0), p(1), p(2), p(3)], [(p(0), p(1)), (p(2), p(3))])
        d = distances(g)
        assert d[(p(0), p(2))] is None
        assert d[(p(0), p(1))] == 1

    def test_metric_axioms_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 9)
            edges = [
                (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4
            ]
            g = plain_graph(n, edges)
            d = distances(g)
            for u in g.vertices():
                assert d[(u, u)] == 0
                for v in g.vertices():
                    assert d[(u, v)] == d[(v, u)]
                    if u != v:
                        assert d[(u, v)] != 0
                        assert (d[(u, v)] == 1) == g.has_edge(u, v)
                    for w in g.vertices():
                        a, b, c = d[(u, w)], d[(u, v)], d[(v, w)]
                        if a is not None and b is not None and c is not None:
                            assert a <= b + c


class TestDiameter:
    def test_path(self):
        assert diameter(path_graph([p(i) for i in range(4)])) == 3

    def test_disconnected_raises(self):
        g = Graph([p(0), p(1), p(2), p(3)], [(p(0), p(1)), (p(2), p(3))])
        with pytest.raises(DisconnectedGraph):
            diameter(g)

    def test_named_composites(self):
        assert diameter(compose(base_complete(2), example_graph("U", 2), 2, 2).materialize()) == 3
        assert diameter(compose(base_null(2), example_graph("T", 2), 2, 3).materialize()) == 5


class TestUnion:
    def test_idempotent(self):
        g = plain_graph(3, [(0, 1), (1, 2)])
        assert union(g, g) == g

    def test_identity_element(self):
        g = plain_graph(3, [(0, 1)])
        empty = plain_graph(3, [])
        assert union(empty, g) == g

    def test_u2_and_r2_share_their_single_edge(self):
        # U's only edge pairs the all-ones and all-twos vectors, which is
        # also one of R's two matching edges, so the union has two edges.
        u2 = example_graph("U", 2)
        r2 = example_graph("R", 2)
        merged = union(u2, r2)
        assert merged.size == 2
        assert merged == r2

    def test_vertex_set_mismatch(self):
        with pytest.raises(VertexSetMismatch):
            union(plain_graph(3, []), plain_graph(4, []))

    def test_union_laws_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(2, 7)
            def rand_graph():
                return plain_graph(
                    n,
                    [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5],
                )
            g1, g2, g3 = rand_graph(), rand_graph(), rand_graph()
            assert union(g1, g2) == union(g2, g1)
            assert union(union(g1, g2), g3) == union(g1, union(g2, g3))
            assert is_spanning_subgraph(g1, union(g1, g2))


class TestSpanningOrder:
    def test_reflexive(self):
        g = plain_graph(3, [(0, 1)])
        assert is_spanning_subgraph(g, g)

    def test_t2_below_gamma2(self):
        assert is_spanning_subgraph(example_graph("T", 2), gamma(2))

    def test_different_vertex_sets(self):
        assert not is_spanning_subgraph(plain_graph(3, []), plain_graph(4, []))

    def test_poset_laws_on_random_triples(self):
        rng = random.Random(13)
        n = 5
        pool = []
        for _ in range(12):
            pool.append(
                plain_graph(
                    n,
                    [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5],
                )
            )
        for _ in range(200):
            g1, g2, g3 = (pool[rng.randrange(len(pool))] for _ in range(3))
            assert is_spanning_subgraph(g1, g1)
            if is_spanning_subgraph(g1, g2) and is_spanning_subgraph(g2, g1):
                assert g1 == g2
            if is_spanning_subgraph(g1, g2) and is_spanning_subgraph(g2, g3):
                assert is_spanning_subgraph(g1, g3)


class TestDegree:
    def test_isolated_vertex(self):
        g = plain_graph(3, [(0, 1)])
        assert degree(g, p(2)) == 0

    def test_complete_base(self):
        base = base_complete(4)
        assert all(degree(base, BaseVertex(i)) == 3 for i in range(1, 5))

    def test_hypercube_regularity(self):
        for k in (2, 3, 4):
            cube = example_graph("P2box", k)
            assert all(degree(cube, v) == k for v in cube.vertices())

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            degree(plain_graph(2, []), p(5))


class TestStructure:
    def test_is_path(self):
        assert is_path(path_graph([p(i) for i in range(2)]))
        assert is_path(path_graph([p(i) for i in range(6)]))
        assert not is_path(plain_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        # two disjoint edges have the right degree sequence but are not connected
        assert not is_path(plain_graph(4, [(0, 1), (2, 3)]))

    def test_universal_vertices(self):
        star = plain_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert universal_vertices(star) == (p(0),)
        assert universal_vertices(plain_graph(4, [(0, 1)])) == ()


# -- the Graph core against definitions written from vertex_key ------------------


def _mixed_labels(rng, n):
    """n distinct labels drawn from all three kinds, in shuffled order."""
    pool = set()
    while len(pool) < n:
        kind = rng.randrange(3)
        if kind == 0:
            pool.add(BaseVertex(rng.randint(1, 9)))
        elif kind == 1:
            pool.add(LatticeVertex(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))))
        else:
            pool.add(PlainVertex(rng.randint(0, 9)))
    labels = sorted(pool, key=vertex_key)
    rng.shuffle(labels)
    return labels


def _mixed_graphs(seed, count):
    """Seeded (labels, edge list) pairs: random orientation, repeated edges."""
    rng = random.Random(seed)
    for _ in range(count):
        labels = _mixed_labels(rng, rng.randint(2, 9))
        pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]]
        edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs if rng.random() < 0.4]
        edges += rng.sample(edges, min(2, len(edges)))
        yield labels, edges


def _oriented(u, v):
    return (u, v) if vertex_key(u) <= vertex_key(v) else (v, u)


def _in_key_order(edges):
    return sorted(edges, key=lambda e: (vertex_key(e[0]), vertex_key(e[1])))


class TestCoreOracle:
    def test_edges_and_value_semantics(self):
        for labels, edges in _mixed_graphs(11, 120):
            g = Graph(labels, edges)
            want = {_oriented(u, v) for u, v in edges}
            assert g.vertices() == tuple(sorted(labels, key=vertex_key))
            assert g.edges() == _in_key_order(want)
            assert g.edge_set() == frozenset(want)
            assert g.size == len(want)
            twin = Graph(list(reversed(labels)), [(v, u) for u, v in reversed(edges)])
            assert twin == g and hash(twin) == hash(g)
            if want:
                assert Graph(labels, _in_key_order(want)[1:]) != g

    def test_union_and_spanning_subgraph_match_the_edge_sets(self):
        rng = random.Random(14)
        for labels, edges in _mixed_graphs(14, 120):
            cut = rng.randint(0, len(edges))
            g1, g2 = Graph(labels, edges[:cut]), Graph(labels, edges[cut:])
            e1 = {_oriented(u, v) for u, v in edges[:cut]}
            e2 = {_oriented(u, v) for u, v in edges[cut:]}
            whole = union(g1, g2)
            assert whole.edge_set() == e1 | e2
            assert is_spanning_subgraph(g1, g2) == (e1 <= e2)
            assert is_spanning_subgraph(g2, g1) == (e2 <= e1)
            if e1 | e2:
                kept = whole.edges()
                del kept[rng.randrange(len(kept))]
                smaller = Graph(labels, kept)
                assert is_spanning_subgraph(smaller, whole)
                assert not is_spanning_subgraph(whole, smaller)
            if len(labels) > 2:
                other = Graph(labels[1:], [])
                assert not is_spanning_subgraph(other, whole)
                with pytest.raises(VertexSetMismatch):
                    union(whole, other)

    def test_has_edge_matches_the_edge_set(self):
        for labels, edges in _mixed_graphs(12, 120):
            g = Graph(labels, edges)
            want = {_oriented(u, v) for u, v in edges}
            for u in labels:
                assert not g.has_edge(u, u)
                for v in labels:
                    if u != v:
                        assert g.has_edge(u, v) == (_oriented(u, v) in want)

    def test_has_edge_is_false_for_foreign_labels(self):
        rng = random.Random(13)
        for labels, edges in _mixed_graphs(13, 60):
            g = Graph(labels, edges)
            other = Graph(_mixed_labels(rng, 12), [])
            foreign = [x for x in other.vertices() if not g.has_vertex(x)]
            assert foreign
            for x in foreign:
                assert not g.has_edge(x, x)
                for u in labels:
                    assert not g.has_edge(u, x)
                    assert not g.has_edge(x, u)


def test_bfs_levels_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(17)
    disconnected = 0
    for _ in range(200):
        n = rng.randint(1, 14)
        prob = rng.choice((0.1, 0.2, 0.35, 0.6))
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < prob]
        adj = [0] * n
        for a, b in edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(edges)
        disconnected += not nx.is_connected(ref)
        for s in range(n):
            lengths = nx.single_source_shortest_path_length(ref, s)
            assert bfs_levels(adj, s) == [lengths.get(t, -1) for t in range(n)]
    assert disconnected > 20
