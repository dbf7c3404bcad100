"""The paper's definitions, restated over plain tuples and sets, as the
references that the tests check crslab against.

Nothing here imports crslab, so a check against these functions shares no
code with what it checks (``tests/test_reference.py`` holds the module to
that, and checks the BFS and the brute force against networkx).  A caller
converts a ``Graph`` through ``vertices()`` and ``edges()``: any hashable
vertex labels do, and a lattice edge is a pair of vectors, tuples over
[m] = {1, ..., m}.  Each definition is stated directly, with no pruning and
no check of its input.
"""

from collections import deque
from itertools import combinations, product


def distances(vertices, edges):
    """Hop counts for every ordered pair of vertices, by a plain queue BFS
    from each one; a pair in different components maps to None."""
    vertices = list(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    near = [[] for _ in vertices]
    for u, v in edges:
        near[index[u]].append(index[v])
        near[index[v]].append(index[u])
    table = {}
    for s, u in enumerate(vertices):
        hops = [None] * len(vertices)
        hops[s] = 0
        queue = deque([s])
        while queue:
            a = queue.popleft()
            for b in near[a]:
                if hops[b] is None:
                    hops[b] = hops[a] + 1
                    queue.append(b)
        table.update(zip(((u, v) for v in vertices), hops))
    return table


def find_all_crs(vertices, edges):
    """Every completeness-resolving set, by brute force: each W of 1 to
    n - 1 vertices, by size and then in combination order over
    ``vertices``, whose distance map sends V minus W one to one onto the
    box [m]^|W|, m the largest distance from W to V minus W.  Every vector
    lies in the box, so the map is onto it exactly when the count test
    m^|W| = n - |W| holds and no two outside vertices share a vector; a
    size that no m passes is skipped whole.  Each set comes as (W, m,
    table), the table sending each outside vertex, in the order of
    ``vertices``, to its vector.  A disconnected graph has none."""
    vertices = list(vertices)
    d = distances(vertices, edges)
    rows = [[d[x, u] for u in vertices] for x in vertices]  # by position
    n = len(vertices)
    found = []
    for k in range(1, n):
        if all(m ** k != n - k for m in range(1, n - k + 1)):
            continue
        for w in combinations(range(n), k):
            rest = [u for u in range(n) if u not in w]
            vectors = [tuple(rows[x][u] for x in w) for u in rest]
            if any(None in vec for vec in vectors):
                continue
            m = max(map(max, vectors))
            if m ** k == n - k and len(set(vectors)) == n - k:
                table = {vertices[u]: vec for u, vec in zip(rest, vectors)}
                found.append((tuple(vertices[x] for x in w), m, table))
    return found


def is_spanning_subgraph(vertices1, edges1, vertices2, edges2):
    """The paper's order g1 <= g2: the same vertex set, and every edge of
    g1 an edge of g2."""
    return set(vertices1) == set(vertices2) and {frozenset(e) for e in edges1} <= {frozenset(e) for e in edges2}


def in_universe(x, y):
    """The universe's rule: x and y differ by at most one in every
    coordinate.  Every pair of [2]^k keeps it; on [3]^k it gives Gamma_k."""
    return all(abs(a - b) <= 1 for a, b in zip(x, y))


def scaffold(k, i, kind):
    """The per-coordinate bipartite scaffold, as a set of vector pairs,
    each in lexicographic order.  Kind B, on [2]^k, joins every vector with
    component i = 1 to every vector with component i = 2.  Kinds C and D, on
    [3]^k, join the vectors with component i = 1 (C) or 2 (D) to those with
    one more there, within the universe."""
    m, low = {"B": (2, 1), "C": (3, 1), "D": (3, 2)}[kind]
    vectors = list(product(range(1, m + 1), repeat=k))
    return {
        tuple(sorted((x, y)))
        for x in vectors
        for y in vectors
        if x[i - 1] == low and y[i - 1] == low + 1 and in_universe(x, y)
    }


def s_set(k, i):
    """The vectors with every component 2 or 3 and component i equal to 3."""
    return {x for x in product((2, 3), repeat=k) if x[i - 1] == 3}


def constraints(k, m, base_edges):
    """The covering constraints of the lattice [m]^k over a base on [k]
    with the edges ``base_edges`` (pairs of coordinates), as pairs (i, x):
    for each i, every x equal to 2 on the closed neighbourhood N[i]; at
    m = 3 also every x of the s-set of i."""
    hoods = {i: {i} for i in range(1, k + 1)}
    for a, b in base_edges:
        hoods[a].add(b)
        hoods[b].add(a)
    vectors = list(product(range(1, m + 1), repeat=k))
    out = set()
    for i, hood in hoods.items():
        out |= {(i, x) for x in vectors if all(x[j - 1] == 2 for j in hood)}
        if m == 3:
            out |= {(i, x) for x in s_set(k, i)}
    return out


def hits(x, y):
    """The pairs (i, z) that the lattice edge x-y hits: within the universe,
    for each coordinate i that the edge changes, z is the endpoint with the
    larger component i; off the universe, none."""
    if not in_universe(x, y):
        return set()
    return {(i, max(x, y, key=lambda v: v[i - 1])) for i in range(1, len(x) + 1) if x[i - 1] != y[i - 1]}


def covers(k, m, base_edges, lattice_edges):
    """The covering rule: the lattice edges hit every constraint."""
    hit = set()
    for x, y in lattice_edges:
        hit |= hits(x, y)
    return constraints(k, m, base_edges) <= hit
