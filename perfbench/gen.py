"""The seeded request streams of the classify workload (graph6 strings) and
the membership workload (composite JSON).

Inputs are built here from first principles -- lattices, covering
constructions, cross edges, connectivity and the graph6 encoding -- without
calling crslab, so a change to crslab's own builders cannot change what the
benchmark feeds it.  The same seed always gives the same stream.

Classes follow a fixed repeating schedule rather than random draws, so every
run of a given length holds exactly the same number of requests of each
class; only the graphs inside a class depend on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product


@dataclass(frozen=True)
class Request:
    index: int
    kind: str  # "classify" or "membership"
    cls: str
    text: str
    # What the generator planted: for classify, the verdict kinds a correct
    # classifier may return (None = any); for membership, the membership.
    expect: object


# -- lattices ---------------------------------------------------------------


@lru_cache(maxsize=None)
def vectors(k: int, m: int) -> tuple[tuple[int, ...], ...]:
    """[m]^k in lexicographic order."""
    return tuple(product(range(1, m + 1), repeat=k))


@lru_cache(maxsize=None)
def complete_edges(k: int) -> tuple:
    """Every vector pair of [2]^k."""
    return tuple(combinations(vectors(k, 2), 2))


def _gaps_ok(x, y) -> bool:
    return all(abs(a - b) <= 1 for a, b in zip(x, y))


@lru_cache(maxsize=None)
def gamma_edges(k: int) -> tuple:
    """Vector pairs of [3]^k that differ by at most one in every coordinate."""
    return tuple((x, y) for x, y in combinations(vectors(k, 3), 2) if _gaps_ok(x, y))


def _edge(x, y):
    return (x, y) if x < y else (y, x)


# -- the two covering systems -------------------------------------------------


def b_constraints(k: int, base_edges) -> list[tuple[int, tuple, list]]:
    """(i, x, candidate edges) for the radius-2 family: x is 2 on the closed
    base neighbourhood of i and must meet an edge that changes coordinate i."""
    hood = {i: {i} for i in range(1, k + 1)}
    for a, b in base_edges:
        hood[a].add(b)
        hood[b].add(a)
    out = []
    for i in range(1, k + 1):
        for x in vectors(k, 2):
            if all(x[t - 1] == 2 for t in hood[i]):
                partners = [y for y in vectors(k, 2) if y[i - 1] != x[i - 1]]
                out.append((i, x, [_edge(x, y) for y in partners]))
    return out


@lru_cache(maxsize=None)
def c_constraints(k: int) -> tuple:
    """(i, x, candidate edges) for the radius-3 family: value-2 vectors of
    coordinate i need a 1-2 edge in i, and the all-{2,3} vectors with a 3 in
    i need a 2-3 edge in i; every edge stays inside the maximal lattice."""
    out = []
    for i in range(1, k + 1):
        for x in vectors(k, 3):
            if x[i - 1] == 2:
                want = 1
            elif x[i - 1] == 3 and all(c in (2, 3) for c in x):
                want = 2
            else:
                continue
            cands = [
                _edge(x, y) for y in vectors(k, 3) if y[i - 1] == want and _gaps_ok(x, y)
            ]
            out.append((i, x, cands))
    return tuple(out)


def planted_lattice(rng: random.Random, constraints, universe, size: int) -> set:
    """A member: one random candidate edge per constraint, then random extra
    edges from the universe until it has ``size`` edges (if it has fewer)."""
    chosen = {cands[rng.randrange(len(cands))] for _i, _x, cands in constraints}
    extras = [e for e in universe if e not in chosen]
    rng.shuffle(extras)
    chosen.update(extras[:max(0, size - len(chosen))])
    return chosen


def break_lattice(rng: random.Random, edges: set, constraints) -> set:
    """A non-member: drop every candidate edge of one random constraint."""
    _i, _x, cands = constraints[rng.randrange(len(constraints))]
    return edges - set(cands)


# -- composites as plain graphs ------------------------------------------------


def composite_adjacency(k: int, m: int, base_edges, lattice_edges) -> list[set[int]]:
    """Adjacency on 0..k-1 (base) and k.. (lattice, lexicographic), with the
    cross edges joining base i to every vector whose i-th component is 1."""
    vecs = vectors(k, m)
    pos = {v: k + n for n, v in enumerate(vecs)}
    adj: list[set[int]] = [set() for _ in range(k + len(vecs))]

    def link(a: int, b: int) -> None:
        adj[a].add(b)
        adj[b].add(a)

    for a, b in base_edges:
        link(a - 1, b - 1)
    for x, y in lattice_edges:
        link(pos[x], pos[y])
    for v in vecs:
        for i in range(k):
            if v[i] == 1:
                link(i, pos[v])
    return adj


def connected(adj: list[set[int]]) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == len(adj)


def graph6(adj: list[set[int]]) -> str:
    """Standard graph6 encoding of a graph on 0..n-1 (n <= 62)."""
    n = len(adj)
    bits = [1 if row in adj[col] else 0 for col in range(1, n) for row in range(col)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for s in range(0, len(bits), 6):
        group = 0
        for b in bits[s:s + 6]:
            group = group << 1 | b
        out.append(chr(group + 63))
    return "".join(out)


def permuted(rng: random.Random, adj: list[set[int]]) -> list[set[int]]:
    perm = list(range(len(adj)))
    rng.shuffle(perm)
    out: list[set[int]] = [set() for _ in adj]
    for u, nbrs in enumerate(adj):
        out[perm[u]] = {perm[w] for w in nbrs}
    return out


def random_graph(rng: random.Random, n: int, p: float) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in combinations(range(n), 2):
        if rng.random() < p:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def random_base(rng: random.Random, k: int) -> list[tuple[int, int]]:
    return [(a, b) for a, b in combinations(range(1, k + 1), 2) if rng.random() < 0.5]


# -- classify -------------------------------------------------------------------

# Lattice edges of a planted member, per (k, m).  A fixed size keeps the cost
# of a class nearly the same from one input to the next.
_SIZE = {(2, 2): 4, (3, 2): 10, (2, 3): 12, (3, 3): 66}

# The class of each slot of the repeating schedule.  Random graphs, paths and
# universal-vertex graphs take the orders 6..12 in turn, one order per cycle.
CLASSIFY_SCHEDULE = (
    "random", "random", "planted-b-k2", "path", "random", "universal",
    "planted-b-k3", "random", "random", "planted-c-k2", "universal", "random",
)
_ORDERS = (6, 7, 8, 9, 10, 11, 12)
# Any completeness-resolvable verdict is right for a planted composite.
_RESOLVABLE = ("path", "universal-vertex", "family-b", "family-c")


def _planted_b(rng: random.Random, k: int) -> list[set[int]]:
    while True:
        base = random_base(rng, k)
        lattice = planted_lattice(rng, b_constraints(k, base), complete_edges(k), _SIZE[(k, 2)])
        adj = composite_adjacency(k, 2, base, lattice)
        if connected(adj):
            return adj


def _planted_c(rng: random.Random, k: int) -> list[set[int]]:
    while True:
        lattice = planted_lattice(rng, c_constraints(k), gamma_edges(k), _SIZE[(k, 3)])
        adj = composite_adjacency(k, 3, [], lattice)
        if connected(adj):
            return adj


def classify_request(rng: random.Random, index: int) -> tuple[str, str, object]:
    """(class, graph6 text, verdict kinds a correct classifier may return)
    for the index-th classify request."""
    cls = CLASSIFY_SCHEDULE[index % len(CLASSIFY_SCHEDULE)]
    n = _ORDERS[(index // len(CLASSIFY_SCHEDULE)) % len(_ORDERS)]
    if cls == "random":
        while True:
            adj = random_graph(rng, n, rng.uniform(0.3, 0.6))
            if connected(adj):
                break
        expect = None
    elif cls == "path":
        adj = [{a - 1, a + 1} & set(range(n)) for a in range(n)]
        expect = ("path",)
    elif cls == "universal":
        adj = random_graph(rng, n - 1, rng.uniform(0.2, 0.5))
        for a in range(n - 1):
            adj[a].add(n - 1)
        adj.append(set(range(n - 1)))
        expect = ("universal-vertex",)
    elif cls == "planted-b-k2":
        adj, expect = _planted_b(rng, 2), _RESOLVABLE
    elif cls == "planted-b-k3":
        adj, expect = _planted_b(rng, 3), _RESOLVABLE
    else:
        adj, expect = _planted_c(rng, 2), _RESOLVABLE
    return cls, graph6(permuted(rng, adj)), expect


# -- membership -------------------------------------------------------------------

# (family, k, member) per slot.  The k=3 radius-3 members dominate the cost:
# their minimality check rebuilds the 66-edge lattice once per edge and tests
# membership again, about 100 ms a lattice against about 1 ms for every other
# class.  They come once per cycle of 74 requests, which keeps them near half
# of the membership time (README.md has the measured shares).
_SMALL_CYCLE = (
    ("B", 2, True), ("B", 3, True), ("C", 2, True),
    ("B", 2, False), ("B", 3, False), ("C", 2, False),
)
MEMBERSHIP_SCHEDULE = (
    _SMALL_CYCLE * 6 + (("C", 3, True),) + _SMALL_CYCLE * 6 + (("C", 3, False),)
)


def membership_request(rng: random.Random, index: int) -> tuple[str, str, object]:
    """(class, composite JSON text, planted membership) for the index-th
    membership request."""
    family, k, member = MEMBERSHIP_SCHEDULE[index % len(MEMBERSHIP_SCHEDULE)]
    m = 2 if family == "B" else 3
    while True:
        base = random_base(rng, k) if family == "B" else []
        if family == "B":
            cons, universe = b_constraints(k, base), complete_edges(k)
        else:
            cons, universe = c_constraints(k), gamma_edges(k)
        lattice = planted_lattice(rng, cons, universe, _SIZE[(k, m)])
        if not member:
            lattice = break_lattice(rng, lattice, cons)
        if connected(composite_adjacency(k, m, base, lattice)):
            break
    data = {
        "k": k,
        "m": m,
        "base_edges": [list(e) for e in base],
        "lattice_edges": [[list(x), list(y)] for x, y in sorted(lattice)],
    }
    cls = f"{family}-k{k}-{'member' if member else 'non-member'}"
    return cls, json.dumps(data), member


# -- the streams -------------------------------------------------------------

MAKERS = {"classify": classify_request, "membership": membership_request}

# Requests in one pass of a kind's schedule: for classify, one schedule per
# order.  A run serves whole cycles, so every class keeps its share.
CYCLE = {
    "classify": len(CLASSIFY_SCHEDULE) * len(_ORDERS),
    "membership": len(MEMBERSHIP_SCHEDULE),
}


def stream(seed: int, kind: str, count: int, start: int = 0):
    """Requests start..start+count-1 of a kind's stream for a seed.

    The n-th request draws from its own generator, seeded by (kind, seed,
    n), so any slice of the stream can be rebuilt without generating what
    precedes it.
    """
    make = MAKERS[kind]
    for n in range(start, start + count):
        cls, text, expect = make(random.Random(f"{kind}:{seed}:{n}"), n)
        yield Request(n, kind, cls, text, expect)


def warmup(seed: int, kind: str) -> list[Request]:
    """One request of every class, from far beyond any timed request."""
    first: dict[str, Request] = {}
    for req in stream(seed, kind, CYCLE[kind], start=CYCLE[kind] * 10**7):
        first.setdefault(req.cls, req)
    return list(first.values())
