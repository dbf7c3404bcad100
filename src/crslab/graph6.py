"""graph6 encoding for plain-labeled graphs (orders 2..62).

The format stores the upper triangle of the adjacency matrix in column
order -- bits for the pairs (0,1), (0,2), (1,2), (0,3), ... -- packed into
6-bit groups, each printed as one ASCII character offset by 63.  Labels do
not survive the format, so encoding requires PlainVertex ids 0..n-1.
"""

from __future__ import annotations

from .errors import FormatError, WrongVertexSet
from .graph import Graph, PlainVertex, _plain_labels

HEADER = ">>graph6<<"


def write_graph6(g: Graph) -> str:
    """Encode a graph on PlainVertex(0..n-1); bit-exact standard encoding."""
    n = g.order
    if g.vertices() != tuple(PlainVertex(i) for i in range(n)):
        raise WrongVertexSet("graph6 encoding needs PlainVertex ids exactly 0..n-1")
    if n > 62:
        raise FormatError(f"only orders up to 62 are supported, got {n}")
    adj = g.adjacency_masks()
    bits = [adj[col] >> row & 1 for col in range(1, n) for row in range(col)]
    while len(bits) % 6:
        bits.append(0)
    out = [chr(n + 63)]
    for i in range(0, len(bits), 6):
        group = 0
        for b in bits[i:i + 6]:
            group = (group << 1) | b
        out.append(chr(group + 63))
    return "".join(out)


def read_graph6(text: str) -> Graph:
    """Decode one graph6 line into a graph on PlainVertex(0..n-1)."""
    s = text.strip()
    if s.startswith(HEADER):
        s = s[len(HEADER):]
    if not s:
        raise FormatError("empty graph6 string")
    first = ord(s[0]) - 63
    if not 0 <= first <= 62:
        # 126 ('~') starts the multi-byte order form for n > 62.
        raise FormatError(f"unsupported graph6 order byte {s[0]!r}")
    n = first
    if n < 2:
        raise FormatError("graphs have at least two vertices")
    body = s[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise FormatError(f"expected {need} data characters for order {n}, got {len(body)}")
    for ch in body:
        if not 0 <= ord(ch) - 63 < 64:
            raise FormatError(f"invalid graph6 character {ch!r}")
    bits = "".join(format(ord(ch) - 63, "06b") for ch in body)
    if "1" in bits[n * (n - 1) // 2:]:
        raise FormatError("nonzero padding bits")
    # column j holds the bits of rows 0..j-1, row 0 first; reversed, they
    # are the low bits of j's adjacency row
    verts, index = _plain_labels(n)
    adj = [0] * n
    start = 0
    for col in range(1, n):
        lower = int(bits[start:start + col][::-1], 2)
        start += col
        adj[col] |= lower
        while lower:
            low = lower & -lower
            adj[low.bit_length() - 1] |= 1 << col
            lower ^= low
    return Graph._from_adj(verts, index, adj)
