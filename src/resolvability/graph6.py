"""graph6 encoding and decoding (short form, n <= 62).

The format packs the upper triangle of the adjacency matrix in column
order (pairs (0,1), (0,2), (1,2), (0,3), ...) into 6-bit groups, each
offset by 63 into the printable ASCII range. Unused trailing bits must
be zero. Long form (header byte '~', n >= 63) is not supported.

That pair order is the edge mask's (``canon``), which puts pair (0,1)
at bit 0 where graph6 puts it at the top; so this module validates and
packs the bits, and reverses them to and from ``canon``'s codec.
"""

from .canon import adjacency, relabeled_mask
from .graph import Graph, GraphError

MAX_N = 62
_HEADER = ">>graph6<<"


class Graph6Error(GraphError):
    """Malformed or unsupported graph6 input."""


def parse_graph6(text):
    """Decode one graph6 line into a Graph."""
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 string")
    if not all("?" <= c <= "~" for c in s):
        raise Graph6Error(f"graph6 string {s!r} has bytes outside 63..126")
    data = s.encode("ascii")
    if data[0] == 126:
        raise Graph6Error("long-form graph6 (n >= 63) is not supported")
    n = data[0] - 63
    if n < 1:
        raise Graph6Error(f"graph6 vertex count {n} is below 1")
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    body = data[1:]
    if len(body) != nbytes:
        raise Graph6Error(
            f"graph6 string declares n={n} ({nbytes} adjacency bytes) "
            f"but carries {len(body)}"
        )
    bits = 0
    for b in body:
        bits = bits << 6 | (b - 63)
    pad = nbytes * 6 - npairs
    if bits & ((1 << pad) - 1):
        raise Graph6Error("graph6 string has nonzero padding bits")
    return Graph(n, adjacency(n, _reversed(bits >> pad, npairs)))


def write_graph6(g):
    """Encode a Graph as a canonical short-form graph6 string."""
    n = g.n
    if n > MAX_N:
        raise Graph6Error(f"graph6 short form supports n <= {MAX_N}, got {n}")
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    bits = _reversed(relabeled_mask(n, g.adj, range(n)), npairs)
    bits <<= nbytes * 6 - npairs
    out = [chr(n + 63)]
    for i in range(nbytes - 1, -1, -1):
        out.append(chr((bits >> (6 * i) & 63) + 63))
    return "".join(out)


def _reversed(bits, width):
    """The ``width``-bit number ``bits`` with its bit order reversed."""
    return int(f"{bits:0{width}b}"[::-1], 2)
