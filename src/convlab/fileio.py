"""Graph serialization: graph6 strings and a plain edge-list text format.

The edge-list format is an "n m" header line followed by one "u v" pair per
line; the order n may be at most ``MAX_EDGE_LIST_ORDER``.  graph6 follows the
published byte format: N(n) followed by the upper triangle of the adjacency
matrix, six bits per printable character (offset 63).
"""

from .graph import Graph, build_graph

# Largest order an edge-list header may declare.  The graph keeps one
# adjacency row per vertex, allocated before any edge is read (about 16 MB
# at this order), so a short header must not ask for unbounded memory.
# graph6 needs no cap: its body length grows with the square of the order.
MAX_EDGE_LIST_ORDER = 1_000_000


class FormatError(ValueError):
    """Raised for malformed graph6 or edge-list input."""


def _graph6_encode_n(n):
    if n < 0:
        raise FormatError(f"cannot encode negative order {n}")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr((n >> s & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise FormatError(f"order {n} too large for graph6")


def _graph6_decode_n(s):
    if not s:
        raise FormatError("empty graph6 string")
    if s[0] != "~":
        start, width = 0, 1
    elif len(s) >= 2 and s[1] != "~":
        start, width = 1, 3
    else:
        start, width = 2, 6
    digits = s[start : start + width]
    if len(digits) < width:
        raise FormatError("truncated graph6 order")
    n = 0
    for c in digits:
        if not 63 <= ord(c) <= 126:
            raise FormatError(f"invalid graph6 order byte {c!r}")
        n = n << 6 | (ord(c) - 63)
    return n, start + width


def to_graph6(g: Graph) -> str:
    bits_out = []
    for v in range(g.n):
        for u in range(v):
            bits_out.append(1 if g.has_edge(u, v) else 0)
    while len(bits_out) % 6:
        bits_out.append(0)
    chars = []
    for i in range(0, len(bits_out), 6):
        val = 0
        for b in bits_out[i : i + 6]:
            val = val << 1 | b
        chars.append(chr(val + 63))
    return _graph6_encode_n(g.n) + "".join(chars)


def from_graph6(s: str) -> Graph:
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    n, pos = _graph6_decode_n(s)
    need = n * (n - 1) // 2
    body = s[pos:]
    length = (need + 5) // 6
    if len(body) < length:
        raise FormatError(f"graph6 body too short for order {n}")
    if len(body) > length:
        raise FormatError(f"graph6 body has {len(body) - length} trailing bytes for order {n}")
    bitstream = []
    for c in body:
        val = ord(c) - 63
        if not 0 <= val <= 63:
            raise FormatError(f"invalid graph6 character {c!r}")
        for shift in (5, 4, 3, 2, 1, 0):
            bitstream.append(val >> shift & 1)
    if any(bitstream[need:]):
        raise FormatError("graph6 padding bits are not zero")
    edges = []
    i = 0
    for v in range(n):
        for u in range(v):
            if bitstream[i]:
                edges.append((u, v))
            i += 1
    return build_graph(n, edges)


def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _int_pair(line, what):
    parts = line.split()
    try:
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise FormatError(f"bad {what} {line!r}, expected two integers")


def from_edge_list(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty edge-list input")
    n, m = _int_pair(lines[0], "header line")
    if n > MAX_EDGE_LIST_ORDER:
        raise FormatError(f"order {n} exceeds the edge-list limit of {MAX_EDGE_LIST_ORDER}")
    edges = [_int_pair(ln, "edge line") for ln in lines[1:]]
    if len(edges) != m:
        raise FormatError(f"header claims {m} edges, found {len(edges)}")
    return build_graph(n, edges)


def load_graph(text: str) -> Graph:
    """Autodetect edge-list vs graph6 by the first byte.

    Edge-list text starts with a decimal digit or a "#" comment line (ASCII
    < 63); graph6 bytes are all in the printable range 63..126, after an
    optional ">>graph6<<" header that from_graph6 strips.
    """
    stripped = text.strip()
    if not stripped:
        raise FormatError("empty graph input")
    if stripped[0].isdigit() or stripped[0] == "#":
        return from_edge_list(text)
    return from_graph6(stripped)
