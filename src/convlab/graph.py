"""Immutable simple-graph representation with bitmask adjacency.

Vertices are dense integers 0..n-1.  Adjacency is stored as one Python int
per vertex (bit i set iff i is a neighbour), which doubles as the vertex-set
representation used throughout the package: a vertex set is an int bitmask.
Python ints are arbitrary precision, so the same representation covers every
graph size we care about.
"""

from dataclasses import dataclass
from itertools import combinations


class GraphError(ValueError):
    """Raised for malformed graph input (bad endpoints, self-loops, ...)."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; immutable after construction."""

    n: int
    adj: tuple  # tuple[int, ...], bitmask rows
    edge_count: int

    def degree(self, v):
        return self.adj[v].bit_count()

    def neighbors(self, v):
        return bits(self.adj[v])

    def has_edge(self, u, v):
        return bool(self.adj[u] >> v & 1)

    def edges(self):
        """All edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(rest):
                out.append((u, v))
        return out

    def degrees(self):
        return [a.bit_count() for a in self.adj]

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def check_mask(self, mask, name):
        """Raise ValueError if the vertex-set bitmask has a bit outside 0..n-1."""
        if mask & ~self.full_mask:
            raise ValueError(f"{name} names vertices outside 0..{self.n - 1}")

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"


def bits(mask):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vset(vertices):
    """Bitmask for an iterable of vertex ids."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vset_members(mask):
    return list(bits(mask))


def build_graph(n, edges):
    """Build a Graph from an edge list, deduplicating parallel pairs.

    Raises GraphError for out-of-range endpoints or self-loops, reporting the
    offending pair.
    """
    if n < 0:
        raise GraphError(f"negative vertex count {n}")
    adj = [0] * n
    m = 0
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) not allowed")
        if not adj[u] >> v & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            m += 1
    return Graph(n=n, adj=tuple(adj), edge_count=m)


def complete_graph(n):
    return build_graph(n, combinations(range(n), 2))


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def empty_graph(n):
    return build_graph(n, [])


def complete_bipartite(a, b):
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def circulant_graph(n, offsets):
    edges = []
    for d in offsets:
        for i in range(n):
            edges.append((i, (i + d) % n))
    return build_graph(n, edges)


def induced_subgraph(g, mask):
    """Induced subgraph on the vertices of ``mask``.

    Returns (subgraph, old_ids) where old_ids[i] is the original id of the
    subgraph's vertex i (ascending order).
    """
    old_ids = vset_members(mask)
    index = {v: i for i, v in enumerate(old_ids)}
    edges = []
    for v in old_ids:
        for w in bits(g.adj[v] & mask):
            if w > v:
                edges.append((index[v], index[w]))
    return build_graph(len(old_ids), edges), old_ids


def disjoint_union(g, h):
    edges = g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()]
    return build_graph(g.n + h.n, edges)


def components(g, mask=None):
    """Connected components (as bitmasks) of the subgraph induced by mask."""
    if mask is None:
        mask = g.full_mask
    seen = 0
    out = []
    for v in bits(mask):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = 1 << v
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= g.adj[u] & mask & ~comp
            comp |= nxt
            frontier = nxt
        seen |= comp
        out.append(comp)
    return out


def is_connected(g, mask=None):
    if mask is None:
        mask = g.full_mask
    if mask == 0:
        return True
    return len(components(g, mask)) == 1


def are_isomorphic(g, h):
    """Backtracking isomorphism test for small graphs (degree-refined).

    Maps g's vertices by descending degree, then id, each to the lowest
    unused vertex of h with the same degree that keeps every adjacency to
    the vertices mapped before it; a dead end moves the last mapped vertex
    to its next candidate.  The images sit on an explicit stack.
    """
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    degs_g = g.degrees()
    degs_h = h.degrees()
    if sorted(degs_g) != sorted(degs_h):
        return False
    order = sorted(range(g.n), key=lambda v: (-degs_g[v], v))
    images = []  # images[j] is the image of order[j]
    used = w = 0  # the images as a mask; the next candidate
    while len(images) < g.n:
        v = order[len(images)]
        need = vset(x for u, x in zip(order, images) if g.has_edge(v, u))
        while w < h.n and (used >> w & 1 or degs_h[w] != degs_g[v]
                           or h.adj[w] & used != need):
            w += 1
        if w < h.n:
            images.append(w)
            used |= 1 << w
            w = 0
        elif not images:
            return False
        else:
            w = images.pop()
            used ^= 1 << w
            w += 1
    return True
