"""Reference answers computed without the code under test.

A graph is a list of adjacency bitmasks (``adj[v]`` has bit ``u`` set iff
``u`` is a neighbour of ``v``), built by the benchmark from the same text it
hands to the program.
"""

from itertools import combinations


def adjacency(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def graph6_edges(text):
    """(n, edges) of a graph6 string; orders up to 62 (one-byte header)."""
    data = [ord(c) - 63 for c in text.strip()]
    n = data[0]
    if not 0 <= n <= 62:
        raise ValueError("only one-byte graph6 orders are supported")
    stream = [x >> s & 1 for x in data[1:] for s in (5, 4, 3, 2, 1, 0)]
    edges = []
    i = 0
    for v in range(n):
        for u in range(v):
            if stream[i]:
                edges.append((u, v))
            i += 1
    return n, edges


def layers(adj, seed, k):
    """Synchronous threshold-k conversion from ``seed``: the list of layers
    (layer 0 is the seed), ending at the first step that converts nothing.
    Only neighbours of the previous layer can reach the threshold anew."""
    out = [seed]
    done = frontier = seed
    while frontier:
        candidates = 0
        for v in members(frontier):
            candidates |= adj[v]
        new = 0
        for v in members(candidates & ~done):
            if (adj[v] & done).bit_count() >= k:
                new |= 1 << v
        if new:
            out.append(new)
        done |= new
        frontier = new
    return out


def members(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def converts(adj, seed, k):
    """True iff ``seed`` converts the whole graph (asynchronous sweep, which
    reaches the same closure as the synchronous process)."""
    full = (1 << len(adj)) - 1
    done = seed
    changed = True
    while changed and done != full:
        changed = False
        for v in range(len(adj)):
            if not done >> v & 1 and (adj[v] & done).bit_count() >= k:
                done |= 1 << v
                changed = True
    return done == full


def components(adj):
    seen = 0
    count = 0
    for v in range(len(adj)):
        if seen >> v & 1:
            continue
        count += 1
        comp = frontier = 1 << v
        while frontier:
            nxt = 0
            for u in range(len(adj)):
                if frontier >> u & 1:
                    nxt |= adj[u]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
    return count


def regular_lower_bound(adj, k):
    """ceil(((k - r) n + (r + 1) r) / (2k)) for a (k+r)-regular graph with
    0 <= r < k (the degenerate-complement edge count), else None."""
    degs = {a.bit_count() for a in adj}
    if len(degs) != 1:
        return None
    r = degs.pop() - k
    if not 0 <= r < k:
        return None
    n = len(adj)
    return -(-((k - r) * n + (r + 1) * r) // (2 * k))


def smaller_set_converts(adj, size, k, transitive=False):
    """True iff some vertex set of ``size`` converts the graph.  Conversion
    is monotone, so if none of this size converts, no smaller one does.
    On a vertex-transitive graph every set maps onto one containing
    vertex 0, so only those are tried."""
    if size < 1:
        return converts(adj, 0, k)
    if transitive:
        combos = ((0,) + rest for rest in combinations(range(1, len(adj)), size - 1))
    else:
        combos = combinations(range(len(adj)), size)
    for combo in combos:
        seed = 0
        for v in combo:
            seed |= 1 << v
        if converts(adj, seed, k):
            return True
    return False
