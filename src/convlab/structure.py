"""Structural predicates: regularity, girth, bridges, connectivity,
degeneracy and chromatic class (cubic graphs).

``degeneracy_peel`` is the package's one peel: it drops every vertex v with
at most r[v] neighbours left in the set until none can go, and returns the
stuck core.  With per-vertex thresholds r(v) = deg(v) - k it decides
k-conversion (``process.residual_core``) and the solver's feasibility
checks; with a uniform r = 1 it finds the 2-core, which is empty iff the
set induces a forest.
"""

from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, bits, components, is_connected

CLASS1 = "Class1"
CLASS2 = "Class2"


def regular_degree(g):
    """Common degree if g is regular, else None."""
    if g.n == 0:
        return None
    degs = g.degrees()
    d = degs[0]
    return d if all(x == d for x in degs) else None


def is_cubic(g):
    return regular_degree(g) == 3


def max_degree(g):
    return max(g.degrees(), default=0)


def _closed_walk(adj, core, root, bound):
    """Length of the shortest closed walk from root by a BFS level scan on
    bitmasks, or bound if it is not shorter.

    An edge inside level d closes a walk of length 2d+1; a vertex reached
    twice from level d closes one of length 2d+2.
    """
    seen = frontier = 1 << root
    d = 0
    while frontier and 2 * d + 1 < bound:
        once = twice = 0
        for u in bits(frontier):
            nbrs = adj[u] & core
            if nbrs & frontier:
                return 2 * d + 1
            new = nbrs & ~seen
            twice |= once & new
            once |= new
        if twice:
            return 2 * d + 2
        seen |= once
        frontier = once
        d += 1
    return bound


def _shortest_cycle_root(g, mask):
    """(length, root, core) for a shortest cycle of G[mask]: its length,
    the lowest vertex on one, and the 2-core of G[mask]; (None, -1, 0) if
    G[mask] is a forest.

    The shortest closed walk from a vertex is a cycle through it when its
    length is the girth, so the minimum over the roots of the 2-core is the
    girth and is first reached at the lowest vertex on a shortest cycle.
    """
    core = degeneracy_peel(g, mask, [1] * g.n)  # the 2-core
    best = core.bit_count() + 1  # longer than any cycle
    best_root = -1
    for root in bits(core):
        length = _closed_walk(g.adj, core, root, best)
        if length < best:
            best, best_root = length, root
            if best == 3:  # no cycle is shorter
                break
    if best_root < 0:
        return None, -1, 0
    return best, best_root, core


def girth(g, mask=None):
    """Length of a shortest cycle in the subgraph induced by mask, or None
    if it is a forest."""
    if mask is None:
        mask = g.full_mask
    return _shortest_cycle_root(g, mask)[0]


def triangle_free(g):
    return all(not (g.adj[u] & g.adj[v]) for u, v in g.edges())


def bridges(g):
    """All cut edges, found by an iterative lowpoint DFS.

    Returned as sorted (u, v) pairs with u < v, in ascending order.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    out = []
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, iter(g.neighbors(root)))]
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(g.neighbors(w))))
                    advanced = True
                    break
                if w != parent:
                    low[v] = min(low[v], disc[w])
                # w == parent occurs exactly once in a simple graph: skip it
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] > disc[p]:
                        out.append((min(p, v), max(p, v)))
    return sorted(out)


def _max_flow(n, cap, s, t):
    """Edmonds-Karp on a dict-of-dicts capacity structure (mutated copy)."""
    flow = 0
    while True:
        parent = {s: None}
        queue = [s]
        while queue and t not in parent:
            u = queue.pop(0)
            for v, c in cap.get(u, {}).items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            return flow
        # unit-ish capacities: bottleneck
        path = []
        v = t
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        aug = min(cap[u][v] for u, v in path)
        for u, v in path:
            cap[u][v] -= aug
            cap.setdefault(v, {}).setdefault(u, 0)
            cap[v][u] += aug
        flow += aug


_BIG = 10**9


def _vertex_flow(g, s, t):
    """Number of internally disjoint s-t paths (s, t non-adjacent)."""
    # split v -> (2v = in, 2v+1 = out)
    cap = {}
    for v in range(g.n):
        c = _BIG if v in (s, t) else 1
        cap.setdefault(2 * v, {})[2 * v + 1] = c
    for u, v in g.edges():
        cap.setdefault(2 * u + 1, {})[2 * v] = _BIG
        cap.setdefault(2 * v + 1, {})[2 * u] = _BIG
    return _max_flow(2 * g.n, cap, 2 * s + 1, 2 * t)


def _edge_flow(g, s, t):
    cap = {}
    for u, v in g.edges():
        cap.setdefault(u, {})[v] = 1
        cap.setdefault(v, {})[u] = 1
    return _max_flow(g.n, cap, s, t)


def vertex_connectivity(g):
    if g.n <= 1:
        return 0
    if not is_connected(g):
        return 0
    if g.edge_count == g.n * (g.n - 1) // 2:
        return g.n - 1
    # Even-Tarjan style: a min-degree root, flows to its non-neighbours,
    # plus flows between non-adjacent pairs of its neighbours.
    v0 = min(range(g.n), key=lambda v: (g.degree(v), v))
    best = g.degree(v0)
    for t in range(g.n):
        if t != v0 and not g.has_edge(v0, t):
            best = min(best, _vertex_flow(g, v0, t))
    nbrs = list(g.neighbors(v0))
    for x, y in combinations(nbrs, 2):
        if not g.has_edge(x, y):
            best = min(best, _vertex_flow(g, x, y))
    return best


def edge_connectivity(g):
    if g.n <= 1:
        return 0
    if not is_connected(g):
        return 0
    return min(_edge_flow(g, 0, t) for t in range(1, g.n))


def is_k_connected(g, k):
    if k < 1:
        raise ValueError("k must be >= 1")
    return g.n > k and vertex_connectivity(g) >= k


def cyclic_edge_connectivity_at_least(g, c):
    """True iff no edge cut of size < c splits g into two parts that each
    contain a cycle.  Exhaustive cut enumeration; cubic graphs only,
    guarded to c <= 4 and m <= 200."""
    if not is_cubic(g):
        raise ValueError("cyclic edge connectivity check requires a cubic graph")
    if c > 4:
        raise ValueError("only c <= 4 is supported")
    if g.edge_count > 200:
        raise ValueError("size guard exceeded (m > 200)")
    edges = g.edges()
    for size in range(1, c):
        for cut in combinations(edges, size):
            adj = list(g.adj)
            for u, v in cut:
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
            h = Graph(n=g.n, adj=tuple(adj), edge_count=g.edge_count - size)
            comps = components(h)
            if len(comps) < 2:
                continue
            # a component holds a cycle iff it meets the 2-core
            core = degeneracy_peel(h, h.full_mask, [1] * h.n)
            if sum(1 for comp in comps if comp & core) >= 2:
                return False
    return True


def edge_coloring(g, num_colors):
    """Proper edge colouring {(u, v): colour} with colours below
    num_colors, or None.  Deterministic.

    Backtracking over an explicit stack of [edge, colours it may still
    try]: the next edge is the uncoloured one with the fewest free colours
    (ties by position in ``g.edges()``; the scan stops at an edge with
    none), and its colours are tried lowest first.  The edges at vertex 0
    are fixed to colours 0, 1, 2, ... up front, which loses no solution
    since colour classes are interchangeable.
    """
    edges = g.edges()
    full = (1 << num_colors) - 1
    used = [0] * g.n  # colours at each vertex
    colour = [-1] * len(edges)
    for i, (u, v) in enumerate(edges[:num_colors]):
        if u:  # past the edges at vertex 0
            break
        colour[i] = i
        used[u] |= 1 << i
        used[v] |= 1 << i
    stack = []
    while True:
        fewest = num_colors + 1
        for i, (u, v) in enumerate(edges):
            if colour[i] < 0:
                free = full & ~(used[u] | used[v])
                if free.bit_count() < fewest:
                    pick, fewest = [i, free], free.bit_count()
                    if not free:
                        break
        if fewest > num_colors:  # every edge is coloured
            return dict(zip(edges, colour))
        stack.append(pick)
        while stack:  # give the top edge its next colour, backtracking
            i, free = stack[-1]
            u, v = edges[i]
            if colour[i] >= 0:  # take back the colour it had
                used[u] ^= 1 << colour[i]
                used[v] ^= 1 << colour[i]
                colour[i] = -1
            if free:
                low = free & -free
                stack[-1][1] = free ^ low
                colour[i] = low.bit_length() - 1
                used[u] ^= low
                used[v] ^= low
                break
            stack.pop()
        else:
            return None


def chromatic_class(g):
    """Class1 iff a proper 3-edge-colouring exists.  Cubic connected input.

    Fast path: a bridged cubic graph is always Class2.
    """
    if not is_cubic(g):
        raise ValueError("chromatic_class requires a cubic graph")
    if not is_connected(g):
        raise ValueError("chromatic_class requires a connected graph")
    if bridges(g):
        return CLASS2
    return CLASS1 if edge_coloring(g, 3) is not None else CLASS2


def degeneracy_peel(g, mask, r):
    """Stuck core left after peeling from G[mask], in ascending id sweeps,
    every vertex v with at most r[v] neighbours left; 0 iff the set peels
    to empty.

    ``r`` is indexed by vertex; a vertex with a negative threshold never
    goes.  The core does not depend on the peeling order.
    """
    adj = g.adj
    cur = mask
    changed = True
    while changed and cur:
        changed = False
        for v in bits(cur):
            if (adj[v] & cur).bit_count() <= r[v]:
                cur &= ~(1 << v)
                changed = True
    return cur


def is_r_degenerate(g, x_mask, r):
    """True iff G[x_mask] peels to empty at the uniform threshold r."""
    if r < 0:
        raise ValueError("r must be >= 0")
    return not degeneracy_peel(g, x_mask, [r] * g.n)


def is_maximal_r_degenerate(h, r):
    """True iff h is r-degenerate and adding any non-edge breaks that."""
    if not is_r_degenerate(h, h.full_mask, r):
        raise ValueError("input graph is not r-degenerate")
    for x in range(h.n):
        for y in range(x + 1, h.n):
            if h.has_edge(x, y):
                continue
            adj = list(h.adj)
            adj[x] |= 1 << y
            adj[y] |= 1 << x
            h2 = Graph(n=h.n, adj=tuple(adj), edge_count=h.edge_count + 1)
            if is_r_degenerate(h2, h2.full_mask, r):
                return False
    return True


@dataclass(frozen=True)
class StructureReport:
    regular_degree: object
    girth: object
    bridge_list: tuple
    vertex_connectivity: int
    edge_connectivity: int
    cyclically_4_connected: object  # cubic only, else None
    chromatic_class: object  # connected cubic only, else None
    triangle_free: bool


def structure_report(g):
    d = regular_degree(g)
    cubic = d == 3
    c4 = None
    cls = None
    if cubic and g.edge_count <= 200:
        c4 = cyclic_edge_connectivity_at_least(g, 4)
    if cubic and is_connected(g):
        cls = chromatic_class(g)
    return StructureReport(
        regular_degree=d,
        girth=girth(g),
        bridge_list=tuple(bridges(g)),
        vertex_connectivity=vertex_connectivity(g),
        edge_connectivity=edge_connectivity(g),
        cyclically_4_connected=c4,
        chromatic_class=cls,
        triangle_free=triangle_free(g),
    )
