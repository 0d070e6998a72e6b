"""Branch-and-bound search for a maximum induced r-degenerate subgraph.

This is the solver core: for a (k+r)-regular graph the minimum k-conversion
set is the complement of a maximum induced r-degenerate vertex set (r = 0:
independent set, r = 1: forest).  Pruning combines an edge-count bound (an
r-degenerate graph on q vertices has at most rq - r(r+1)/2 edges) with a
greedy vertex-disjoint cycle packing when r = 1.
"""

from .graph import bits, components
from .structure import _shortest_cycle_root, degeneracy_peel, is_r_degenerate


def shortest_cycle(g, mask):
    """Vertex mask of one shortest cycle inside G[mask], or 0 if acyclic.

    The girth scan names the lowest vertex on a shortest cycle; a BFS from
    it returns the first cycle of that length it closes.
    """
    length, root, core = _shortest_cycle_root(g, mask)
    if length is None:
        return 0
    dist = {root: 0}
    parent = {root: -1}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for w in bits(g.adj[u] & core):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    nxt.append(w)
                elif w != parent[u] and dist[w] >= dist[u] and dist[u] + dist[w] + 1 == length:
                    cyc = 0
                    for x in (u, w):
                        while x != -1:
                            cyc |= 1 << x
                            x = parent[x]
                    return cyc
        frontier = nxt
    raise RuntimeError(f"internal error: no cycle of length {length} through {root}")


def greedy_cycle_packing(g, mask=None):
    """Greedy vertex-disjoint cycle packing (shortest cycle first).

    Returns the list of cycle masks; its length is a valid lower bound on
    the number of vertices any decycling set must contain.
    """
    cur = g.full_mask if mask is None else mask
    packing = []
    while True:
        cyc = shortest_cycle(g, cur)
        if not cyc:
            return packing
        packing.append(cyc)
        cur &= ~cyc


def _greedy_feasible(g, r, within):
    """Feasible incumbent: drop highest-degree core vertices until the
    peeling succeeds."""
    cur = within
    while True:
        ok, _, core = degeneracy_peel(g, cur, r)
        if ok:
            return cur
        v = max(bits(core), key=lambda x: ((g.adj[x] & cur).bit_count(), -x))
        cur &= ~(1 << v)


def max_r_degenerate_set(g, r, within=None):
    """Maximum induced r-degenerate vertex set within the given mask.

    Returns (size, mask, nodes_explored).  Deterministic: branches on the
    highest-degree undecided vertex (ties by lowest id), removal first.
    The components of G[within] are solved one by one and their results
    added up.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    within = g.full_mask if within is None else within
    size = mask = nodes = 0
    for comp in components(g, within):
        c_size, c_mask, c_nodes = _max_connected(g, r, comp)
        size += c_size
        mask |= c_mask
        nodes += c_nodes
    return size, mask, nodes


def _max_connected(g, r, within):
    adj = g.adj
    nodes = 0
    best_mask = _greedy_feasible(g, r, within)
    best = best_mask.bit_count()
    lw_const = r * (r + 1) // 2

    def rec(kept, undecided, packing=None):
        # packing: cycle-packing size of kept | undecided when the caller
        # knows it (the keep branch has its parent's vertex set)
        nonlocal best, best_mask, nodes
        nodes += 1
        # safe moves: a vertex of remaining degree <= r is always in some
        # optimal solution; for r = 0 kept neighbours force removals
        while True:
            sub = kept | undecided
            if r == 0:
                blocked = 0
                for v in bits(kept):
                    blocked |= adj[v]
                undecided &= ~blocked
                sub = kept | undecided
            moved = 0
            for v in bits(undecided):
                if (adj[v] & sub).bit_count() <= r:
                    moved |= 1 << v
            if not moved:
                break
            kept |= moved
            undecided &= ~moved
        if not undecided:
            size = kept.bit_count()
            if size > best:
                best, best_mask = size, kept
            return
        n_sub = sub.bit_count()
        if n_sub <= best:
            return
        # one degree pass: edge count, maximum degree and branching vertex
        deg_sum = max_deg = 0
        v, v_deg = -1, -1
        for u in bits(sub):
            d = (adj[u] & sub).bit_count()
            deg_sum += d
            if d > max_deg:
                max_deg = d
            if d > v_deg and undecided >> u & 1:
                v, v_deg = u, d
        if max_deg > r:
            excess = deg_sum // 2 - r * n_sub + lw_const
            if excess > 0:
                d_min = -(-excess // (max_deg - r))
                if n_sub - d_min <= best:
                    return
        if r == 1:
            if packing is None:
                packing = len(greedy_cycle_packing(g, sub))
            if n_sub - packing <= best:
                return
        rest = undecided & ~(1 << v)
        rec(kept, rest)
        if is_r_degenerate(g, kept | (1 << v), r):
            rec(kept | (1 << v), rest, packing)

    rec(0, within)
    return best, best_mask, nodes
