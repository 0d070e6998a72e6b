"""Structural predicates: regularity, girth, bridges, connectivity,
degeneracy and chromatic class (cubic graphs).

``degeneracy_peel`` is the package's one peel: a worklist drops every
vertex v with at most r[v] neighbours left in the set until none can go,
and returns the stuck core.  With per-vertex thresholds r(v) = deg(v) - k
it decides k-conversion (``process.residual_core``) and the solver's
feasibility checks; with a uniform r = 1 it finds the 2-core, which is
empty iff the set induces a forest.

``_shortest_cycle``, bitmask BFS level scans over the 2-core and one BFS
that extracts a cycle, is the one shortest-cycle routine: ``girth`` reads
its length and ``search.shortest_cycle`` its vertex mask.

``_unit_flow``, unit-capacity augmenting paths on bitmask rows, is the one
max flow behind both vertex and edge connectivity.  ``_tree_covers``, a DFS
forest whose tree edges carry exact bitmask covers, is the one small-edge-cut
finder: bridges, bridge pieces and the cut pairs of the cyclic check.
"""

from dataclasses import dataclass
from itertools import combinations, count, groupby
from operator import itemgetter

from .graph import bits, is_connected

CLASS1 = "Class1"
CLASS2 = "Class2"


def regular_degree(g):
    """Common degree if g is regular, else None."""
    if g.n == 0:
        return None
    degs = g._degrees
    d = degs[0]
    return d if degs.count(d) == g.n else None


def is_cubic(g):
    return regular_degree(g) == 3


def max_degree(g):
    return max(g._degrees, default=0)


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


def _shortest_cycle(g, mask):
    """(length, cycle) for G[mask]: the length of a shortest cycle and the
    vertex mask of one, or (None, 0) if G[mask] is a forest.

    The shortest closed walk from a vertex is a cycle through it when its
    length is the girth, so the minimum over the roots of the 2-core is the
    girth and is first reached at the lowest vertex on a shortest cycle.  A
    BFS from that root returns the first cycle of that length it closes.
    """
    core = degeneracy_peel(g, mask, [1] * g.n)  # the 2-core
    length = core.bit_count() + 1  # longer than any cycle
    root = -1
    for v in bits(core):
        walk = _closed_walk(g.adj, core, v, length)
        if walk < length:
            length, root = walk, v
            if length == 3:  # no cycle is shorter
                break
    if root < 0:
        return None, 0
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
                    return length, cyc
        frontier = nxt
    raise RuntimeError(f"internal error: no cycle of length {length} through {root}")


def girth(g, mask=None):
    """Length of a shortest cycle in the subgraph induced by mask, or None
    if it is a forest."""
    return _shortest_cycle(g, g.vertex_set(mask))[0]


def triangle_free(g):
    return all(not (g.adj[u] & g.adj[v]) for u, v in g.edges())


def _tree_covers(adj, mask):
    """DFS forest of the graph on mask with rows adj, as (parent, order,
    cover, others).

    ``order`` lists mask's vertices in preorder, each tree rooted at its
    lowest vertex, and ``parent[v]`` is -1 at a root.  ``others`` lists the
    non-tree edges (u, v), u < v.  The tree edge into v is covered by the
    non-tree edges that join v's subtree to the rest; each of those joins
    a vertex to one of its ancestors, so ``cover[v]``, that set as a
    bitmask over ``others``, is the XOR over v's subtree of one bit per
    non-tree edge at each of its two ends (0 at a root).  A tree edge is a
    bridge iff its cover is empty.  The covers take n (m - n + 1) bits on
    a connected graph.
    """
    parent = [-1] * len(adj)
    order = []
    unseen = mask
    while unseen:
        root = (unseen & -unseen).bit_length() - 1
        unseen ^= 1 << root
        order.append(root)
        stack = [root]
        while stack:
            new = adj[stack[-1]] & unseen
            if new:
                w = new.bit_length() - 1
                parent[w] = stack[-1]
                unseen ^= 1 << w
                order.append(w)
                stack.append(w)
            else:
                stack.pop()
    cover = [0] * len(adj)
    others = []
    for u in bits(mask):
        for v in bits(adj[u] & mask >> u + 1 << u + 1):
            if parent[v] != u and parent[u] != v:
                cover[u] ^= 1 << len(others)
                cover[v] ^= 1 << len(others)
                others.append((u, v))
    for v in reversed(order):  # children before their parents
        if parent[v] >= 0:
            cover[parent[v]] ^= cover[v]
    return parent, order, cover, others


def bridges(g, mask=None):
    """All cut edges of G[mask] (default: the whole graph): the tree edges
    of ``_tree_covers`` with an empty cover.

    Returned as sorted (u, v) pairs with u < v, in ascending order.
    """
    mask = g.vertex_set(mask)
    parent, order, cover, _ = _tree_covers(g.adj, mask)
    return sorted((min(v, parent[v]), max(v, parent[v]))
                  for v in order if parent[v] >= 0 and not cover[v])


def bridge_pieces(g, mask=None):
    """Vertex masks of the pieces of G[mask] left after deleting its
    bridges (its 2-edge-connected components, single vertices included),
    in order of their lowest vertex.

    In the preorder of ``_tree_covers`` each vertex joins its parent's
    piece unless it is a root or the tree edge to its parent is a bridge.
    """
    mask = g.vertex_set(mask)
    parent, order, cover, _ = _tree_covers(g.adj, mask)
    piece = [0] * g.n  # index into out
    out = []
    for v in order:
        if parent[v] < 0 or not cover[v]:
            piece[v] = len(out)
            out.append(0)
        else:
            piece[v] = piece[parent[v]]
        out[piece[v]] |= 1 << v
    return sorted(out, key=lambda p: p & -p)


def _unit_flow(cap, s, t):
    """Maximum s-t flow with a unit arc u -> w for each w in the bitmask
    cap[u], by BFS augmenting paths.  flow[u]: heads of u's arcs with flow,
    back[u]: tails of those into u; pushing against flow cancels it."""
    flow, back = [0] * len(cap), [0] * len(cap)
    for value in count():  # augmenting paths found so far
        parent = {}
        unseen = (1 << len(cap)) - 1 & ~(1 << s)
        queue = [s]
        for u in queue:  # grows while it is scanned
            new = (cap[u] & ~flow[u] | back[u]) & unseen
            if new:
                unseen ^= new
                for w in bits(new):
                    parent[w] = u
                    queue.append(w)
                if new >> t & 1:
                    break
        else:
            return value
        w = t
        while w != s:
            u = parent[w]
            if back[u] >> w & 1:
                flow[w] ^= 1 << u
                back[u] ^= 1 << w
            else:
                flow[u] |= 1 << w
                back[w] |= 1 << u
            w = u


def vertex_connectivity(g):
    """Fewest vertices whose removal disconnects g (n - 1 for K_n): the least
    ``_unit_flow`` from 2x+1 to 2y over the Even-Tarjan pairs x, y, where
    v is the arc 2v -> 2v+1 and edge uw the arcs 2u+1 -> 2w and 2w+1 -> 2u."""
    if g.n <= 1 or not is_connected(g):
        return 0
    cap = [row for v in range(g.n)
           for row in (1 << 2 * v + 1, sum(1 << 2 * w for w in g.neighbors(v)))]
    v0 = min(range(g.n), key=lambda v: (g.degree(v), v))
    pairs = [(v0, t) for t in range(g.n) if t != v0 and not g.has_edge(v0, t)]
    pairs += [(x, y) for x, y in combinations(g.neighbors(v0), 2) if not g.has_edge(x, y)]
    return min([g.degree(v0)] + [_unit_flow(cap, 2 * x + 1, 2 * y) for x, y in pairs])


def edge_connectivity(g):
    """Fewest edges whose removal disconnects g: the least ``_unit_flow``
    from vertex 0 when each edge is two opposite unit arcs (``g.adj``)."""
    if g.n <= 1 or not is_connected(g):
        return 0
    return min(_unit_flow(g.adj, 0, t) for t in range(1, g.n))


def is_k_connected(g, k):
    if k < 1:
        raise ValueError("k must be >= 1")
    return g.n > k and vertex_connectivity(g) >= k


def _cut_pairs(g, f):
    """The edge pairs whose deletion disconnects G - f, as ((u, v), (x, y))
    with u < v and x < y, or None when G - f is not 2-edge-connected.

    Take the ``_tree_covers`` DFS tree of G - f.  G - f is 2-edge-connected
    iff the tree spans it and no tree edge has an empty cover (a bridge).
    Then two tree edges form a cut iff the same non-tree edges cover them,
    and a tree edge with a non-tree edge iff that edge alone covers it; two
    non-tree edges never do, as the tree holds.  Covers are exact bitmasks
    over the non-tree edges, compared after sorting.
    """
    u0, w0 = f
    adj = list(g.adj)
    adj[u0] ^= 1 << w0
    adj[w0] ^= 1 << u0
    parent, order, cover, others = _tree_covers(adj, g.full_mask)
    if parent.count(-1) > 1:  # more than one tree: G - f is disconnected
        return None
    tree = sorted((cover[v], min(v, parent[v]), max(v, parent[v])) for v in order[1:])
    if tree[0][0] == 0:
        return None
    out = [((u, v), others[c.bit_length() - 1]) for c, u, v in tree if c.bit_count() == 1]
    for _, same in groupby(tree, key=itemgetter(0)):
        out += combinations([(u, v) for _, u, v in same], 2)
    return out


def cyclic_edge_connectivity_at_least(g, c):
    """True iff no edge cut of size < c splits g into two parts that each
    contain a cycle.  Cubic graphs only, guarded to c <= 4 and m <= 200.

    In a cubic graph a side S of a cut that holds no cycle is a forest of
    t trees, so |S| - t of its edges lie inside it and the cut has
    3|S| - 2(|S| - t) = |S| + 2t >= 3 edges, exactly 3 only when S is one
    vertex.  So every cut of at most 2 edges leaves a cycle on both sides
    (a disconnected g has the empty cut): for c <= 3 the answer is edge
    connectivity >= c.  That is connectivity for c = 1, no bridge as well
    for c = 2, and for c >= 3 a 2-edge-connected G - f for every edge f
    (``_cut_pairs`` returns None otherwise), so no flow is run.  For c = 4,
    g also needs no 3-edge cut with a cycle on both sides.  Every 3-edge
    cut is an edge f with a cut pair of G - f, taken from its first edge.
    With edge connectivity 3 it leaves exactly two sides, and by the count
    above one of them has no cycle iff it is a single vertex, that is, iff
    the three edges meet at one vertex.  This is O(m (n + m)) bitmask work
    rather than C(m, 3) cuts.
    """
    if not is_cubic(g):
        raise ValueError("cyclic edge connectivity check requires a cubic graph")
    if c > 4:
        raise ValueError("only c <= 4 is supported")
    if g.edge_count > 200:
        raise ValueError("size guard exceeded (m > 200)")
    if c <= 2:
        return c <= 0 or is_connected(g) and (c == 1 or not bridges(g))
    for f in g.edges():
        pairs = _cut_pairs(g, f)
        if pairs is None:  # g has a cut of at most 2 edges
            return False
        if c == 4 and any(f < a and f < b and not set(f) & set(a) & set(b) for a, b in pairs):
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


def degeneracy_peel(g, mask, r, check=None):
    """Stuck core left after peeling from G[mask] every vertex v with at
    most r[v] neighbours left; 0 iff the set peels to empty.

    ``r`` is indexed by vertex; a vertex with a negative threshold never
    goes.  ``check`` names the vertices that may peel now (default: all of
    ``mask``); every other vertex of ``mask`` must have more than r[v]
    neighbours in ``mask``.  Only neighbours of a peeled vertex are
    re-checked, an O(n + m) worklist; the core does not depend on the
    order, so it is the same for every valid ``check``.

    ``mask`` must already be a vertex set of g, and it is not checked:
    this is the search's inner loop (thousands of calls per solve), and
    every caller passes a set ``Graph.vertex_set`` checked, or a subset.
    """
    adj = g.adj
    core = mask
    check = mask if check is None else check
    while check:
        v = check.bit_length() - 1
        bit = 1 << v
        check ^= bit
        if (adj[v] & core).bit_count() <= r[v]:
            core ^= bit
            check |= adj[v] & core
    return core


def is_r_degenerate(g, x_mask, r):
    """True iff G[x_mask] peels to empty at the uniform threshold r."""
    if r < 0:
        raise ValueError("r must be >= 0")
    return not degeneracy_peel(g, g.vertex_set(x_mask, "x_mask"), [r] * g.n)


def is_maximal_r_degenerate(h, r):
    """True iff h is r-degenerate and adding any non-edge breaks that.

    By Lick and White, an r-degenerate graph on n vertices has at most
    sum over j < n of min(r, j) edges (rn - r(r+1)/2 once n > r), and it is
    maximal exactly when it has that many.
    """
    if not is_r_degenerate(h, h.full_mask, r):
        raise ValueError("input graph is not r-degenerate")
    return h.edge_count == sum(min(r, j) for j in range(h.n))


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
