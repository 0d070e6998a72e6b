"""Branch-and-bound search for a maximum set X that peels to empty when a
vertex v may go once it has at most r(v) neighbours left in X.

This is the solver core.  A seed set S converts under threshold k iff its
complement peels with r(v) = deg(v) - k, so c_k(G) is n minus the largest
such X; on a (k+r)-regular graph X is a maximum induced r-degenerate set
(r = 0: independent set, r = 1: forest).  Pruning combines an edge-count
bound, a greedy vertex-disjoint cycle packing when no threshold exceeds 1,
and a ceiling on each component: the first vertex of X peeled keeps at
least deg(v) - r(v) neighbours out of X.

The edge-count bound: a peelable set of q vertices spans at most cap(q) =
sum over i <= q of min(r_(i), q - i) edges, r_(i) the i-th largest
threshold (for a uniform r, rq - r(r+1)/2).  At a node with vertex set sub
(kept and undecided), surplus = E(sub) - cap(|sub|).  An improving X, one
larger than the incumbent's `best`, leaves out a set R of at most b = |sub|
- best - 1 undecided vertices.  Each u in R takes at most deg_sub(u) edges
with it, and each removal lowers the cap by at least r_min, the least
threshold: cap(q) - cap(q - 1) >= min(q - 1, r_min), and q > |X| > best >
r_min because the greedy incumbent holds r_min + 1 vertices or the whole
component.  So the decrements e(u) = deg_sub(u) - r_min over R sum to at
least the surplus.  The node is pruned when the b largest decrements of
undecided vertices fall short of it.  Otherwise, with `spare` the amount by
which they exceed it and e_(b) the b-th largest, bound-driven keep forcing
keeps every undecided u with e(u) < e_(b) - spare: u together with the
b - 1 largest other decrements cannot cover the surplus, so no improving X
leaves u out.  The node prunes if the kept set no longer peels, and
otherwise repeats its safe moves and bounds before it branches.  The keep
branch and the incumbents peel with the package's one peel,
``structure.degeneracy_peel``, and the same per-vertex thresholds; an
incumbent dropping v from a stuck core re-checks only v's neighbours.

The incumbent of each component is a greedy peelable set, improved at the
root by a seeded local search with a fixed move budget that stops once it
meets the root upper bound.  On random cubic graphs at k = 2 that bound,
(n+2)/4 seeds, is almost always the optimum, so the search then ends at its
root node.  The search is one loop over an explicit stack of nodes, so its
depth is bounded by memory, not by the interpreter's recursion limit.
"""

import random
from heapq import heapify, heappop, heappush
from math import exp

from .graph import bits, components
from .structure import _shortest_cycle_root, degeneracy_peel

# The local search's move budget per vertex of a component, its acceptance
# temperature and its seed: fixed, so node counts and witnesses do not
# depend on the machine or the run.
MOVES_PER_VERTEX = 10
LOSS_TEMPERATURE = 0.6
LOCAL_SEARCH_SEED = 1


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
    """Feasible incumbent: drop the core vertex with the largest degree
    excess deg(v) - r[v] (ties: lowest id) until the peeling succeeds."""
    adj = g.adj
    cur = within
    core = degeneracy_peel(g, cur, r)
    # excesses only fall as vertices are dropped, so a popped key is an
    # upper bound: pushed back when stale, the top is exact
    heap = [(r[x] - (adj[x] & cur).bit_count(), x) for x in bits(core)]
    heapify(heap)
    while core:
        key, v = heappop(heap)
        if not core >> v & 1:
            continue
        now = r[v] - (adj[v] & cur).bit_count()
        if now != key:
            heappush(heap, (now, v))
            continue
        cur &= ~(1 << v)
        core = degeneracy_peel(g, core & ~(1 << v), r, adj[v] & core)
    return cur


def _local_search(g, r, within, x, target):
    """Largest peelable set seen by a seeded random walk from the peelable
    set x; stops once it holds ``target`` vertices or after
    ``MOVES_PER_VERTEX`` moves per vertex of ``within``.

    A move adds a random vertex u of ``within`` outside X, then drops random
    stuck-core vertices other than u until X peels (each core vertex keeps
    a neighbour in the core, so a nonempty core has a vertex other than u).
    A move that loses d vertices is taken with probability
    exp(-d / LOSS_TEMPERATURE).  The walk depends only on its arguments.
    """
    adj = g.adj
    rng = random.Random(LOCAL_SEARCH_SEED)
    verts = list(bits(within))
    size = x.bit_count()
    best, best_size = x, size
    for _ in range(MOVES_PER_VERTEX * len(verts)):
        u = rng.choice(verts)
        while x >> u & 1:
            u = rng.choice(verts)
        y = x | 1 << u
        core = degeneracy_peel(g, y, r)
        while core:
            w = rng.choice([w for w in bits(core) if w != u])
            y &= ~(1 << w)
            core = degeneracy_peel(g, core & ~(1 << w), r, adj[w] & core)
        loss = size - y.bit_count()
        if loss > 0 and rng.random() >= exp(-loss / LOSS_TEMPERATURE):
            continue
        x, size = y, size - loss
        if size > best_size:
            best, best_size = x, size
            if size >= target:
                break
    return best


def _edge_caps(thresholds):
    """cap[q]: the most edges a peelable set of q vertices drawn from these
    thresholds can span, sum over i <= q of min(t_(i), q - i) with t_(i)
    the i-th largest.  For a uniform r this is rq - r(r+1)/2 once q >= r.
    """
    ts = sorted(thresholds, reverse=True)
    t_max = ts[0] if ts else 0
    prefix = [0]
    for t in ts:
        prefix.append(prefix[-1] + t)
    caps = []
    for q in range(len(ts) + 1):
        lo = max(0, q - t_max)  # below lo, q - 1 - i >= t_max >= ts[i]
        cap = prefix[lo]
        for i in range(lo, q):
            cap += min(ts[i], q - 1 - i)
        caps.append(cap)
    return caps


def max_r_degenerate_set(g, r, within=None):
    """Maximum vertex set X within the given mask that peels to empty when
    a vertex v may be peeled once it has at most r[v] neighbours left in X.

    ``r`` is one int for every vertex (X induces an r-degenerate subgraph)
    or a sequence indexed by vertex; every threshold on ``within`` must be
    >= 0.  Returns (size, mask, nodes_explored).  Deterministic: branches on
    the undecided vertex with the largest deg_sub(v) - r[v] (ties by lowest
    id), removal first.  The edge bound is per vertex: removing an
    undecided u lowers the edge surplus E(sub) - cap(|sub|) by at most
    deg_sub(u) - r_min, as u takes deg_sub(u) edges and the cap falls by at
    least r_min (valid because every improving set has more than r_min
    vertices).  A node prunes when the largest such decrements cannot cover
    the surplus, and otherwise keeps, before it branches, every undecided
    vertex that no improving set can leave out (bound-driven keep forcing;
    the module docstring gives the rule).  The components of G[within] are
    solved one by one and their results added up.  Each starts from the
    greedy incumbent plus a seeded local search of at most MOVES_PER_VERTEX
    moves per vertex, run at the root only when the greedy set falls short
    of the root bound and stopped as soon as it meets that bound; node
    counts and masks do not depend on the machine.
    """
    within = g.full_mask if within is None else within
    g.check_mask(within, "within")
    if isinstance(r, int):
        if r < 0:
            raise ValueError("r must be >= 0")
        r = [r] * g.n
    elif len(r) != g.n:
        raise ValueError(f"expected {g.n} thresholds, got {len(r)}")
    elif any(r[v] < 0 for v in bits(within)):
        raise ValueError("thresholds on within must be >= 0")
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
    # one pass over the component: its thresholds, the threshold-0 vertices
    # (a kept one blocks every threshold-0 neighbour), the vertices it
    # reaches and the least degree excess deg(v) - r[v]
    comp_r = []
    zero = 0
    reach = within
    slack = None
    for v in bits(within):
        rv = r[v]
        comp_r.append(rv)
        if not rv:
            zero |= 1 << v
        reach |= adj[v]
        excess = adj[v].bit_count() - rv
        if slack is None or excess < slack:
            slack = excess
    caps = _edge_caps(comp_r)
    r_min, r_max = min(comp_r), max(comp_r)
    # cycles only bound the search when no vertex may keep two neighbours
    packing_bound = r_max == 1
    # the first vertex of X peeled has at least `slack` neighbours outside
    # X, all of them reached from the component
    ceiling = reach.bit_count() - slack
    # depth first over a stack of (kept, undecided, packing): packing is the
    # cycle-packing size of kept | undecided if known (a keep child's is its parent's)
    stack = [(0, within, None)]
    while stack:
        kept, undecided, packing = stack.pop()
        nodes += 1
        if best >= ceiling:
            continue
        root = nodes == 1
        # each pass decides vertices without branching: safe moves, then
        # the keeps the edge bound forces; a pass that forces none branches
        while True:
            # safe moves: a vertex with at most r[v] neighbours left is always
            # in some optimal solution; threshold-0 kept vertices block.  The
            # scan also records the others' degrees in sub and the branching v
            while True:
                if zero:
                    blocked = 0
                    for v in bits(kept & zero):
                        blocked |= adj[v]
                    blocked &= undecided & zero
                    if blocked:
                        undecided &= ~blocked
                        packing = None
                sub = kept | undecided
                moved = 0
                verts, degs = [], []
                v, v_excess = -1, 0
                for u in bits(undecided):
                    d = (adj[u] & sub).bit_count()
                    excess = d - r[u]
                    if excess <= 0:
                        moved |= 1 << u
                    else:
                        verts.append(u)
                        degs.append(d)
                        if excess > v_excess:
                            v, v_excess = u, excess
                kept |= moved
                undecided &= ~moved
                # sub is unchanged: only a newly kept threshold-0 vertex can block
                if not moved & zero:
                    break
            if not undecided:
                size = kept.bit_count()
                if size > best:
                    best, best_mask = size, kept
                break
            n_sub = sub.bit_count()
            if n_sub <= best:
                break
            # 2 E(sub): the scan's degrees plus the kept vertices'
            deg_sum = sum(degs)
            for u in bits(kept):
                deg_sum += (adj[u] & sub).bit_count()
            # removing an undecided u lowers the surplus by at most its
            # decrement deg_sub(u) - r_min: it takes deg_sub(u) edges and
            # lowers the cap by at least r_min; upper leaves out the fewest
            # vertices whose decrements cover the surplus
            upper = n_sub
            surplus = deg_sum // 2 - caps[n_sub]
            if surplus > 0:
                ranked = sorted(degs, reverse=True)
                need = surplus
                for m, d in enumerate(ranked, 1):
                    need -= d - r_min
                    if need <= 0:
                        break
                if need > 0:
                    break
                upper -= m
                if upper <= best:
                    break
            if packing_bound:
                if packing is None:
                    packing = len(greedy_cycle_packing(g, sub))
                upper = min(upper, n_sub - packing)
                if upper <= best:
                    break
            if root:
                # the root, once its bounds are computed: a local search
                # that meets them ends the search here
                root = False
                upper = min(upper, ceiling)
                best_mask = _local_search(g, r, within, best_mask, upper)
                best = best_mask.bit_count()
                if best >= upper:
                    break
            # an improving X leaves out at most b undecided vertices, whose
            # decrements must cover the surplus: u is kept unless it fits
            # beside the b - 1 largest others
            b = n_sub - best - 1
            if surplus > 0 and b < len(ranked):
                spare = sum(ranked[:b]) - b * r_min - surplus
                cut = ranked[b - 1] - spare
                if ranked[-1] < cut:
                    forced = 0
                    for u, d in zip(verts, degs):
                        if d < cut:
                            forced |= 1 << u
                    if degeneracy_peel(g, kept | forced, r):
                        break
                    kept |= forced
                    undecided &= ~forced
                    continue
            # branch on v, removal first: its child goes on top.  kept
            # peels to empty, so kept | v does too when v can go first
            bit = 1 << v
            rest = undecided & ~bit
            if (adj[v] & kept).bit_count() <= r[v] or not degeneracy_peel(g, kept | bit, r):
                stack.append((kept | bit, rest, packing))
            stack.append((kept, rest, None))
            break
    return best, best_mask, nodes
