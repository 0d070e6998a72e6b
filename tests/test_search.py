"""The branch-and-bound search: shortest cycles, node-count pins, the
incumbent, and additivity over components and, at thresholds of 1, over
bridges."""

import inspect
import random
import sys
import time
from itertools import combinations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from convlab.constructions import (catalog, cycle_replacement, path_replacement, product_deleted,
                                   random_regular_graph, tree_gadget_graph)
from convlab.graph import bits, build_graph, circulant_graph, cycle_graph, disjoint_union, path_graph
from convlab import search
from convlab.process import run_process
from convlab.search import _greedy_feasible, max_r_degenerate_set, shortest_cycle
from convlab.solver import ck_exact
from convlab.structure import bridge_pieces, degeneracy_peel, girth, is_r_degenerate


def reference_shortest_cycle(g, mask):
    """Vertex mask of one shortest cycle inside G[mask], or 0 if acyclic."""
    best_len = None
    best_cycle = 0
    for root in bits(mask):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                if best_len is not None and dist[u] * 2 >= best_len:
                    continue
                for w in bits(g.adj[u] & mask):
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u] and dist[w] >= dist[u]:
                        length = dist[u] + dist[w] + 1
                        if best_len is None or length < best_len:
                            cyc = 0
                            for end in (u, w):
                                x = end
                                while x != -1:
                                    cyc |= 1 << x
                                    x = parent[x]
                            best_len = length
                            best_cycle = cyc
            frontier = nxt
    return best_cycle


def reference_girth(g, mask=None):
    """Length of a shortest cycle in the subgraph induced by mask, or None
    if it is a forest.  BFS from every vertex."""
    if mask is None:
        mask = g.full_mask
    best = None
    for root in bits(mask):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                if best is not None and dist[u] * 2 >= best:
                    continue
                for w in bits(g.adj[u] & mask):
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u] and dist[w] >= dist[u]:
                        cyc = dist[u] + dist[w] + 1
                        if best is None or cyc < best:
                            best = cyc
            frontier = nxt
    return best


@st.composite
def graph_and_mask(draw):
    n = draw(st.integers(min_value=0, max_value=16))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=len(possible))) if possible else []
    mask = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return build_graph(n, edges), mask


@settings(max_examples=400, deadline=None)
@given(graph_and_mask())
def test_shortest_cycle_matches_all_roots_bfs(data):
    g, mask = data
    assert shortest_cycle(g, mask) == reference_shortest_cycle(g, mask)
    assert girth(g, mask) == reference_girth(g, mask)
    assert girth(g) == reference_girth(g)
    assert girth(g, mask) == (shortest_cycle(g, mask).bit_count() or None)


def test_shortest_cycle_matches_on_sparse_graphs():
    # long cycles, trees hanging off them and several components: the
    # cases where the 2-core and the level cut-off matter
    rng = random.Random(211)
    for _ in range(300):
        n = rng.randrange(4, 40)
        g = random_regular_graph(n - n % 2, 3, seed=rng.randrange(10**6))
        edges = [e for e in g.edges() if rng.random() < 0.8]
        h = build_graph(g.n, edges)
        mask = sum(1 << v for v in range(h.n) if rng.random() < 0.9)
        assert shortest_cycle(h, mask) == reference_shortest_cycle(h, mask)
        assert girth(h, mask) == reference_girth(h, mask)
        assert girth(h, mask) == (shortest_cycle(h, mask).bit_count() or None)


def test_shortest_cycle_is_a_cycle():
    g = catalog()["petersen"]
    cyc = shortest_cycle(g, g.full_mask)
    assert cyc.bit_count() == 5 == girth(g)
    assert all((g.adj[v] & cyc).bit_count() == 2 for v in bits(cyc))
    assert shortest_cycle(g, 0) == 0 and girth(g, 0) is None


def _grid(a, b):
    return build_graph(a * b, [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
                       + [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)])


def test_node_count_pins():
    # the local search meets the root bound: the search ends at its root
    cat = catalog()
    k4_g1 = product_deleted(cat["k4"], cat["g1"])
    res = ck_exact(k4_g1, 2)
    assert (res.value, res.nodes_explored) == (8, 1)
    res = ck_exact(circulant_graph(30, (1, 3, 5)), 4)
    assert (res.value, res.nodes_explored) == (9, 1)
    # proof-bound: greedy already finds the optimum, the search proves it
    # one above the root edge bound, with the bound forcing keeps
    c24 = circulant_graph(24, (1, 2, 12))
    assert max_r_degenerate_set(c24, 2)[2] == 3618
    res = ck_exact(circulant_graph(20, (1, 2, 10)), 4)
    assert (res.value, res.nodes_explored) == (9, 187)
    # thresholds 1: the cycle packing carried down the stack is the bound
    # that prunes
    res = ck_exact(cycle_replacement(3, 2), 2)
    assert (res.value, res.nodes_explored) == (6, 400)
    res = ck_exact(cycle_replacement(4, 2), 2)
    assert (res.value, res.nodes_explored) == (8, 10484)


@pytest.mark.parametrize("a, b, k, pin", [(2, 8, 2, (5, 74)), (5, 5, 3, (12, 66)),
                                         (4, 6, 3, (13, 959))])
def test_threshold_zero_blocking_pins(a, b, k, pin):
    # threshold 0 falls on the corners at k = 2 and on the border at k = 3:
    # a kept threshold-0 vertex leaves out its threshold-0 neighbours.
    # Without that rule these take 275, 586 and 4,075 nodes
    res = ck_exact(_grid(a, b), k)
    assert (res.value, res.nodes_explored) == pin


# (n, seed) -> (c_3, nodes) for random_regular_graph(n, 5, seed): r = 2, and
# seed 1 of each order meets the root edge bound
RANDOM_5_REGULAR_PINS = {
    (24, 1): (5, 1), (24, 2): (6, 5304), (24, 3): (6, 4368),
    (30, 1): (6, 1), (30, 2): (6, 3985), (30, 3): (7, 33468),
}


@pytest.mark.parametrize("n, seed", sorted(RANDOM_5_REGULAR_PINS))
def test_random_5_regular_node_count_pins(n, seed):
    res = ck_exact(random_regular_graph(n, 5, seed=seed), 3)
    assert (res.value, res.nodes_explored) == RANDOM_5_REGULAR_PINS[n, seed]


@pytest.mark.parametrize("seed", range(1, 6))
def test_random_cubic_60_node_count_pins(seed):
    # c_2 meets the lower bound (n+2)/4, which the root edge bound proves
    g = random_regular_graph(60, 3, seed=seed)
    res = ck_exact(g, 2)
    assert (res.value, res.nodes_explored) == (-(-(g.n + 2) // 4), 1)


@pytest.mark.parametrize("seed", range(1, 6))
def test_random_cubic_200_node_count_pins(seed):
    # the local search reaches (n+2)/4 = 51 seeds, so the search ends at its root
    res = ck_exact(random_regular_graph(200, 3, seed=seed), 2)
    assert (res.value, res.nodes_explored) == (51, 1)


def test_random_4_regular_80_node_count_pins():
    # r = 1 at k = 3: the walk stops one short of the Staton bound, 27 seeds,
    # which the branch and bound then reaches and proves.  A packing repaired
    # from the parent's can hold more cycles than a fresh greedy one, so
    # re-packing every remove child from nothing takes 262 nodes
    res = ck_exact(random_regular_graph(80, 4, seed=5), 3)
    assert (res.value, res.nodes_explored) == (27, 251)


@pytest.mark.parametrize("seed", range(1, 4))
def test_local_search_reaches_the_decycling_bound_at_200(seed):
    # a walk that takes only moves losing no vertex climbs from the greedy
    # forest to n - (n+2)/4 = 149 vertices within its move budget
    g = random_regular_graph(200, 3, seed=seed)
    r = [1] * g.n
    x = _greedy_feasible(g, r, g.full_mask)
    assert x.bit_count() < 149
    y = search._local_search(g, r, g.full_mask, x, 149)
    assert y.bit_count() == 149 and is_r_degenerate(g, y, 1)


@pytest.mark.parametrize("m", range(3, 13))
def test_path_replacement_bridge_split_pins(m):
    # every threshold is 1 at k = 2: the graph splits at the m - 1 bridges
    # before any search, and each of the m blocks closes at its own root node
    res = ck_exact(path_replacement(m, 1), 2)
    assert (res.value, res.nodes_explored) == (2 * m, m)


@pytest.mark.parametrize("tree, pin", [("k2", (4, 2)), ("star", (7, 4))], ids=["k2", "star"])
def test_tree_gadget_bridge_split_pins(tree, pin):
    # one node per piece left after deleting the bridges: 2 pierced K4s
    # for the k2 tree, a triangle and 3 pierced K4s for the star
    trees = {"k2": path_graph(2), "star": build_graph(4, [(0, 1), (0, 2), (0, 3)])}
    res = ck_exact(tree_gadget_graph(trees[tree]), 2)
    assert (res.value, res.nodes_explored) == pin


def test_bridge_split_needs_every_threshold_one():
    # two triangles joined by a bridge at k = 2: the bridge's ends have
    # threshold 1, the others 0.  Adding up the two triangles would give
    # 2 seeds, but a forest through the bridge leaves a threshold-0 vertex
    # with a neighbour, so c_2 = 3
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    r = [g.degree(v) - 2 for v in range(g.n)]
    pieces = bridge_pieces(g)
    assert pieces == [0b111, 0b111000]
    assert g.n - sum(max_r_degenerate_set(g, r, piece)[0] for piece in pieces) == 2
    assert ck_exact(g, 2).value == 3


def _is_forest(g, mask):
    """True iff G[mask] has no cycle: union-find over its edges."""
    root = list(range(g.n))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for u, v in g.edges():
        if mask >> u & 1 and mask >> v & 1:
            a, b = find(u), find(v)
            if a == b:
                return False
            root[a] = b
    return True


def _largest_subset(within, ok):
    """Size of a largest subset s of within with ok(s), by enumerating the
    subsets from the largest size down."""
    verts = list(bits(within))
    return next(size for size in range(len(verts), -1, -1)
                if any(ok(sum(1 << v for v in combo)) for combo in combinations(verts, size)))


def _bridged_graph(rng):
    """Random 2-edge-connected blocks (a cycle plus chords) joined into a
    tree by bridges, with pendant trees hung on: at most 14 vertices."""
    edges = []
    n = 0
    while n < 10 and (n == 0 or rng.random() < 0.7):
        size = rng.randrange(3, 6)
        block = list(range(n, n + size))
        edges += [(block[i], block[(i + 1) % size]) for i in range(size)]
        edges += [(u, v) for u in block for v in block
                  if u + 1 < v and (u, v) != (block[0], block[-1]) and rng.random() < 0.2]
        if n:
            edges.append((rng.randrange(n), rng.choice(block)))
        n += size
    for v in range(n, n + rng.randrange(0, 15 - n)):
        edges.append((rng.randrange(v), v))
        n = v + 1
    return build_graph(n, edges)


def test_forest_number_with_bridges_matches_subset_enumeration():
    # every threshold 1 on bridged graphs, under masks that cut new bridges
    # into G[within]: the split search against the largest induced forest
    # found by enumerating subsets from the largest down
    rng = random.Random(1409)
    for trial in range(300):
        g = _bridged_graph(rng)
        within = g.full_mask if trial % 3 == 0 else rng.randrange(1 << g.n)
        best = _largest_subset(within, lambda s: _is_forest(g, s))
        size, mask, _ = max_r_degenerate_set(g, 1, within)
        assert size == best == mask.bit_count()
        assert not mask & ~within and _is_forest(g, mask)


def test_no_instance_gains_nodes_pins():
    # a larger incumbent and forced keeps only prune more: none of these
    # may grow past the count the search had with the greedy incumbent
    # alone (the first four) or before the edge bound forced keeps
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    cases = [
        (tree_gadget_graph(star), 2, 5),
        (_grid(4, 5), 2, 10232),
        (cycle_replacement(4, 2), 2, 10579),
        (path_replacement(4, 1), 2, 5745),
        (circulant_graph(20, (1, 2, 10)), 4, 1178),
        (circulant_graph(24, (1, 2, 12)), 3, 38130),
        (cycle_replacement(3, 2), 2, 1081),
        (_grid(5, 5), 2, 28281),
    ]
    cases += [(random_regular_graph(n, 5, seed=seed), 3, before) for (n, seed), before in (
        ((24, 1), 1), ((24, 2), 52522), ((24, 3), 53403),
        ((30, 1), 1), ((30, 2), 54034), ((30, 3), 500968))]
    for g, k, before in cases:
        assert ck_exact(g, k).nodes_explored <= before


def test_search_depth_needs_no_recursion():
    # the branch and bound is one loop over an explicit stack: a recursion
    # limit 20 frames above the caller's does not stop it, though the 5x5
    # grid branches 24 levels deep
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 20)
    try:
        res = ck_exact(_grid(5, 5), 2)
    finally:
        sys.setrecursionlimit(old)
    assert (res.value, res.nodes_explored) == (5, 27951)


def test_local_search_is_deterministic():
    # C30(1,3,5) at k = 4 reaches its optimum only by the local search
    g = circulant_graph(30, (1, 3, 5))
    r = [g.degree(v) - 4 for v in range(g.n)]
    assert _greedy_feasible(g, r, g.full_mask).bit_count() < max_r_degenerate_set(g, r)[0]
    first, second = ck_exact(g, 4), ck_exact(g, 4)
    assert (first.value, first.witness) == (second.value, second.witness)


def reference_greedy_feasible(g, r, within):
    """The greedy incumbent by re-peeling the whole set after every drop."""
    cur = within
    while True:
        core = degeneracy_peel(g, cur, r)
        if not core:
            return cur
        v = max(bits(core), key=lambda x: ((g.adj[x] & cur).bit_count() - r[x], -x))
        cur &= ~(1 << v)


def test_greedy_feasible_matches_full_repeel():
    rng = random.Random(7)
    graphs = [_grid(4, 5), path_graph(40), circulant_graph(24, (1, 2, 12)),
              circulant_graph(30, (1, 3, 5))]
    graphs += [random_regular_graph(2 * rng.randrange(5, 30), d, seed=rng.randrange(10**6))
               for d in (3, 4) for _ in range(12)]
    for g in graphs:
        for k in (1, 2, 3):
            r = [g.degree(v) - k for v in range(g.n)]
            within = sum(1 << v for v in range(g.n) if r[v] >= 0 and rng.random() < 0.9)
            assert _greedy_feasible(g, r, within) == reference_greedy_feasible(g, r, within)


def test_greedy_on_long_path_is_fast():
    start = time.perf_counter()
    res = ck_exact(path_graph(1000), 2)
    assert res.value == 501 and res.nodes_explored == 1
    assert time.perf_counter() - start < 0.05


def test_process_on_long_cycle_is_fast():
    # 500 layers of two vertices each: each layer checks only the last
    # layer's neighbours
    start = time.perf_counter()
    trace = run_process(cycle_graph(1000), 1, 1)
    assert trace.complete and trace.time == 500
    assert time.perf_counter() - start < 0.05


def _triangles(t):
    return build_graph(3 * t, [(3 * i + a, 3 * i + b) for i in range(t)
                               for a, b in ((0, 1), (1, 2), (0, 2))])


def test_disjoint_triangles_split_into_components():
    res = ck_exact(_triangles(20), 2)
    assert res.value == 40
    assert res.nodes_explored < 100


def test_disconnected_graph_adds_up_components():
    cat = catalog()
    parts = [cat["petersen"], cat["k4"], circulant_graph(12, (1, 3)), cat["g1"]]
    g = parts[0]
    for h in parts[1:]:
        g = disjoint_union(g, h)
    for r in (0, 1, 2):
        size, mask, _ = max_r_degenerate_set(g, r)
        assert size == sum(max_r_degenerate_set(h, r)[0] for h in parts)
        assert mask.bit_count() == size and is_r_degenerate(g, mask, r)


def _naive_peels(g, mask, r):
    """True iff mask peels to empty: drop any vertex with at most r[v]
    neighbours left, lowest id first, until none can go."""
    while mask:
        for v in range(g.n):
            if mask >> v & 1 and (g.adj[v] & mask).bit_count() <= r[v]:
                mask &= ~(1 << v)
                break
        else:
            return False
    return True


@pytest.mark.parametrize("moves", [0, search.MOVES_PER_VERTEX])
def test_mixed_thresholds_match_brute_force(monkeypatch, moves):
    # per-vertex thresholds not of the form deg(v) - k, where the edge
    # bound's decrement deg_sub(u) - r_min and the keeps it forces are
    # loosest: uniform draws from 0..3, and deg(v) - k moved by up to one.
    # Without local-search moves the branch and bound alone must climb from
    # the greedy incumbent, so a bound that prunes or forces wrongly shows
    # in the value.
    monkeypatch.setattr(search, "MOVES_PER_VERTEX", moves)
    rng = random.Random(4021)
    for trial in range(600):
        n = rng.randrange(1, 13)
        p = rng.choice((0.3, 0.5, 0.7, 0.9))
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        if trial % 2:
            k = rng.choice((1, 2, 3))
            r = [min(3, max(0, g.degree(v) - k + rng.choice((-1, 0, 1)))) for v in range(n)]
        else:
            r = [rng.randrange(4) for _ in range(n)]
        within = g.full_mask if rng.random() < 0.5 else rng.randrange(1 << n)
        best = max(s.bit_count() for s in range(1 << n) if not s & ~within and _naive_peels(g, s, r))
        size, mask, _ = max_r_degenerate_set(g, r, within)
        assert size == best == mask.bit_count()
        assert not mask & ~within and _naive_peels(g, mask, r)


@pytest.mark.parametrize("moves", [0, search.MOVES_PER_VERTEX])
def test_carried_cycle_packing_matches_subset_enumeration(monkeypatch, moves):
    # every threshold at most 1, so the cycle packing bounds the search:
    # random graphs and random 3- and 4-regular graphs on at most 14
    # vertices, some thresholds 0 (a kept one blocks its threshold-0
    # neighbours, which can break a packed cycle) and random masks.
    # Without local-search moves the branch and bound alone must climb from
    # the greedy incumbent, so a packing that still counts a cycle the
    # node no longer holds prunes an improving X and shows in the value
    monkeypatch.setattr(search, "MOVES_PER_VERTEX", moves)
    rng = random.Random(2411)
    for trial in range(400):
        if trial % 2:
            n = rng.randrange(4, 15)
            p = rng.choice((0.2, 0.3, 0.45))
            g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        else:
            g = random_regular_graph(rng.randrange(3, 8) * 2, rng.choice((3, 4)), seed=rng.randrange(10**6))
        zero = rng.choice((0.0, 0.1, 0.25))
        r = [0 if rng.random() < zero else 1 for _ in range(g.n)]
        within = g.full_mask if trial % 3 == 0 else rng.randrange(1 << g.n)
        best = _largest_subset(within, lambda s: _naive_peels(g, s, r))
        size, mask, _ = max_r_degenerate_set(g, r, within)
        assert size == best == mask.bit_count()
        assert not mask & ~within and _naive_peels(g, mask, r)


def test_uniform_threshold_sequence_matches_int():
    cat = catalog()
    for name in ("petersen", "g1", "heawood"):
        g = cat[name]
        for r in (0, 1, 2):
            assert max_r_degenerate_set(g, [r] * g.n) == max_r_degenerate_set(g, r)


def test_thresholds_rejected():
    g = catalog()["petersen"]
    with pytest.raises(ValueError):
        max_r_degenerate_set(g, -1)
    with pytest.raises(ValueError):
        max_r_degenerate_set(g, [1] * (g.n - 1))
    r = [1] * g.n
    r[3] = -1
    with pytest.raises(ValueError):
        max_r_degenerate_set(g, r)
    assert max_r_degenerate_set(g, r, g.full_mask & ~(1 << 3))[0] == 7  # some optimum avoids 3
    with pytest.raises(ValueError):
        max_r_degenerate_set(path_graph(3), 1, within=0b1000)
