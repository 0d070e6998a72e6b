"""The branch-and-bound search: shortest cycles, node-count pins and
component additivity."""

import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from convlab.constructions import catalog, product_deleted, random_regular_graph
from convlab.graph import bits, build_graph, circulant_graph, disjoint_union
from convlab.search import max_r_degenerate_set, shortest_cycle
from convlab.solver import ck_exact
from convlab.structure import girth, is_r_degenerate


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


def test_shortest_cycle_is_a_cycle():
    g = catalog()["petersen"]
    cyc = shortest_cycle(g, g.full_mask)
    assert cyc.bit_count() == 5 == girth(g)
    assert all((g.adj[v] & cyc).bit_count() == 2 for v in bits(cyc))
    assert shortest_cycle(g, 0) == 0 and girth(g, 0) is None


def test_node_count_pins():
    cat = catalog()
    k4_g1 = product_deleted(cat["k4"], cat["g1"])
    res = ck_exact(k4_g1, 2)
    assert (res.value, res.nodes_explored) == (8, 8582)
    c24 = circulant_graph(24, (1, 2, 12))
    assert max_r_degenerate_set(c24, 2)[2] == 38130


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
