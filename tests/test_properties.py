"""Randomized cross-checks against networkx and against structural laws."""

import random

import networkx as nx

from convlab.graph import build_graph, complete_graph, vset
from convlab.constructions import random_regular_graph
from convlab.process import characterization_check
from convlab.structure import (
    degeneracy_peel,
    is_maximal_r_degenerate,
    is_r_degenerate,
)


def _random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges), edges


def test_one_degenerate_means_forest():
    rng = random.Random(101)
    for _ in range(1000):
        n = rng.randrange(1, 10)
        g, edges = _random_graph(rng, n, rng.uniform(0.1, 0.6))
        nxg = nx.Graph(edges)
        nxg.add_nodes_from(range(n))
        assert is_r_degenerate(g, g.full_mask, 1) == nx.is_forest(nxg)


def test_zero_degenerate_means_independent():
    rng = random.Random(103)
    for _ in range(300):
        n = rng.randrange(1, 10)
        g, edges = _random_graph(rng, n, 0.3)
        assert is_r_degenerate(g, g.full_mask, 0) == (not edges)


def _random_maximal_r_degenerate(rng, r, n):
    """Start from K_{r+1} and attach each new vertex to r existing ones:
    every such graph is maximal r-degenerate with m = rn - r(r+1)/2."""
    edges = [(u, v) for u in range(r + 1) for v in range(u + 1, r + 1)]
    for v in range(r + 1, n):
        for u in rng.sample(range(v), r):
            edges.append((u, v))
    return build_graph(n, edges)


def test_maximal_degenerate_edge_count_law():
    rng = random.Random(107)
    for _ in range(120):
        r = rng.randrange(1, 4)
        n = rng.randrange(r + 2, r + 9)
        g = _random_maximal_r_degenerate(rng, r, n)
        assert g.edge_count == r * n - r * (r + 1) // 2
        assert is_maximal_r_degenerate(g, r)
        # dropping any single edge breaks both the count and maximality
        u, v = g.edges()[rng.randrange(g.edge_count)]
        smaller = build_graph(n, [e for e in g.edges() if e != (u, v)])
        if is_r_degenerate(smaller, smaller.full_mask, r):
            assert not is_maximal_r_degenerate(smaller, r)


def test_complete_graph_maximality():
    for r in range(1, 5):
        assert is_maximal_r_degenerate(complete_graph(r + 1), r)


def test_peel_core_is_fixed_point():
    rng = random.Random(109)
    for _ in range(300):
        n = rng.randrange(2, 12)
        g, edges = _random_graph(rng, n, 0.35)
        nxg = nx.Graph(edges)
        nxg.add_nodes_from(range(n))
        for r in (0, 1, 2):
            core = degeneracy_peel(g, g.full_mask, [r] * n)
            # the stuck core is the (r+1)-core, empty iff r-degenerate
            assert core == vset(nx.k_core(nxg, r + 1))
            # every core vertex keeps more than r neighbours in the core
            for v in range(n):
                if core >> v & 1:
                    assert bin(g.adj[v] & core).count("1") > r


def test_characterization_on_random_regular():
    count = 0
    i = 0
    while count < 500:
        i += 1
        d = 3 + i % 3
        n = 8 + 2 * (i % 4)
        if (n * d) % 2:
            continue
        g = random_regular_graph(n, d, seed=7000 + i)
        rng = random.Random(8000 + i)
        s = vset([v for v in range(n) if rng.random() < 0.45])
        for k in range((d + 1) // 2, d + 1):
            rep = characterization_check(g, s, k)
            assert rep.complement_rule is not None
            assert rep.simulated == rep.complement_rule
            count += 1


def test_adjacency_symmetry_fuzz():
    rng = random.Random(113)
    for _ in range(200):
        n = rng.randrange(1, 15)
        g, _ = _random_graph(rng, n, rng.uniform(0.05, 0.8))
        for v in range(n):
            assert g.adj[v] >> v & 1 == 0
            for u in range(n):
                assert (g.adj[v] >> u & 1) == (g.adj[u] >> v & 1)
