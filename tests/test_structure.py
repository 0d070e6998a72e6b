import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlab.constructions import (
    catalog,
    generalized_petersen,
    path_replacement,
    random_regular_graph,
    triangle_replace,
)
from convlab.graph import (
    Graph,
    bits,
    build_graph,
    components,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    vset,
)
from convlab.structure import (
    CLASS1,
    CLASS2,
    _unit_flow,
    bridge_pieces,
    bridges,
    chromatic_class,
    cyclic_edge_connectivity_at_least,
    degeneracy_peel,
    edge_coloring,
    edge_connectivity,
    girth,
    is_k_connected,
    is_maximal_r_degenerate,
    is_r_degenerate,
    regular_degree,
    structure_report,
    triangle_free,
    vertex_connectivity,
)


def _random_connected(rng, n, extra):
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    return build_graph(n, edges)


def test_regular_degree():
    assert regular_degree(catalog()["petersen"]) == 3
    assert regular_degree(catalog()["layered4reg"]) == 4
    assert regular_degree(path_graph(3)) is None
    assert regular_degree(build_graph(0, [])) is None


def test_girth_known_values():
    assert girth(complete_graph(4)) == 3
    assert girth(catalog()["petersen"]) == 5
    assert girth(catalog()["heawood"]) == 6
    assert girth(catalog()["g1"]) == 4
    assert girth(path_graph(6)) is None
    assert girth(triangle_replace(catalog()["petersen"])) == 3


def test_girth_matches_networkx_on_random_graphs():
    rng = random.Random(3)
    for _ in range(40):
        g = _random_connected(rng, rng.randrange(3, 14), rng.randrange(0, 10))
        nxg = nx.Graph(g.edges())
        nxg.add_nodes_from(range(g.n))
        try:
            expected = nx.girth(nxg)
            expected = None if expected == float("inf") else expected
        except nx.NetworkXError:
            expected = None
        assert girth(g) == expected


def test_bridges_known():
    two_blobs = build_graph(
        8,
        [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (4, 5), (5, 6), (6, 4),
         (4, 7), (5, 7), (3, 7)],
    )
    assert bridges(two_blobs) == [(3, 7)]
    assert bridges(catalog()["petersen"]) == []
    assert len(bridges(path_replacement(2, 1))) == 1


def test_bridges_match_networkx():
    rng = random.Random(5)
    for _ in range(60):
        g = _random_connected(rng, rng.randrange(2, 16), rng.randrange(0, 8))
        nxg = nx.Graph(g.edges())
        nxg.add_nodes_from(range(g.n))
        expected = sorted((min(u, v), max(u, v)) for u, v in nx.bridges(nxg))
        assert bridges(g) == expected


def test_masked_bridges_and_pieces_match_networkx():
    # the same graphs, each under random vertex masks: bridges of G[mask]
    # against nx.bridges of the induced subgraph, and the pieces left after
    # deleting them against the components of what remains
    rng = random.Random(5)
    for _ in range(60):
        g = _random_connected(rng, rng.randrange(2, 16), rng.randrange(0, 8))
        for mask in (g.full_mask, *(rng.randrange(1 << g.n) for _ in range(4))):
            nxg = nx.Graph(g.edges()).subgraph(bits(mask)).copy()
            nxg.add_nodes_from(bits(mask))
            expected = sorted((min(u, v), max(u, v)) for u, v in nx.bridges(nxg))
            assert bridges(g, mask) == expected
            nxg.remove_edges_from(expected)
            # in order of their lowest vertex, as documented
            pieces = [vset(c) for c in sorted(nx.connected_components(nxg), key=min)]
            assert bridge_pieces(g, mask) == pieces
    assert bridge_pieces(path_graph(3), 0) == []
    with pytest.raises(ValueError):
        bridges(path_graph(3), 0b1000)
    with pytest.raises(ValueError):
        bridge_pieces(path_graph(3), 0b1000)


def _connectivity_sweep():
    rng = random.Random(9)
    for _ in range(30):
        yield _random_connected(rng, rng.randrange(3, 12), rng.randrange(0, 12))
    yield from (build_graph(n, []) for n in range(3))
    yield build_graph(2, [(0, 1)])
    yield from (complete_graph(n) for n in range(3, 8))
    yield from (complete_bipartite(a, b) for a in range(1, 5) for b in range(a, 6))
    for _ in range(10):  # disconnected, some with an isolated vertex
        g = _random_connected(rng, rng.randrange(2, 8), rng.randrange(0, 6))
        yield disjoint_union(g, _random_connected(rng, rng.randrange(1, 8), rng.randrange(0, 6)))
    for _ in range(20):  # dense G(n, p)
        n, p = rng.randrange(4, 13), rng.uniform(0.5, 0.95)
        yield build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    yield from (random_regular_graph(n, d, seed=n)
                for d in (3, 4) for n in range(d + 1, 31) if n * d % 2 == 0)
    yield from (generalized_petersen(n, k) for n in range(3, 13) for k in range(1, (n + 1) // 2))


def test_connectivity_matches_networkx():
    for g in _connectivity_sweep():
        nxg = nx.Graph(g.edges())
        nxg.add_nodes_from(range(g.n))
        node, edge = (nx.node_connectivity(nxg), nx.edge_connectivity(nxg)) if g.n > 1 else (0, 0)
        assert (vertex_connectivity(g), edge_connectivity(g)) == (node, edge), g.edges()


def test_unit_flow_matches_networkx_on_directed_networks():
    # s=0 -> 1 -> 3 -> t=6 is found first; the second path 0 -> 2 -> 3 -> 1
    # -> 4 -> 5 -> 6 must cancel its arc 1 -> 3
    cap = [vset([1, 2]), vset([3, 4]), vset([3]), vset([6]), vset([5]), vset([6]), 0]
    assert _unit_flow(cap, 0, 6) == 2
    rng = random.Random(12)
    for _ in range(300):
        n, p = rng.randrange(2, 9), rng.random()
        cap = [sum(1 << w for w in range(n) if w != u and rng.random() < p) for u in range(n)]
        s, t = rng.sample(range(n), 2)
        nxg = nx.DiGraph((u, w) for u in range(n) for w in bits(cap[u]))
        nxg.add_nodes_from(range(n))
        nx.set_edge_attributes(nxg, 1, "capacity")
        assert _unit_flow(cap, s, t) == nx.maximum_flow_value(nxg, s, t), (cap, s, t)


def test_unit_flow_cancels_the_flow_it_pushes_against():
    # bit w of cap[u] is the arc u -> w.  The maximum 7 -> 1 flow is 4; a
    # push against flow that leaves the flow in place reuses arcs and gives 5
    cap = [312, 273, 88, 146, 14, 407, 12, 87, 2]
    nxg = nx.DiGraph((u, w) for u in range(len(cap)) for w in bits(cap[u]))
    nx.set_edge_attributes(nxg, 1, "capacity")
    assert _unit_flow(cap, 7, 1) == nx.maximum_flow_value(nxg, 7, 1) == 4

def test_connectivity_named():
    assert vertex_connectivity(complete_graph(5)) == 4
    assert is_k_connected(complete_graph(4), 3)
    assert not is_k_connected(complete_graph(4), 4)  # needs order > k
    pet = catalog()["petersen"]
    assert vertex_connectivity(pet) == 3 and edge_connectivity(pet) == 3
    assert edge_connectivity(path_replacement(2, 1)) == 1


def test_cubic_vertex_equals_edge_connectivity():
    for name in ("k4", "k33", "prism", "q3", "petersen", "g1", "g2", "j5"):
        g = catalog()[name]
        assert vertex_connectivity(g) == edge_connectivity(g)


def reference_cyclic_edge_connectivity_at_least(g, c):
    """Every cut of fewer than c edges, tried one by one (C(m, < c) cuts)."""
    edges = g.edges()
    for size in range(c):  # size 0: g itself may hold two cyclic components
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


def _cubic_cross_check_graphs():
    small = [random_regular_graph(n, 3, seed=s) for n in range(4, 21, 2) for s in range(1, 5)]
    yield from small
    yield from (triangle_replace(g) for g in (complete_graph(4), complete_bipartite(3, 3),
                                             generalized_petersen(4, 1), catalog()["petersen"]))
    yield from (disjoint_union(small[i], small[j]) for i, j in ((0, 0), (0, 9), (5, 13), (12, 20)))
    yield from (path_replacement(m, 1) for m in (2, 3))
    yield from (generalized_petersen(m, k) for m in range(3, 12) for k in range(1, (m + 1) // 2))


def test_cyclic_connectivity_matches_cut_enumeration():
    for g in _cubic_cross_check_graphs():
        for c in range(-1, 5):
            assert (cyclic_edge_connectivity_at_least(g, c)
                    == reference_cyclic_edge_connectivity_at_least(g, c)), (g.edges(), c)


def test_cyclic_connectivity():
    assert cyclic_edge_connectivity_at_least(catalog()["petersen"], 4)
    assert cyclic_edge_connectivity_at_least(catalog()["dodecahedron"], 4)
    assert not cyclic_edge_connectivity_at_least(triangle_replace(complete_graph(4)), 4)
    prism = generalized_petersen(3, 1)  # the rungs cut its two triangles apart
    assert cyclic_edge_connectivity_at_least(prism, 3)
    assert not cyclic_edge_connectivity_at_least(prism, 4)
    assert cyclic_edge_connectivity_at_least(complete_bipartite(3, 3), 4)
    two_k4 = disjoint_union(complete_graph(4), complete_graph(4))  # the empty cut splits it
    assert cyclic_edge_connectivity_at_least(two_k4, 0)
    assert cyclic_edge_connectivity_at_least(two_k4, -1)  # no cut has fewer than 0 edges
    assert not cyclic_edge_connectivity_at_least(two_k4, 1)
    assert not cyclic_edge_connectivity_at_least(two_k4, 2)
    with pytest.raises(ValueError, match="cubic"):
        cyclic_edge_connectivity_at_least(complete_graph(5), 4)
    with pytest.raises(ValueError, match="c <= 4"):
        cyclic_edge_connectivity_at_least(catalog()["petersen"], 5)


def test_cyclic_connectivity_at_the_size_guard():
    big_prism = generalized_petersen(66, 1)
    assert big_prism.edge_count == 198
    assert cyclic_edge_connectivity_at_least(big_prism, 4)
    assert cyclic_edge_connectivity_at_least(random_regular_graph(132, 3, seed=5), 4)
    with pytest.raises(ValueError, match="m > 200"):
        cyclic_edge_connectivity_at_least(generalized_petersen(67, 1), 4)


def test_chromatic_class_known():
    assert chromatic_class(complete_graph(4)) == CLASS1
    assert chromatic_class(catalog()["petersen"]) == CLASS2
    assert chromatic_class(catalog()["j5"]) == CLASS2
    assert chromatic_class(catalog()["heawood"]) == CLASS1
    assert chromatic_class(path_replacement(2, 1)) == CLASS2  # bridged
    with pytest.raises(ValueError):
        chromatic_class(cycle_graph(5))


def test_edge_coloring_is_proper():
    g = catalog()["heawood"]
    coloring = edge_coloring(g, 3)
    assert coloring is not None
    for v in range(g.n):
        incident = {c for e, c in coloring.items() if v in e}
        assert len(incident) == 3  # all three colors, no repeats at v
    assert edge_coloring(catalog()["petersen"], 3) is None
    assert edge_coloring(catalog()["petersen"], 4) is not None


def test_degeneracy_peel():
    assert degeneracy_peel(path_graph(5), vset(range(5)), [1] * 5) == 0
    assert degeneracy_peel(cycle_graph(5), vset(range(5)), [1] * 5) == vset(range(5))
    # a vertex with a negative threshold never goes
    assert degeneracy_peel(path_graph(5), vset(range(5)), [1, 1, -1, 1, 1]) == vset([2])
    assert degeneracy_peel(cycle_graph(5), vset(range(5)), [2, 2, -1, 2, 2]) == vset([2])
    assert is_r_degenerate(complete_graph(4), vset(range(4)), 3)
    assert not is_r_degenerate(complete_graph(4), vset(range(4)), 2)


def reference_degeneracy_peel(g, mask, r):
    """The peel by repeated ascending-id sweeps over the whole set."""
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


@st.composite
def graph_mask_thresholds(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=len(possible))) if possible else []
    mask = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    r = draw(st.lists(st.integers(min_value=-1, max_value=3), min_size=n, max_size=n))
    return build_graph(n, edges), mask, r


@settings(max_examples=300, deadline=None)
@given(graph_mask_thresholds())
def test_degeneracy_peel_matches_sweeps(data):
    g, mask, r = data
    core = degeneracy_peel(g, mask, r)
    assert core == reference_degeneracy_peel(g, mask, r)
    # dropping v from a stuck core: only v's neighbours in it may peel now
    for v in bits(core):
        rest = core & ~(1 << v)
        assert degeneracy_peel(g, rest, r, g.adj[v] & core) == reference_degeneracy_peel(g, rest, r)


def reference_is_maximal_r_degenerate(h, r):
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


def _random_r_degenerate(rng, n, r):
    """Each vertex joined to at most r earlier ones; with p = 1 every vertex
    takes min(r, i) of them, the most an r-degenerate graph can have."""
    p = rng.choice((0.5, 0.8, 0.95, 1.0))
    edges = []
    for i in range(1, n):
        back = rng.sample(range(i), min(r, i))
        edges += [(i, j) for j in back if rng.random() < p]
    # relabel, so the degeneracy order is not the vertex order
    perm = list(range(n))
    rng.shuffle(perm)
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


def test_maximal_r_degenerate_matches_pairwise_reference():
    rng = random.Random(29)
    seen = {True: 0, False: 0}
    for _ in range(2000):
        n = rng.randrange(0, 15)
        r = rng.randrange(0, 5)
        h = _random_r_degenerate(rng, n, r)
        maximal = reference_is_maximal_r_degenerate(h, r)
        assert is_maximal_r_degenerate(h, r) == maximal, (h.edges(), r)
        seen[maximal] += 1
    assert min(seen.values()) >= 500


def test_maximal_r_degenerate():
    tree = path_graph(5)
    assert is_maximal_r_degenerate(tree, 1)
    forest = disjoint_union(path_graph(2), path_graph(3))
    assert not is_maximal_r_degenerate(forest, 1)
    assert is_maximal_r_degenerate(complete_graph(3), 2)
    kr = complete_graph(4)
    assert is_maximal_r_degenerate(kr, 3)
    assert kr.edge_count == 3 * 4 - 3 * 4 // 2
    with pytest.raises(ValueError, match="not r-degenerate"):
        is_maximal_r_degenerate(complete_graph(4), 2)


def test_structure_report():
    rep = structure_report(catalog()["j5"])
    assert rep.regular_degree == 3
    assert rep.girth == 5
    assert rep.bridge_list == ()
    assert rep.vertex_connectivity == rep.edge_connectivity == 3
    assert rep.cyclically_4_connected is True
    assert rep.chromatic_class == CLASS2
    assert rep.triangle_free is True


def test_triangle_free():
    assert triangle_free(catalog()["petersen"])
    assert not triangle_free(complete_graph(3))
