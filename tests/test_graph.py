import pytest

from convlab.graph import (
    GraphError,
    are_isomorphic,
    build_graph,
    complete_bipartite,
    complete_graph,
    components,
    cycle_graph,
    disjoint_union,
    induced_subgraph,
    is_connected,
    path_graph,
    vset,
    vset_members,
)


def test_build_complete_graph():
    g = complete_graph(4)
    assert g.n == 4
    assert g.edge_count == 6
    assert all(g.degree(v) == 3 for v in range(4))


def test_duplicate_edges_collapse():
    g = build_graph(3, [(0, 1), (0, 1), (1, 0)])
    assert g.edge_count == 1
    assert g.has_edge(0, 1) and g.has_edge(1, 0)


def test_out_of_range_endpoint_rejected():
    with pytest.raises(GraphError, match=r"\(0, 5\)"):
        build_graph(3, [(0, 5)])


def test_self_loop_rejected():
    with pytest.raises(GraphError, match="self-loop"):
        build_graph(3, [(1, 1)])


def test_adjacency_symmetry():
    g = build_graph(5, [(0, 2), (2, 4), (1, 3)])
    for u in range(5):
        for v in range(5):
            assert g.has_edge(u, v) == g.has_edge(v, u)


def test_edges_sorted_lexicographic():
    g = build_graph(4, [(3, 1), (2, 0), (0, 1)])
    assert g.edges() == [(0, 1), (0, 2), (1, 3)]


def test_vset_roundtrip():
    mask = vset([4, 1, 7])
    assert vset_members(mask) == [1, 4, 7]
    assert mask.bit_count() == 3


def test_components_and_connectivity():
    g = disjoint_union(cycle_graph(3), path_graph(2))
    comps = components(g)
    assert len(comps) == 2
    assert sorted(c.bit_count() for c in comps) == [2, 3]
    assert not is_connected(g)
    assert is_connected(cycle_graph(5))


def test_induced_subgraph_relabels():
    g = cycle_graph(5)
    sub, old = induced_subgraph(g, vset([1, 2, 4]))
    assert old == [1, 2, 4]
    assert sub.n == 3
    assert sub.edges() == [(0, 1)]  # only 1-2 survives


def test_remove_vertices():
    g = complete_graph(4)
    h, old = induced_subgraph(g, g.full_mask & ~vset([0]))
    assert old == [1, 2, 3] and h.n == 3 and h.edge_count == 3


def test_isomorphism_positive_and_negative():
    c6 = cycle_graph(6)
    shuffled = build_graph(6, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)])
    assert are_isomorphic(c6, shuffled)
    assert not are_isomorphic(c6, complete_bipartite(3, 3))
    assert not are_isomorphic(c6, disjoint_union(cycle_graph(3), cycle_graph(3)))
