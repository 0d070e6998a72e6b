import inspect
import random

import pytest

from convlab.graph import (
    GraphError,
    are_isomorphic,
    bits,
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
from convlab.process import residual_core, run_process
from convlab.search import greedy_cycle_packing, max_r_degenerate_set, shortest_cycle
from convlab.structure import bridge_pieces, bridges, girth, is_r_degenerate

# Every public function that takes a vertex set reads it through
# Graph.vertex_set.  The one deliberate exception is structure.degeneracy_peel,
# the search's inner loop, whose callers all pass a set already checked.
VERTEX_SET_FUNCTIONS = [
    pytest.param(induced_subgraph, id="induced_subgraph"),
    pytest.param(components, id="components"),
    pytest.param(is_connected, id="is_connected"),
    pytest.param(lambda g, mask: run_process(g, mask, 1), id="run_process"),
    pytest.param(lambda g, mask: residual_core(g, mask, 1), id="residual_core"),
    pytest.param(shortest_cycle, id="shortest_cycle"),
    pytest.param(greedy_cycle_packing, id="greedy_cycle_packing"),
    pytest.param(lambda g, mask: max_r_degenerate_set(g, 1, mask), id="max_r_degenerate_set"),
    pytest.param(girth, id="girth"),
    pytest.param(bridges, id="bridges"),
    pytest.param(bridge_pieces, id="bridge_pieces"),
    pytest.param(lambda g, mask: is_r_degenerate(g, mask, 1), id="is_r_degenerate"),
]


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


def test_vset_members_rejects_a_negative_mask():
    # bits(-1) never ends: a negative int has infinitely many set bits
    for mask in (-1, -(1 << 70), -6):
        with pytest.raises(ValueError, match="negative"):
            vset_members(mask)


def _plain_scan(mask, width):
    """Set bit positions of ``mask`` below ``width``, one shift per position."""
    return [i for i in range(width) if mask >> i & 1]


WIDE_EDGE_MASKS = [
    pytest.param(0, id="zero"),
    pytest.param(1 << 63, id="bit63"),
    pytest.param(1 << 64, id="bit64"),
    pytest.param((1 << 64) | 1, id="bit64-and-bit0"),
    pytest.param(1 << 2999, id="bit2999"),
    pytest.param((1 << 3000) - 1, id="all3000"),
    # masks past 64 bits: at most 16 set bits take the one-bit loop, 17 or
    # more the word walk
    pytest.param(sum(1 << i for i in range(100, 117)), id="bits100-116"),
    pytest.param((1 << 16) - 1 | 1 << 2999, id="bits0-15-and-2999"),
    pytest.param((1 << 17) - 1 | 1 << 2999, id="bits0-16-and-2999"),
    pytest.param((1 << 15) - 1 | 1 << 2999, id="bits0-14-and-2999"),
    pytest.param((1 << 15) - 1 | 1 << 64, id="bits0-14-and-64"),
    pytest.param((1 << 16) - 1 | 1 << 64, id="bits0-15-and-64"),
]


@pytest.mark.parametrize("mask", WIDE_EDGE_MASKS)
def test_bits_wide_edge_masks_match_plain_scan(mask):
    assert list(bits(mask)) == _plain_scan(mask, 3001)


@pytest.mark.parametrize("width", [30, 64, 65, 500, 3000])
def test_bits_wide_random_masks_match_plain_scan(width):
    rng = random.Random(width)
    for density in (0.002, 0.01, 0.05, 0.3, 0.6, 0.9):
        for _ in range(3):
            mask = sum(1 << i for i in range(width) if rng.random() < density)
            assert list(bits(mask)) == _plain_scan(mask, width), (width, density)


def test_bits_wide_stays_a_lazy_generator():
    # a generator, so perfbench's tracer does not wrap it and a caller may
    # stop early without the rest of the mask being walked
    assert inspect.isgeneratorfunction(bits)
    assert next(bits((1 << 3000) - 2)) == 1


def test_components_and_connectivity():
    g = disjoint_union(cycle_graph(3), path_graph(2))
    comps = components(g)
    assert len(comps) == 2
    assert sorted(c.bit_count() for c in comps) == [2, 3]
    assert not is_connected(g)
    assert is_connected(cycle_graph(5))


@pytest.mark.parametrize("call", VERTEX_SET_FUNCTIONS)
def test_vertex_set_contract(call):
    g = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])  # a triangle with a pendant
    with pytest.raises(ValueError, match="outside 0.."):
        call(g, 1 << g.n)
    assert call(g, None) == call(g, g.full_mask)


def test_empty_vertex_set_is_connected():
    assert is_connected(cycle_graph(3), 0)


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
