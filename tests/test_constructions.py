import pytest

from convlab.constructions import (
    BLOB_APEX,
    ConstructionError,
    Recipe,
    build_recipe,
    building_block,
    catalog,
    catalog_graph,
    cycle_replacement,
    doubled_block,
    extremal_regular,
    flower_snark,
    generalized_petersen,
    is_tree_gadget_graph,
    join_with_empty,
    path_replacement,
    product_deleted,
    random_regular_graph,
    small_regular,
    tree_gadget_graph,
    triangle_replace,
)
from convlab.graph import (
    are_isomorphic,
    build_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    vset,
)
from convlab.process import is_conversion_set, run_process
from convlab.structure import (
    CLASS2,
    bridges,
    chromatic_class,
    girth,
    is_cubic,
    is_k_connected,
    regular_degree,
    triangle_free,
)


def test_catalog_named_properties():
    cat = catalog()
    j5 = cat["j5"]
    assert j5.n == 20 and girth(j5) == 5 and chromatic_class(j5) == CLASS2
    for name in ("g1", "g2"):
        g = cat[name]
        assert g.n == 8 and is_cubic(g) and triangle_free(g)
        assert girth(g) == 4 and is_k_connected(g, 3)
    assert girth(cat["heawood"]) == 6
    blob = cat["blob"]
    assert is_cubic(blob) and triangle_free(blob) and is_k_connected(blob, 3)
    assert blob.degree(BLOB_APEX) == 3
    assert regular_degree(cat["layered4reg"]) == 4


def test_catalog_graph_lookup():
    assert catalog_graph("petersen").n == 10
    with pytest.raises(ConstructionError, match="unknown catalog graph"):
        catalog_graph("nope")


def test_generalized_petersen_validation():
    assert generalized_petersen(4, 1).n == 8
    with pytest.raises(ConstructionError):
        generalized_petersen(4, 2)


def test_flower_snark_family():
    for n in (5, 7):
        g = flower_snark(n)
        assert g.n == 4 * n and is_cubic(g)
        assert girth(g) == 5 if n == 5 else girth(g) >= 5
        assert chromatic_class(g) == CLASS2
    with pytest.raises(ConstructionError):
        flower_snark(6)


def test_building_blocks():
    orders = {1: 5, 2: 6, 3: 7, 4: 6}
    for i, order in orders.items():
        b = building_block(i)
        assert b.graph.n == order
        for a in b.attachments:
            assert b.graph.degree(a) == 2
        others = [v for v in range(order) if v not in b.attachments]
        assert all(b.graph.degree(v) == 3 for v in others)
        assert is_conversion_set(b.graph, vset(b.conversion_pair), 2)
    assert triangle_free(building_block(2).graph)
    assert triangle_free(building_block(3).graph)
    assert not triangle_free(building_block(1).graph)
    assert not triangle_free(building_block(4).graph)
    with pytest.raises(ConstructionError):
        building_block(5)


def test_join_with_empty():
    g, seed = join_with_empty(complete_graph(3), 3)
    assert are_isomorphic(g, complete_graph(4))
    assert seed.bit_count() == 3 and is_conversion_set(g, seed, 3)
    g5, seed5 = join_with_empty(cycle_graph(5), 5)
    assert regular_degree(g5) == 5 and g5.n == 8
    assert is_conversion_set(g5, seed5, 5)
    with pytest.raises(ConstructionError, match="order k"):
        join_with_empty(cycle_graph(5), 4)
    with pytest.raises(ConstructionError, match="regular"):
        join_with_empty(path_graph(4), 4)


def test_extremal_regular_even_and_odd():
    for k in (2, 3, 4, 5):
        g, seed = extremal_regular(k)
        assert g.n == 2 * k + 2
        assert regular_degree(g) == k + 1
        assert seed.bit_count() == k
        trace = run_process(g, seed, k)
        assert trace.complete
    with pytest.raises(ConstructionError):
        extremal_regular(1)


def test_extremal_k3_matches_catalog():
    g, _ = extremal_regular(3)
    assert are_isomorphic(g, catalog()["layered4reg"])


def test_path_replacement():
    g = path_replacement(2, 1)
    assert g.n == 10 and is_cubic(g) and len(bridges(g)) == 1
    g3 = path_replacement(3, 3)
    assert g3.n == 20 and is_cubic(g3)
    with pytest.raises(ConstructionError):
        path_replacement(1)
    with pytest.raises(ConstructionError):
        path_replacement(2, 2)


def test_cycle_replacement():
    for block in (2, 4):
        g = cycle_replacement(3, block)
        assert g.n == 18 and is_cubic(g) and bridges(g) == []
    with pytest.raises(ConstructionError):
        cycle_replacement(2)
    with pytest.raises(ConstructionError):
        cycle_replacement(3, 1)


def test_product_deleted():
    t = triangle_replace(complete_graph(4))
    assert t.n == 12 and is_cubic(t) and girth(t) == 3
    big = product_deleted(complete_graph(4), catalog()["petersen"])
    assert big.n == 36 and is_cubic(big)
    with pytest.raises(ConstructionError, match="r-regular"):
        product_deleted(complete_graph(4), catalog()["layered4reg"])
    with pytest.raises(ConstructionError, match="out of range"):
        product_deleted(complete_graph(4), complete_graph(4), removed=9)
    with pytest.raises(ConstructionError, match="cubic"):
        triangle_replace(cycle_graph(5))


def test_product_seed_variants_stay_in_family():
    g0 = product_deleted(complete_graph(4), catalog()["g1"], seed=0)
    g1 = product_deleted(complete_graph(4), catalog()["g1"], seed=5)
    assert g0.n == g1.n and is_cubic(g1)
    # per-copy piece structure is identical; only the wiring may differ
    assert g0.edge_count == g1.edge_count


def test_doubled_block():
    pet = catalog()["petersen"]
    g = doubled_block(pet, 0, 1)
    assert g.n == 16 and is_cubic(g)
    assert girth(g) >= 5 and is_k_connected(g, 3)
    with pytest.raises(ConstructionError, match="cubic"):
        doubled_block(cycle_graph(5), 0, 1)
    with pytest.raises(ConstructionError, match="adjacent"):
        doubled_block(pet, 0, 2)
    with pytest.raises(ConstructionError, match="share a neighbour"):
        doubled_block(complete_graph(4), 0, 1)


def test_tree_gadget_graphs():
    small = tree_gadget_graph(path_graph(2))
    assert small.n == 10 and is_cubic(small)
    assert is_tree_gadget_graph(small)
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    larger = tree_gadget_graph(star)
    assert larger.n == 18 and is_cubic(larger)
    assert is_tree_gadget_graph(larger)
    assert not is_tree_gadget_graph(catalog()["petersen"])
    assert not is_tree_gadget_graph(triangle_replace(complete_graph(4)))
    with pytest.raises(ConstructionError, match="degree"):
        tree_gadget_graph(path_graph(3))  # internal vertex of degree 2
    with pytest.raises(ConstructionError, match="tree"):
        tree_gadget_graph(cycle_graph(4))


def test_small_regular():
    g = small_regular(10, 4)
    assert regular_degree(g) == 4
    with pytest.raises(ConstructionError):
        small_regular(5, 3)  # odd product


def test_random_regular_deterministic():
    a = random_regular_graph(12, 3, seed=42)
    b = random_regular_graph(12, 3, seed=42)
    assert a.adj == b.adj and regular_degree(a) == 3
    c = random_regular_graph(12, 3, seed=43)
    assert regular_degree(c) == 3
    with pytest.raises(ConstructionError):
        random_regular_graph(7, 3, seed=1)


def test_random_regular_uniform_over_labelled_graphs():
    # 70 labelled cubic graphs on 6 vertices: 10 copies of K33, 60 prisms
    counts = {}
    for seed in range(7000):
        adj = random_regular_graph(6, 3, seed=seed).adj
        counts[adj] = counts.get(adj, 0) + 1
    assert len(counts) == 70
    assert 50 < min(counts.values()) and max(counts.values()) < 150  # mean 100


def test_build_recipe_dispatch():
    g, seed = build_recipe(Recipe("extremal", {"k": "3"}))
    assert g.n == 8 and seed is not None
    h, none = build_recipe(Recipe("catalog", {"graph": "prism"}))
    assert none is None and h.n == 6
    t, _ = build_recipe(Recipe("triangle-replace", {"graph": "k4"}))
    assert t.n == 12
    p, _ = build_recipe(Recipe("product", {"graph": "k4", "inner": "g1"}))
    assert p.n == 28
    d, _ = build_recipe(Recipe("doubled", {"graph": "petersen", "u": "0", "v": "1"}))
    assert d.n == 16
    tg, _ = build_recipe(Recipe("tree-gadgets", {"tree": "k2"}))
    assert tg.n == 10
    with pytest.raises(ConstructionError, match="unknown recipe"):
        build_recipe(Recipe("bogus", {}))


def test_build_recipe_deterministic():
    r = Recipe("random-regular", {"n": "10", "d": "3", "seed": "7"})
    g1, _ = build_recipe(r)
    g2, _ = build_recipe(r)
    assert g1.adj == g2.adj
