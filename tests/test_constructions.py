import random
from itertools import combinations

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
from convlab.fileio import to_graph6
from convlab.graph import (
    are_isomorphic,
    build_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
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


# The deficiency-driven procedure that built the extremal family before its
# closed form; kept as the reference the closed form must reproduce.
def _extremal_reference(k):
    """A (k+1)-regular graph of order 2k+2 with a k-seed that converts it.

    Starts from K_{2,k} (seed side of size k, first pair converting at step
    one) and repeatedly attaches pairs of new vertices: each new vertex is
    joined to its predecessor in the pair chain and to the k-1 seed vertices
    of highest remaining degree deficiency (ties by lowest id).  Even k ends
    with an edge between the last pair; odd k ends with one extra vertex
    joined to the last pair and the k-1 still-deficient seeds.
    """
    if k < 2:
        raise ConstructionError(f"requires k >= 2, got {k}")
    target = k + 1
    edges = []
    deg = {}

    def add_edge(a, b):
        edges.append((a, b))
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1

    seeds = list(range(k))
    u, v = k, k + 1
    for s in seeds:
        add_edge(s, u)
        add_edge(s, v)

    def neediest():
        return sorted(seeds, key=lambda s: (-(target - deg[s]), s))

    rounds = k // 2 if k % 2 == 0 else (k - 1) // 2
    nxt = k + 2
    for _ in range(rounds):
        u2, v2 = nxt, nxt + 1
        nxt += 2
        deg[u2] = deg[v2] = 0
        add_edge(u2, u)
        for s in neediest()[: k - 1]:
            add_edge(u2, s)
        add_edge(v2, v)
        for s in neediest()[: k - 1]:
            add_edge(v2, s)
        u, v = u2, v2
    if k % 2 == 0:
        add_edge(u, v)
        n = nxt
    else:
        w = nxt
        deg[w] = 0
        add_edge(w, u)
        add_edge(w, v)
        for s in neediest()[: k - 1]:
            add_edge(w, s)
        n = nxt + 1

    g = build_graph(n, edges)
    seed_mask = vset(seeds)
    if g.n != 2 * k + 2 or regular_degree(g) != k + 1:
        raise ConstructionError("internal error: extremal construction is malformed")
    if not is_conversion_set(g, seed_mask, k):
        raise ConstructionError("internal error: extremal seed does not convert")
    return g, seed_mask


def test_extremal_closed_form_matches_reference_procedure():
    for k in range(2, 41):
        g, seed = extremal_regular(k)
        ref, ref_seed = _extremal_reference(k)
        assert (g.adj, seed) == (ref.adj, ref_seed), k


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
    assert not is_tree_gadget_graph(disjoint_union(small, larger))
    # the star's bridge tree around a 5-cycle with a chord instead of a triangle
    gadget = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 0), (4, 1)]  # port 4
    centre = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]
    edges = centre + [(a + off, b + off) for off in (5, 10, 15) for a, b in gadget]
    fake = build_graph(20, edges + [(1, 9), (3, 14), (4, 19)])
    assert is_cubic(fake) and len(bridges(fake)) == 3
    assert not is_tree_gadget_graph(fake)
    assert not is_tree_gadget_graph(catalog()["petersen"])
    assert not is_tree_gadget_graph(triangle_replace(complete_graph(4)))
    with pytest.raises(ConstructionError, match="degree"):
        tree_gadget_graph(path_graph(3))  # internal vertex of degree 2
    with pytest.raises(ConstructionError, match="tree"):
        tree_gadget_graph(cycle_graph(4))


def _gadget_trees(max_internal):
    """Every tree whose internal vertices have degree 3, with up to
    max_internal internal vertices (some shapes more than once)."""
    trees = [path_graph(2)]
    layer = [[]]  # edge lists of the trees on internal vertices 0..size-1
    for size in range(1, max_internal + 1):
        if size > 1:
            layer = [edges + [(p, size - 1)] for edges in layer for p in range(size - 1)
                     if sum(p in e for e in edges) < 3]
        for edges in layer:
            leaves = [v for v in range(size) for _ in range(3 - sum(v in e for e in edges))]
            trees.append(build_graph(2 * size + 2,
                                     edges + [(v, size + i) for i, v in enumerate(leaves)]))
    return trees


def _refinement_agrees(g, h):
    """Colour refinement started from the triangles at each vertex; False
    proves g and h non-isomorphic and spares are_isomorphic the search."""
    graphs = (g, h)
    colours = [[sum(x.has_edge(a, b) for a, b in combinations(x.neighbors(v), 2))
                for v in range(x.n)] for x in graphs]
    for _ in range(g.n):
        if sorted(colours[0]) != sorted(colours[1]):
            return False
        palette = {}
        colours = [[palette.setdefault((c[v], tuple(sorted(c[w] for w in x.neighbors(v)))),
                                       len(palette)) for v in range(x.n)]
                   for x, c in zip(graphs, colours)]
    return True


def test_tree_gadget_recognized_for_every_tree_shape():
    trees = _gadget_trees(5)
    assert {t.n for t in trees} == {2, 4, 6, 8, 10, 12}
    for tree in trees:
        assert is_tree_gadget_graph(tree_gadget_graph(tree)), tree.edges()


def test_tree_gadget_recognizer_matches_isomorphism_reference():
    family = {}
    for tree in _gadget_trees(3):
        g = tree_gadget_graph(tree)
        family.setdefault(g.n, []).append(g)
    assert sorted(family) == [10, 18, 26, 34]
    rng = random.Random(6)
    members = {n: 0 for n in family}
    for n, graphs in sorted(family.items()):
        for _ in range(60):
            edges = set(rng.choice(graphs).edges())
            for _ in range(rng.randrange(1, 4)):  # double-edge swaps keep it cubic
                (a, b), (c, d) = rng.sample(sorted(edges), 2)
                ac, bd = (min(a, c), max(a, c)), (min(b, d), max(b, d))
                if len({a, b, c, d}) == 4 and not {ac, bd} & edges:
                    edges = edges - {(a, b), (c, d)} | {ac, bd}
            g = build_graph(n, edges)
            reference = any(_refinement_agrees(g, h) and are_isomorphic(g, h) for h in graphs)
            assert is_tree_gadget_graph(g) == reference, sorted(edges)
            members[n] += reference
    assert all(0 < count < 60 for count in members.values()), members


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


def test_vertex_replacements_pinned():
    # the four vertex-replacement builders share one splicing helper;
    # their graphs (and so every value computed on them) must not move
    assert to_graph6(path_replacement(3, 3)) == "ShSkk?@?G?_D?T?A??G?@??C??g??g?AS"
    assert to_graph6(cycle_replacement(4, 4)) == (
        "WhNK?C@?G@_X?C??_?G?@??K?BG??_??C??@C??G??@_??X")
    assert to_graph6(product_deleted(catalog_graph("k33"), catalog_graph("blob"), seed=7)) == (
        "~?@AhCKHCDAK?_??@??_?G?@??C?CG?AG??S??P?@?G??????@???@????_???G?"
        "??@???AC???AG????g???@C???G@?????????_?_????@????O@??????_?????G"
        "?????`?????@C??????g?????AG?O???_C?????????_????G???????g??????@"
        "???????@????????_??????CG???????P????????S???????AG????@?@?G????"
        "????????C????@?????????G_????????_????????@?????????@?????????O_"
        "????????AG?????????D?????????@C??_?????@?G")
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert to_graph6(tree_gadget_graph(star)) == "Qw?W{o???@_FOK??????B??[_@_"
