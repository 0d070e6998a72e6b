"""Acceptance gate: one test per top-level criterion.

Run with -v for one pass/fail line per criterion.  All combinatorial values
are checked exactly (tolerance zero).
"""

import random
from fractions import Fraction
from math import ceil, floor

from convlab.bounds import (
    MEETS_STATON_EQUALITY,
    equality_certificate,
    lower_bounds,
)
from convlab.constructions import (
    catalog,
    cycle_replacement,
    doubled_block,
    extremal_regular,
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
    path_graph,
    vset,
)
from convlab.process import (
    characterization_check,
    contains_k_immune_set,
    is_conversion_set,
    run_process,
)
from convlab.solver import ck_exact, ck_oracle
from convlab.structure import (
    CLASS1,
    CLASS2,
    bridges,
    chromatic_class,
    girth,
    is_cubic,
    is_k_connected,
    is_maximal_r_degenerate,
    is_r_degenerate,
    regular_degree,
    triangle_free,
)


def _staton_excess(g, value):
    return value - ceil((g.n + 2) / 4)


def _cubic_corpus(max_n):
    """Connected cubic graphs used as the desk-scale corpus."""
    out = []
    for name, g in sorted(catalog().items()):
        if is_cubic(g) and g.n <= max_n:
            out.append((name, g))
    extras = [
        ("path-replacement-2-1", path_replacement(2, 1)),
        ("path-replacement-2-3", path_replacement(2, 3)),
        ("cycle-replacement-3-2", cycle_replacement(3, 2)),
        ("triangle-replaced-k4", triangle_replace(complete_graph(4))),
        ("tree-gadgets-star", tree_gadget_graph(build_graph(4, [(0, 1), (0, 2), (0, 3)]))),
    ]
    out += [(name, g) for name, g in extras if g.n <= max_n]
    return out


def test_criterion_01_named_c2_values():
    expected = {"k4": 2, "k33": 2, "prism": 2, "petersen": 3, "q3": 3,
                "dodecahedron": 6, "j5": 6}
    cat = catalog()
    for name, value in expected.items():
        g = cat[name]
        res = ck_exact(g, 2)
        assert res.value == value, name
        assert is_conversion_set(g, res.witness, 2)
        assert ck_oracle(g, 2).value == value, name
    assert ceil(10 / 4) == expected["q3"]


def test_criterion_02_join_round_trip():
    for k in range(2, 7):
        for t in range(k):
            if (k * t) % 2:
                continue
            core = small_regular(k, t)
            g, seed = join_with_empty(core, k)
            assert regular_degree(g) == k
            assert seed.bit_count() == k and is_conversion_set(g, seed, k)
            res = ck_exact(g, k)
            assert res.value == k
            rest = g.full_mask & ~res.witness
            assert is_r_degenerate(g, rest, 0)  # complement independent


def test_criterion_03_extremal_family():
    for k in range(2, 7):
        g, seed = extremal_regular(k)
        assert g.n == 2 * k + 2 and regular_degree(g) == k + 1
        assert seed.bit_count() == k
        trace = run_process(g, seed, k)
        assert trace.complete
        nonseed = g.n - k
        assert nonseed < (k * (k + 1) - 1) / (k - 1)  # strict order cap
        late = trace.layer_union(2).bit_count()
        assert late <= k  # everything after the first step is small
    g3, _ = extremal_regular(3)
    assert are_isomorphic(g3, catalog()["layered4reg"])


def test_criterion_04_forest_complement_bound_with_certificates():
    for name, g in _cubic_corpus(22):
        res = ck_exact(g, 2)
        exact = Fraction(g.n + 2, 4)
        assert res.value >= ceil(exact), name
        if Fraction(res.value) == exact:
            assert equality_certificate(g, 2, res.witness) == MEETS_STATON_EQUALITY, name


def test_criterion_05_degenerate_complement_bound_dominates():
    instances = [small_regular(10, 4), small_regular(14, 4), small_regular(16, 4),
                 small_regular(10, 5), small_regular(12, 5),
                 random_regular_graph(14, 4, seed=1), random_regular_graph(16, 5, seed=2)]
    for g in instances:
        d = regular_degree(g)
        for k in range((d + 1) // 2 + (d % 2 == 0 and 0 or 0), d + 1):
            if not (k <= d < 2 * k):
                continue
            r = d - k
            value = ck_exact(g, k).value
            bound = Fraction((k - r) * g.n + (r + 1) * r, 2 * k)
            baseline = Fraction((k - r) * g.n, 2 * k)
            assert value >= ceil(bound)
            if r >= 1:
                assert bound > baseline


def test_criterion_06_replacement_excesses():
    for m in (2, 3):
        g = path_replacement(m, 1)
        value = ck_exact(g, 2).value
        assert value == 2 * m and _staton_excess(g, value) == m // 2
        g = path_replacement(m, 3)
        value = ck_exact(g, 2).value
        assert value == 2 * m and _staton_excess(g, value) == m // 2 - 1
    for m in (3,):
        for block in (2, 4):
            g = cycle_replacement(m, block)
            value = ck_exact(g, 2).value
            assert value == 2 * m and _staton_excess(g, value) == (m - 1) // 2


def test_criterion_07_triangle_replacement():
    t = triangle_replace(catalog()["petersen"])
    assert t.n == 30 and bridges(t) == [] and chromatic_class(t) == CLASS2
    packing = [e for e in lower_bounds(t, 2) if e.name == "disjoint-cycles"]
    assert packing and packing[0].integer_value >= 10
    assert 10 - ceil((t.n + 2) / 4) >= 2  # bound already exceeds the base bound
    tk4 = triangle_replace(complete_graph(4))
    res = ck_exact(tk4, 2)
    assert res.value == 4
    for copy in range(4):  # one seed vertex inside each triangle
        triangle = vset(range(copy * 3, copy * 3 + 3))
        assert res.witness & triangle


def test_criterion_08_product_theorems():
    cat = catalog()
    prod = product_deleted(complete_graph(4), cat["g1"])
    assert prod.n == 28 and is_cubic(prod) and girth(prod) >= 4
    assert is_k_connected(prod, 3)
    res = ck_exact(prod, 2)
    assert res.value == 8 == 4 * 2
    assert Fraction(res.value, prod.n) == Fraction(2, 7)
    # chromatic-index law: the product is Class 1 iff both factors are
    bridged = path_replacement(2, 1)
    pairs = [
        (complete_graph(4), complete_graph(4), CLASS1),
        (complete_graph(4), cat["petersen"], CLASS2),
        (bridged, complete_graph(4), CLASS2),
        (bridged, cat["petersen"], CLASS2),
    ]
    for host, inner, expected in pairs:
        assert chromatic_class(product_deleted(host, inner)) == expected
    # order-66 instance, bound-only: three seeds are needed inside every
    # deleted-copy of the order-12 factor, beating the ceiled base bound
    big = product_deleted(cat["k33"], cat["blob"])
    assert big.n == 66 and is_cubic(big)
    per_copy_total = 6 * 3
    assert per_copy_total == 18 > ceil((big.n + 2) / 4)
    from itertools import combinations

    piece = cat["blob"]
    removed = piece.n - 1
    copy_vertices = [v for v in range(piece.n) if v != removed]
    for pair in combinations(copy_vertices, 2):
        # pre-converting the deleted vertex over-approximates every bit of
        # outside help a copy can receive; two in-copy seeds never suffice
        trace = run_process(piece, vset(pair) | 1 << removed, 2)
        assert not trace.complete


def test_criterion_09_doubled_block():
    g = doubled_block(catalog()["petersen"], 0, 1)
    assert g.n == 16 and is_cubic(g)
    assert girth(g) >= 5 and is_k_connected(g, 3)


def test_criterion_10_cubic_upper_bounds():
    cat = catalog()
    exact_family = [(tree_gadget_graph(path_graph(2)), 4),
                    (tree_gadget_graph(build_graph(4, [(0, 1), (0, 2), (0, 3)])), 7)]
    for g, expected in exact_family:
        assert is_tree_gadget_graph(g)
        assert ck_exact(g, 2).value == expected == (3 * g.n + 2) // 8
    for name, g in _cubic_corpus(18):
        if g.n <= 4:
            continue
        value = ck_exact(g, 2).value
        if is_tree_gadget_graph(g):
            assert value == (3 * g.n + 2) // 8, name
        else:
            assert value <= floor(3 * g.n / 8), name
        excluded = are_isomorphic(g, cat["g1"]) or are_isomorphic(g, cat["g2"])
        if triangle_free(g) and not excluded:
            assert value <= floor(g.n / 3), name
        if excluded:
            assert value > floor(g.n / 3), name
        if is_k_connected(g, 2):
            assert value <= floor((g.n + 2) / 3), name


def test_criterion_11_randomized_property_suites():
    rng = random.Random(20260823)
    # conversion monotonicity and immune-set duality
    for _ in range(150):
        n = rng.randrange(2, 10)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        g = build_graph(n, edges)
        k = rng.randrange(1, 4)
        s = vset([v for v in range(n) if rng.random() < 0.4])
        bigger = s | vset([rng.randrange(n)])
        if is_conversion_set(g, s, k):
            assert is_conversion_set(g, bigger, k)
        rest = g.full_mask & ~s
        if rest:
            assert is_conversion_set(g, s, k) == (not contains_k_immune_set(g, rest, k))
    # characterization agreement on 500 regular instances
    count = 0
    i = 0
    while count < 500:
        i += 1
        d = 3 + i % 3
        n = 8 + 2 * (i % 4)
        if (n * d) % 2:
            continue
        g = random_regular_graph(n, d, seed=40000 + i)
        s = vset([v for v in range(n) if rng.random() < 0.5])
        for k in range((d + 1) // 2, d + 1):
            rep = characterization_check(g, s, k)
            assert rep.simulated == rep.complement_rule
            count += 1
    # edge-count law with equality iff maximality
    for _ in range(60):
        r = rng.randrange(1, 4)
        n = rng.randrange(r + 2, r + 8)
        edges = [(u, v) for u in range(r + 1) for v in range(u + 1, r + 1)]
        for v in range(r + 1, n):
            for u in rng.sample(range(v), r):
                edges.append((u, v))
        g = build_graph(n, edges)
        assert g.edge_count == r * n - r * (r + 1) // 2
        assert is_maximal_r_degenerate(g, r)
