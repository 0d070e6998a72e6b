"""Verification suites: each suite checks one structural theorem about the
conversion process over a deterministic corpus of constructed instances.

Suites report per-instance expected/observed pairs so failures are
replayable; run_suites executes the requested suites one after another.
"""

import time
from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .bounds import (
    MEETS_STATON_EQUALITY,
    equality_certificate,
    lower_bounds,
    upper_bounds_cubic,
)
from .constructions import (
    building_block,
    catalog,
    catalog_graph,
    cycle_replacement,
    doubled_block,
    extremal_regular,
    join_with_empty,
    path_graph,
    path_replacement,
    product_deleted,
    random_regular_graph,
    small_regular,
    tree_gadget_graph,
    triangle_replace,
)
from .graph import (
    are_isomorphic,
    build_graph,
    complete_graph,
    induced_subgraph,
    vset,
    vset_members,
)
from .process import (
    characterization_check,
    contains_k_immune_set,
    is_conversion_set,
    run_process,
)
from .search import max_r_degenerate_set
from .solver import ck_exact, subset_sweep, verify_witness
from .structure import (
    CLASS1,
    CLASS2,
    bridge_pieces,
    bridges,
    chromatic_class,
    cyclic_edge_connectivity_at_least,
    girth,
    is_k_connected,
    is_r_degenerate,
    regular_degree,
    triangle_free,
)


@dataclass(frozen=True)
class Instance:
    description: str
    expected: object
    observed: object

    @property
    def passed(self):
        return self.expected == self.observed


@dataclass(frozen=True)
class VerificationOutcome:
    suite: str
    instances: tuple
    runtime: float

    @property
    def passed(self):
        return all(i.passed for i in self.instances)

    def to_dict(self):
        return {
            "suite": self.suite,
            "passed": self.passed,
            "runtime": self.runtime,
            "instances": [
                {"description": i.description, "expected": repr(i.expected),
                 "observed": repr(i.observed), "passed": i.passed}
                for i in self.instances
            ],
        }


def _check(out, description, expected, observed):
    out.append(Instance(description=description, expected=expected, observed=observed))


def _cubic_corpus(max_n):
    """Named cubic graphs plus small constructed instances, deterministic."""
    items = [(name, g) for name, g in sorted(catalog().items())
             if regular_degree(g) == 3 and g.n <= max_n]
    extras = [
        ("path-replacement(2,1)", path_replacement(2, 1)),
        ("path-replacement(2,3)", path_replacement(2, 3)),
        ("cycle-replacement(3,2)", cycle_replacement(3, 2)),
        ("tree-gadgets(k2)", tree_gadget_graph(path_graph(2))),
        ("tree-gadgets(star)", tree_gadget_graph(build_graph(4, [(0, 1), (0, 2), (0, 3)]))),
    ]
    items += [(n, g) for n, g in extras if g.n <= max_n]
    return items


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


# largest k of the seed-layer and join suites
SEED_LAYER_MAX_K = 6


def suite_join_regular():
    """k-regular graphs with a size-k conversion seed are exactly the joins
    of a t-regular order-k core with k - t isolated vertices."""
    out = []
    for k in range(2, SEED_LAYER_MAX_K + 1):
        for t in range(k):
            if (k * t) % 2:
                continue
            core = small_regular(k, t)
            g, seed = join_with_empty(core, k)
            _check(out, f"join k={k} t={t}: regular degree", k, regular_degree(g))
            _check(out, f"join k={k} t={t}: seed converts", True,
                   is_conversion_set(g, seed, k))
            res = ck_exact(g, k)
            _check(out, f"join k={k} t={t}: c_k = k", k, res.value)
            rest = g.full_mask & ~res.witness
            indep = all(g.adj[v] & rest == 0 for v in vset_members(rest))
            _check(out, f"join k={k} t={t}: complement independent", True, indep)
    return out


def suite_extremal_order():
    """The closed-form extremal construction yields a (k+1)-regular graph
    of the maximum order 2k+2 converted by k seeds."""
    out = []
    for k in range(2, SEED_LAYER_MAX_K + 1):
        g, seed = extremal_regular(k)
        _check(out, f"extremal k={k}: order", 2 * k + 2, g.n)
        _check(out, f"extremal k={k}: regular degree", k + 1, regular_degree(g))
        _check(out, f"extremal k={k}: size-k seed converts", True,
               is_conversion_set(g, seed, k))
    g3, _ = extremal_regular(3)
    _check(out, "extremal k=3 matches the catalog order-8 4-regular graph",
           True, are_isomorphic(g3, catalog_graph("layered4reg")))
    return out


def _seed_layer_instances():
    """(graph, k, seed) triples: (k+1)-regular with a converting seed of
    size k."""
    triples = []
    for k in range(2, SEED_LAYER_MAX_K + 1):
        g, seed = extremal_regular(k)
        triples.append((f"extremal k={k}", g, k, seed))
    for name, g in (("k4", complete_graph(4)), ("k33", catalog_graph("k33")),
                    ("prism", catalog_graph("prism"))):
        triples.append((f"{name} k=2", g, 2, ck_exact(g, 2).witness))
    return triples


def suite_nonseed_bound():
    """With a size-k seed in a (k+1)-regular graph, strictly fewer than
    (k(k+1)-1)/(k-1) vertices lie outside the seed."""
    out = []
    for name, g, k, seed in _seed_layer_instances():
        nonseed = g.n - seed.bit_count()
        _check(out, f"{name}: non-seed count < (k(k+1)-1)/(k-1)", True,
               Fraction(nonseed) < Fraction(k * (k + 1) - 1, k - 1))
    return out


def suite_late_layer_bound():
    """With a size-k seed in a (k+1)-regular graph, at most k vertices
    convert at step two or later, and the first-layer refinement holds."""
    out = []
    for name, g, k, seed in _seed_layer_instances():
        trace = run_process(g, seed, k)
        late = trace.layer_union(2).bit_count()
        s1 = trace.layers[1].bit_count() if len(trace.layers) > 1 else 0
        _check(out, f"{name}: late conversions <= k", True, late <= k)
        _check(out, f"{name}: late conversions within refined cap", True,
               Fraction(late) <= Fraction(k * (k + 1) + s1 * (1 - k) - 1, k - 1))
    return out


def suite_forest_complement_bound():
    """Cubic graphs: c_2 >= ceil((n+2)/4); when the exact rational is
    attained the witness seed is independent with a tree complement."""
    out = []
    for name, g in _cubic_corpus(20):
        res = ck_exact(g, 2)
        lb = ceil((g.n + 2) / 4)
        _check(out, f"{name}: c_2 >= ceil((n+2)/4)", True, res.value >= lb)
        cert = equality_certificate(g, 2, res.witness)
        exact = Fraction(g.n + 2, 4)
        if Fraction(res.value) == exact:
            _check(out, f"{name}: exact-bound witness certificate",
                   MEETS_STATON_EQUALITY, cert)
    return out


def suite_degenerate_complement_bound():
    """(k+r)-regular graphs: c_k >= ((k-r)n + (r+1)r)/(2k), strictly above
    the (k-r)n/(2k) baseline for r >= 1."""
    out = []
    insts = [("4-regular circulant n=10", small_regular(10, 4)),
             ("4-regular circulant n=12", small_regular(12, 4)),
             ("5-regular circulant n=12", small_regular(12, 5)),
             ("5-regular circulant n=14", small_regular(14, 5)),
             ("4-regular extremal", extremal_regular(3)[0]),
             ("5-regular extremal", extremal_regular(4)[0])]
    for name, g in insts:
        d = regular_degree(g)
        for k in range(d // 2 + 1, d + 1):
            r = d - k
            res = ck_exact(g, k)
            val = Fraction((k - r) * g.n + (r + 1) * r, 2 * k)
            base = Fraction((k - r) * g.n, 2 * k)
            _check(out, f"{name} k={k}: c_k >= bound", True,
                   Fraction(res.value) >= val)
            if r >= 1:
                _check(out, f"{name} k={k}: bound beats baseline", True, val > base)
    return out


def suite_characterization():
    """Simulation agrees with the degenerate-complement rule on random
    regular graphs for every threshold that makes the rule apply."""
    import random as _random

    seed = 20260823
    rng = _random.Random(seed)
    out = []
    mismatches = 0
    checked = 0
    for i in range(120):
        d = rng.choice([3, 4, 5])
        n = rng.choice([8, 10, 12, 14])
        g = random_regular_graph(n, d, seed=seed + i)
        smask = vset([v for v in range(n) if rng.random() < 0.5])
        for k in range((d + 1) // 2, d + 1):
            rep = characterization_check(g, smask, k)
            checked += 1
            if rep.simulated != rep.complement_rule:
                mismatches += 1
    _check(out, f"rule/simulation agreement over {checked} cases", 0, mismatches)
    return out


def suite_immune_duality():
    """S converts iff the complement's residual core is empty iff the
    complement holds no immune set."""
    import random as _random

    samples = 150
    rng = _random.Random(909)
    out = []
    bad = 0
    for i in range(samples):
        n = rng.randrange(4, 12)
        p = rng.uniform(0.2, 0.7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = build_graph(n, edges)
        k = rng.randrange(1, 4)
        smask = vset([v for v in range(n) if rng.random() < 0.5])
        conv = is_conversion_set(g, smask, k)
        rest = g.full_mask & ~smask
        dual = not contains_k_immune_set(g, rest, k) if rest else True
        if conv != dual:
            bad += 1
    _check(out, f"duality over {samples} random instances", 0, bad)
    return out


def suite_bridge_additivity():
    """For a cubic graph with a bridge, c_2 splits as the sum over the two
    bridge components; applied at every bridge, as the sum over the pieces
    left after deleting all bridges.

    The search splits at bridges itself, so c_2 of the whole graph must be
    settled another way: on the two 1-bridge graphs (n = 10 and 14) the
    brute-force sweep of ``verify_witness`` certifies ck_exact's value (the
    witness converts and none of the 120 and 364 smaller sets does).  On
    path-replacement(3,1) (n = 16) the sweep would take C(16, 5) = 4,368
    sets, several times the rest of the suite, so its whole value is
    ck_exact's alone.
    """
    out = []
    for m, leaf, certify in ((2, 1, True), (2, 3, True), (3, 1, False)):
        g = path_replacement(m, leaf)
        _check(out, f"path-replacement({m},{leaf}): bridge count", m - 1, len(bridges(g)))
        total = sum(ck_exact(induced_subgraph(g, piece)[0], 2).value for piece in bridge_pieces(g))
        res = ck_exact(g, 2)
        if certify:
            _check(out, f"path-replacement({m},{leaf}): c_2 certified by brute force", True,
                   verify_witness(g, 2, res))
        _check(out, f"path-replacement({m},{leaf}): c_2 additivity across its bridges",
               res.value, total)
    return out


def suite_block_quota():
    """Minimum 2-conversion sets take exactly two vertices from every
    embedded building block."""
    out = []
    for i in range(1, 5):
        b = building_block(i)
        _check(out, f"block {i}: designated pair converts the block", True,
               is_conversion_set(b.graph, vset(b.conversion_pair), 2))
        # some cycle avoids v iff G - v is not a forest
        full = b.graph.full_mask
        cycles_cover = all(not is_r_degenerate(b.graph, full & ~(1 << v), 1)
                           for v in range(b.graph.n))
        _check(out, f"block {i}: no vertex lies on every cycle", True, cycles_cover)
    g = path_replacement(2, 1)  # two order-5 blocks spliced
    value = ck_exact(g, 2).value
    _check(out, "path-replacement(2,1): minimum size is two per block", 4, value)
    blocks = [vset(range(5)), vset(range(5, 10))]
    ok = all((s & b).bit_count() == 2 for s in subset_sweep(g, value)
             if is_conversion_set(g, s, 2) for b in blocks)
    _check(out, "path-replacement(2,1): every minimum set meets each block twice",
           True, ok)
    return out


def suite_cyclically_4_connected():
    """Cyclically 4-connected cubic graphs meet the ceiled lower bound."""
    out = []
    for name in ("petersen", "dodecahedron", "j5", "heawood"):
        g = catalog_graph(name)
        _check(out, f"{name}: cyclically 4-connected", True,
               cyclic_edge_connectivity_at_least(g, 4))
        _check(out, f"{name}: c_2 equals ceil((n+2)/4)",
               ceil((g.n + 2) / 4), ck_exact(g, 2).value)
    t = triangle_replace(complete_graph(4))
    _check(out, "triangle-replaced k4: not cyclically 4-connected", False,
           cyclic_edge_connectivity_at_least(t, 4))
    return out


def suite_path_replacement_excess():
    """Bridged replacements exceed the ceiled bound by the exact excesses."""
    out = []
    for m in (2, 3):
        g = path_replacement(m, 1)
        _check(out, f"path({m}) leaf-1: order", 6 * m - 2, g.n)
        value = ck_exact(g, 2).value
        _check(out, f"path({m}) leaf-1: c_2 = 2m", 2 * m, value)
        _check(out, f"path({m}) leaf-1: excess", m // 2,
               value - ceil((g.n + 2) / 4))
    return out


def suite_triangle_free_path_excess():
    out = []
    for m in (2, 3):
        g = path_replacement(m, 3)
        _check(out, f"path({m}) leaf-3: order", 6 * m + 2, g.n)
        _check(out, f"path({m}) leaf-3: triangle-free", True, triangle_free(g))
        value = ck_exact(g, 2).value
        _check(out, f"path({m}) leaf-3: c_2 = 2m", 2 * m, value)
        _check(out, f"path({m}) leaf-3: excess", m // 2 - 1,
               value - ceil((g.n + 2) / 4))
    return out


def suite_cycle_replacement_excess():
    out = []
    for m, block in ((3, 2), (3, 4)):
        g = cycle_replacement(m, block)
        _check(out, f"cycle({m}) block-{block}: order", 6 * m, g.n)
        _check(out, f"cycle({m}) block-{block}: bridgeless", 0, len(bridges(g)))
        _check(out, f"cycle({m}) block-{block}: class", CLASS1, chromatic_class(g))
        value = ck_exact(g, 2).value
        _check(out, f"cycle({m}) block-{block}: c_2 = 2m", 2 * m, value)
        _check(out, f"cycle({m}) block-{block}: excess", (m - 1) // 2,
               value - ceil((g.n + 2) / 4))
    return out


def suite_triangle_replacement():
    """Triangle replacement preserves bridges and chromatic class; its
    disjoint triangles force one conversion vertex each."""
    out = []
    pet = catalog_graph("petersen")
    t = triangle_replace(pet)
    _check(out, "triangle-replaced petersen: order", 30, t.n)
    _check(out, "triangle-replaced petersen: girth", 3, girth(t))
    _check(out, "triangle-replaced petersen: bridges", 0, len(bridges(t)))
    _check(out, "triangle-replaced petersen: class", CLASS2, chromatic_class(t))
    lb = max(e.integer_value for e in lower_bounds(t, 2) if e.name == "disjoint-cycles")
    _check(out, "triangle-replaced petersen: cycle-packing bound >= 10", True, lb >= 10)
    _check(out, "triangle-replaced petersen: excess >= 2", True,
           lb - ceil((t.n + 2) / 4) >= 2)
    tk4 = triangle_replace(complete_graph(4))
    _check(out, "triangle-replaced k4: class", CLASS1, chromatic_class(tk4))
    _check(out, "triangle-replaced k4: c_2 (one per triangle)", 4,
           ck_exact(tk4, 2).value)
    return out


def suite_product_structure():
    """The vertex-deleted product keeps regularity and 3-connectivity and
    does not shrink the inner factor's girth."""
    out = []
    g1 = catalog_graph("g1")
    prod = product_deleted(complete_graph(4), g1)
    _check(out, "k4*g1: order", 28, prod.n)
    _check(out, "k4*g1: cubic", 3, regular_degree(prod))
    _check(out, "k4*g1: girth >= 4", True, girth(prod) >= 4)
    _check(out, "k4*g1: 3-connected", True, is_k_connected(prod, 3))
    res = ck_exact(prod, 2)
    _check(out, "k4*g1: c_2 = 8 (two per copy)", 8, res.value)
    _check(out, "k4*g1: conversion ratio", Fraction(2, 7),
           Fraction(res.value, prod.n))
    excess = res.value - ceil((prod.n + 2) / 4)
    _check(out, "k4*g1: excess >= floor((n_outer - 2)/4)", True,
           excess >= (4 - 2) // 4)
    return out


def suite_product_quota():
    """Every minimum 2-conversion set of the order-28 product takes at
    least two vertices from every inner copy, and the order-66 product
    exceeds the ceiled bound by its computed per-copy quotas: a copy's
    order minus its largest set that peels at threshold 1.  Peelability is
    hereditary, so the part in each copy of a peelable X peels under the
    same thresholds, and c_2 is at least the sum of the quotas."""
    out = []
    g1 = catalog_graph("g1")
    prod = product_deleted(complete_graph(4), g1)
    res = ck_exact(prod, 2)
    copies = [vset(range(i * 7, (i + 1) * 7)) for i in range(4)]
    quota_ok = all((res.witness & c).bit_count() >= 2 for c in copies)
    _check(out, "k4*g1: witness meets every copy at least twice", True, quota_ok)
    big = product_deleted(catalog_graph("k33"), catalog_graph("blob"))
    _check(out, "k33*blob: order", 66, big.n)
    _check(out, "k33*blob: cubic", 3, regular_degree(big))
    _check(out, "k33*blob: girth >= 4", True, girth(big) >= 4)
    _check(out, "k33*blob: 3-connected", True, is_k_connected(big, 3))
    # each of the 6 copies of the order-12 factor minus a vertex
    quotas = [11 - max_r_degenerate_set(big, 1, vset(range(11 * i, 11 * i + 11)))[0]
              for i in range(6)]
    _check(out, "k33*blob: per-copy quotas", [3] * 6, quotas)
    _check(out, "k33*blob: per-copy bound exceeds the ceiled bound", True,
           sum(quotas) > ceil((big.n + 2) / 4))
    return out


def suite_product_chromatic():
    """The product is 3-edge-colourable iff both factors are."""
    out = []
    k4 = complete_graph(4)
    pet = catalog_graph("petersen")
    bridged = path_replacement(2, 1)
    cases = [
        ("k4*k4", k4, k4, CLASS1),
        ("k4*petersen", k4, pet, CLASS2),
        ("bridged10*k4", bridged, k4, CLASS2),
        ("bridged10*petersen", bridged, pet, CLASS2),
    ]
    for name, g, a, expected in cases:
        prod = product_deleted(g, a)
        _check(out, f"{name}: chromatic class", expected, chromatic_class(prod))
    return out


def suite_doubled_block():
    """Doubling a cubic block across a girth->=4 edge keeps girth and
    3-connectivity while reaching order divisible by four."""
    out = []
    pet = catalog_graph("petersen")
    g = doubled_block(pet, 0, 1)
    _check(out, "doubled petersen: order", 16, g.n)
    _check(out, "doubled petersen: order divisible by 4", 0, g.n % 4)
    _check(out, "doubled petersen: girth >= 5", True, girth(g) >= 5)
    _check(out, "doubled petersen: 3-connected", True, is_k_connected(g, 3))
    return out


def suite_cubic_upper_bounds():
    """Tree-gadget graphs attain (3n+2)/8 exactly; all other cubic corpus
    graphs respect the 3n/8, n/3 and (n+2)/3 caps."""
    out = []
    for tree, label in ((path_graph(2), "k2"), (build_graph(4, [(0, 1), (0, 2), (0, 3)]), "star")):
        g = tree_gadget_graph(tree)
        exact = Fraction(3 * g.n + 2, 8)
        _check(out, f"tree-gadgets({label}): c_2 = (3n+2)/8", exact,
               Fraction(ck_exact(g, 2).value))
    for name, g in _cubic_corpus(18):
        if g.n <= 4:
            continue
        value = ck_exact(g, 2).value
        entries = {e.name: e for e in upper_bounds_cubic(g)}
        if "tree-gadget-exact" in entries:
            _check(out, f"{name}: exact family value", entries["tree-gadget-exact"].value,
                   Fraction(value))
        else:
            _check(out, f"{name}: c_2 <= 3n/8", True,
                   Fraction(value) <= Fraction(3 * g.n, 8))
        if "one-third" in entries:
            _check(out, f"{name}: c_2 <= n/3", True,
                   Fraction(value) <= Fraction(g.n, 3))
        if "two-connected" in entries:
            _check(out, f"{name}: c_2 <= (n+2)/3", True,
                   Fraction(value) <= Fraction(g.n + 2, 3))
    for name in ("g1", "g2"):
        g = catalog_graph(name)
        names = [e.name for e in upper_bounds_cubic(g)]
        _check(out, f"{name}: excluded from the n/3 bound", False, "one-third" in names)
        _check(out, f"{name}: c_2 exceeds n/3", True,
               Fraction(ck_exact(g, 2).value) > Fraction(g.n, 3))
    return out


SUITES = {
    "prop-kkk": suite_join_regular,
    "prop-nbound": suite_extremal_order,
    "prop-nonseedbound": suite_nonseed_bound,
    "prop-kbound": suite_late_layer_bound,
    "prop-regularlowerbound": suite_forest_complement_bound,
    "prop-kplusrreglowerbound": suite_degenerate_complement_bound,
    "prop-kplusrimmunesets": suite_characterization,
    "immune-duality": suite_immune_duality,
    "lemma-bridges": suite_bridge_additivity,
    "lemma-buildingblocks": suite_block_quota,
    "thm-4conn": suite_cyclically_4_connected,
    "prop-oneconnected": suite_path_replacement_excess,
    "prop-noyesyes": suite_triangle_free_path_excess,
    "prop-yesnono": suite_cycle_replacement_excess,
    "prop-trianglesdontmeetbound": suite_triangle_replacement,
    "prop-product-structure": suite_product_structure,
    "prop-product-quota": suite_product_quota,
    "prop-product-chromatic": suite_product_chromatic,
    "thm-getorder4r": suite_doubled_block,
    "thm-cubicupperbound": suite_cubic_upper_bounds,
}


def run_suite(suite_id):
    if suite_id not in SUITES:
        raise KeyError(f"unknown verification suite {suite_id!r}")
    start = time.perf_counter()
    instances = tuple(SUITES[suite_id]())
    return VerificationOutcome(suite=suite_id, instances=instances,
                               runtime=time.perf_counter() - start)


def run_suites(suite_ids=None):
    """Run the requested suites (default: all) serially, in request order."""
    ids = list(SUITES) if suite_ids is None else suite_ids
    return [run_suite(sid) for sid in ids]
