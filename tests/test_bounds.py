import json
from fractions import Fraction
from math import ceil

import pytest

from convlab.bounds import (
    MEETS_GENERAL_EQUALITY,
    MEETS_STATON_EQUALITY,
    NO_EQUALITY,
    equality_certificate,
    lower_bounds,
    upper_bounds_cubic,
)
from convlab.constructions import (catalog, path_replacement, random_regular_graph, small_regular,
                                   tree_gadget_graph, triangle_replace)
from convlab.graph import (are_isomorphic, build_graph, circulant_graph, complete_graph, disjoint_union,
                           path_graph, vset)
from convlab.cli import EXIT_PASS, main
from convlab.fileio import to_edge_list
from convlab.solver import ck_exact, ck_oracle
from convlab.structure import is_k_connected, triangle_free


def _entry(entries, name):
    found = [e for e in entries if e.name == name]
    assert len(found) == 1, name
    return found[0]


def test_petersen_lower_bound_entries():
    entries = lower_bounds(catalog()["petersen"], 2)
    assert _entry(entries, "forest-complement").integer_value == 3
    assert _entry(entries, "forest-complement").value == Fraction(12, 4)
    assert _entry(entries, "degenerate-complement").value == Fraction(12, 4)
    assert _entry(entries, "regular-ratio").value == Fraction(10, 4)
    assert _entry(entries, "near-double-degree").value == Fraction(12, 4)
    assert _entry(entries, "seed-size").integer_value == 2


def test_unconvertible_graph_bound():
    entries = lower_bounds(path_graph(4), 5)
    assert [e.name for e in entries] == ["no-convertible-vertex"]
    assert entries[0].integer_value == 4


def test_disjoint_cycles_entry_on_triangle_replaced():
    t = triangle_replace(catalog()["petersen"])
    entry = _entry(lower_bounds(t, 2), "disjoint-cycles")
    assert entry.integer_value >= 10


def test_degenerate_bound_formula():
    g = small_regular(12, 5)
    entry = _entry(lower_bounds(g, 3), "degenerate-complement")
    assert entry.value == Fraction(1 * 12 + 3 * 2, 6)


def test_general_dominates_baseline_grid():
    for k in range(2, 7):
        for r in range(1, k):
            for n in range(2 * (k + r), 40, 2):
                general = Fraction((k - r) * n + (r + 1) * r, 2 * k)
                baseline = Fraction((k - r) * n, 2 * k)
                zaker = Fraction(n + 2 * (k - 1), 2 * k)
                assert general - baseline == Fraction((r + 1) * r, 2 * k) > 0
                if r == k - 1:
                    assert general >= zaker


def test_bounds_nondecreasing_in_n():
    for k in range(2, 6):
        for r in range(0, k):
            values = [Fraction((k - r) * n + (r + 1) * r, 2 * k) for n in range(10, 30)]
            assert values == sorted(values)


def test_solver_within_all_bounds():
    for name in ("petersen", "q3", "g1", "heawood"):
        g = catalog()[name]
        value = ck_exact(g, 2).value
        for e in lower_bounds(g, 2):
            assert value >= e.integer_value, (name, e.name)
        for e in upper_bounds_cubic(g):
            assert value <= e.integer_value, (name, e.name)


def test_upper_bounds_applicability():
    pet = catalog()["petersen"]
    names = [e.name for e in upper_bounds_cubic(pet)]
    assert "three-eighths" in names and "one-third" in names and "two-connected" in names
    g1 = catalog()["g1"]
    names1 = [e.name for e in upper_bounds_cubic(g1)]
    assert "one-third" not in names1  # excluded order-8 exception
    tk4 = triangle_replace(complete_graph(4))
    names2 = [e.name for e in upper_bounds_cubic(tk4)]
    assert "one-third" not in names2  # has triangles
    with pytest.raises(ValueError):
        upper_bounds_cubic(complete_graph(4))


def _cubic_graphs_of_order_8():
    """Every labelled cubic graph on 0..7 with N(0) = {1, 2, 3}: the other
    nine edges, each vertex joined to higher ones in increasing order."""
    need = [0, 2, 2, 2, 3, 3, 3, 3]
    stack = [((), need)]
    while stack:
        edges, left = stack.pop()
        v = next((x for x in range(8) if left[x]), None)
        if v is None:
            yield build_graph(8, [(0, 1), (0, 2), (0, 3)] + list(edges))
            continue
        last = max((w for x, w in edges if x == v), default=v)
        for w in range(last + 1, 8):
            if left[w]:
                rest = list(left)
                rest[v] -= 1
                rest[w] -= 1
                stack.append((edges + ((v, w),), rest))


def test_triangle_free_cubic_graphs_of_order_8_are_g1_and_g2():
    # upper_bounds_cubic leaves out every triangle-free cubic graph of order
    # 8 from the n/3 bound, because g1 and g2 are all of them
    cat = catalog()
    graphs = list(_cubic_graphs_of_order_8())
    assert len(graphs) == 553
    found = set()
    for g in graphs:
        if triangle_free(g):
            matches = [name for name in ("g1", "g2") if are_isomorphic(g, cat[name])]
            assert len(matches) == 1, g.edges()
            found.add(matches[0])
            assert "one-third" not in [e.name for e in upper_bounds_cubic(g)]
    assert sum(triangle_free(g) for g in graphs) == 96
    assert found == {"g1", "g2"}
    assert are_isomorphic(cat["g2"], cat["q3"])
    assert are_isomorphic(cat["g1"], circulant_graph(8, (1, 4)))


def test_two_connected_entry_matches_vertex_connectivity():
    # the entry tests for bridges: a cubic graph has a cut vertex iff it has one
    graphs = [random_regular_graph(n, 3, seed) for n in range(6, 31, 2) for seed in range(13)]
    graphs += [path_replacement(m, leaf) for m in range(2, 7) for leaf in (1, 3)]
    graphs += [disjoint_union(complete_graph(4), catalog()["petersen"])]
    for g in graphs:
        names = [e.name for e in upper_bounds_cubic(g)]
        assert ("two-connected" in names) == is_k_connected(g, 2), g.edges()


def test_cubic_upper_bounds_hold_on_disconnected_graphs(capsys, tmp_path):
    # 3n/8 is 3 on 2K4 and n/3 is 16/3 on g1 + g2, below c_2 = 4 and 6: the
    # bounds are theorems about connected graphs
    cat = catalog()
    graphs = {"2k4": disjoint_union(cat["k4"], cat["k4"]),
              "g1+g2": disjoint_union(cat["g1"], cat["g2"]),
              "k4+petersen": disjoint_union(cat["k4"], cat["petersen"])}
    for name, g in graphs.items():
        value = ck_exact(g, 2).value
        assert all(e.integer_value >= value for e in upper_bounds_cubic(g)), name
        path = tmp_path / f"{name}.txt"
        path.write_text(to_edge_list(g))
        assert main(["bounds", "--graph", str(path), "-k", "2", "--json"]) == EXIT_PASS
        entries = json.loads(capsys.readouterr().out)
        assert entries and all(e["integer_value"] >= value for e in entries
                               if e["kind"] == "upper"), name


def test_tree_gadget_exact_entry():
    g = tree_gadget_graph(path_graph(2))
    entry = _entry(upper_bounds_cubic(g), "tree-gadget-exact")
    assert entry.value == Fraction(3 * g.n + 2, 8) == 4
    # two adjacent internal vertices: the tree shaped like the letter H
    h = tree_gadget_graph(build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]))
    entry = _entry(upper_bounds_cubic(h), "tree-gadget-exact")
    assert h.n == 26 and entry.value == ck_exact(h, 2).value == 10


def test_equality_certificate_petersen():
    g = catalog()["petersen"]
    res = ck_exact(g, 2)
    assert equality_certificate(g, 2, res.witness) == MEETS_STATON_EQUALITY


def test_equality_certificate_k4_gap():
    # the ceiled bound is met although no witness attains the exact rational
    g = complete_graph(4)
    value = ck_oracle(g, 2).value
    assert value == 2 == ceil((4 + 2) / 4)
    assert value == max(e.integer_value for e in lower_bounds(g, 2))
    exact = Fraction(4 + 2, 4)
    assert Fraction(value) != exact
    from itertools import combinations

    from convlab.process import is_conversion_set

    for pair in combinations(range(4), 2):
        if is_conversion_set(g, vset(pair), 2):
            assert equality_certificate(g, 2, vset(pair)) == NO_EQUALITY


def test_equality_certificate_general_r2():
    # 5-regular K6: threshold 3, r = 2; complement of a minimum set is
    # maximal 2-degenerate only when the bound is exactly attained
    g = complete_graph(6)
    res = ck_exact(g, 3)
    cert = equality_certificate(g, 3, res.witness)
    exact = Fraction((3 - 2) * 6 + 3 * 2, 6)
    if Fraction(res.value) == exact:
        assert cert == MEETS_GENERAL_EQUALITY
    else:
        assert cert == NO_EQUALITY


def test_certificate_rejects_non_conversion_set():
    with pytest.raises(ValueError, match="does not convert"):
        equality_certificate(catalog()["petersen"], 2, vset([0]))


def test_certificate_disagreement_raises(monkeypatch):
    # each seed is independent and misses the exact bound, so a maximality
    # check that says yes contradicts the numbers; the error must not
    # depend on `assert` (python -O).  r = 1: a colour class of the cube
    # converts, but the rest is 4 isolated vertices, no tree, and 4 seeds
    # miss 10/4.  r = 2: the witness on this 5-regular circulant misses 16/6
    circulant = small_regular(10, 5)
    cases = [(catalog()["q3"], 2, vset([0, 2, 5, 7])),
             (circulant, 3, ck_exact(circulant, 3).witness)]
    for g, k, seed in cases:
        assert equality_certificate(g, k, seed) == NO_EQUALITY
    monkeypatch.setattr("convlab.bounds.is_maximal_r_degenerate", lambda h, r: True)
    for g, k, seed in cases:
        with pytest.raises(RuntimeError, match="internal error"):
            equality_certificate(g, k, seed)


def test_best_lower_bound():
    for name, best in (("petersen", 3), ("dodecahedron", 6)):
        assert max(e.integer_value for e in lower_bounds(catalog()[name], 2)) == best
