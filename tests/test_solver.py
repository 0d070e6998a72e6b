from math import comb

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlab.constructions import catalog, random_regular_graph, small_regular
from convlab.graph import (
    build_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
    vset_members,
)
from convlab.process import is_conversion_set
from convlab.solver import (
    ORACLE,
    SWEEP_LIMIT,
    OracleGuardExceeded,
    ck_exact,
    ck_oracle,
    forest_number,
    independence_number,
    verify_witness,
)
from convlab.verify import run_suite

EXPECTED_C2 = {
    "k4": 2,
    "k33": 2,
    "prism": 2,
    "q3": 3,
    "petersen": 3,
    "g1": 3,
    "g2": 3,
    "blob": 4,
    "heawood": 4,
    "dodecahedron": 6,
    "j5": 6,
}


def test_named_conversion_numbers():
    cat = catalog()
    for name, expected in EXPECTED_C2.items():
        res = ck_exact(cat[name], 2)
        assert res.value == expected, name
        assert is_conversion_set(cat[name], res.witness, 2)


def test_exact_agrees_with_oracle_small():
    cat = catalog()
    for name, g in sorted(cat.items()):
        if g.n > 14:
            continue
        for k in (1, 2, 3):
            assert ck_exact(g, k).value == ck_oracle(g, k).value, (name, k)


def test_exact_agrees_with_oracle_random_regular():
    for i in range(20):
        d = [3, 4, 5][i % 3]
        g = random_regular_graph(10 if d % 2 == 0 else 10, d, seed=500 + i)
        for k in range((d + 1) // 2, d + 1):
            assert ck_exact(g, k).value == ck_oracle(g, k).value


def test_oracle_witness_lex_least():
    res = ck_oracle(complete_graph(4), 2)
    assert vset_members(res.witness) == [0, 1]
    assert res.method == "Oracle"


def test_oracle_guard():
    # C31 needs 16 seeds; sizes 0 to 4 take 36,457 subsets and size 5 would
    # pass the budget, so the oracle refuses before it tries any of size 5
    assert sum(comb(31, size) for size in range(5)) == 36457
    assert 36457 + comb(31, 5) > SWEEP_LIMIT == 200_000
    with pytest.raises(OracleGuardExceeded, match=r"^brute-force sweep refused: 36457 subsets tried"):
        ck_oracle(cycle_graph(31), 2)


def test_oracle_budget_counts_subsets_not_vertices():
    res = ck_oracle(cycle_graph(40), 1)
    assert (res.value, res.nodes_explored, res.witness) == (1, 2, 1)


def test_oracle_subset_counts_pinned():
    cat = catalog()
    assert ck_oracle(cat["petersen"], 2).nodes_explored == 70
    assert ck_oracle(cat["dodecahedron"], 2).nodes_explored == 22571


def test_verify_witness_refuses_a_sweep_past_the_budget(monkeypatch):
    # c_2 of the 30-vertex path is 16: the check would sweep C(30, 15) sets
    g = path_graph(30)
    res = ck_exact(g, 2)
    assert res.value == 16 and comb(30, 15) > SWEEP_LIMIT
    calls = []
    monkeypatch.setattr("convlab.solver.is_conversion_set",
                        lambda *a: calls.append(a) or is_conversion_set(*a))
    with pytest.raises(OracleGuardExceeded):
        verify_witness(g, 2, res)
    assert len(calls) == 1  # the witness itself, and no set of the sweep


def test_verify_witness_certifies_past_thirty_vertices():
    g = cycle_graph(40)
    assert verify_witness(g, 1, ck_exact(g, 1))


def test_block_quota_suite_instances_unchanged():
    outcome = run_suite("lemma-buildingblocks")
    got = [(i["description"], i["observed"], i["passed"]) for i in outcome.to_dict()["instances"]]
    expected = []
    for i in range(1, 5):
        expected += [(f"block {i}: designated pair converts the block", "True", True),
                     (f"block {i}: no vertex lies on every cycle", "True", True)]
    expected += [("path-replacement(2,1): minimum size is two per block", "4", True),
                 ("path-replacement(2,1): every minimum set meets each block twice", "True", True)]
    assert got == expected


def test_cycle_values():
    # 2-regular, threshold 2: complement must be independent
    assert ck_exact(cycle_graph(5), 2).value == 3
    assert ck_exact(cycle_graph(6), 2).value == 3
    # threshold 1 on a cycle: one vertex spreads everywhere
    assert ck_exact(cycle_graph(6), 1).value == 1


def test_high_threshold_needs_everything():
    g = path_graph(4)
    res = ck_exact(g, 3)
    assert res.value == 4 and res.witness == g.full_mask


def test_regular_identity_with_independence():
    for name in ("k4", "k33", "prism", "petersen"):
        g = catalog()[name]
        assert ck_exact(g, 3).value == g.n - independence_number(g)


def test_independence_number_matches_networkx():
    import random

    rng = random.Random(17)
    for _ in range(25):
        n = rng.randrange(3, 13)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = build_graph(n, edges)
        nxg = nx.Graph(edges)
        nxg.add_nodes_from(range(n))
        clique, _ = nx.max_weight_clique(nx.complement(nxg), weight=None)
        assert independence_number(g) == len(clique)


def test_forest_and_decycling_numbers():
    assert forest_number(path_graph(6)) == 6
    assert forest_number(complete_graph(4)) == 2
    assert forest_number(catalog()["petersen"]) == 7
    g = catalog()["petersen"]
    assert g.n - forest_number(g) == 3  # the decycling number
    # cubic: threshold-2 conversion = decycling
    for name in ("petersen", "q3", "prism", "g1"):
        g = catalog()[name]
        assert ck_exact(g, 2).value == g.n - forest_number(g)


def test_verify_witness_confirms_minimality():
    g = catalog()["petersen"]
    res = ck_exact(g, 2)
    assert verify_witness(g, 2, res)
    fake = type(res)(value=res.value + 1, witness=res.witness | 1 << 5,
                     method=res.method, nodes_explored=0, elapsed=0.0)
    if fake.witness.bit_count() != fake.value:
        fake = type(res)(value=(res.witness | 1 << 5).bit_count(),
                         witness=res.witness | 1 << 5, method=res.method,
                         nodes_explored=0, elapsed=0.0)
    assert not verify_witness(g, 2, fake)  # a smaller set exists


def test_solver_deterministic():
    g = catalog()["j5"]
    first = ck_exact(g, 2)
    second = ck_exact(g, 2)
    assert first.value == second.value and first.witness == second.witness


def test_small_regular_inputs():
    for d in range(5):
        for n in range(d + 1, 10):
            if (n * d) % 2:
                continue
            g = small_regular(n, d)
            for k in range(max(1, (d + 1) // 2), d + 1):
                assert ck_exact(g, k).value == ck_oracle(g, k).value


@st.composite
def small_graphs(draw):
    """Graphs on at most 10 vertices of every density, with up to two
    isolated vertices; vertices of degree below k are common."""
    n = draw(st.integers(min_value=1, max_value=8))
    density = draw(st.integers(min_value=1, max_value=9)) / 10
    rnd = draw(st.randoms(use_true_random=False))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < density]
    return build_graph(n + draw(st.integers(min_value=0, max_value=2)), edges)


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.integers(min_value=1, max_value=4))
def test_exact_matches_oracle_on_any_graph(g, k):
    res = ck_exact(g, k)
    assert res.value == ck_oracle(g, k).value
    assert res.witness.bit_count() == res.value
    assert is_conversion_set(g, res.witness, k)
    assert res.method != ORACLE


def test_exact_matches_oracle_on_random_graphs():
    import random

    rng = random.Random(29)
    for _ in range(400):
        n = rng.randrange(6, 12)
        p = rng.uniform(0.1, 0.9)
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < p])
        for k in range(1, 5):
            assert ck_exact(g, k).value == ck_oracle(g, k).value, (g.edges(), k)


def test_cycle_threshold_one_past_oracle_guard():
    res = ck_exact(cycle_graph(40), 1)
    assert res.value == 1 and res.method != ORACLE


def test_paths_threshold_two():
    # both ends are seeds and every other interior vertex converts
    for n in range(1, 201):
        assert ck_exact(path_graph(n), 2).value == n // 2 + 1, n


def test_degree_below_threshold_seeds_everything():
    g = disjoint_union(path_graph(5), empty_graph(3))
    for k in (3, 4):
        res = ck_exact(g, k)
        assert res.value == g.n and res.witness == g.full_mask
        assert res.method != ORACLE


def _never_reports_oracle_graphs():
    cat = catalog()
    return [cat["petersen"], cat["k4"], path_graph(7), empty_graph(2),
            disjoint_union(cycle_graph(5), complete_graph(5))]


def test_exact_never_reports_oracle():
    for g in _never_reports_oracle_graphs():
        for k in range(1, 6):
            assert ck_exact(g, k).method != ORACLE


def test_exact_never_calls_oracle(monkeypatch):
    def refuse(g, k):
        pytest.fail("ck_exact called ck_oracle")

    monkeypatch.setattr("convlab.solver.ck_oracle", refuse)
    for g in _never_reports_oracle_graphs():
        for k in range(1, 6):
            res = ck_exact(g, k)
            assert is_conversion_set(g, res.witness, k)
