import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlab import solver
from convlab.bounds import equality_certificate, lower_bounds
from convlab.constructions import catalog, extremal_regular, random_regular_graph
from convlab.graph import (
    bits,
    build_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    vset,
)
from convlab.process import (
    CharacterizationReport,
    ConversionTrace,
    characterization_check,
    contains_k_immune_set,
    is_conversion_set,
    is_k_immune,
    residual_core,
    run_process,
)
from convlab.structure import girth, is_r_degenerate


def test_layered_trace_on_catalog_4regular():
    g = catalog()["layered4reg"]
    trace = run_process(g, vset([0, 1, 2]), 3)
    assert trace.complete
    assert trace.layers[1].bit_count() == 2
    assert trace.layer_union(2).bit_count() == 3
    assert trace.time == 3


def test_bipartite_converts_in_one_step():
    for r in (1, 3, 5):
        g = complete_bipartite(3, r)
        trace = run_process(g, vset(range(3)), 3)
        assert trace.complete and trace.time == 1


def test_single_seed_stalls_on_cycle():
    trace = run_process(cycle_graph(5), vset([0]), 2)
    assert not trace.complete
    assert trace.converted == vset([0])


def test_empty_seed_incomplete():
    trace = run_process(cycle_graph(4), 0, 1)
    assert not trace.complete and trace.time == 0


def test_threshold_must_be_positive():
    with pytest.raises(ValueError):
        run_process(cycle_graph(4), 0, 0)


@pytest.mark.parametrize("k, error", [(0, ValueError), (1.5, TypeError), (2.0, TypeError),
                                      ("2", TypeError)])
@pytest.mark.parametrize("call", [lambda g, k: run_process(g, 0b1, k),
                                  lambda g, k: residual_core(g, g.full_mask, k),
                                  lambda g, k: solver.ck_exact(g, k),
                                  lambda g, k: lower_bounds(g, k)],
                         ids=["run_process", "residual_core", "ck_exact", "lower_bounds"])
def test_every_threshold_entry_point_rejects_bad_k(monkeypatch, call, k, error):
    # each rejects k before any simulation or search: 1.5 must not run as
    # k = 2, nor 2.0 reach the search's list indexing
    def search(*args):
        pytest.fail("the search started")

    monkeypatch.setattr(solver, "max_r_degenerate_set", search)
    with pytest.raises(error):
        call(catalog()["petersen"], k)


@pytest.mark.parametrize("mask", [0b1000, 0b1111, -1])
def test_masks_outside_the_graph_rejected(mask):
    # a stray bit would keep `converted` from ever equalling the full mask,
    # or index past the adjacency rows in the peel and the girth scan
    g = path_graph(3)
    for call in (run_process, is_conversion_set, residual_core, is_k_immune,
                 contains_k_immune_set, characterization_check, is_r_degenerate,
                 lambda g, mask, _: girth(g, mask)):
        with pytest.raises(ValueError, match="outside 0..2"):
            call(g, mask, 1)


def test_none_seed_is_every_vertex():
    # the wrappers read their set through Graph.vertex_set as well
    g = catalog()["petersen"]
    for call in (is_conversion_set, is_k_immune, contains_k_immune_set, characterization_check,
                 lambda g, mask, k: equality_certificate(g, k, mask)):
        assert call(g, None, 2) == call(g, g.full_mask, 2)


def test_masks_inside_the_graph_accepted():
    g = path_graph(3)
    assert run_process(g, 0b111, 1).complete
    assert is_conversion_set(g, 0b001, 1)
    assert residual_core(g, 0b110, 1) == 0
    assert not is_k_immune(g, 0b100, 1)
    assert characterization_check(g, 0b010, 1).simulated


def test_layers_disjoint_and_supported():
    g = catalog()["petersen"]
    trace = run_process(g, vset([0, 1, 2, 3]), 2)
    seen = 0
    for t, layer in enumerate(trace.layers):
        assert layer & seen == 0
        if t >= 1:
            for v in range(g.n):
                if layer >> v & 1:
                    assert (g.adj[v] & seen).bit_count() >= 2
        seen |= layer


def test_trace_text_form():
    trace = run_process(complete_graph(3), vset([0, 2]), 2)
    assert trace.to_text() == "0: 0 2\n1: 1\n"


def test_is_k_immune():
    g = catalog()["petersen"]
    assert is_k_immune(g, g.full_mask, 2)
    assert not is_k_immune(g, vset([0]), 2)
    assert is_k_immune(cycle_graph(5), vset(range(5)), 2)
    with pytest.raises(ValueError):
        is_k_immune(g, 0, 2)


def test_chordless_cycle_is_immune_in_cubic():
    g = catalog()["prism"]
    triangle = vset([0, 1, 2])
    assert is_k_immune(g, triangle, 2)
    assert residual_core(g, triangle, 2) == triangle


def test_residual_core_duality_named():
    g = catalog()["petersen"]
    s = vset([0, 2, 8])
    assert is_conversion_set(g, s, 2)
    assert residual_core(g, g.full_mask & ~s, 2) == 0
    bad = vset([0, 1])
    assert not is_conversion_set(g, bad, 2)
    assert contains_k_immune_set(g, g.full_mask & ~bad, 2)


@st.composite
def graph_and_sets(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=len(possible))) if possible else []
    g = build_graph(n, edges)
    small = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    extra = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    k = draw(st.integers(min_value=1, max_value=3))
    return g, small, small | extra, k


@settings(max_examples=200, deadline=None)
@given(graph_and_sets())
def test_conversion_monotone_in_seed(data):
    g, small, big, k = data
    if is_conversion_set(g, small, k):
        assert is_conversion_set(g, big, k)


@settings(max_examples=200, deadline=None)
@given(graph_and_sets())
def test_immune_set_duality(data):
    g, small, _, k = data
    rest = g.full_mask & ~small
    converts = is_conversion_set(g, small, k)
    if rest:
        assert converts == (not contains_k_immune_set(g, rest, k))
    else:
        assert converts


@settings(max_examples=200, deadline=None)
@given(graph_and_sets())
def test_residual_core_is_unconverted_set(data):
    g, small, _, k = data
    rest = g.full_mask & ~small
    assert residual_core(g, rest, k) == g.full_mask & ~run_process(g, small, k).converted


def reference_run_process(g, seed_mask, k):
    """The process scanning every unconverted vertex in every layer."""
    layers = [seed_mask]
    converted = seed_mask
    full = g.full_mask
    while converted != full:
        new = 0
        for v in bits(full & ~converted):
            if (g.adj[v] & converted).bit_count() >= k:
                new |= 1 << v
        if not new:
            break
        layers.append(new)
        converted |= new
    return ConversionTrace(
        threshold=k,
        layers=tuple(layers),
        converted=converted,
        complete=converted == full,
        time=len(layers) - 1,
    )


@settings(max_examples=200, deadline=None)
@given(graph_and_sets())
def test_run_process_matches_full_scan(data):
    g, small, big, _ = data
    for k in range(1, 5):
        for seed in (small, big):
            assert run_process(g, seed, k) == reference_run_process(g, seed, k)


def _scan_layers(g, seed_mask, k):
    """Process layers found by counting, for every v in range(n), its
    converted neighbours; no bit iteration, so nothing shared with bits()."""
    layers = [seed_mask]
    converted = seed_mask
    while True:
        new = 0
        for v in range(g.n):
            if not converted >> v & 1 and (g.adj[v] & converted).bit_count() >= k:
                new |= 1 << v
        if not new:
            return layers
        layers.append(new)
        converted |= new


def _scan_core(g, x_mask, k):
    """Residual core found in rounds over range(n): drop every vertex of
    the set with at least k neighbours outside it, until none has."""
    core = x_mask
    while True:
        drop = 0
        for v in range(g.n):
            if core >> v & 1 and g.adj[v].bit_count() - (g.adj[v] & core).bit_count() >= k:
                drop |= 1 << v
        if not drop:
            return core
        core ^= drop


def _gnp(n, p, seed):
    rng = random.Random(seed)
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


# (graph, its degree or None, k -> seed densities).  Below k = degree the
# two densities lie on either side of the critical one: the first stalls
# and the second converts every vertex.  At k = degree a seed converts only
# when its complement is independent, so both mostly stall.  A G(n, p) draw
# has isolated vertices and never converts from these seeds.
WIDE_CASES = [
    pytest.param(lambda: random_regular_graph(500, 3, seed=1), 3,
                 {2: (0.3, 0.6), 3: (0.6, 0.95)}, id="rr500-d3"),
    pytest.param(lambda: random_regular_graph(1000, 4, seed=2), 4,
                 {2: (0.06, 0.2), 3: (0.45, 0.8), 4: (0.8, 0.97)}, id="rr1000-d4"),
    pytest.param(lambda: random_regular_graph(3000, 4, seed=3), 4,
                 {2: (0.06, 0.2), 3: (0.45, 0.8), 4: (0.9,)}, id="rr3000-d4"),
    pytest.param(lambda: random_regular_graph(2000, 3, seed=4), 3, {2: (0.3, 0.6)}, id="rr2000-d3"),
    pytest.param(lambda: _gnp(1000, 4 / 999, seed=5), None, {2: (0.1, 0.3), 3: (0.4, 0.7)}, id="gnp1000-p4"),
]


@pytest.mark.parametrize("make, degree, densities", WIDE_CASES)
def test_wide_graph_process_core_and_characterization_match_scans(make, degree, densities):
    g = make()
    full = g.full_mask
    rng = random.Random(g.n)
    seen = set()
    for k, rhos in densities.items():
        for rho in rhos:
            seed = sum(1 << v for v in range(g.n) if rng.random() < rho)
            layers = _scan_layers(g, seed, k)
            converted = 0
            for layer in layers:
                converted |= layer
            complete = converted == full
            seen.add(complete)
            trace = run_process(g, seed, k)
            assert trace == ConversionTrace(threshold=k, layers=tuple(layers), converted=converted,
                                            complete=complete, time=len(layers) - 1)
            core = residual_core(g, full & ~seed, k)
            assert core == _scan_core(g, full & ~seed, k)
            assert core == full & ~trace.converted  # the duality
            rule = None if degree is None else complete
            order = None if degree is None else degree - k
            assert characterization_check(g, seed, k) == CharacterizationReport(complete, rule, order)
    if degree is not None:
        assert seen == {False, True}  # the densities straddle the critical one


def _is_k_immune_one_pass(g, u_mask, k):
    outside = g.full_mask & ~u_mask
    return all((g.adj[v] & outside).bit_count() < k for v in bits(u_mask))


@settings(max_examples=200, deadline=None)
@given(graph_and_sets())
def test_is_k_immune_matches_one_pass(data):
    g, _, big, k = data
    if big:
        assert is_k_immune(g, big, k) == _is_k_immune_one_pass(g, big, k)


def test_characterization_regular_cases():
    pet = catalog()["petersen"]
    rep = characterization_check(pet, vset([0, 2, 8]), 2)
    assert rep.degeneracy_order == 1
    assert rep.simulated is True and rep.complement_rule is True
    rep3 = characterization_check(pet, vset([0, 2, 8]), 3)
    assert rep3.degeneracy_order == 0
    assert rep3.simulated == rep3.complement_rule
    irregular = build_graph(3, [(0, 1)])
    assert characterization_check(irregular, 1, 1).complement_rule is None


def test_extremal_trace_satisfies_layer_caps():
    for k in range(2, 7):
        g, seed = extremal_regular(k)
        trace = run_process(g, seed, k)
        assert trace.complete
        late = trace.layer_union(2).bit_count()
        assert late <= k
        assert g.n - k < (k * (k + 1) - 1) / (k - 1)
