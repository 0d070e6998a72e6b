"""The explicit-stack backtracking searches, edge colouring and graph
isomorphism, against the recursive versions they replaced, kept here
verbatim as references."""

import random

from convlab.constructions import generalized_petersen, random_regular_graph
from convlab.graph import are_isomorphic, bits, build_graph, path_graph
from convlab.structure import CLASS1, chromatic_class, edge_coloring


def reference_dfs_edge_order(g):
    """Edge ids ordered by a DFS tour from vertex 0 (ties by lowest id)."""
    edges = g.edges()
    eid = {e: i for i, e in enumerate(edges)}
    order = []
    seen_e = set()
    visited = [False] * g.n
    for root in range(g.n):
        if visited[root]:
            continue
        stack = [root]
        visited[root] = True
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                e = (min(v, w), max(v, w))
                if e not in seen_e:
                    seen_e.add(e)
                    order.append(eid[e])
                if not visited[w]:
                    visited[w] = True
                    stack.append(w)
    return [edges[i] for i in order]


def reference_edge_coloring(g, num_colors):
    """Proper edge colouring with the given palette, or None.

    Backtracking over edges in DFS-tour order; at each step the most
    constrained edge is coloured first (forced colours propagate), ties by
    edge position.  Deterministic.
    """
    edges = reference_dfs_edge_order(g)
    m = len(edges)
    full = (1 << num_colors) - 1
    vused = [0] * g.n
    colors = [-1] * m
    # symmetry breaking: edges at the first branch vertex get fixed colours
    uncolored = set(range(m))

    def choose():
        best = None
        best_key = None
        for i in uncolored:
            u, v = edges[i]
            avail = full & ~(vused[u] | vused[v])
            k = avail.bit_count()
            if k == 0:
                return i, 0
            key = (k, i)
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best, best_key[0]

    def solve():
        if not uncolored:
            return True
        i, navail = choose()
        if navail == 0:
            return False
        u, v = edges[i]
        avail = full & ~(vused[u] | vused[v])
        uncolored.discard(i)
        for col in bits(avail):
            bit = 1 << col
            colors[i] = col
            vused[u] |= bit
            vused[v] |= bit
            if solve():
                return True
            vused[u] &= ~bit
            vused[v] &= ~bit
            colors[i] = -1
        uncolored.add(i)
        return False

    # fix the colours of the edges at vertex 0 (colour classes are
    # interchangeable, so this loses no solutions)
    first = [i for i, (u, v) in enumerate(edges) if u == 0 or v == 0]
    for col, i in enumerate(first[:num_colors]):
        u, v = edges[i]
        if (vused[u] | vused[v]) & (1 << col):
            break
        colors[i] = col
        vused[u] |= 1 << col
        vused[v] |= 1 << col
        uncolored.discard(i)

    if not solve():
        return None
    out = {}
    for i, e in enumerate(edges):
        out[e] = colors[i]
    return out


def reference_are_isomorphic(g, h):
    """Backtracking isomorphism test for small graphs (degree-refined)."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    degs_g = g.degrees()
    degs_h = h.degrees()
    order = sorted(range(g.n), key=lambda v: (-degs_g[v], v))
    mapping = [-1] * g.n
    used = [False] * h.n

    def extend(i):
        if i == g.n:
            return True
        v = order[i]
        for w in range(h.n):
            if used[w] or degs_h[w] != degs_g[v]:
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if g.has_edge(v, u) != h.has_edge(w, mapping[u]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    return extend(0)


def _random_graph(rng, n, p):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < p])


def _relabelled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _assert_proper(g, coloring, num_colors):
    assert sorted(coloring) == g.edges()
    assert all(0 <= c < num_colors for c in coloring.values())
    for v in range(g.n):
        at_v = [c for e, c in coloring.items() if v in e]
        assert len(at_v) == len(set(at_v))


def _coloring_cases():
    rng = random.Random(5)
    for _ in range(1500):
        yield _random_graph(rng, rng.randrange(0, 10), rng.uniform(0.1, 0.9))
    for i in range(240):
        n = rng.randrange(4, 21, 2)
        yield random_regular_graph(n, 3, seed=i)


def test_edge_coloring_matches_recursive_reference():
    calls = 0
    for g in _coloring_cases():
        for num_colors in range(1, 5):
            got = edge_coloring(g, num_colors)
            assert (got is None) == (reference_edge_coloring(g, num_colors) is None)
            if got is not None:
                _assert_proper(g, got, num_colors)
            calls += 1
    assert calls == 6960


def test_are_isomorphic_matches_recursive_reference():
    rng = random.Random(7)
    pairs = 0
    for _ in range(600):
        n = rng.randrange(1, 9)
        p = rng.uniform(0.2, 0.8)
        g = _random_graph(rng, n, p)
        for h in (_relabelled(rng, g), _random_graph(rng, n, p)):
            assert are_isomorphic(g, h) == reference_are_isomorphic(g, h)
            pairs += 1
    seen = {True: 0, False: 0}
    for i in range(300):
        n = rng.choice((6, 8, 10))
        g = random_regular_graph(n, 3, seed=2 * i)
        h = random_regular_graph(n, 3, seed=2 * i + 1)
        for other in (h, _relabelled(rng, g)):
            answer = are_isomorphic(g, other)
            assert answer == reference_are_isomorphic(g, other)
            seen[answer] += 1
    # the cubic pairs exercise both answers, past the degree filter
    assert seen[True] > 300 and seen[False] > 100


def test_gp_400_1_is_class1_without_recursion():
    g = generalized_petersen(400, 1)
    assert chromatic_class(g) == CLASS1
    _assert_proper(g, edge_coloring(g, 3), 3)


def test_long_paths_are_isomorphic_without_recursion():
    assert are_isomorphic(path_graph(1500), path_graph(1500))
