"""Graph constructors: a catalog of named graphs plus parametric families
whose conversion numbers are known by design (building-block replacements,
vertex-deleted products, block doubling, tree-gadget graphs, ...).

Every constructor validates the structural invariants of its output (degree,
order, connectivity where promised) before returning.
"""

import random
from dataclasses import dataclass, field

from .graph import (
    Graph,
    bits,
    build_graph,
    complete_bipartite,
    complete_graph,
    is_connected,
    path_graph,
    vset,
    vset_members,
)
from .structure import is_cubic, regular_degree
from .process import is_conversion_set


class ConstructionError(ValueError):
    """Raised when constructor preconditions are not met."""


# ---------------------------------------------------------------------------
# named catalog
# ---------------------------------------------------------------------------


def generalized_petersen(n, k):
    """Outer n-cycle 0..n-1, inner vertices n..2n-1 with step-k chords."""
    if not (n >= 3 and 1 <= k < n / 2):
        raise ConstructionError(f"generalized Petersen requires n >= 3, 1 <= k < n/2, got ({n}, {k})")
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, n + i))
        edges.append((n + i, n + (i + k) % n))
    return build_graph(2 * n, edges)


def flower_snark(n):
    """The flower snark on 4n vertices (n odd, n >= 5).

    Vertex layout: centre c_i = 4i, tip t_i = 4i+1, rim x_i = 4i+2 and
    y_i = 4i+3.  Tips form an n-cycle; rim vertices form a single 2n-cycle
    x_0..x_{n-1} y_0..y_{n-1}.
    """
    if n < 5 or n % 2 == 0:
        raise ConstructionError(f"flower snark requires odd n >= 5, got {n}")
    edges = []
    for i in range(n):
        c, t, x, y = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        edges += [(c, t), (c, x), (c, y)]
        edges.append((t, 4 * ((i + 1) % n) + 1))
    for i in range(n - 1):
        edges.append((4 * i + 2, 4 * (i + 1) + 2))
        edges.append((4 * i + 3, 4 * (i + 1) + 3))
    edges.append((4 * (n - 1) + 2, 3))  # x_{n-1} -- y_0
    edges.append((4 * (n - 1) + 3, 2))  # y_{n-1} -- x_0
    return build_graph(4 * n, edges)


def prism_graph():
    return build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])


def heawood_graph():
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return build_graph(14, edges)


# Two cubic graphs of order 8 and girth 4 that are the exceptions to the
# n/3 upper bound for triangle-free cubic graphs.
_G1_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 4),
             (4, 7), (7, 0), (7, 2), (1, 6), (3, 5)]
_G2_EDGES = [(7, 0), (0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6),
             (6, 3), (5, 4), (4, 7), (7, 2), (1, 6)]

# A 4-regular graph of order 8 whose 3-conversion process from seed {0,1,2}
# runs for three steps: layer 1 = {3,4}, later layers = {5,6,7}.
_LAYERED_4REG_EDGES = [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4),
                       (5, 3), (5, 1), (5, 2), (6, 4), (6, 0), (6, 1),
                       (7, 5), (7, 6), (7, 0), (7, 2)]

# A cubic triangle-free graph of order 12 with a designated vertex "a" (11):
# an 11-cycle with four chords plus an apex joined to three cycle vertices.
_BLOB_EDGES = ([(i, (i + 1) % 11) for i in range(11)]
               + [(2, 7), (4, 9), (5, 8), (0, 6), (11, 1), (11, 3), (11, 10)])
BLOB_APEX = 11


def catalog():
    """Named graphs used throughout the test corpus and the CLI."""
    return {
        "k4": complete_graph(4),
        "k33": complete_bipartite(3, 3),
        "prism": prism_graph(),
        "q3": generalized_petersen(4, 1),
        "petersen": generalized_petersen(5, 2),
        "dodecahedron": generalized_petersen(10, 2),
        "heawood": heawood_graph(),
        "j5": flower_snark(5),
        "g1": build_graph(8, _G1_EDGES),
        "g2": build_graph(8, _G2_EDGES),
        "layered4reg": build_graph(8, _LAYERED_4REG_EDGES),
        "blob": build_graph(12, _BLOB_EDGES),
    }


def catalog_graph(name):
    graphs = catalog()
    if name not in graphs:
        raise ConstructionError(f"unknown catalog graph {name!r}; choices: {', '.join(sorted(graphs))}")
    return graphs[name]


# ---------------------------------------------------------------------------
# join construction: t-regular core joined to an independent set
# ---------------------------------------------------------------------------


def join_with_empty(h, k):
    """Join a t-regular graph of order k (t < k) with k - t isolated
    vertices.  The result is k-regular and the core is a k-conversion set
    of size k."""
    t = regular_degree(h)
    if h.n == 0 or t is None:
        raise ConstructionError("core graph must be nonempty and regular")
    if h.n != k:
        raise ConstructionError(f"core graph must have order k = {k}, got {h.n}")
    if t >= k:
        raise ConstructionError(f"core degree {t} must be below k = {k}")
    extra = k - t
    edges = h.edges()
    for j in range(extra):
        for v in range(k):
            edges.append((v, k + j))
    g = build_graph(k + extra, edges)
    if regular_degree(g) != k:
        raise RuntimeError(f"internal error: join with an empty graph is not {k}-regular")
    return g, vset(range(k))


# ---------------------------------------------------------------------------
# extremal (k+1)-regular graphs of order 2k+2 converted by k seeds
# ---------------------------------------------------------------------------


def extremal_regular(k):
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


# ---------------------------------------------------------------------------
# building blocks and replacement graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BuildingBlock:
    graph: Graph
    attachments: tuple  # degree-2 vertices, used to splice into a host
    conversion_pair: tuple  # two vertices forming a 2-conversion set


_BLOCKS = {
    1: ([(i, (i + 1) % 5) for i in range(5)] + [(1, 3), (2, 4)], (0,), (1, 4)),
    2: ([(i, (i + 1) % 6) for i in range(6)] + [(1, 4), (2, 5)], (0, 3), (1, 5)),
    3: ([(i, (i + 1) % 7) for i in range(7)] + [(1, 4), (2, 5), (3, 6)], (0,), (3, 5)),
    4: ([(i, (i + 1) % 6) for i in range(6)] + [(1, 5), (2, 4)], (0, 3), (1, 4)),
}


def building_block(i):
    """Small near-cubic blocks with exactly one or two degree-2 vertices.

    Block 1 (order 5, has triangles) and block 3 (order 7, triangle-free)
    have one attachment vertex; blocks 2 and 4 (order 6) have two.  Each
    block needs exactly two vertices in any minimum 2-conversion set of any
    cubic host containing it.
    """
    if i not in _BLOCKS:
        raise ConstructionError(f"block index must be 1..4, got {i}")
    edge_list, attach, pair = _BLOCKS[i]
    g = build_graph(max(max(e) for e in edge_list) + 1, edge_list)
    if any(g.degree(a) != 2 for a in attach):
        raise RuntimeError(f"internal error: block {i} has an attachment of degree other than 2")
    if not is_conversion_set(g, vset(pair), 2):
        raise RuntimeError(f"internal error: the pair of block {i} does not convert it")
    return BuildingBlock(graph=g, attachments=attach, conversion_pair=pair)


def _splice_blocks(host_edges, blocks):
    """Replace host vertex i by blocks[i]; host edges consume attachment
    vertices of the two endpoint blocks in ascending order."""
    offset = []
    total = 0
    for b in blocks:
        offset.append(total)
        total += b.graph.n
    edges = []
    for i, b in enumerate(blocks):
        edges += [(u + offset[i], v + offset[i]) for u, v in b.graph.edges()]
    ports = [list(b.attachments) for b in blocks]
    for i, j in host_edges:
        if not ports[i] or not ports[j]:
            raise ConstructionError(f"host degree exceeds attachment count at edge ({i}, {j})")
        edges.append((ports[i].pop(0) + offset[i], ports[j].pop(0) + offset[j]))
    if any(p for p in ports):
        raise ConstructionError("unused attachment vertices remain after splicing")
    return build_graph(total, edges)


def path_replacement(m, leaf_block=1):
    """Replace the vertices of a path on m vertices by blocks: the two leaf
    vertices by the given single-attachment block (1 or 3), internal
    vertices by block 2.  Cubic, bridged; order 6m-2 (leaf block 1) or
    6m+2 (leaf block 3); minimum 2-conversion number 2m."""
    if m < 2:
        raise ConstructionError(f"requires m >= 2, got {m}")
    if leaf_block not in (1, 3):
        raise ConstructionError("leaf block must be 1 or 3")
    leaf = building_block(leaf_block)
    mid = building_block(2)
    blocks = [leaf] + [mid] * (m - 2) + [leaf]
    g = _splice_blocks([(i, i + 1) for i in range(m - 1)], blocks)
    if not (is_cubic(g) and is_connected(g)):
        raise RuntimeError("internal error: path replacement is not a connected cubic graph")
    return g


def cycle_replacement(m, block=2):
    """Replace the vertices of a cycle on m vertices by copies of a
    two-attachment block (2 or 4).  Cubic, bridgeless, order 6m, minimum
    2-conversion number 2m."""
    if m < 3:
        raise ConstructionError(f"requires m >= 3, got {m}")
    if block not in (2, 4):
        raise ConstructionError("cycle block must be 2 or 4")
    b = building_block(block)
    g = _splice_blocks([(i, (i + 1) % m) for i in range(m)], [b] * m)
    if not (is_cubic(g) and is_connected(g)):
        raise RuntimeError("internal error: cycle replacement is not a connected cubic graph")
    return g


# ---------------------------------------------------------------------------
# vertex-deleted product and triangle replacement
# ---------------------------------------------------------------------------


def product_deleted(g, a_graph, removed=None, seed=0):
    """Replace every vertex of g by a copy of a_graph minus one vertex,
    wiring host edges through the freed attachment points.

    Both graphs must be r-regular with the same r >= 2.  ``removed`` picks
    the deleted vertex (default: highest id).  seed = 0 pairs host edges
    with attachment vertices in ascending-id order; a nonzero seed shuffles
    the pairing per copy (random.Random(seed)), which may produce a
    different member of the same product family.
    """
    r = regular_degree(g)
    if r is None or r < 2 or regular_degree(a_graph) != r:
        raise ConstructionError("both factors must be r-regular with equal r >= 2")
    if removed is None:
        removed = a_graph.n - 1
    if not 0 <= removed < a_graph.n:
        raise ConstructionError(f"removed vertex {removed} out of range")
    piece_ids = [v for v in range(a_graph.n) if v != removed]
    index = {v: i for i, v in enumerate(piece_ids)}
    piece_edges = [(index[u], index[v]) for u, v in a_graph.edges()
                   if removed not in (u, v)]
    attach = [index[v] for v in sorted(a_graph.neighbors(removed))]
    size = a_graph.n - 1
    rng = random.Random(seed) if seed else None

    edges = []
    ports = []
    for v in range(g.n):
        off = v * size
        edges += [(x + off, y + off) for x, y in piece_edges]
        p = list(attach)
        if rng is not None:
            rng.shuffle(p)
        ports.append(p)
    for u, v in g.edges():
        edges.append((ports[u].pop(0) + u * size, ports[v].pop(0) + v * size))
    out = build_graph(g.n * size, edges)
    if regular_degree(out) != r:
        raise RuntimeError(f"internal error: deleted product is not {r}-regular")
    return out


def triangle_replace(g):
    """Replace every vertex of a cubic graph by a triangle (the product
    with a one-vertex-deleted K4)."""
    if not is_cubic(g):
        raise ConstructionError("triangle replacement requires a cubic graph")
    return product_deleted(g, complete_graph(4))


# ---------------------------------------------------------------------------
# doubling a block to reach order divisible by four
# ---------------------------------------------------------------------------


def doubled_block(b, u, v):
    """Glue two copies of b - {u, v} into one cubic graph.

    Requires a cubic graph b with adjacent vertices u, v that share no
    neighbour.  With a, b' the other neighbours of u and c, d the other
    neighbours of v, the copies are joined by edges a-a', b-b', c-d' and
    d-c'.  When b is 3-connected with girth >= 4 the result is 3-connected
    with girth >= girth(b) and order |b| * 2 - 4.
    """
    if not is_cubic(b):
        raise ConstructionError("block doubling requires a cubic graph")
    if not b.has_edge(u, v):
        raise ConstructionError(f"vertices {u} and {v} must be adjacent")
    if b.adj[u] & b.adj[v]:
        raise ConstructionError(f"vertices {u} and {v} must not share a neighbour")
    keep = [x for x in range(b.n) if x not in (u, v)]
    index = {x: i for i, x in enumerate(keep)}
    base_edges = [(index[x], index[y]) for x, y in b.edges() if u not in (x, y) and v not in (x, y)]
    n1 = len(keep)
    ea, eb = sorted(w for w in b.neighbors(u) if w != v)
    ec, ed = sorted(w for w in b.neighbors(v) if w != u)
    edges = list(base_edges)
    edges += [(x + n1, y + n1) for x, y in base_edges]
    edges.append((index[ea], index[ea] + n1))
    edges.append((index[eb], index[eb] + n1))
    edges.append((index[ec], index[ed] + n1))
    edges.append((index[ed], index[ec] + n1))
    g = build_graph(2 * n1, edges)
    if not is_cubic(g):
        raise RuntimeError("internal error: doubled block is not cubic")
    return g


# ---------------------------------------------------------------------------
# tree-gadget graphs (triangles at internal vertices, pierced K4s at leaves)
# ---------------------------------------------------------------------------

_GADGET_EDGES = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 0), (4, 1)]
_GADGET_PORT = 4  # the degree-2 subdivision vertex


def tree_gadget_graph(tree):
    """Cubic graph built from a tree whose internal vertices all have
    degree 3: internal vertices become triangles, leaves become K4 with one
    edge subdivided (attached through the subdivision vertex).

    Members of this family have 2-conversion number exactly (3n + 2) / 8.
    """
    if tree.n < 2 or not is_connected(tree) or tree.edge_count != tree.n - 1:
        raise ConstructionError("input must be a tree with at least two vertices")
    for v in range(tree.n):
        if tree.degree(v) not in (1, 3):
            raise ConstructionError(f"internal vertex {v} has degree {tree.degree(v)}, expected 1 or 3")
    edges = []
    offset = []
    total = 0
    ports = []
    for v in range(tree.n):
        offset.append(total)
        if tree.degree(v) == 1:
            edges += [(x + total, y + total) for x, y in _GADGET_EDGES]
            ports.append([_GADGET_PORT])
            total += 5
        else:
            edges += [(total, total + 1), (total + 1, total + 2), (total + 2, total)]
            ports.append([0, 1, 2])
            total += 3
    for u, v in tree.edges():
        edges.append((ports[u].pop(0) + offset[u], ports[v].pop(0) + offset[v]))
    g = build_graph(total, edges)
    if not (is_cubic(g) and is_connected(g)):
        raise RuntimeError("internal error: tree gadget graph is not a connected cubic graph")
    return g


def _gadget_at(g, s):
    """If s is the subdivision vertex of a pierced-K4 gadget, return its
    five-vertex mask, else None."""
    nbrs = list(g.neighbors(s))
    for i in range(3):
        for j in range(i + 1, 3):
            w, x = nbrs[i], nbrs[j]
            if g.has_edge(w, x):
                continue
            common = g.adj[w] & g.adj[x] & ~(1 << s)
            if common.bit_count() != 2:
                continue
            y, z = vset_members(common)
            if not g.has_edge(y, z):
                continue
            group = vset([s, w, x, y, z])
            # w, x, y, z must have all three edges inside the gadget
            if all(g.adj[t] & ~group == 0 for t in (w, x, y, z)):
                return group
    return None


def is_tree_gadget_graph(g):
    """Structural recognizer for the family produced by tree_gadget_graph."""
    if not is_cubic(g) or not is_connected(g):
        return False
    gadgets = set()
    for s in range(g.n):
        group = _gadget_at(g, s)
        if group is not None:
            gadgets.add(group)
    covered = 0
    for group in gadgets:
        if covered & group:
            return False
        covered |= group
    rest = g.full_mask & ~covered
    # the remainder must split into triangles with one outside edge each
    triangles = []
    seen = 0
    for v in bits(rest):
        if seen >> v & 1:
            continue
        inside = g.adj[v] & rest
        if inside.bit_count() != 2:
            return False
        a, b = vset_members(inside)
        if not g.has_edge(a, b):
            return False
        tri = vset([v, a, b])
        if (g.adj[a] & rest & ~tri) or (g.adj[b] & rest & ~tri):
            return False
        triangles.append(tri)
        seen |= tri
    if not gadgets:
        return False
    # contract pieces and check the quotient is a tree with gadget leaves
    pieces = sorted(gadgets) + sorted(triangles)
    owner = {}
    for i, piece in enumerate(pieces):
        for v in bits(piece):
            owner[v] = i
    quotient_edges = set()
    cross = 0
    for u, v in g.edges():
        if owner[u] != owner[v]:
            quotient_edges.add((min(owner[u], owner[v]), max(owner[u], owner[v])))
            cross += 1
    if cross != len(quotient_edges):
        return False  # a double edge between pieces
    q = build_graph(len(pieces), quotient_edges)
    if not is_connected(q) or q.edge_count != q.n - 1:
        return False
    for i in range(len(gadgets)):
        if q.degree(i) != 1:
            return False
    for i in range(len(gadgets), q.n):
        if q.degree(i) != 3:
            return False
    return True


def small_regular(n, d):
    """A circulant d-regular graph on n vertices (exists iff d < n and
    n * d is even)."""
    if d < 0 or d >= n or (n * d) % 2:
        raise ConstructionError(f"no {d}-regular graph on {n} vertices exists")
    offsets = list(range(1, d // 2 + 1))
    if d % 2:
        offsets.append(n // 2)
    edges = []
    for off in offsets:
        for i in range(n):
            edges.append((i, (i + off) % n))
    g = build_graph(n, edges)
    if regular_degree(g) != d:
        raise RuntimeError(f"internal error: small_regular({n}, {d}) is not {d}-regular")
    return g


# ---------------------------------------------------------------------------
# random regular graphs (pairing model)
# ---------------------------------------------------------------------------


def random_regular_graph(n, d, seed, max_tries=50000):
    """Simple d-regular graph on n vertices via the pairing model.

    Pairs the n*d half-edges one at a time, the last remaining one with a
    uniformly chosen other, and starts over at the first loop or repeated
    pair; the accepted graphs are uniform over simple d-regular graphs.
    Deterministic for a given seed.
    """
    if n * d % 2 or d >= n or d < 0:
        raise ConstructionError(f"no {d}-regular graph on {n} vertices exists")
    rng = random.Random(seed)
    all_stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(max_tries):
        stubs = all_stubs.copy()
        edges = set()
        while stubs:
            a = stubs.pop()
            i = rng.randrange(len(stubs))
            b = stubs[i]
            stubs[i] = stubs[-1]
            stubs.pop()
            e = (a, b) if a < b else (b, a)
            if a == b or e in edges:
                break
            edges.add(e)
        else:
            return build_graph(n, sorted(edges))
    raise ConstructionError(f"failed to sample a simple {d}-regular graph in {max_tries} tries")


# ---------------------------------------------------------------------------
# recipe registry (used by the CLI)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Recipe:
    name: str
    params: dict = field(default_factory=dict)


def build_recipe(recipe):
    """Build a graph from a Recipe.  Graph-valued parameters are given as
    catalog names.  Returns the graph (plus a seed mask for recipes that
    produce one, else None)."""
    name, p = recipe.name, recipe.params
    if name == "catalog":
        return catalog_graph(p["graph"]), None
    if name == "join-empty":
        return join_with_empty(catalog_graph(p["graph"]), int(p["k"]))
    if name == "extremal":
        return extremal_regular(int(p["k"]))
    if name == "path-replacement":
        return path_replacement(int(p["m"]), int(p.get("leaf", 1))), None
    if name == "cycle-replacement":
        return cycle_replacement(int(p["m"]), int(p.get("block", 2))), None
    if name == "triangle-replace":
        return triangle_replace(catalog_graph(p["graph"])), None
    if name == "product":
        g = catalog_graph(p["graph"])
        a = catalog_graph(p["inner"])
        removed = int(p["removed"]) if "removed" in p else None
        return product_deleted(g, a, removed, int(p.get("seed", 0))), None
    if name == "doubled":
        return doubled_block(catalog_graph(p["graph"]), int(p["u"]), int(p["v"])), None
    if name == "tree-gadgets":
        t = p["tree"]
        if t == "k2":
            tree = path_graph(2)
        elif t == "star":
            tree = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        else:
            raise ConstructionError(f"unknown tree shorthand {t!r} (use k2 or star)")
        return tree_gadget_graph(tree), None
    if name == "random-regular":
        return random_regular_graph(int(p["n"]), int(p["d"]), int(p.get("seed", 0))), None
    raise ConstructionError(f"unknown recipe {name!r}")


RECIPE_NAMES = ("catalog", "join-empty", "extremal", "path-replacement",
                "cycle-replacement", "triangle-replace", "product", "doubled",
                "tree-gadgets", "random-regular")
