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
    circulant_graph,
    complete_bipartite,
    complete_graph,
    induced_subgraph,
    is_connected,
    path_graph,
    vset,
)
from .structure import bridge_pieces, is_cubic, regular_degree
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


def heawood_graph():
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return build_graph(14, edges)


# The two triangle-free cubic graphs of order 8, both of girth 4: g1 is the
# Wagner graph C8(1,4) and g2 the cube.  They are the exceptions to the n/3
# upper bound for triangle-free cubic graphs, which therefore leaves out
# only order 8.
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
        "prism": generalized_petersen(3, 1),
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
    g = build_graph(k + extra, h.edges() + [(v, k + j) for j in range(extra) for v in range(k)])
    if regular_degree(g) != k:
        raise RuntimeError(f"internal error: join with an empty graph is not {k}-regular")
    return g, vset(range(k))


# ---------------------------------------------------------------------------
# extremal (k+1)-regular graphs of order 2k+2 converted by k seeds
# ---------------------------------------------------------------------------


def extremal_regular(k):
    """A (k+1)-regular graph of order 2k+2 with a k-seed that converts it.

    Seeds are 0..k-1.  Non-seed k+j (0 <= j <= k+1) is joined to every seed
    except seed k+1-j, and to k+j+2 when j < k; 2k is joined to 2k+1.  The
    non-seeds form two paths k, k+2, ... and k+1, k+3, ... whose far ends
    meet, so the seeds convert the first pair and then the rest pair by pair.
    """
    if k < 2:
        raise ConstructionError(f"requires k >= 2, got {k}")
    edges = ([(s, k + j) for j in range(k + 2) for s in range(k) if s != k + 1 - j]
             + [(k + j, k + j + 2) for j in range(k)] + [(2 * k, 2 * k + 1)])
    g = build_graph(2 * k + 2, edges)
    seed_mask = vset(range(k))
    if regular_degree(g) != k + 1:
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


def _splice_blocks(host_edges, pieces):
    """Replace host vertex i by pieces[i] = (order, edges, ports); each host
    edge, in the given order, joins the next unused port of each endpoint's
    piece."""
    offset = [0]
    for order, _, _ in pieces:
        offset.append(offset[-1] + order)
    edges = [(x + off, y + off) for off, (_, piece_edges, _) in zip(offset, pieces)
             for x, y in piece_edges]
    ports = [list(p) for _, _, p in pieces]
    for i, j in host_edges:
        if not ports[i] or not ports[j]:
            raise ConstructionError(f"host degree exceeds attachment count at edge ({i}, {j})")
        edges.append((ports[i].pop(0) + offset[i], ports[j].pop(0) + offset[j]))
    if any(ports):
        raise ConstructionError("unused attachment vertices remain after splicing")
    return build_graph(offset[-1], edges)


def _block_piece(i):
    b = building_block(i)
    return b.graph.n, b.graph.edges(), b.attachments


def path_replacement(m, leaf_block=1):
    """Replace the vertices of a path on m vertices by blocks: the two leaf
    vertices by the given single-attachment block (1 or 3), internal
    vertices by block 2.  Cubic, bridged; order 6m-2 (leaf block 1) or
    6m+2 (leaf block 3); minimum 2-conversion number 2m."""
    if m < 2:
        raise ConstructionError(f"requires m >= 2, got {m}")
    if leaf_block not in (1, 3):
        raise ConstructionError("leaf block must be 1 or 3")
    leaf = _block_piece(leaf_block)
    pieces = [leaf] + [_block_piece(2)] * (m - 2) + [leaf]
    g = _splice_blocks([(i, i + 1) for i in range(m - 1)], pieces)
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
    g = _splice_blocks([(i, (i + 1) % m) for i in range(m)], [_block_piece(block)] * m)
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
    piece, old_ids = induced_subgraph(a_graph, a_graph.full_mask & ~(1 << removed))
    piece_edges = piece.edges()
    attach = [old_ids.index(v) for v in a_graph.neighbors(removed)]
    rng = random.Random(seed) if seed else None
    pieces = []
    for _ in range(g.n):
        ports = list(attach)
        if rng is not None:
            rng.shuffle(ports)
        pieces.append((piece.n, piece_edges, ports))
    out = _splice_blocks(g.edges(), pieces)
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
    for x in (u, v):
        if not 0 <= x < b.n:
            raise ConstructionError(f"vertex {x} is outside 0..{b.n - 1}")
    if not b.has_edge(u, v):
        raise ConstructionError(f"vertices {u} and {v} must be adjacent")
    if b.adj[u] & b.adj[v]:
        raise ConstructionError(f"vertices {u} and {v} must not share a neighbour")
    piece, old_ids = induced_subgraph(b, b.full_mask & ~(1 << u | 1 << v))
    ea, eb = sorted(old_ids.index(w) for w in b.neighbors(u) if w != v)
    ec, ed = sorted(old_ids.index(w) for w in b.neighbors(v) if w != u)
    edges = piece.edges()
    g = _splice_blocks([(0, 1)] * 4, [(piece.n, edges, [ea, eb, ec, ed]),
                                      (piece.n, edges, [ea, eb, ed, ec])])
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
    leaf = (5, _GADGET_EDGES, [_GADGET_PORT])
    triangle = (3, [(0, 1), (1, 2), (2, 0)], [0, 1, 2])
    g = _splice_blocks(tree.edges(), [leaf if tree.degree(v) == 1 else triangle
                                      for v in range(tree.n)])
    if not (is_cubic(g) and is_connected(g)):
        raise RuntimeError("internal error: tree gadget graph is not a connected cubic graph")
    return g


def is_tree_gadget_graph(g):
    """Recognizer for the family produced by tree_gadget_graph.

    A connected cubic graph is a member iff every piece left after deleting
    its bridges is a triangle (3 vertices, 3 edges) or a pierced K4 (5
    vertices, 7 edges: the only graph with degrees 3, 3, 3, 3, 2).  A
    bridgeless cubic graph is one piece of neither shape.  Cubicity then
    makes the bridges a tree whose leaves are the pierced K4s and whose
    other nodes are triangles of degree 3, and that bridge tree determines
    the graph up to isomorphism.
    """
    if not (is_cubic(g) and is_connected(g)):
        return False
    return all((piece.bit_count(), sum((g.adj[v] & piece).bit_count() for v in bits(piece)) // 2)
               in ((3, 3), (5, 7)) for piece in bridge_pieces(g))


def small_regular(n, d):
    """A circulant d-regular graph on n vertices (exists iff d < n and
    n * d is even)."""
    if d < 0 or d >= n or (n * d) % 2:
        raise ConstructionError(f"no {d}-regular graph on {n} vertices exists")
    offsets = list(range(1, d // 2 + 1))
    if d % 2:
        offsets.append(n // 2)
    g = circulant_graph(n, offsets)
    if regular_degree(g) != d:
        raise RuntimeError(f"internal error: small_regular({n}, {d}) is not {d}-regular")
    return g


# ---------------------------------------------------------------------------
# random regular graphs (pairing model)
# ---------------------------------------------------------------------------


RANDOM_REGULAR_TRIES = 50000


def random_regular_graph(n, d, seed):
    """Simple d-regular graph on n vertices via the pairing model.

    Pairs the n*d half-edges one at a time, the last remaining one with a
    uniformly chosen other, and starts over at the first loop or repeated
    pair; the accepted graphs are uniform over simple d-regular graphs.
    When 2d > n - 1 it samples the (n-1-d)-regular graph instead and
    returns its complement: complementing is a bijection between labelled
    d-regular and (n-1-d)-regular graphs, so the draw stays uniform, and a
    sparse pairing is simple far more often.  Deterministic for a given seed.

    Each step draws its index from the s stubs left with the loop that
    ``randrange(s)`` runs (``getrandbits(s.bit_length())`` until the value
    is below s), so it reads the same Mersenne Twister words and every
    (n, d, seed) gives the same graph as the plain ``randrange`` sampler.
    A pair is the int key min*n + max, and the test for a loop or a
    repeated pair comes before the swap-remove of the partner stub, so a
    rejected restart does no list work.
    A pairing of degree d' = min(d, n-1-d) is simple about exp(-(d'^2-1)/4)
    of the time, so d' >= 7 practically never succeeds within the
    RANDOM_REGULAR_TRIES restarts: (20, 7) to (20, 12) all fail.
    """
    if n * d % 2 or d >= n or d < 0:
        raise ConstructionError(f"no {d}-regular graph on {n} vertices exists")
    dense = 2 * d > n - 1
    getrandbits = random.Random(seed).getrandbits
    all_stubs = [v for v in range(n) for _ in range(n - 1 - d if dense else d)]
    # a step with s + 1 stubs left in stubs[:s + 1] pairs stubs[s] with one of
    # the s before it and moves stubs[s - 1] into the hole
    steps = [(s, s.bit_length()) for s in range(len(all_stubs) - 1, 0, -2)]
    for _ in range(RANDOM_REGULAR_TRIES):
        stubs = all_stubs.copy()
        keys = set()
        for s, k in steps:
            i = getrandbits(k)
            while i >= s:
                i = getrandbits(k)
            a = stubs[s]
            b = stubs[i]
            key = a * n + b if a < b else b * n + a
            if a == b or key in keys:
                break
            keys.add(key)
            stubs[i] = stubs[s - 1]
        else:
            if dense:
                keys = {u * n + v for u in range(n) for v in range(u + 1, n)} - keys
            return build_graph(n, [divmod(key, n) for key in sorted(keys)])
    raise ConstructionError(f"failed to sample a simple {d}-regular graph in {RANDOM_REGULAR_TRIES} tries:"
                            f" a pairing of degree d' = min(d, n-1-d) = {min(d, n - 1 - d)} is simple"
                            f" about exp(-(d'^2-1)/4) of the time, so d' >= 7 practically never succeeds")


# ---------------------------------------------------------------------------
# recipe registry (used by the CLI)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Recipe:
    name: str
    params: dict = field(default_factory=dict)


def _tree_shorthand(name):
    trees = {"k2": path_graph(2), "star": build_graph(4, [(0, 1), (0, 2), (0, 3)])}
    if name not in trees:
        raise ConstructionError(f"unknown tree shorthand {name!r} (use k2 or star)")
    return trees[name]


# name -> (builder, the names of its arguments in order, defaults of the
# optional ones); a builder returns a graph, or a graph and a seed mask
RECIPES = {
    "catalog": (lambda g: g, ("graph",), {}),
    "join-empty": (join_with_empty, ("graph", "k"), {}),
    "extremal": (extremal_regular, ("k",), {}),
    "path-replacement": (path_replacement, ("m", "leaf"), {"leaf": 1}),
    "cycle-replacement": (cycle_replacement, ("m", "block"), {"block": 2}),
    "triangle-replace": (triangle_replace, ("graph",), {}),
    "product": (product_deleted, ("graph", "inner", "removed", "seed"), {"removed": None, "seed": 0}),
    "doubled": (doubled_block, ("graph", "u", "v"), {}),
    "tree-gadgets": (tree_gadget_graph, ("tree",), {}),
    "random-regular": (random_regular_graph, ("n", "d", "seed"), {"seed": 0}),
}
# parameters given as text are parsed by name: graphs are catalog names,
# trees are shorthands, everything else is an integer
_PARSERS = {"graph": catalog_graph, "inner": catalog_graph, "tree": _tree_shorthand}


def build_recipe(recipe):
    """Build a graph from a Recipe.  Returns the graph plus a seed mask for
    recipes that produce one, else None."""
    if recipe.name not in RECIPES:
        raise ConstructionError(f"unknown recipe {recipe.name!r}; choices: {', '.join(RECIPES)}")
    build, names, defaults = RECIPES[recipe.name]
    for key in recipe.params:
        if key not in names:
            raise ConstructionError(f"recipe {recipe.name!r} has no parameter {key!r};"
                                    f" parameters: {', '.join(names)}")
    args = []
    for key in names:
        if key in _PARSERS and key in recipe.params:
            args.append(_PARSERS[key](recipe.params[key]))
        elif key in recipe.params:
            text = recipe.params[key]
            try:
                args.append(int(text))
            except ValueError:
                raise ConstructionError(f"recipe {recipe.name!r} parameter {key!r} must be an"
                                        f" integer, got {text!r}") from None
        elif key in defaults:
            args.append(defaults[key])
        else:
            raise ConstructionError(f"recipe {recipe.name!r} needs parameter {key!r}")
    out = build(*args)
    return (out, None) if isinstance(out, Graph) else out
