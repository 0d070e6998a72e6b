"""Lower and upper bounds on conversion numbers, with equality analysis.

Bound values are kept as exact rationals; the report distinguishes the
rational value from its integer rounding, because a graph can meet the
rounded bound while missing the exact rational one.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from .graph import are_isomorphic, vset_members
from .process import is_conversion_set
from .search import greedy_cycle_packing
from .structure import (
    bridges,
    is_connected,
    is_cubic,
    is_maximal_r_degenerate,
    is_r_degenerate,
    max_degree,
    regular_degree,
    triangle_free,
)
from .graph import induced_subgraph
from .constructions import catalog_graph, is_tree_gadget_graph


@dataclass(frozen=True)
class BoundEntry:
    name: str
    kind: str  # "lower" or "upper"
    value: Fraction
    integer_value: int  # ceil for lower bounds, floor for upper bounds
    source: str  # literature attribution or "trivial"


def _lower(name, value, source):
    value = Fraction(value)
    return BoundEntry(name=name, kind="lower", value=value,
                      integer_value=ceil(value), source=source)


def _upper(name, value, source):
    value = Fraction(value)
    return BoundEntry(name=name, kind="upper", value=value,
                      integer_value=floor(value), source=source)


def lower_bounds(g, k):
    """All applicable lower bounds on the k-conversion number of g."""
    if k < 1:
        raise ValueError("threshold k must be >= 1")
    out = []
    n, m = g.n, g.edge_count
    delta = max_degree(g)
    if delta < k:
        out.append(_lower("no-convertible-vertex", n, "trivial"))
        return out
    out.append(_lower("seed-size", min(k, n), "trivial"))
    d = regular_degree(g)
    if d is not None and k <= d < 2 * k:
        r = d - k
        out.append(_lower("degenerate-complement",
                          Fraction((k - r) * n + (r + 1) * r, 2 * k),
                          "Lick-White edge count"))
        out.append(_lower("regular-ratio", Fraction((k - r) * n, 2 * k),
                          "Dreyer-Roberts"))
        if d == k + 1:
            out.append(_lower("forest-complement",
                              Fraction(n * (k - 1) + 2, 2 * k), "Staton"))
        if d == 2 * k - 1 and k >= 1:
            out.append(_lower("near-double-degree",
                              Fraction(n + 2 * (k - 1), 2 * k), "Zaker"))
    if d == k + 1:
        # conversion sets are decycling sets: generic decycling bounds apply
        if delta >= 2 and m >= n:
            out.append(_lower("edge-excess", Fraction(m - n + 1, delta - 1),
                              "Beineke-Vandell"))
        out.append(_lower("disjoint-cycles", len(greedy_cycle_packing(g)),
                          "vertex-disjoint cycle packing"))
    return out


def upper_bounds_cubic(g):
    """Upper bounds on the 2-conversion number of a cubic graph of order > 4."""
    if not is_cubic(g):
        raise ValueError("cubic upper bounds require a cubic graph")
    if g.n <= 4:
        raise ValueError("cubic upper bounds require order > 4")
    n = g.n
    out = []
    if is_tree_gadget_graph(g):
        out.append(_upper("tree-gadget-exact", Fraction(3 * n + 2, 8),
                          "Bondy et al.; Liu-Zhao"))
    else:
        out.append(_upper("three-eighths", Fraction(3 * n, 8),
                          "Bondy et al.; Liu-Zhao"))
    if triangle_free(g):
        g1 = catalog_graph("g1")
        g2 = catalog_graph("g2")
        if not (are_isomorphic(g, g1) or are_isomorphic(g, g2)):
            out.append(_upper("one-third", Fraction(n, 3), "Zheng-Lu"))
    # a cubic graph has a cut vertex iff it has a bridge
    if is_connected(g) and not bridges(g):
        out.append(_upper("two-connected", Fraction(n + 2, 3), "Dross et al."))
    return out


MEETS_STATON_EQUALITY = "MeetsStatonEquality"
MEETS_GENERAL_EQUALITY = "MeetsGeneralEquality"
NO_EQUALITY = "NoEquality"


def equality_certificate(g, k, s_mask):
    """Classify a conversion set of a (k+r)-regular graph (1 <= r < k)
    against the exact rational lower bound.

    Returns one of the certificate labels.  For r = 1 the bound is tight
    iff the seed is independent and the rest induces a tree; for r >= 2 iff
    the seed is independent and the rest is maximal r-degenerate.
    """
    d = regular_degree(g)
    if d is None or not (k + 1 <= d < 2 * k):
        raise ValueError("equality analysis requires a (k+r)-regular graph with 1 <= r < k")
    if not is_conversion_set(g, s_mask, k):
        raise ValueError("the given set does not convert the graph")
    r = d - k
    rest = g.full_mask & ~s_mask
    independent = all(g.adj[v] & s_mask == 0 for v in vset_members(s_mask))
    if r == 1:
        tight = independent and is_connected(g, rest) and is_r_degenerate(g, rest, 1)
    else:
        if not is_r_degenerate(g, rest, r):
            raise ValueError("complement of a conversion set must be r-degenerate")
        h, _ = induced_subgraph(g, rest)
        tight = independent and is_maximal_r_degenerate(h, r)
    exact = Fraction((k - r) * g.n + (r + 1) * r, 2 * k)
    meets_exact = Fraction(s_mask.bit_count()) == exact
    # a structural equality certificate and the numeric test must agree
    if tight != meets_exact:
        raise RuntimeError("internal error: equality condition disagrees with the exact bound")
    if not tight:
        return NO_EQUALITY
    return MEETS_STATON_EQUALITY if r == 1 else MEETS_GENERAL_EQUALITY

