"""Irreversible k-threshold conversion dynamics.

A process starts from a seed set; at each step every unconverted vertex with
at least k converted neighbours converts.  Conversions never revert.

The dual view goes through ``structure.degeneracy_peel`` with per-vertex
thresholds r(v) = deg(v) - k: a seed S converts everything iff V - S peels
to empty, and the stuck core is exactly what S leaves unconverted.
"""

from dataclasses import dataclass
from operator import index

from .graph import bits, vset_members
from .structure import degeneracy_peel, is_r_degenerate, regular_degree


@dataclass(frozen=True)
class ConversionTrace:
    threshold: int
    layers: tuple  # layers[0] = seed, layers[t] = vertices converted at step t
    converted: int  # union bitmask
    complete: bool
    time: int  # last t with a nonempty layer

    def layer_union(self, start):
        """Union of layers[start:], e.g. start=2 for late conversions."""
        m = 0
        for layer in self.layers[start:]:
            m |= layer
        return m

    def to_text(self):
        lines = []
        for t, layer in enumerate(self.layers):
            lines.append(f"{t}: " + " ".join(str(v) for v in vset_members(layer)))
        return "\n".join(lines) + "\n"

    def to_dict(self):
        return {
            "threshold": self.threshold,
            "layers": [vset_members(layer) for layer in self.layers],
            "converted": vset_members(self.converted),
            "complete": self.complete,
            "time": self.time,
        }


def _threshold(k):
    """k, or TypeError unless it is an integer (2.0 and "2" are not) and ValueError unless >= 1."""
    if index(k) < 1:
        raise ValueError("threshold k must be >= 1")
    return k


def run_process(g, seed_mask, k):
    """Run the synchronous conversion process to its fixed point.

    Layer t is computed from the union of layers 0..t-1.  After the first
    layer only a neighbour of the last layer can convert, so each layer
    checks only those.  An empty seed is allowed and simply stays put.
    """
    k = _threshold(k)
    seed_mask = g.vertex_set(seed_mask, "seed")
    adj = g.adj
    layers = [seed_mask]
    converted = seed_mask
    full = g.full_mask
    check = full & ~converted
    while check:
        layer = [v for v in bits(check) if (adj[v] & converted).bit_count() >= k]
        if not layer:
            break
        new = check = 0
        for v in layer:
            new |= 1 << v
            check |= adj[v]
        layers.append(new)
        converted |= new
        check &= ~converted
    return ConversionTrace(
        threshold=k,
        layers=tuple(layers),
        converted=converted,
        complete=converted == full,
        time=len(layers) - 1,
    )


def is_conversion_set(g, seed_mask, k):
    return run_process(g, seed_mask, k).complete


def is_k_immune(g, u_mask, k):
    """True iff every vertex of the set has fewer than k outside neighbours,
    that is, no vertex of it can be peeled."""
    u_mask = g.vertex_set(u_mask, "u_mask")
    if u_mask == 0:
        raise ValueError("a k-immune set must be nonempty")
    return residual_core(g, u_mask, k) == u_mask


def residual_core(g, x_mask, k):
    """Peel from X every vertex with >= k neighbours outside the shrinking
    set, that is, at most deg(v) - k inside it; the stuck core is what
    seeding V-X leaves unconverted, so it is empty iff V-X converts all of X.
    """
    k = _threshold(k)
    return degeneracy_peel(g, g.vertex_set(x_mask, "x_mask"), [d - k for d in g._degrees])


def contains_k_immune_set(g, x_mask, k):
    """True iff some nonempty subset of X is k-immune (the residual core is
    exactly the largest such subset)."""
    return residual_core(g, x_mask, k) != 0


@dataclass(frozen=True)
class CharacterizationReport:
    simulated: bool
    complement_rule: object  # bool, or None when the rule does not apply
    degeneracy_order: object  # r = degree - k when the rule applies


def characterization_check(g, s_mask, k):
    """Compare simulation with the complement characterization.

    For a (k+r)-regular graph, S converts iff G[V-S] is r-degenerate
    (r = 0: independent complement; r = 1: forest complement).  The two
    verdicts must agree whenever both are defined.
    """
    s_mask = g.vertex_set(s_mask, "seed")
    simulated = is_conversion_set(g, s_mask, k)
    d = regular_degree(g)
    if d is None or d < k:
        return CharacterizationReport(simulated=simulated, complement_rule=None, degeneracy_order=None)
    r = d - k
    rule = is_r_degenerate(g, g.full_mask & ~s_mask, r)
    return CharacterizationReport(simulated=simulated, complement_rule=rule, degeneracy_order=r)
