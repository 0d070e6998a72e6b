"""Exact k-conversion numbers with witnesses.

``ck_exact`` is the one solver: a branch and bound over the complement of
the seed set (see ``search``) for every graph and threshold.  ``ck_oracle``
and ``verify_witness`` (the CLI's ``--certify``) are brute force within
SWEEP_LIMIT subsets (``subset_sweep``), and serve as cross-checks.
"""

import time
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .graph import vset
from .process import _threshold, is_conversion_set
from .search import max_r_degenerate_set

ORACLE = "Oracle"
COMPLEMENT_BNB = "ComplementBnB"

SWEEP_LIMIT = 200_000  # subsets one brute-force check may try


class OracleGuardExceeded(ValueError):
    pass


@dataclass(frozen=True)
class SolveResult:
    value: int
    witness: int  # vertex-set bitmask; always a verified conversion set
    method: str
    nodes_explored: int
    elapsed: float


def independence_number(g):
    """Exact maximum independent set size (branch and bound)."""
    size, _, _ = max_r_degenerate_set(g, 0)
    return size


def forest_number(g):
    """Maximum order of an induced forest (any graph)."""
    size, _, _ = max_r_degenerate_set(g, 1)
    return size


def subset_sweep(g, size, spent=0):
    """The vertex sets of g with ``size`` members as bitmasks, in lexicographic
    order; refused before any is tried if spent + C(n, size) > SWEEP_LIMIT."""
    if spent + comb(g.n, size) > SWEEP_LIMIT:
        raise OracleGuardExceeded(f"brute-force sweep refused: {spent} subsets tried"
                                  f" + C({g.n}, {size}) exceeds {SWEEP_LIMIT}")
    return map(vset, combinations(range(g.n), size))


def ck_oracle(g, k):
    """Brute force: smallest conversion set by increasing subset size.

    The witness is the lexicographically least minimum and nodes_explored
    the subsets tried; all sizes share one SWEEP_LIMIT budget.  Tests use it
    to cross-check ck_exact.
    """
    start = time.perf_counter()
    tried = 0
    for size in range(g.n + 1):
        for mask in subset_sweep(g, size, tried):
            tried += 1
            if is_conversion_set(g, mask, k):
                return SolveResult(
                    value=size,
                    witness=mask,
                    method=ORACLE,
                    nodes_explored=tried,
                    elapsed=time.perf_counter() - start,
                )
    raise RuntimeError("unreachable: the full vertex set always converts")


def ck_exact(g, k):
    """Exact c_k(G) for any graph and threshold k >= 1.

    S converts iff its complement X peels to empty when a vertex v goes
    once it has at most r(v) = deg(v) - k neighbours left in X, so the
    witness is the complement of a maximum such X from the branch and
    bound.  Vertices with deg(v) < k are always seeds.  The witness is
    re-simulated before it is returned.
    """
    k = _threshold(k)
    start = time.perf_counter()
    r = [d - k for d in g._degrees]
    within = vset(v for v in range(g.n) if r[v] >= 0)
    size, kept, nodes = max_r_degenerate_set(g, r, within)
    witness = g.full_mask & ~kept
    if not is_conversion_set(g, witness, k):
        raise RuntimeError("internal error: complement witness does not convert")
    return SolveResult(
        value=g.n - size,
        witness=witness,
        method=COMPLEMENT_BNB,
        nodes_explored=nodes,
        elapsed=time.perf_counter() - start,
    )


def verify_witness(g, k, result):
    """Re-verify a SolveResult: the witness converts, has the right size,
    and no smaller conversion set exists (subset_sweep, within its budget)."""
    if result.witness.bit_count() != result.value or not is_conversion_set(g, result.witness, k):
        return False
    # no set is smaller than the empty one
    return result.value == 0 or not any(is_conversion_set(g, s, k)
                                        for s in subset_sweep(g, result.value - 1))
