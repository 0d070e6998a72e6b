"""Workload inputs, generated from the workload seed with the standard
library only.

Nothing here calls convlab: the graphs a run measures must not change when
convlab's own generators change.  Every input is handed to the program as
text (graph6 or "n m" edge list) and parsed by the program during set-up.
"""

import random


def regular_edges(n, d, rng):
    """Edges of a simple d-regular graph on n vertices.

    Pairing model: shuffle n*d half-edges and pair them off, then re-pair
    every loop or repeated pair with a random other pair until the
    multigraph is simple.  Near-uniform, and fast for large n*d where plain
    rejection would almost never accept.
    """
    if d >= n or n * d % 2:
        raise ValueError(f"no {d}-regular graph on {n} vertices")
    stubs = [v for v in range(n) for _ in range(d)]
    rng.shuffle(stubs)
    pairs = [[stubs[i], stubs[i + 1]] for i in range(0, len(stubs), 2)]
    while True:
        seen = set()
        bad = []
        for i, (a, b) in enumerate(pairs):
            key = (a, b) if a < b else (b, a)
            if a == b or key in seen:
                bad.append(i)
            else:
                seen.add(key)
        if not bad:
            return sorted((a, b) if a < b else (b, a) for a, b in pairs)
        for i in bad:
            j = rng.randrange(len(pairs) - 1)
            j += j >= i
            (a, b), (c, e) = pairs[i], pairs[j]
            pairs[i], pairs[j] = [a, c], [b, e]


def gnp_edges(n, p, rng):
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
