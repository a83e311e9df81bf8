"""Independent reference implementations used to cross-check the package.

Everything here is written from the definitions, deliberately avoiding
the library's own code paths: plain Python ints instead of limb
arithmetic, full-graph reachability instead of the engine's pruning
walk, and so on.  Tests freeze these as the ground truth.
"""

from itertools import product

import numpy as np

P = (1 << 61) - 1


def brute_wavefront(preds: dict[int, tuple], finished: set[int]) -> set[int]:
    """Tasks not yet finished whose predecessors are all finished."""
    return {
        v
        for v in preds
        if v not in finished and all(p in finished for p in preds[v])
    }


def brute_prune(succs: dict[int, tuple], finished: set[int], seeds: set[int]) -> set[int]:
    """Seeds plus every finished task reachable from a seed, computed by
    unrestricted reachability over the whole graph."""
    reach = set(seeds)
    stack = list(seeds)
    while stack:
        v = stack.pop()
        for w in succs.get(v, ()):
            if w not in reach:
                reach.add(w)
                stack.append(w)
    return set(seeds) | (reach & finished)


def longest_path_levels(preds: dict[int, tuple]) -> dict[int, int]:
    levels: dict[int, int] = {}

    def level(v: int) -> int:
        if v not in levels:
            ps = preds[v]
            levels[v] = 0 if not ps else 1 + max(level(p) for p in ps)
        return levels[v]

    for v in preds:
        level(v)
    return levels


def py_matmul_mod(a, b) -> list[list[int]]:
    """Schoolbook product mod 2^61-1 using arbitrary-precision ints.

    Takes nested lists or 2-d arrays; pass arrays when a dimension is 0,
    since an empty list no longer carries the other dimension."""
    (rows, inner), (_, cols) = np.shape(a), np.shape(b)
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for t in range(inner):
                acc += int(a[i][t]) * int(b[t][j])
            out[i][j] = acc % P
    return out


def py_matvec_mod(a, x) -> list[int]:
    return [
        sum(int(a[i][t]) * int(x[t]) for t in range(len(x))) % P
        for i in range(len(a))
    ]


def exhaustive_freivalds_rate(a, b, c) -> float:
    """Fraction of 0/1 vectors r with A(Br) == Cr, over all 2^w choices."""
    w = len(c[0])
    accepts = 0
    for r in product((0, 1), repeat=w):
        br = py_matvec_mod(b, r)
        lhs = py_matvec_mod(a, br)
        rhs = py_matvec_mod(c, r)
        if lhs == rhs:
            accepts += 1
    return accepts / 2**w


def in_cyclic_oracle(pair, lo, hi) -> bool:
    """Membership of (value, index) in the half-open cyclic range [lo, hi)."""
    if lo == hi:
        return True
    if lo < hi:
        return lo <= pair < hi
    return pair >= lo or pair < hi


def sorted_pairs(values, indexes) -> list[tuple[int, int]]:
    return sorted(zip(map(int, values), map(int, indexes)))
