"""Colexicographic rank and unrank of a subset given as a Python-int bitmask,
one element at a time, kept as the reference for `graphs.colex_ranks`; and
the subset of every vertex of an inclusion graph as a frozenset, read from
its element row."""

from math import comb

from setincl.graphs import subset_positions


def subset_rank(mask: int) -> int:
    """Colex rank of a bitmask among the subsets of its own size: the sum
    of C(e, j) over its elements e, the j-th smallest counted from 1."""
    r = 0
    j = 0
    while mask:
        low = mask & -mask
        j += 1
        r += comb(low.bit_length() - 1, j)
        mask ^= low
    return r


def subset_unrank(size: int, rank: int) -> int:
    """Mask of the given colex rank among size-subsets; inverse of subset_rank."""
    mask = 0
    r = rank
    for j in range(size, 0, -1):
        e = j - 1
        while comb(e + 1, j) <= r:
            e += 1
        r -= comb(e, j)
        mask |= 1 << e
    assert r == 0, f"rank {rank} out of range for size {size}"
    return mask


def mask_of(row) -> int:
    return sum(1 << e for e in row)


def vertex_sets(params) -> list[frozenset]:
    """The subset of every vertex of the inclusion graph, in vertex order."""
    n, k, l = params.n, params.k, params.l
    return [frozenset(row) for size in (k, l) for row in subset_positions(n, size).tolist()]
