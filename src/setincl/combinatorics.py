"""Exact integer evaluation of the closed-form spectral quantities.

Everything here is pure integer arithmetic on Python ints (arbitrary
precision), so no parameter range the toolkit accepts can overflow.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .graphs import GraphParams

__all__ = ["binom", "alpha", "beta", "beta_middle", "intersection_number"]


def binom(a: int, b: int) -> int:
    """Binomial coefficient C(a, b), total over the integers.

    Returns 0 whenever b < 0, b > a or a < 0, so the eigenvalue sums can be
    transcribed literally without guarding every index.
    """
    if a < 0 or b < 0 or b > a:
        return 0
    return comb(a, b)


def alpha(n: int, k: int, i: int, s: int) -> int:
    """Eigenvalue of the intersection-i relation on k-subsets of an n-set.

    The relation graph pairs two k-subsets when they meet in exactly i
    elements; its eigenvalue for eigenspace index s is

        sum_{r=0}^{s} (-1)^(s-r) C(s,r) C(k-r,i-r) C(n-k-s+r, k-i-s+r)

    with multiplicity C(n,s) - C(n,s-1).
    """
    if not (0 <= i <= k and 2 * k <= n):
        raise ValueError(f"need 0 <= i <= k <= n/2, got n={n}, k={k}, i={i}")
    if not 0 <= s <= k:
        raise ValueError(f"eigenspace index s={s} out of range 0..{k}")
    return sum(
        (-1) ** (s - r)
        * binom(s, r)
        * binom(k - r, i - r)
        * binom(n - k - s + r, k - i - s + r)
        for r in range(s + 1)
    )


def beta(params: "GraphParams", s: int) -> int:
    """Eigenvalue of the common-neighbor matrix on the k-side of the
    inclusion graph; the graph's nonzero eigenvalues are +-sqrt(beta_s).

    Requires canonical parameters (k + l <= n) and 0 <= s <= k.
    """
    params.require_canonical()
    n, k, l = params.n, params.k, params.l
    if not 0 <= s <= k:
        raise ValueError(f"eigenspace index s={s} out of range 0..{k}")
    total = 0
    for i in range(max(2 * k - l, 0), k + 1):
        total += binom(n - 2 * k + i, l - 2 * k + i) * alpha(n, k, i, s)
    return total


def beta_middle(n: int, k: int, s: int) -> int:
    """Closed product form (n-k-s)(k+1-s) of beta for the l = k+1 layer graph."""
    if not (1 <= k and 2 * k + 1 <= n):
        raise ValueError(f"need 1 <= k <= (n-1)/2, got n={n}, k={k}")
    if not 0 <= s <= k:
        raise ValueError(f"eigenspace index s={s} out of range 0..{k}")
    return (n - k - s) * (k + 1 - s)


def intersection_number(n: int, k: int, i: int, j: int, s: int) -> int:
    """Coefficient of A_s in the product A_i * A_j of two distinct relations
    of the scheme on k-subsets of an n-set (i != j).

        p^s_{ij} = sum_r C(s,r) C(k-s,i-r) C(k-s,j-r) C(n-2k+s, k-i-j+r)
    """
    if i == j:
        raise ValueError("product formula is stated for i != j only")
    if not (0 <= i <= k and 0 <= j <= k and 0 <= s <= k and 2 * k <= n):
        raise ValueError(
            f"need 0 <= i,j,s <= k <= n/2, got n={n}, k={k}, i={i}, j={j}, s={s}"
        )
    return sum(
        binom(s, r)
        * binom(k - s, i - r)
        * binom(k - s, j - r)
        * binom(n - 2 * k + s, k - i - j + r)
        for r in range(s + 1)
    )
