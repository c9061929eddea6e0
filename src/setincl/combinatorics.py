"""Exact integer evaluation of the closed-form spectral quantities.

Everything here is pure integer arithmetic on Python ints (arbitrary
precision), so no parameter range the toolkit accepts can overflow.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .graphs import GraphParams

__all__ = [
    "binom",
    "alpha",
    "beta",
    "radicands",
    "multiplicities",
    "beta_middle",
    "intersection_number",
]


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

    This is the paper's sum over the intersection relations; `radicands`
    evaluates the same values from a product form and is what the spectra
    use.  Requires canonical parameters (k + l <= n) and 0 <= s <= k.
    """
    params.require_canonical()
    n, k, l = params.n, params.k, params.l
    if not 0 <= s <= k:
        raise ValueError(f"eigenspace index s={s} out of range 0..{k}")
    total = 0
    for i in range(max(2 * k - l, 0), k + 1):
        total += binom(n - 2 * k + i, l - 2 * k + i) * alpha(n, k, i, s)
    return total


def radicands(params: "GraphParams") -> list[int]:
    """All of beta_0..beta_k, from the product form

        beta_s = C(n-k-s, l-k) * C(l-s, k-s)

    (the eigenvalue of W W^T on the s-th eigenspace, W the k-vs-l inclusion
    matrix; Wilson 1990).  Both factors follow s down from s = k by exact
    ratio steps, so the list costs O(k) big-integer operations.  Every value
    is positive, because k + l <= n keeps both binomials in range.
    """
    params.require_canonical()
    n, k, l = params.n, params.k, params.l
    first, second = comb(n - 2 * k, l - k), 1  # the factors at s = k
    out = [first]
    for s in range(k, 0, -1):
        # C(m+1, r) = C(m, r) (m+1)/(m+1-r) with m = n-k-s, r = l-k, and
        # C(a+1, b+1) = C(a, b) (a+1)/(b+1) with a = l-s, b = k-s
        first = first * (n - k - s + 1) // (n - l - s + 1)
        second = second * (l - s + 1) // (k - s + 1)
        out.append(first * second)
    out.reverse()
    return out


def multiplicities(n: int, k: int) -> list[int]:
    """The eigenspace dimensions C(n,s) - C(n,s-1) for s = 0..k, from the
    exact recurrence C(n,s+1) = C(n,s) (n-s)/(s+1)."""
    if not 0 <= 2 * k <= n:
        raise ValueError(f"need 0 <= k <= n/2, got n={n}, k={k}")
    out, prev, cur = [], 0, 1
    for s in range(k + 1):
        out.append(cur - prev)
        prev, cur = cur, cur * (n - s) // (s + 1)
    return out


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

    The sum runs only over the r for which all four binomials are nonzero.
    """
    if i == j:
        raise ValueError("product formula is stated for i != j only")
    if not (0 <= i <= k and 0 <= j <= k and 0 <= s <= k and 2 * k <= n):
        raise ValueError(
            f"need 0 <= i,j,s <= k <= n/2, got n={n}, k={k}, i={i}, j={j}, s={s}"
        )
    ks, m, t = k - s, n - 2 * k + s, k - i - j
    lo = max(0, i - ks, j - ks, -t)
    hi = min(s, i, j, m - t)
    total = 0
    for r in range(lo, hi + 1):
        total += comb(s, r) * comb(ks, i - r) * comb(ks, j - r) * comb(m, t + r)
    return total
