"""Exact closed-form spectra of inclusion graphs, layer graphs and their line
graphs, plus a dense numeric eigensolver used as an independent cross-check.

Every exact eigenvalue in these families is either sign*sqrt(m) for an
integer m >= 0 or a quadratic surd (p +- sqrt(d))/2.  Both are normalized to
the common form (a + e*sqrt(r))/2 with r not a perfect square, so equality,
merging and ordering are decided in exact integer arithmetic; floating point
only appears when a spectrum is expanded for comparison against the numeric
solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import isqrt

import numpy as np

# beta, the paper's sum, is no longer called here, but the name stays bound in
# this module, where perfbench/spans.py looks it up to trace it
from .combinatorics import beta, beta_middle, binom, multiplicities, radicands  # noqa: F401
from .graphs import GraphParams

__all__ = [
    "ExactEigenvalue",
    "SurdEigenvalue",
    "Spectrum",
    "SpectrumComparison",
    "format_eigenvalue",
    "spectrum_inclusion",
    "spectrum_middle",
    "spectrum_line_semiregular",
    "spectrum_line_inclusion",
    "spectrum_line_middle",
    "eigensolver_oracle",
    "reduced_matrix",
    "expand_reduced",
    "compare_spectra",
]

_FLOAT_BITS = 96  # fixed-point bits used when expanding radicals to floats


@dataclass(frozen=True)
class ExactEigenvalue:
    """The exact value sign * sqrt(radicand), sign in {-1, 0, +1}."""

    sign: int
    radicand: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or 1, got {self.sign}")
        if self.radicand < 0:
            raise ValueError(f"radicand must be nonnegative, got {self.radicand}")
        if (self.sign == 0) != (self.radicand == 0):
            raise ValueError("sign is 0 exactly when the radicand is 0")

    def __float__(self) -> float:
        return _key_float(_normal_key(self))

    def __str__(self) -> str:
        return format_eigenvalue(self)


@dataclass(frozen=True)
class SurdEigenvalue:
    """The exact value (p + branch * sqrt(d)) / 2, branch in {-1, +1}."""

    p: int
    d: int
    branch: int

    def __post_init__(self) -> None:
        if self.branch not in (-1, 1):
            raise ValueError(f"branch must be -1 or +1, got {self.branch}")
        if self.d < 0:
            raise ValueError(f"d must be nonnegative, got {self.d}")

    @property
    def is_rational(self) -> bool:
        return _square_root(self.d) is not None

    def __float__(self) -> float:
        return _key_float(_normal_key(self))

    def __str__(self) -> str:
        return format_eigenvalue(self)


Eigenvalue = ExactEigenvalue | SurdEigenvalue


def _normal_key(ev: Eigenvalue) -> tuple[int, int, int]:
    """Canonical form (a, e, r) meaning (a + e*sqrt(r))/2.

    Perfect-square radicands are folded into the rational part, so two
    eigenvalues are equal as real numbers iff their keys are equal.
    """
    if isinstance(ev, ExactEigenvalue):
        a, e, r = 0, ev.sign, 4 * ev.radicand
    elif isinstance(ev, SurdEigenvalue):
        a, e, r = ev.p, ev.branch, ev.d
    else:
        raise TypeError(f"not an exact eigenvalue: {ev!r}")
    if e == 0 or r == 0:
        return (a, 0, 0)
    s = _square_root(r)
    if s is not None:
        return (a + e * s, 0, 0)
    return (a, e, r)


# a square is a quadratic residue modulo every m; together these four moduli
# pass fewer than 1 in 100 non-squares on to isqrt
_SQUARE_FILTERS = tuple(
    (m, frozenset(x * x % m for x in range(m))) for m in (64, 63, 65, 11)
)
_FILTER_PERIOD = 64 * 63 * 65 * 11


def _square_root(r: int) -> int | None:
    """isqrt(r) when r >= 0 is a perfect square, else None.  One reduction
    modulo 64*63*65*11 rejects most non-squares without taking a root."""
    t = r % _FILTER_PERIOD
    for m, residues in _SQUARE_FILTERS:
        if t % m not in residues:
            return None
    s = isqrt(r)
    return s if s * s == r else None


def _key_to_eigenvalue(key: tuple[int, int, int]) -> Eigenvalue:
    a, e, r = key
    if e == 0:
        if a % 2 == 0:
            m = a // 2
            return ExactEigenvalue(_sign(m), m * m)
        return SurdEigenvalue(a, 0, 1)
    if a == 0 and r % 4 == 0:
        return ExactEigenvalue(e, r // 4)
    return SurdEigenvalue(a, r, e)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _sign_surd(p: int, q: int, r: int) -> int:
    """Exact sign of p + q*sqrt(r) for integers p, q and r >= 0: when the two
    terms have opposite signs, the larger of p*p and q*q*r wins."""
    sp, sq = _sign(p), _sign(q) if r else 0
    if sp * sq >= 0:
        return sp or sq
    return sp * _sign(p * p - q * q * r)


def _cmp_keys(k1: tuple[int, int, int], k2: tuple[int, int, int]) -> int:
    """Exact three-way comparison of two normalized eigenvalue keys: the sign
    of x - e2*sqrt(r2) with x = a + e1*sqrt(r1), a = a1 - a2.  When x and
    e2*sqrt(r2) have one sign s and r1 != r2, one squaring gives
    s * sign(x*x - r2) = s * sign((a*a + r1 - r2) + 2*a*e1*sqrt(r1))."""
    (a1, e1, r1), (a2, e2, r2) = k1, k2
    a = a1 - a2
    if r1 == r2 or not e2:
        return _sign_surd(a, e1 - e2, r1)
    sx = _sign_surd(a, e1, r1)  # a rational key has e1 = r1 = 0
    if sx != e2:
        return sx or -e2
    return sx * _sign_surd(a * a + r1 - r2, 2 * a * e1, r1)


def _key_float(key: tuple[int, int, int]) -> float:
    """Value of a key rounded to float64 once, via extended fixed point."""
    a, e, r = key
    if e == 0:
        return float(Fraction(a, 2))
    s = isqrt(r << (2 * _FLOAT_BITS))
    return float(Fraction(a, 2) + e * Fraction(s, 1 << (_FLOAT_BITS + 1)))


# the primes below 1000: a composite's square cannot divide what is left
# once the squares of its prime factors are divided out
_SMALL_PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, isqrt(p) + 1))]


def _extract_square(r: int) -> tuple[int, int]:
    """Best-effort split r = f*f*d used only for display (exact for perfect
    squares and small factors)."""
    s = _square_root(r)
    if s is not None:
        return s, 1
    f, d = 1, r
    for p in _SMALL_PRIMES:
        if p * p > d:
            break
        while d % (p * p) == 0:
            d //= p * p
            f *= p
    s = _square_root(d)
    if s is not None:
        return f * s, 1
    return f, d


def format_eigenvalue(ev: Eigenvalue) -> str:
    """Symbolic rendering: integers plain, radicals as [m]√r, surds as (p±√d)/2."""
    a, e, r = _normal_key(ev)
    if e == 0:
        return str(a // 2) if a % 2 == 0 else f"{a}/2"
    if a == 0 and r % 4 == 0:
        f, d = _extract_square(r // 4)
        core = f"√{d}" if f == 1 else f"{f}√{d}"
        return core if e > 0 else f"-{core}"
    return f"({a}{'+' if e > 0 else '-'}√{r})/2"


class Spectrum:
    """Canonical multiset of exact eigenvalues with positive multiplicities,
    merged by exact equality and sorted in descending value order."""

    def __init__(self, pairs):
        merged: dict[tuple[int, int, int], int] = {}
        for ev, mult in pairs:
            mult = int(mult)
            if mult < 0:
                raise ValueError(f"negative multiplicity {mult}")
            if mult == 0:
                continue
            key = _normal_key(ev)
            merged[key] = merged.get(key, 0) + mult
        keys = sorted(merged, key=cmp_to_key(_cmp_keys), reverse=True)
        self._keys = tuple(keys)
        self.entries: tuple[tuple[Eigenvalue, int], ...] = tuple(
            (_key_to_eigenvalue(k), merged[k]) for k in keys
        )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self._keys == other._keys and [m for _, m in self.entries] == [
            m for _, m in other.entries
        ]

    def __repr__(self) -> str:
        inner = ", ".join(f"{format_eigenvalue(ev)}:{m}" for ev, m in self.entries)
        return f"Spectrum({{{inner}}})"

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

    def distinct_values(self) -> list[Eigenvalue]:
        return [ev for ev, _ in self.entries]

    def eigenvalue_at(self, index: int) -> Eigenvalue:
        """Entry index (from 0) of the expanded descending multiset."""
        if index >= 0:
            for ev, mult in self.entries:
                if index < mult:
                    return ev
                index -= mult
        raise IndexError("eigenvalue index out of range")

    def to_floats(self) -> list[float]:
        """Expand to a descending float list, one entry per multiplicity."""
        out: list[float] = []
        for key, (_, mult) in zip(self._keys, self.entries):
            out.extend([_key_float(key)] * mult)
        return out

    def power_sum(self, power: int):
        """Exact sum of mult * value**power for power 1 or 2.

        Returns (rational, irrational) where rational is a Fraction and
        irrational maps each radicand r to the Fraction coefficient of
        sqrt(r); an integer-valued sum has an empty irrational dict.
        """
        if power not in (1, 2):
            raise ValueError("only powers 1 and 2 are supported")
        rational = Fraction(0)
        irrational: dict[int, Fraction] = {}
        for key, (_, mult) in zip(self._keys, self.entries):
            a, e, r = key
            if power == 1:
                rational += Fraction(mult * a, 2)
                if e != 0:
                    irrational[r] = irrational.get(r, Fraction(0)) + Fraction(mult * e, 2)
            else:
                rational += Fraction(mult * (a * a + (r if e != 0 else 0)), 4)
                if e != 0:
                    irrational[r] = irrational.get(r, Fraction(0)) + Fraction(
                        mult * a * e, 2
                    )
        irrational = {r: c for r, c in irrational.items() if c != 0}
        return rational, irrational

    def to_json_obj(self) -> list[dict]:
        """Schema: [{"value": {"kind": ..., ...}, "multiplicity": "<decimal>"}]
        in descending value order."""
        out = []
        for key, (_, mult) in zip(self._keys, self.entries):
            a, e, r = key
            if e == 0 and a % 2 == 0:
                value = {"kind": "int", "value": str(a // 2)}
            elif e != 0 and a == 0 and r % 4 == 0:
                value = {"kind": "sqrt", "sign": e, "radicand": str(r // 4)}
            else:
                value = {
                    "kind": "surd",
                    "p": str(a),
                    "d": str(r),
                    "branch": "+" if e > 0 else "-",
                }
            out.append({"value": value, "multiplicity": str(mult)})
        return out

    def to_csv_text(self) -> str:
        lines = ["value,multiplicity"]
        for key, (_, mult) in zip(self._keys, self.entries):
            lines.append(f"{_key_float(key):.17g},{mult}")
        return "\n".join(lines) + "\n"


def _int_eigenvalue(x: int) -> ExactEigenvalue:
    if x == 0:
        return ExactEigenvalue(0, 0)
    return ExactEigenvalue(1 if x > 0 else -1, x * x)


def spectrum_inclusion(params: GraphParams) -> Spectrum:
    """Exact spectrum of the inclusion graph on k- and l-subsets:
    +-sqrt(beta_s) with multiplicity C(n,s) - C(n,s-1) for s = 0..k, and 0
    with multiplicity C(n,l) - C(n,k)."""
    n, k, l = params.n, params.k, params.l
    pairs = []
    for b, mult in zip(radicands(params), multiplicities(n, k)):
        pairs.append((ExactEigenvalue(1, b), mult))
        pairs.append((ExactEigenvalue(-1, b), mult))
    pairs.append((ExactEigenvalue(0, 0), binom(n, l) - binom(n, k)))
    return Spectrum(pairs)


def spectrum_middle(n: int, k: int) -> Spectrum:
    """Exact spectrum of the layer graph on k- and (k+1)-subsets, via the
    product form (n-k-s)(k+1-s) of the radicands."""
    if not (1 <= k and 2 * k + 1 <= n):
        raise ValueError(f"need 1 <= k <= (n-1)/2, got n={n}, k={k}")
    pairs = []
    for s, mult in enumerate(multiplicities(n, k)):
        b = beta_middle(n, k, s)
        pairs.append((ExactEigenvalue(1, b), mult))
        pairs.append((ExactEigenvalue(-1, b), mult))
    pairs.append((ExactEigenvalue(0, 0), binom(n, k + 1) - binom(n, k)))
    return Spectrum(pairs)


def spectrum_line_semiregular(
    n1: int, n2: int, r1: int, r2: int, top_eigenvalues
) -> Spectrum:
    """Line-graph spectrum of a connected semi-regular bipartite graph with
    parameters (n1, n2, r1, r2), from its n1 largest eigenvalues.

    top_eigenvalues is a list of (ExactEigenvalue, multiplicity) pairs whose
    multiplicities sum to n1 and whose largest member is sqrt(r1*r2).  Each
    non-principal eigenvalue lam contributes the two roots of
    (x - r1 + 2)(x - r2 + 2) = lam^2.
    """
    if n1 > n2:
        raise ValueError(f"need n1 <= n2, got n1={n1}, n2={n2}")
    tops: dict[tuple[int, int, int], tuple[int, int]] = {}
    for ev, mult in top_eigenvalues:
        if not isinstance(ev, ExactEigenvalue):
            raise TypeError("top eigenvalues must be ExactEigenvalue instances")
        key = _normal_key(ev)
        tops[key] = (ev.radicand, tops.get(key, (0, 0))[1] + int(mult))
    if sum(m for _, m in tops.values()) != n1:
        raise ValueError("top eigenvalue multiplicities must sum to n1")
    principal = _normal_key(_int_eigenvalue(0) if r1 * r2 == 0 else ExactEigenvalue(1, r1 * r2))
    largest = max(tops, key=cmp_to_key(_cmp_keys))
    if largest != principal:
        raise ValueError("largest eigenvalue must be sqrt(r1*r2)")

    pairs: list[tuple[Eigenvalue, int]] = [(_int_eigenvalue(r1 + r2 - 2), 1)]
    pairs.append((_int_eigenvalue(r2 - 2), n2 - n1))
    cycle_rank = n2 * r2 - n1 - n2 + 1  # edges minus vertices plus one
    if cycle_rank < 0:
        raise ValueError("edge count below vertex count: graph is not connected")
    pairs.append((_int_eigenvalue(-2), cycle_rank))
    p = r1 + r2 - 4
    for key, (lam_sq, mult) in tops.items():
        if key == principal:
            mult -= 1  # the single principal copy became r1 + r2 - 2
        if mult <= 0:
            continue
        d = (r1 - r2) ** 2 + 4 * lam_sq
        pairs.append((SurdEigenvalue(p, d, 1), mult))
        pairs.append((SurdEigenvalue(p, d, -1), mult))
    return Spectrum(pairs)


def spectrum_line_inclusion(params: GraphParams) -> Spectrum:
    """Exact spectrum of the line graph of the inclusion graph."""
    top = [
        (ExactEigenvalue(1, b), mult)
        for b, mult in zip(radicands(params), multiplicities(params.n, params.k))
    ]
    return spectrum_line_semiregular(params.n1, params.n2, params.r1, params.r2, top)


def spectrum_line_middle(n: int, k: int) -> Spectrum:
    """All-integer spectrum of the line graph of the layer graph on k- and
    (k+1)-subsets: n-1 once, k-1 and -2 in bulk, plus s-2 and n-s-1 for
    s = 1..k."""
    if not (1 <= k and 2 * k + 1 <= n):
        raise ValueError(f"need 1 <= k <= (n-1)/2, got n={n}, k={k}")
    pairs = [(_int_eigenvalue(n - 1), 1)]
    pairs.append((_int_eigenvalue(k - 1), binom(n, k + 1) - binom(n, k)))
    pairs.append((_int_eigenvalue(-2), k * binom(n, k + 1) - binom(n, k) + 1))
    for s, mult in enumerate(multiplicities(n, k)[1:], start=1):
        pairs.append((_int_eigenvalue(s - 2), mult))
        pairs.append((_int_eigenvalue(n - s - 1), mult))
    return Spectrum(pairs)


def eigensolver_oracle(matrix) -> list[float]:
    """All eigenvalues of a dense symmetric matrix, sorted descending.

    LAPACK's symmetric solver via ``np.linalg.eigvalsh``, which reads only
    one triangle; symmetry is therefore checked here before the solve.  It
    takes no cap (``verify`` refuses an oversized graph before building it).
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError("matrix must be square and nonempty")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    return np.linalg.eigvalsh(a)[::-1].tolist()


_GRAM_BLOCK = 1 << 22  # entries of one dense block of B; BLAS is at full speed from here


def reduced_matrix(ranks, n1: int, line: bool = False) -> np.ndarray:
    """The float64 matrix whose eigenvalues give the spectrum of a bipartite
    graph (line=False) or of its line graph (line=True), much smaller than
    either graph.  The graph has n1 + n2 vertices, and its biadjacency B
    (n1 x n2) has column i set in the rows ranks[i], an (n2, r2) integer
    array such as graphs.inclusion_ranks returns.

    Without line it is the Gram matrix M = B B^T (n1 x n1), summed over
    dense blocks of _GRAM_BLOCK entries of B.  Every entry and every partial
    sum of one counts common neighbours, an integer no larger than a degree,
    so the float64 sums are exact below 2**53.  With line it is the signless
    Laplacian Q = D + A ((n1+n2) x (n1+n2)).  The identities that turn their
    eigenvalues into the spectra (see expand_reduced) hold for every
    bipartite graph, so the closed forms they are checked against are not
    used here.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    n2, r2 = ranks.shape
    if line:
        dim = n1 + n2
        q = np.zeros((dim, dim))
        ends = np.repeat(np.arange(n1, dim), r2)
        q[ranks.ravel(), ends] = 1
        q[ends, ranks.ravel()] = 1
        q[np.diag_indices(dim)] = q.sum(axis=1)
        return q
    m = np.zeros((n1, n1))
    step = max(1, _GRAM_BLOCK // n1)
    for first in range(0, n2, step):
        rows = ranks[first : first + step]
        b = np.zeros((n1, len(rows)))
        b[rows, np.arange(len(rows))[:, None]] = 1
        m += b @ b.T
    return m


def expand_reduced(mu, ranks, line: bool = False) -> list[float]:
    """The whole spectrum, sorted descending, from the eigenvalues mu of
    reduced_matrix(ranks, n1, line).

    Without line: a bipartite graph's eigenvalues are +-sqrt(mu) for the
    eigenvalues mu of B B^T, plus n2 - n1 zeros (Brouwer & Haemers, Spectra
    of Graphs, 1.3-1.4).  With line: A_L = N^T N - 2I for the vertex-edge
    incidence N, and N^T N has the eigenvalues of N N^T = D + A plus
    |E| - (n1+n2) zeros, so the line graph has mu - 2 plus that many -2
    (Cvetkovic, Rowlinson & Simic, ch. 1).  Needs n2 >= n1, or
    |E| >= n1 + n2 with line.
    """
    mu = np.asarray(mu, dtype=float)
    n2, r2 = np.shape(ranks)
    if line:
        values = np.concatenate((mu - 2, np.full(n2 * r2 - len(mu), -2.0)))
    else:
        root = np.sqrt(np.maximum(mu, 0))
        values = np.concatenate((root, -root, np.zeros(n2 - len(mu))))
    return np.sort(values)[::-1].tolist()


@dataclass(frozen=True)
class SpectrumComparison:
    """Outcome of pairing an exact spectrum against numeric eigenvalues.
    worst_index is the position, in the descending expanded multiset, of the
    pair that deviates most, and worst_numeric its numeric member."""

    max_deviation: float
    scale: float
    tolerance: float
    passed: bool
    worst_index: int
    worst_numeric: float


def compare_spectra(exact: Spectrum, numeric, tol: float) -> SpectrumComparison:
    """Pair the expanded exact spectrum with the numeric list (both sorted
    descending) and report the largest absolute deviation; passes when it is
    at most tol * max(1, largest eigenvalue)."""
    floats = exact.to_floats()
    nums = sorted((float(x) for x in numeric), reverse=True)
    if len(floats) != len(nums):
        raise ValueError(
            f"multiset sizes differ: exact {len(floats)} vs numeric {len(nums)}"
        )
    gaps = enumerate(abs(x - y) for x, y in zip(floats, nums))
    worst, dev = max(gaps, key=lambda gap: gap[1], default=(0, 0.0))
    scale = max(1.0, abs(floats[0])) if floats else 1.0
    return SpectrumComparison(
        dev, scale, tol, dev <= tol * scale, worst, nums[worst] if nums else 0.0
    )
