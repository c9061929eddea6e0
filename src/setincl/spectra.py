"""Exact closed-form spectra of inclusion graphs, layer graphs and their line
graphs, plus a dense numeric eigensolver used as an independent cross-check.

Every exact eigenvalue in these families is either sign*sqrt(m) for an
integer m >= 0 or a quadratic surd (p +- sqrt(d))/2.  One type, Eigenvalue,
holds both in the normal form (a + e*sqrt(r))/2 with r not a perfect square:
Eigenvalue(a, e, r) folds a square r into a and refuses fields that are not
integers or no value; ExactEigenvalue and SurdEigenvalue build it from the
paper's two shapes.  Equality, merging, ordering and the power sums of any
order are decided in exact integer arithmetic.  Each closed form emits its
values in descending order, which Spectrum certifies with one exact
comparison per adjacent pair.  Floating point appears only when a spectrum
is expanded, for comparison against the numeric solver or to be written as
CSV.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain
from math import isqrt

import numpy as np

# beta, the paper's sum, is no longer called here, but the name stays bound in
# this module, where perfbench/spans.py looks it up to trace it
from .combinatorics import beta, beta_middle, binom, multiplicities, radicands  # noqa: F401
from .graphs import GraphParams

__all__ = [
    "Eigenvalue",
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
class Eigenvalue:
    """The exact value (a + e*sqrt(r))/2 in normal form: e in {-1, 0, 1}, r
    = 0 exactly when e = 0, and otherwise r is not a perfect square.  So two
    eigenvalues are equal as real numbers iff their fields are equal.  A
    perfect square r is folded into a; fields that are no value (e outside
    {-1, 0, 1}, r < 0, or e = 0 with r != 0) raise ValueError, and fields
    that are not integers TypeError."""

    a: int
    e: int
    r: int

    def __post_init__(self) -> None:
        a, e, r = self.a, self.e, self.r
        if not (type(a) is type(e) is type(r) is int):  # refuses 0.5, stores numpy ints as int
            a, e, r = operator.index(a), operator.index(e), operator.index(r)
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "e", e)
            object.__setattr__(self, "r", r)
        if e not in (-1, 0, 1) or r < 0 or (e == 0 and r != 0):
            raise ValueError(
                f"({a} + {e}*sqrt({r}))/2 is no eigenvalue: need e in {{-1, 0, 1}}, "
                "r >= 0, and r = 0 when e = 0"
            )
        s = _square_root(r) if e else None
        if s is not None:
            object.__setattr__(self, "a", a + e * s)
            object.__setattr__(self, "e", 0)
            object.__setattr__(self, "r", 0)

    def __float__(self) -> float:
        """The value rounded to float64 once, via extended fixed point: one
        int / int true division, which Python rounds correctly.  A value
        beyond the float64 range raises OverflowError."""
        if self.e == 0:
            return self.a / 2
        s = isqrt(self.r << (2 * _FLOAT_BITS))
        return ((self.a << _FLOAT_BITS) + self.e * s) / (1 << (_FLOAT_BITS + 1))

    def __str__(self) -> str:
        return format_eigenvalue(self)


def ExactEigenvalue(sign: int, radicand: int) -> Eigenvalue:
    """The value sign * sqrt(radicand), sign in {-1, 0, +1}."""
    if (sign == 0) != (radicand == 0):
        raise ValueError("sign is 0 exactly when the radicand is 0")
    return Eigenvalue(0, sign, 4 * radicand)


def SurdEigenvalue(p: int, d: int, branch: int) -> Eigenvalue:
    """The value (p + branch * sqrt(d)) / 2, branch in {-1, +1}."""
    if branch not in (-1, 1):
        raise ValueError(f"branch must be -1 or +1, got {branch}")
    return Eigenvalue(p, branch, d)


def _int_eigenvalue(x: int) -> Eigenvalue:
    return Eigenvalue(2 * x, 0, 0)


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


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _sign_surd(p: int, q: int, r: int) -> int:
    """Exact sign of p + q*sqrt(r) for integers p, q and r >= 0: when the two
    terms have opposite signs, the larger of p*p and q*q*r wins."""
    sp, sq = _sign(p), _sign(q) if r else 0
    if sp * sq >= 0:
        return sp or sq
    return sp * _sign(p * p - q * q * r)


def _cmp_keys(x: Eigenvalue, y: Eigenvalue) -> int:
    """Exact three-way comparison of two eigenvalues: the sign of
    z - e2*sqrt(r2) with z = a + e1*sqrt(r1), a = a1 - a2.  When z and
    e2*sqrt(r2) have one sign s and r1 != r2, one squaring gives
    s * sign(z*z - r2) = s * sign((a*a + r1 - r2) + 2*a*e1*sqrt(r1))."""
    a, e1, r1, e2, r2 = x.a - y.a, x.e, x.r, y.e, y.r
    if r1 == r2 or not e2:
        return _sign_surd(a, e1 - e2, r1)
    sz = _sign_surd(a, e1, r1)  # a rational x has e1 = r1 = 0
    if sz != e2:
        return sz or -e2
    return sz * _sign_surd(a * a + r1 - r2, 2 * a * e1, r1)


def _multiplicity(mult) -> int:
    """A multiplicity is an integer, neither truncated nor parsed, and >= 0."""
    mult = operator.index(mult)
    if mult < 0:
        raise ValueError(f"negative multiplicity {mult}")
    return mult


def _sorted_entries(pairs) -> list[tuple[Eigenvalue, int]]:
    """(value, multiplicity) pairs in any order, merged by exact equality and
    sorted descending by exact comparisons; zero multiplicities are dropped."""
    merged: dict[Eigenvalue, int] = {}
    for ev, mult in pairs:
        mult = _multiplicity(mult)
        if mult:
            merged[ev] = merged.get(ev, 0) + mult
    # the items carry their multiplicities, so no value is hashed again
    exact = cmp_to_key(_cmp_keys)
    return sorted(merged.items(), key=lambda item: exact(item[0]), reverse=True)


# the primes below 1000: a composite's square cannot divide what is left
# once the squares of its prime factors are divided out
_SMALL_PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, isqrt(p) + 1))]


def _extract_square(r: int) -> tuple[int, int]:
    """Best-effort split r = f*f*d of a non-square r, used only for display
    (exact for small factors)."""
    f, d = 1, r
    for p in _SMALL_PRIMES:
        if p * p > d:
            break
        while d % (p * p) == 0:
            d //= p * p
            f *= p
    return f, d


def format_eigenvalue(ev: Eigenvalue) -> str:
    """Symbolic rendering: integers plain, radicals as [m]√r, surds as (p±√d)/2."""
    a, e, r = ev.a, ev.e, ev.r
    if e == 0:
        return str(a // 2) if a % 2 == 0 else f"{a}/2"
    if a == 0 and r % 4 == 0:
        f, d = _extract_square(r // 4)
        core = f"√{d}" if f == 1 else f"{f}√{d}"
        return core if e > 0 else f"-{core}"
    return f"({a}{'+' if e > 0 else '-'}√{r})/2"


class Spectrum:
    """Canonical multiset of exact eigenvalues with positive multiplicities,
    merged by exact equality and sorted in descending value order.  Every
    Eigenvalue is in normal form, so values equal as numbers are equal keys
    and merge.

    The pairs are read once, in one pass that decides each adjacent pair by
    an exact comparison: a smaller value is appended and an equal one merged.
    So input already in descending order, as every closed form here emits
    it, costs one comparison per pair.  At the first larger value, the pairs
    so far and the rest go to a dict merge and an exact sort."""

    def __init__(self, pairs):
        entries: list[tuple[Eigenvalue, int]] = []
        rest = iter(pairs)
        for ev, mult in rest:
            mult = _multiplicity(mult)
            if not mult:
                continue
            order = _cmp_keys(entries[-1][0], ev) if entries else 1
            if order > 0:
                entries.append((ev, mult))
            elif order == 0:
                entries[-1] = (ev, entries[-1][1] + mult)
            else:
                entries = _sorted_entries(chain(entries, [(ev, mult)], rest))
                break
        self.entries: tuple[tuple[Eigenvalue, int], ...] = tuple(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        inner = ", ".join(f"{format_eigenvalue(ev)}:{m}" for ev, m in self.entries)
        return f"Spectrum({{{inner}}})"

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

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
        for ev, mult in self.entries:
            out.extend([float(ev)] * mult)
        return out

    def power_sum(self, j: int):
        """Exact sum of mult * value**j, for any j >= 0.

        Returns (rational, irrational) where rational is a Fraction and
        irrational maps each radicand r to the Fraction coefficient of
        sqrt(r); an integer-valued sum has an empty irrational dict.  Each
        ((a + e*sqrt(r))/2)**j is (x + y*sqrt(r))/2**j, where (x, y) starts at
        (1, 0) and every factor takes it to (x*a + y*e*r, x*e + y*a).
        """
        if j < 0:
            raise ValueError(f"power must be nonnegative, got {j}")
        rational = 0
        irrational: dict[int, int] = {}
        for ev, mult in self.entries:
            x, y = 1, 0
            for _ in range(j):
                x, y = x * ev.a + y * ev.e * ev.r, x * ev.e + y * ev.a
            rational += mult * x
            if y:
                irrational[ev.r] = irrational.get(ev.r, 0) + mult * y
        scale = 1 << j
        return Fraction(rational, scale), {
            r: Fraction(c, scale) for r, c in irrational.items() if c
        }

    def to_json_obj(self) -> list[dict]:
        """Schema: [{"value": {"kind": ..., ...}, "multiplicity": "<decimal>"}]
        in descending value order."""
        out = []
        for ev, mult in self.entries:
            a, e, r = ev.a, ev.e, ev.r
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
        """One "value,multiplicity" row per entry, the value as a float64;
        a value beyond the float64 range raises ValueError."""
        try:
            rows = [f"{float(ev):.17g},{mult}" for ev, mult in self.entries]
        except OverflowError:
            raise ValueError(
                "an eigenvalue is beyond the float64 range of the csv format; "
                "use the table or json format"
            ) from None
        return "\n".join(["value,multiplicity", *rows]) + "\n"


def _signed_roots(betas, mults, zeros: int) -> Spectrum:
    """+-sqrt(b) with multiplicity m for each (b, m), the radicands b
    strictly falling, and 0 with multiplicity zeros, emitted in descending
    order: the + roots as b falls, 0, then the - roots as b rises."""
    roots = list(zip(betas, mults))
    pairs = [(ExactEigenvalue(1, b), m) for b, m in roots]
    pairs.append((ExactEigenvalue(0, 0), zeros))
    pairs += [(ExactEigenvalue(-1, b), m) for b, m in reversed(roots)]
    return Spectrum(pairs)


def spectrum_inclusion(params: GraphParams) -> Spectrum:
    """Exact spectrum of the inclusion graph on k- and l-subsets:
    +-sqrt(beta_s) with multiplicity C(n,s) - C(n,s-1) for s = 0..k, and 0
    with multiplicity C(n,l) - C(n,k).  beta_s strictly falls as s rises."""
    n, k, l = params.n, params.k, params.l
    return _signed_roots(radicands(params), multiplicities(n, k), binom(n, l) - binom(n, k))


def spectrum_middle(n: int, k: int) -> Spectrum:
    """Exact spectrum of the layer graph on k- and (k+1)-subsets, via the
    product form (n-k-s)(k+1-s) of the radicands."""
    if not (1 <= k and 2 * k + 1 <= n):
        raise ValueError(f"need 1 <= k <= (n-1)/2, got n={n}, k={k}")
    return _signed_roots(
        (beta_middle(n, k, s) for s in range(k + 1)),
        multiplicities(n, k),
        binom(n, k + 1) - binom(n, k),
    )


def spectrum_line_semiregular(
    n1: int, n2: int, r1: int, r2: int, top_eigenvalues
) -> Spectrum:
    """Line-graph spectrum of a connected semi-regular bipartite graph with
    parameters (n1, n2, r1, r2), from its n1 largest eigenvalues.

    The edges number n1*r1 = n2*r2.  top_eigenvalues is a list of
    (Eigenvalue, multiplicity) pairs whose multiplicities sum to n1, each
    value +-sqrt(m) for an integer m, and whose largest member is
    sqrt(r1*r2).  Each non-principal eigenvalue lam contributes the two roots
    (p +- sqrt(d))/2 of (x - r1 + 2)(x - r2 + 2) = lam^2, with p = r1 + r2 - 4
    and d = (r1 - r2)^2 + 4 lam^2, which move apart as lam^2 grows.  So the
    values are emitted in descending order: r1 + r2 - 2, the + roots by
    falling lam^2, r2 - 2, the - roots by rising lam^2, then -2.
    """
    if n1 > n2:
        raise ValueError(f"need n1 <= n2, got n1={n1}, n2={n2}")
    if n1 * r1 != n2 * r2:
        raise ValueError(f"need n1*r1 = n2*r2, the edge count, got {n1 * r1} and {n2 * r2}")
    tops: dict[int, int] = {}  # sign(lam) * 4 lam^2, in the order of lam, to multiplicity
    for ev, mult in top_eigenvalues:
        # lam = (a + e*sqrt(r))/2 is +-sqrt(m) iff a*e = 0, and then 4m = a*a + r
        if ev.a * ev.e or (ev.a * ev.a + ev.r) % 4:
            raise ValueError(f"top eigenvalue {ev} is not +-sqrt(m) for an integer m")
        key = (_sign(ev.a) + ev.e) * (ev.a * ev.a + ev.r)
        tops[key] = tops.get(key, 0) + operator.index(mult)
    if sum(tops.values()) != n1:
        raise ValueError("top eigenvalue multiplicities must sum to n1")
    if max(tops) != 4 * r1 * r2:
        raise ValueError("largest eigenvalue must be sqrt(r1*r2)")
    tops[4 * r1 * r2] -= 1  # the single principal copy became r1 + r2 - 2
    cycle_rank = n2 * r2 - n1 - n2 + 1  # edges minus vertices plus one
    if cycle_rank < 0:
        raise ValueError("edge count below vertex count: graph is not connected")

    p = r1 + r2 - 4
    # sorted on the int d: the + roots fall along it and the - roots rise
    roots = sorted(((r1 - r2) ** 2 + abs(key), mult) for key, mult in tops.items() if mult > 0)
    pairs = [(_int_eigenvalue(r1 + r2 - 2), 1)]
    pairs += [(SurdEigenvalue(p, d, 1), mult) for d, mult in reversed(roots)]
    pairs.append((_int_eigenvalue(r2 - 2), n2 - n1))
    pairs += [(SurdEigenvalue(p, d, -1), mult) for d, mult in roots]
    pairs.append((_int_eigenvalue(-2), cycle_rank))
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
    s = 1..k, emitted in descending order (n-k-1 >= k, as 2k+1 <= n)."""
    if not (1 <= k and 2 * k + 1 <= n):
        raise ValueError(f"need 1 <= k <= (n-1)/2, got n={n}, k={k}")
    mults = multiplicities(n, k)
    pairs = [(_int_eigenvalue(n - 1), 1)]
    pairs += [(_int_eigenvalue(n - s - 1), mults[s]) for s in range(1, k + 1)]
    pairs.append((_int_eigenvalue(k - 1), binom(n, k + 1) - binom(n, k)))
    pairs += [(_int_eigenvalue(s - 2), mults[s]) for s in range(k, 0, -1)]
    pairs.append((_int_eigenvalue(-2), k * binom(n, k + 1) - binom(n, k) + 1))
    return Spectrum(pairs)


def eigensolver_oracle(matrix) -> list[float]:
    """All eigenvalues of a dense symmetric matrix, sorted descending.

    LAPACK's symmetric solver via ``np.linalg.eigvalsh``, which reads only
    one triangle; symmetry is therefore checked here before the solve.  It
    takes no cap (``verify`` refuses an oversized graph before building it).
    """
    a = np.asarray(matrix, dtype=float)
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
