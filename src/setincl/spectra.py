"""Exact closed-form spectra of inclusion graphs, layer graphs and their line
graphs, plus a dense numeric eigensolver used as an independent cross-check.

Every exact eigenvalue in these families is either sign*sqrt(m) for an
integer m >= 0 or a quadratic surd (p +- sqrt(d))/2.  One type, Eigenvalue,
the immutable tuple (a, e, r), holds both in the normal form (a + e*sqrt(r))/2
with r not a perfect square: Eigenvalue(a, e, r) folds a square r into a and
refuses fields that are not integers or no value; ExactEigenvalue and
SurdEigenvalue build it from the paper's two shapes.  The closed forms,
whose fields are ints by construction, make each value directly in normal
form, with one square test and none of those checks.  Equality, merging,
ordering and the power sums of any order are decided in exact integer
arithmetic.  Each closed form proves the descending order of its values on
the integers they come from (the radicands beta_s, the discriminants d of
a line spectrum, or the int values themselves), with exact comparisons only
at the seams between its runs, and raises AssertionError if a check fails;
the line spectra are computed from the integers 4*lam^2 of the top
eigenvalues lam.  Spectrum(pairs), for pairs from anywhere else, is one
dict merge and one exact sort.
Floating point appears only when a spectrum is expanded, for comparison
against the numeric solver or to be written as CSV.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from json.encoder import encode_basestring_ascii
from math import isqrt

import numpy as np

# beta, the paper's sum, and binom are no longer called here, but the names
# stay bound in this module, where perfbench/spans.py looks them up to trace them
from .combinatorics import _checked_nk, _recurrence, beta, binom, radicands  # noqa: F401
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

_FLOAT_BITS = 96  # the precision _rounded starts from, in bits of its root
_new_tuple = tuple.__new__  # makes an Eigenvalue with no check: its fields must be in normal form


class Eigenvalue(tuple):
    """The exact value (a + e*sqrt(r))/2 in normal form: e in {-1, 0, 1}, r
    = 0 exactly when e = 0, and otherwise r is not a perfect square.  So two
    eigenvalues are equal as real numbers iff their fields are equal.  A
    perfect square r is folded into a; fields that are no value (e outside
    {-1, 0, 1}, r < 0, or e = 0 with r != 0) raise ValueError, and fields
    that are not integers TypeError.  It is the immutable tuple (a, e, r),
    equal to no plain tuple, and it has no order and no arithmetic."""

    __slots__ = ()
    __match_args__ = ("a", "e", "r")
    a = property(operator.itemgetter(0))
    e = property(operator.itemgetter(1))
    r = property(operator.itemgetter(2))

    def __new__(cls, a: int, e: int, r: int):
        if not (type(a) is type(e) is type(r) is int):  # refuses 0.5, stores numpy ints as int
            a, e, r = operator.index(a), operator.index(e), operator.index(r)
        if e not in (-1, 0, 1) or r < 0 or (e == 0 and r != 0):
            raise ValueError(
                f"({a} + {e}*sqrt({r}))/2 is no eigenvalue: need e in {{-1, 0, 1}}, "
                "r >= 0, and r = 0 when e = 0"
            )
        s = _square_root(r) if e else None
        if s is not None:
            a, e, r = a + e * s, 0, 0
        return _new_tuple(cls, (a, e, r))

    def __reduce__(self):  # pickle and copy, at every protocol, rebuild through __new__
        return Eigenvalue, tuple(self)

    def __eq__(self, other):
        return isinstance(other, Eigenvalue) and tuple.__eq__(self, other)

    __ne__, __hash__ = object.__ne__, tuple.__hash__  # != inverts __eq__; tuple's != would not

    def _refuse(self, other):
        raise TypeError("an Eigenvalue has no order and no arithmetic; see spectra._cmp_keys")

    __lt__ = __le__ = __gt__ = __ge__ = __add__ = __radd__ = __mul__ = __rmul__ = _refuse

    def __repr__(self) -> str:
        return "Eigenvalue(a=%r, e=%r, r=%r)" % tuple(self)

    def __float__(self) -> float:
        """The value correctly rounded to float64 (see _rounded).  A value
        beyond the float64 range raises OverflowError."""
        return _rounded(*self)

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
    """The integer x, made as one tuple without __new__'s checks; operator.index
    refuses 0.5 and makes a numpy int a Python int."""
    return _new_tuple(Eigenvalue, (2 * operator.index(x), 0, 0))


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


def _rounded(a: int, e: int, r: int, roots: dict | None = None) -> float:
    """(a + e*sqrt(r))/2, fields in normal form, correctly rounded to float64.
    At precision p, s = isqrt(r << 2b) with b = p - bit_length(r)//2 (a right
    shift when b < 0) has about p bits, and sqrt(r)*2**b lies strictly
    between s and s + 1.  So the value lies strictly between two bounds,
    each one correctly rounded int / int division; when a*e < 0 they bound
    (a*a - r)/(2*(a - e*sqrt(r))), which does not cancel.  Rounding is
    monotone: if both bounds round alike, that float is the value's, else p
    doubles from _FLOAT_BITS (Ziv's method).  This ends because normal form
    keeps r from being a square, so the irrational value is no rounding
    boundary.  Past the float64 range the bound nearer 0 raises
    OverflowError.  roots keeps each s by (r, b) for the next value with r."""
    if not e:
        return a / 2
    if roots is None:
        roots = {}
    p, half = _FLOAT_BITS, r.bit_length() >> 1
    while True:
        b = p - half
        u, v = (b, 0) if b >= 0 else (0, -b)
        s = roots.get((r, b))
        if s is None:
            s = roots[r, b] = isqrt(r << 2 * u >> 2 * v)
        # sqrt(r) * 2**u lies strictly between s << v and (s + 1) << v
        am, lo, hi = a << u, e * s << v, e * (s + 1) << v
        if a * e >= 0:
            n, d = am + hi, 2 << u
            near = (am + lo) / d
        else:
            n, d = (a * a - r) << u, (am - lo) << 1
            near = n / ((am - hi) << 1)
        try:  # n / d is the far bound
            if near == n / d:
                return near
        except OverflowError:  # the far bound alone is beyond the range
            pass
        p *= 2


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
    z - e2*sqrt(r2) with z = a + e1*sqrt(r1), a = a1 - a2.  When e1 = e2 = e,
    the difference is (a + e*(sqrt(r1) - sqrt(r2)))/2: it is a/2 when r1 =
    r2, and when a = 0 its sign is e * sign(r1 - r2), as sqrt is increasing.
    When z and e2*sqrt(r2) have one sign s and r1 != r2, one squaring gives
    s * sign(z*z - r2) = s * sign((a*a + r1 - r2) + 2*a*e1*sqrt(r1))."""
    a1, e1, r1 = x
    a2, e2, r2 = y
    if e1 == e2:
        if r1 == r2:
            return (a1 > a2) - (a1 < a2)
        if a1 == a2:
            return e1 * ((r1 > r2) - (r1 < r2))
    a = a1 - a2
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
    a, e, r = ev
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

    This is the general constructor: the pairs, in any order, are merged in
    a dict and sorted once by exact comparisons.  Input already in
    descending order is one run to the sort, found by one comparison per
    adjacent pair.  The closed forms do not come here; each proves the order
    of its own values (see _from_runs)."""

    def __init__(self, pairs):
        merged: dict[Eigenvalue, int] = {}
        for ev, mult in pairs:
            mult = _multiplicity(mult)
            if mult:
                merged[ev] = merged.get(ev, 0) + mult
        # the items carry their multiplicities, so no value is hashed again
        exact = cmp_to_key(_cmp_keys)
        entries = sorted(merged.items(), key=lambda item: exact(item[0]), reverse=True)
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
        """Expand to a descending list of float(ev), one entry per
        multiplicity; the members of a pair share their radicand's root."""
        roots: dict = {}
        out: list[float] = []
        for (a, e, r), mult in self.entries:
            out.extend([_rounded(a, e, r, roots)] * mult)
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
        for (a, e, r), mult in self.entries:
            x, y = 1, 0
            for _ in range(j):
                x, y = x * a + y * e * r, x * e + y * a
            rational += mult * x
            if y:
                irrational[r] = irrational.get(r, 0) + mult * y
        scale = 1 << j
        return Fraction(rational, scale), {
            r: Fraction(c, scale) for r, c in irrational.items() if c
        }

    def to_json_obj(self) -> list[dict]:
        """Schema: [{"value": {"kind": ..., ...}, "multiplicity": "<decimal>"}]
        in descending value order; the kinds are "int" (value), "half" (odd
        numerator over 2), "sqrt" (sign, radicand) and "surd" (p, d, branch)."""
        out = []
        for ev, mult in self.entries:
            a, e, r = ev
            if e == 0 and a % 2 == 0:
                value = {"kind": "int", "value": str(a // 2)}
            elif e == 0:
                value = {"kind": "half", "numerator": str(a)}
            elif a == 0 and r % 4 == 0:
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

    def to_json_text(self) -> str:
        """The text json.dumps(self.to_json_obj(), indent=2) returns, written
        from the entries with one template per value kind.  Each string is
        quoted by the C function that json.dumps quotes it with; with indent
        set, json.dumps itself runs the pure-Python encoder."""
        quote = encode_basestring_ascii
        items = []
        for ev, mult in self.entries:
            a, e, r = ev
            if e == 0 and a % 2 == 0:
                value = f'"int",\n      "value": {quote(str(a // 2))}'
            elif e == 0:
                value = f'"half",\n      "numerator": {quote(str(a))}'
            elif a == 0 and r % 4 == 0:
                value = f'"sqrt",\n      "sign": {e},\n      "radicand": {quote(str(r // 4))}'
            else:
                branch = '"+"' if e > 0 else '"-"'
                value = (
                    f'"surd",\n      "p": {quote(str(a))},\n      "d": {quote(str(r))},\n'
                    f'      "branch": {branch}'
                )
            items.append(
                f'  {{\n    "value": {{\n      "kind": {value}\n    }},\n'
                f'    "multiplicity": {quote(str(mult))}\n  }}'
            )
        return "[\n" + ",\n".join(items) + "\n]" if items else "[]"

    def to_table_text(self) -> str:
        """One row per entry: format_eigenvalue of the value, right-aligned,
        two spaces and the multiplicity.  The two members of a pair +-sqrt(m)
        share their text but for the sign, so the square part of m is split
        once."""
        cores: dict[int, str] = {}  # r to the text of sqrt(r)/2
        values = []
        for ev, _ in self.entries:
            a, e, r = ev
            if a or not e or r % 4:
                values.append(format_eigenvalue(ev))
                continue
            core = cores.get(r)
            if core is None:
                core = cores[r] = format_eigenvalue(_new_tuple(Eigenvalue, (0, 1, r)))
            values.append(core if e > 0 else "-" + core)
        width = max(map(len, values), default=0)
        return "".join(f"{v:>{width}}  {m}\n" for v, (_, m) in zip(values, self.entries))

    def to_csv_text(self) -> str:
        """One "value,multiplicity" row per entry, the value as float(ev);
        the members of a pair share their radicand's root.  A value beyond
        the float64 range raises ValueError."""
        roots: dict = {}
        try:
            rows = [f"{_rounded(a, e, r, roots):.17g},{m}" for (a, e, r), m in self.entries]
        except OverflowError:
            raise ValueError(
                "an eigenvalue is beyond the float64 range of the csv format; "
                "use the table or json format"
            ) from None
        return "\n".join(["value,multiplicity", *rows]) + "\n"


def _plus_root(p: int, d: int) -> Eigenvalue:
    """(p + sqrt(d))/2 for ints p and d >= 0, made in normal form by one
    square test and no other check: (p + sqrt(d), 0, 0) for a square d,
    else (p, 1, d)."""
    s = _square_root(d)
    return _new_tuple(Eigenvalue, (p, 1, d) if s is None else (p + s, 0, 0))


def _from_runs(keys, plus, p: int, middle, top=None, bottom=None) -> Spectrum:
    """The spectrum of the runs top, plus, middle, minus and bottom, where
    minus is the reflections p - ev of plus in reverse order, and top,
    middle and bottom are one (value, int multiplicity) pair each or None.
    plus holds pairs with positive int multiplicities whose values fall as
    their int keys do.  So one comparison pass over keys proves plus
    strictly descending and with it minus; _cmp_keys then runs only at the
    at most four seams between nonempty runs, where equal values merge.
    Zero multiplicities are dropped.  A check that fails is a defect of the
    closed form, not of its input, so it raises AssertionError, also under
    python -O."""
    if not all(map(operator.gt, keys, keys[1:])):
        raise AssertionError("the keys of a closed form do not strictly fall")
    # p - ev has the fields (2p - a, -e, r), in normal form when ev's are, so
    # the square test of ev is not run again.  It is not the conjugate
    # (a, -e, r), which is wrong once a square r has been folded into a.
    minus = [(_new_tuple(Eigenvalue, (2 * p - a, -e, r)), m) for (a, e, r), m in reversed(plus)]
    top, middle, bottom = ([pair] if pair and pair[1] else [] for pair in (top, middle, bottom))
    entries: list[tuple[Eigenvalue, int]] = []
    for run in (top, plus, middle, minus, bottom):
        if run and entries:
            order = _cmp_keys(entries[-1][0], run[0][0])
            if order < 0:
                raise AssertionError(
                    f"a closed form rises from {format_eigenvalue(entries[-1][0])} "
                    f"to {format_eigenvalue(run[0][0])} at a seam"
                )
            if order == 0:
                entries[-1] = (run[0][0], entries[-1][1] + run[0][1])
                run = run[1:]
        entries += run
    spec = object.__new__(Spectrum)  # Spectrum.__init__ would prove the order again
    spec.entries = tuple(entries)
    return spec


def _signed_roots(betas: list[int], mults, zeros: int) -> Spectrum:
    """+-sqrt(b) with multiplicity m for each (b, m), certified by the int
    radicands b strictly falling, and 0 with multiplicity zeros: the + roots
    as b falls, 0, then the - roots as b rises."""
    plus = [(_plus_root(0, 4 * b), m) for b, m in zip(betas, mults)]
    return _from_runs(betas, plus, 0, (_int_eigenvalue(0), zeros))


def spectrum_inclusion(params: GraphParams) -> Spectrum:
    """Exact spectrum of the inclusion graph on k- and l-subsets:
    +-sqrt(beta_s) with multiplicity C(n,s) - C(n,s-1) for s = 0..k, and 0
    with multiplicity C(n,l) - C(n,k).  beta_s strictly falls as s rises."""
    betas = radicands(params)  # refuses non-canonical parameters first
    mults, n1, _ = _recurrence(params.n, params.k)
    return _signed_roots(betas, mults, params.n2 - n1)


def spectrum_middle(n: int, k: int) -> Spectrum:
    """Exact spectrum of the layer graph on k- and (k+1)-subsets, via the
    product form (n-k-s)(k+1-s) of the radicands."""
    n, k = _checked_nk(n, k, middle=True)
    mults, n1, n2 = _recurrence(n, k)
    betas = [(n - k - s) * (k + 1 - s) for s in range(k + 1)]  # beta_middle(n, k, s)
    return _signed_roots(betas, mults, n2 - n1)


def spectrum_line_semiregular(
    n1: int, n2: int, r1: int, r2: int, top_eigenvalues
) -> Spectrum:
    """Line-graph spectrum of a connected semi-regular bipartite graph with
    parameters (n1, n2, r1, r2), from its n1 largest eigenvalues.

    The edges number n1*r1 = n2*r2.  top_eigenvalues is a list of
    (Eigenvalue, multiplicity) pairs whose multiplicities sum to n1, each
    value +-sqrt(m) for an integer m; a pair of multiplicity 0 is dropped,
    as Spectrum drops it.  The largest value must be sqrt(r1*r2), the
    spectral radius, and no value may pass it in absolute value, or
    ValueError is raised.  Each non-principal eigenvalue lam contributes
    the two roots (p +- sqrt(d))/2 of (x - r1 + 2)(x - r2 + 2) = lam^2, with
    p = r1 + r2 - 4 and d = (r1 - r2)^2 + 4 lam^2, which move apart as lam^2
    grows.  So the values are emitted in descending order: r1 + r2 - 2, the
    + roots by falling lam^2, r2 - 2, the - roots by rising lam^2, then -2.
    """
    # Python ints, as the - roots reflect the + roots about p unchecked
    n1, n2, r1, r2 = map(operator.index, (n1, n2, r1, r2))
    if n1 > n2:
        raise ValueError(f"need n1 <= n2, got n1={n1}, n2={n2}")
    if n1 * r1 != n2 * r2:
        raise ValueError(f"need n1*r1 = n2*r2, the edge count, got {n1 * r1} and {n2 * r2}")
    tops: dict[int, int] = {}  # sign(lam) * 4 lam^2, in the order of lam, to multiplicity
    for ev, mult in top_eigenvalues:
        a, e, r = ev
        # lam = (a + e*sqrt(r))/2 is +-sqrt(m) iff a*e = 0, and then 4m = a*a + r
        if a * e or (a * a + r) % 4:
            raise ValueError(f"top eigenvalue {ev} is not +-sqrt(m) for an integer m")
        mult = _multiplicity(mult)
        if not mult:
            continue
        key = (_sign(a) + e) * (a * a + r)
        if abs(key) > 4 * r1 * r2:
            raise ValueError(f"top eigenvalue {ev} is beyond sqrt(r1*r2), the spectral radius")
        tops[key] = tops.get(key, 0) + mult
    return _line_spectrum(n1, n2, r1, r2, tops)


def _line_spectrum(n1: int, n2: int, r1: int, r2: int, tops: dict[int, int]) -> Spectrum:
    """spectrum_line_semiregular from its int parameters and tops, which maps
    sign(lam) * 4 lam^2 of each top eigenvalue lam to its multiplicity."""
    if sum(tops.values()) != n1:
        raise ValueError("top eigenvalue multiplicities must sum to n1")
    if max(tops, default=None) != 4 * r1 * r2:
        raise ValueError("largest eigenvalue must be sqrt(r1*r2)")
    tops[4 * r1 * r2] -= 1  # the single principal copy became r1 + r2 - 2
    cycle_rank = n2 * r2 - n1 - n2 + 1  # edges minus vertices plus one
    if cycle_rank < 0:
        raise ValueError("edge count below vertex count: graph is not connected")

    # +lam and -lam give one d, so their multiplicities merge; the + roots
    # fall with the int d and the - roots rise
    roots: dict[int, int] = {}
    square, p = (r1 - r2) ** 2, r1 + r2 - 4
    for key, mult in tops.items():
        if mult > 0:
            d = square + abs(key)
            roots[d] = roots.get(d, 0) + mult
    ds = sorted(roots, reverse=True)
    return _from_runs(
        ds,
        [(_plus_root(p, d), roots[d]) for d in ds],
        p,
        (_int_eigenvalue(r2 - 2), n2 - n1),
        top=(_int_eigenvalue(r1 + r2 - 2), 1),
        bottom=(_int_eigenvalue(-2), cycle_rank),
    )


def spectrum_line_inclusion(params: GraphParams) -> Spectrum:
    """Exact spectrum of the line graph of the inclusion graph, from its
    top eigenvalues sqrt(beta_s), keyed by 4 beta_s with no Eigenvalue made."""
    tops = dict(zip((4 * b for b in radicands(params)), _recurrence(params.n, params.k)[0]))
    return _line_spectrum(params.n1, params.n2, params.r1, params.r2, tops)


def spectrum_line_middle(n: int, k: int) -> Spectrum:
    """All-integer spectrum of the line graph of the layer graph on k- and
    (k+1)-subsets: n-1 once, k-1 and -2 in bulk, plus n-s-1 and its
    reflection s-2 for s = 1..k, in order by the ints n-s-1 (n-k-1 >= k, as
    2k+1 <= n)."""
    n, k = _checked_nk(n, k, middle=True)
    mults, n1, n2 = _recurrence(n, k)
    values = range(n - 2, n - k - 2, -1)  # n-s-1 for s = 1..k
    return _from_runs(
        values,
        [(_int_eigenvalue(v), m) for v, m in zip(values, mults[1:])],
        n - 3,  # r1 + r2 - 4: the reflection of n-s-1 is s-2
        (_int_eigenvalue(k - 1), n2 - n1),
        top=(_int_eigenvalue(n - 1), 1),
        bottom=(_int_eigenvalue(-2), k * n2 - n1 + 1),
    )


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
    at most tol * max(1, largest eigenvalue).  A NaN gap counts as largest."""
    floats = exact.to_floats()
    nums = sorted((float(x) for x in numeric), reverse=True)
    if len(floats) != len(nums):
        raise ValueError(
            f"multiset sizes differ: exact {len(floats)} vs numeric {len(nums)}"
        )
    gaps = np.abs(np.subtract(floats, nums))
    worst = int(np.argmax(gaps)) if nums else 0  # argmax returns the first NaN
    dev = float(gaps[worst]) if nums else 0.0
    scale = max(1.0, abs(floats[0])) if floats else 1.0
    return SpectrumComparison(
        dev, scale, tol, dev <= tol * scale, worst, nums[worst] if nums else 0.0
    )
