"""Tests for exact eigenvalue arithmetic, closed-form spectra and the
numeric solver cross-checks."""

import copy
import copyreg
import json
import operator
import pickle
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import chain
from math import copysign, inf, isqrt, nextafter
from pathlib import Path

import numpy as np
import pytest

from setincl import (
    Eigenvalue,
    ExactEigenvalue,
    GraphParams,
    Spectrum,
    SurdEigenvalue,
    beta,
    binom,
    build_inclusion_graph,
    build_line_graph,
    compare_spectra,
    eigensolver_oracle,
    expand_reduced,
    format_eigenvalue,
    inclusion_ranks,
    multiplicities,
    radicands,
    reduced_matrix,
    spectrum_inclusion,
    spectrum_line_inclusion,
    spectrum_line_middle,
    spectrum_line_semiregular,
    spectrum_middle,
)
import setincl.spectra as spectra_module
from setincl.spectra import _cmp_keys, _square_root

from reference_helpers import canonical_params_up_to


def as_rational_int(ev):
    """Integer value of an exact eigenvalue known to be rational."""
    value = float(ev)
    assert value == int(value)
    return int(value)


def spectrum_as_multiset(spec):
    return {format_eigenvalue(ev): mult for ev, mult in spec.entries}


# ---------------------------------------------------------------------------
# eigenvalue representations


def test_exact_eigenvalue_validation():
    with pytest.raises(ValueError):
        ExactEigenvalue(2, 5)
    with pytest.raises(ValueError):
        ExactEigenvalue(1, -1)
    with pytest.raises(ValueError):
        ExactEigenvalue(0, 5)  # sign 0 requires radicand 0
    with pytest.raises(ValueError):
        ExactEigenvalue(1, 0)


def test_surd_eigenvalue_validation():
    with pytest.raises(ValueError):
        SurdEigenvalue(1, 21, 0)
    with pytest.raises(ValueError):
        SurdEigenvalue(1, -3, 1)
    assert SurdEigenvalue(5, 25, 1) == Eigenvalue(10, 0, 0)  # (5 + 5)/2
    assert SurdEigenvalue(5, 21, 1) == Eigenvalue(5, 1, 21)


def test_eigenvalue_rendering():
    assert str(ExactEigenvalue(1, 6)) == "√6"
    assert str(ExactEigenvalue(-1, 2)) == "-√2"
    assert str(ExactEigenvalue(1, 9)) == "3"
    assert str(ExactEigenvalue(0, 0)) == "0"
    assert str(ExactEigenvalue(1, 12)) == "2√3"
    assert str(SurdEigenvalue(5, 21, 1)) == "(5+√21)/2"
    assert str(SurdEigenvalue(5, 21, -1)) == "(5-√21)/2"
    assert str(SurdEigenvalue(4, 36, -1)) == "-1"  # (4 - 6) / 2


def test_eigenvalue_floats():
    assert float(ExactEigenvalue(1, 2)) == pytest.approx(2**0.5, abs=1e-15)
    assert float(SurdEigenvalue(5, 21, -1)) == pytest.approx(
        (5 - 21**0.5) / 2, abs=1e-15
    )


def _above(ev, m: Fraction) -> bool:
    """Whether the value (a + e*sqrt(r))/2 of ev is above the rational m =
    u/q, decided in integers: it is whether e*q*sqrt(r) > x = 2u - q*a."""
    a, e, r = ev
    x = 2 * m.numerator - m.denominator * a
    qqr = m.denominator**2 * r
    return (x < 0 or qqr > x * x) if e > 0 else (x < 0 and x * x > qqr)


def assert_correctly_rounded(ev):
    """float(ev) = f with the value's sign, and the value lies strictly
    between the midpoints of f and its two neighbouring floats."""
    f = float(ev)
    below, above = ((Fraction(f) + Fraction(nextafter(f, t))) / 2 for t in (-inf, inf))
    assert _above(ev, below) and not _above(ev, above), (ev, f)
    assert copysign(1.0, f) == (1.0 if _above(ev, Fraction(0)) else -1.0), (ev, f)


# M = 2^100 + 2^47 is the midpoint between two adjacent floats, and
# sqrt((2M)^2 + 1)/2 lies about 2^-103 above it, so the first bounds of the
# rounding straddle M: a second precision decides that it rounds up
MIDPOINT_SURD = Eigenvalue(0, 1, (2 * (2**100 + 2**47)) ** 2 + 1)


def test_eigenvalue_float_is_correctly_rounded():
    rng = random.Random(59)
    cases, cancelling = [MIDPOINT_SURD], []
    for _ in range(1000):
        p = rng.randrange(-(10 ** rng.randint(0, 60)), 10 ** rng.randint(0, 60) + 1)
        d = rng.randrange(2, 10 ** rng.randint(1, 60) + 3)
        cases += [SurdEigenvalue(p, d, rng.choice((-1, 1))), ExactEigenvalue(rng.choice((-1, 1)), d)]
        # p*p - d = +-1 or +-4: one of (p +- sqrt(d))/2 cancels to about 1/p
        p = rng.randrange(3, 10 ** rng.randint(1, 60)) * rng.choice((-1, 1))
        d = p * p + rng.choice((-4, -1, 1, 4))
        cases.append(SurdEigenvalue(p, d, 1 if p > 0 else -1))
        cancelling.append(SurdEigenvalue(p, d, -1 if p > 0 else 1))
        # and one that cancels near and below the subnormal range
        p = rng.randrange(2**1020, 2**1085) * rng.choice((-1, 1))
        cancelling.append(SurdEigenvalue(p, p * p + rng.choice((-4, -1, 1, 4)), -1 if p > 0 else 1))
    for ev in cases + cancelling:
        if ev.e:  # a square d folds into a rational value
            assert_correctly_rounded(ev)
    # a value that cancels is bounded through its conjugate, whose bounds are
    # as close as any value's, so the first precision, one key of roots,
    # decides it.  The midpoint case takes more than one
    for ev in cancelling:
        roots = {}
        assert spectra_module._rounded(*ev, roots) == float(ev) and len(roots) == 1, ev
    roots = {}
    assert spectra_module._rounded(*MIDPOINT_SURD, roots) == 2**100 + 2**48 and len(roots) > 1
    # t = 2^1024 - 2^970, the midpoint between the largest float and 2^1024:
    # a value just below it rounds to the largest float, one above overflows
    t, n = 2**1024 - 2**970, 2**96
    assert float(Eigenvalue(2 * t - n, 1, n * n - 1)) == sys.float_info.max
    assert float(Eigenvalue(n - 2 * t, -1, n * n - 1)) == -sys.float_info.max
    for ev in (
        Eigenvalue(2 * t - n, 1, n * n + 1),
        SurdEigenvalue(10**400, 7, -1),
        ExactEigenvalue(-1, 10**700 + 1),
        SurdEigenvalue(2 * 10**400, 0, 1),  # rational: e = 0
    ):
        with pytest.raises(OverflowError):
            float(ev)


def test_spectrum_merges_equal_values_across_kinds():
    # sqrt(8) and (0 + sqrt(32))/2 are the same real number
    spec = Spectrum([(ExactEigenvalue(1, 8), 1), (SurdEigenvalue(0, 32, 1), 2)])
    assert len(spec) == 1
    assert spec.entries[0][1] == 3
    # a rational surd collapses onto the plain integer
    spec = Spectrum([(SurdEigenvalue(4, 36, -1), 2), (ExactEigenvalue(-1, 1), 1)])
    assert len(spec) == 1
    assert as_rational_int(spec.entries[0][0]) == -1
    assert spec.entries[0][1] == 3


def test_spectrum_orders_descending_and_drops_zero_multiplicity():
    spec = Spectrum(
        [
            (ExactEigenvalue(-1, 2), 1),
            (ExactEigenvalue(1, 9), 1),
            (SurdEigenvalue(5, 21, -1), 1),
            (ExactEigenvalue(0, 0), 0),
            (ExactEigenvalue(1, 8), 1),
        ]
    )
    values = spec.to_floats()
    assert values == sorted(values, reverse=True)
    assert spec.total_multiplicity == 4
    with pytest.raises(ValueError):
        Spectrum([(ExactEigenvalue(1, 2), -1)])
    # a multiplicity is an integer, neither truncated nor parsed
    with pytest.raises(TypeError):
        Spectrum([(ExactEigenvalue(1, 2), 1.5)])
    with pytest.raises(TypeError):
        Spectrum([(ExactEigenvalue(0, 0), "3")])
    # numpy integers and bools, which are not plain ints, are stored as ints
    root2, zero = ExactEigenvalue(1, 2), ExactEigenvalue(0, 0)
    spec = Spectrum([(root2, np.int64(3)), (zero, True), (ExactEigenvalue(-1, 2), 0)])
    assert spec.entries == ((root2, 3), (zero, 1))
    assert [type(m) for _, m in spec.entries] == [int, int]


def test_spectrum_distinguishes_close_values():
    # sqrt(2e18) vs sqrt(8e18 + 1)/2 differ by ~9e-11, far below float64
    # resolution at this magnitude; ordering must still come out exact
    a = ExactEigenvalue(1, 2_000_000_000_000_000_000)
    b = SurdEigenvalue(0, 8_000_000_000_000_000_001, 1)
    spec = Spectrum([(a, 1), (b, 1)])
    assert len(spec) == 2
    assert spec.entries[0][0] == b
    assert spec.entries[1][0] == a


def test_spectrum_merges_and_sorts_pairs_in_any_order(monkeypatch):
    two, root2, one, zero = ExactEigenvalue(1, 4), ExactEigenvalue(1, 2), ExactEigenvalue(1, 1), ExactEigenvalue(0, 0)
    # √2 given twice in two forms, and a zero multiplicity, which is dropped
    spec = Spectrum([(two, 1), (root2, 1), (SurdEigenvalue(0, 8, 1), 2), (one, 1), (one, 0), (zero, 3)])
    assert spec.entries == ((two, 1), (root2, 3), (one, 1), (zero, 3))
    # non-adjacent duplicates merge, whatever the order
    assert Spectrum([(root2, 1), (zero, 1), (two, 1), (one, 1), (root2, 2), (zero, 2)]) == spec
    # every multiplicity is checked, also after the first out-of-order pair
    for bad, error in ((-1, ValueError), (1.5, TypeError), ("3", TypeError)):
        with pytest.raises(error):
            Spectrum([(zero, 1), (one, 1), (two, bad)])
    # a generator is read once
    read = []

    def pairs():
        for pair in [(one, 1), (root2, 3), (two, 1), (zero, 3), (two, 0)]:
            read.append(pair)
            yield pair

    assert Spectrum(pairs()) == spec and len(read) == 5
    # input already in descending order is one run to the sort: one exact
    # comparison per adjacent pair
    entries = spectrum_line_inclusion(GraphParams(12, 4, 6)).entries
    calls = []

    def counted(x, y):
        calls.append(None)
        return _cmp_keys(x, y)

    monkeypatch.setattr(spectra_module, "_cmp_keys", counted)
    assert Spectrum(entries).entries == entries and len(calls) == len(entries) - 1


def test_eigenvalue_keeps_its_normal_form():
    # Eigenvalue(0, 1, 16) is (0 + sqrt(16))/2 = 2, which it folds into
    # Eigenvalue(4, 0, 0), the fields ExactEigenvalue(1, 4) has
    assert Eigenvalue(0, 1, 16) == ExactEigenvalue(1, 4)
    assert str(Eigenvalue(0, 1, 16)) == "2"
    spec = Spectrum([(Eigenvalue(0, 1, 16), 1), (ExactEigenvalue(1, 4), 1)])
    assert spectrum_as_multiset(spec) == {"2": 2}
    spec = Spectrum([(ExactEigenvalue(1, 4), 1), (ExactEigenvalue(-1, 3), 1), (Eigenvalue(0, 1, 16), 2)])
    assert spectrum_as_multiset(spec) == {"2": 3, "-√3": 1}
    # e outside {-1, 0, 1}, a negative radicand, and e = 0 with r != 0
    for fields in ((0, 2, 5), (0, 1, -4), (1, 0, 5)):
        with pytest.raises(ValueError, match="no eigenvalue"):
            Eigenvalue(*fields)


def test_eigenvalue_fields_are_integers():
    # 0.5 is not kept to print as "0.5/2", nor "1" parsed, and numpy
    # integers are stored as Python ints
    for fields in ((0.5, 0, 0), (1, 1, 2.0), ("1", 0, 0)):
        with pytest.raises(TypeError):
            Eigenvalue(*fields)
    value = Eigenvalue(np.int64(1), np.int8(1), np.uint16(2))
    assert [type(x) for x in (value.a, value.e, value.r)] == [int, int, int]
    assert value == Eigenvalue(1, 1, 2) and str(value) == "(1+√2)/2"


def test_eigenvalue_is_an_immutable_tuple_with_no_order():
    value = Eigenvalue(5, -1, 21)
    a, e, r = value
    assert (a, e, r) == (value.a, value.e, value.r) == (5, -1, 21) and len(value) == 3
    assert repr(value) == "Eigenvalue(a=5, e=-1, r=21)"
    # a plain tuple with the same fields equals it in neither order
    for plain in ((5, -1, 21), tuple(value)):
        assert not value == plain and not plain == value
        assert value != plain and plain != value
    assert value == Eigenvalue(5, -1, 21) and not value != Eigenvalue(5, -1, 21)
    assert hash(value) == hash(Eigenvalue(5, -1, 21))
    assert value != 5 and value != "(5-√21)/2"
    # no order and no tuple arithmetic, whichever side the other operand is on
    ops = (operator.lt, operator.le, operator.gt, operator.ge, operator.add, operator.mul)
    for op in ops:
        for x, y in ((value, value), (value, (1,)), ((1,), value), (value, 2), (2, value)):
            with pytest.raises(TypeError):
                op(x, y)
    with pytest.raises(TypeError):
        sorted([value, Eigenvalue(1, 0, 0)])
    for field in ("a", "e", "r", "other"):
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
    for copied in [copy.copy(value), copy.deepcopy(value)] + [
        pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]:
        assert type(copied) is Eigenvalue and copied == value and tuple(copied) == (5, -1, 21)


def test_every_route_to_an_eigenvalue_keeps_the_normal_form():
    # (0 + sqrt(16))/2 = 2: every public way to make a value folds it to
    # Eigenvalue(4, 0, 0) or refuses it
    two = Eigenvalue(4, 0, 0)
    rebuild, _ = two.__reduce__()
    routes = [
        lambda: Eigenvalue(0, 1, 16),
        lambda: Eigenvalue.__new__(Eigenvalue, 0, 1, 16),
        lambda: rebuild(0, 1, 16),
        lambda: copyreg.__newobj__(Eigenvalue, 0, 1, 16),  # what pickle calls
        lambda: pickle.loads(pickle.dumps(Eigenvalue(0, 1, 16))),
        lambda: ExactEigenvalue(1, 4),
        lambda: SurdEigenvalue(0, 16, 1),
    ]
    if hasattr(Eigenvalue, "_make"):  # a namedtuple's own routes
        routes += [lambda: Eigenvalue._make((0, 1, 16)), lambda: two._replace(a=0, e=1, r=16)]
    if hasattr(Eigenvalue, "__replace__"):  # copy.replace, from Python 3.13
        routes.append(lambda: two.__replace__(a=0, e=1, r=16))
    for route in routes:
        value = route()
        assert type(value) is Eigenvalue and tuple(value) == (4, 0, 0) and str(value) == "2"
    # every value a closed form emits, its reflections among them, is in
    # normal form: building it again from its fields changes nothing
    spectra = [spectrum_line_middle(n, k) for n in range(3, 14) for k in range(1, (n - 1) // 2 + 1)]
    spectra += [spectrum_middle(n, k) for n in range(3, 14) for k in range(1, (n - 1) // 2 + 1)]
    for params in canonical_params_up_to(12):
        spectra += [spectrum_inclusion(params), spectrum_line_inclusion(params)]
    for spec in spectra:
        for ev, mult in spec.entries:
            assert tuple(Eigenvalue(*ev)) == tuple(ev) and type(mult) is int, (spec, ev)


def test_key_comparison_matches_decimal_on_small_keys():
    # every normalized key (a + e*sqrt(r))/2 with |a| <= 6 and a few
    # radicands, including the commensurable pair sqrt(2), sqrt(8) = 2*sqrt(2)
    radicands = (2, 3, 5, 8, 12, 18)
    keys = [(a, 0, 0) for a in range(-6, 7)]
    keys += [(a, e, r) for a in range(-6, 7) for e in (-1, 1) for r in radicands]
    with localcontext() as ctx:
        ctx.prec = 40
        value = {key: (key[0] + key[1] * Decimal(key[2]).sqrt()) / 2 for key in keys}
    for k1 in keys:
        for k2 in keys:
            expect = (value[k1] > value[k2]) - (value[k1] < value[k2])
            assert _cmp_keys(Eigenvalue(*k1), Eigenvalue(*k2)) == expect, (k1, k2)


def test_key_comparison_needs_no_working_precision():
    # sqrt(N^2 + 1) - N is below 1/(2N) = 2**-(2**20 + 9), past any fixed
    # precision; the sign test settles it with one squaring
    n = 1 << ((1 << 20) + 8)
    key = Eigenvalue(-2 * n, 1, 4 * n * n + 4)  # (-2N + sqrt(4N^2 + 4))/2
    zero = Eigenvalue(0, 0, 0)
    assert _cmp_keys(key, zero) == 1
    assert _cmp_keys(zero, key) == -1
    assert _cmp_keys(key, Eigenvalue(-2 * n, 1, 4 * n * n + 5)) == -1


def test_huge_surd_pair_merges_without_a_square_root(monkeypatch):
    # 4N^2 + 4 is 8 modulo 63, which is no square modulo 9, so the residue
    # filter settles that the radicand is not a square
    n = 1 << ((1 << 20) + 8)
    d = 4 * n * n + 4

    def no_root(_):
        raise AssertionError("isqrt of a radicand of 2**21 bits")

    monkeypatch.setattr(spectra_module, "isqrt", no_root)
    spec = Spectrum([(SurdEigenvalue(-2 * n, d, 1), 1), (SurdEigenvalue(-2 * n, d, -1), 2)])
    assert [(ev.e, m) for ev, m in spec.entries] == [(1, 1), (-1, 2)]
    assert spec.entries[0][0].r == d


def test_square_root_agrees_with_isqrt():
    def by_isqrt(r):
        s = isqrt(r)
        return s if s * s == r else None

    rng = random.Random(20)
    wide = [rng.getrandbits(2000) for _ in range(500)]
    cases = [*range(1 << 20), *wide, *(x * x for x in wide), *(x * x - 1 for x in wide)]
    assert [r for r in cases if _square_root(r) != by_isqrt(r)] == []


def format_by_every_integer(sign, r):
    """format_eigenvalue(ExactEigenvalue(sign, r)) with the square part of r
    found by trial division with every integer from 2 to 1000."""
    s = isqrt(r)
    if s * s == r:
        return str(sign * s)
    f, d, p = 1, r, 2
    while p * p <= d and p <= 1000:
        while d % (p * p) == 0:
            d //= p * p
            f *= p
        p += 1
    s = isqrt(d)
    if s * s == d:
        return str(sign * f * s)
    core = f"√{d}" if f == 1 else f"{f}√{d}"
    return core if sign > 0 else f"-{core}"


def test_square_extraction_by_primes_matches_every_integer():
    rng = random.Random(11)
    radicands = [997**2 * 3, 31**2 * 37**2 * 5, 2**11 * 3**5 * 7, 1009**2 * 2,
                 998**2 * 7, 1000**2 * 3, 991**2 * 997**2 * 11, 2**64 + 1]
    radicands += list(range(1, 3000))
    radicands += [rng.randrange(1, 10**6) * rng.randrange(1, 1000) ** 2 for _ in range(500)]
    for r in radicands:
        for sign in (1, -1):
            assert format_eigenvalue(ExactEigenvalue(sign, r)) == format_by_every_integer(sign, r)


# ---------------------------------------------------------------------------
# closed-form spectra


def test_spectrum_inclusion_frozen_412():
    spec = spectrum_inclusion(GraphParams(4, 1, 2))
    assert spectrum_as_multiset(spec) == {"√6": 1, "√2": 3, "0": 2, "-√2": 3, "-√6": 1}


def test_spectrum_inclusion_frozen_523():
    spec = spectrum_inclusion(GraphParams(5, 2, 3))
    assert spectrum_as_multiset(spec) == {
        "3": 1,
        "2": 4,
        "1": 5,
        "-1": 5,
        "-2": 4,
        "-3": 1,
    }  # no zero eigenvalue: the two size classes are equally large


def test_spectrum_inclusion_rejects_noncanonical():
    with pytest.raises(ValueError):
        spectrum_inclusion(GraphParams(5, 2, 4))


def test_spectrum_inclusion_largest_eigenvalue():
    for params in canonical_params_up_to(9):
        spec = spectrum_inclusion(params)
        top, mult = spec.entries[0]
        assert top == ExactEigenvalue(1, params.r1 * params.r2)
        assert mult >= 1


def test_spectrum_inclusion_total_multiplicity():
    for params in canonical_params_up_to(9):
        assert spectrum_inclusion(params).total_multiplicity == params.n1 + params.n2


def test_spectrum_inclusion_trace_identities():
    for params in canonical_params_up_to(12):
        spec = spectrum_inclusion(params)
        rational, irrational = spec.power_sum(1)
        assert rational == 0 and irrational == {}
        rational, irrational = spec.power_sum(2)
        assert irrational == {}
        assert rational == 2 * params.n1 * params.r1


def test_power_sums_match_traces_of_adjacency_powers():
    # the sum of mult * value**j over a spectrum is trace(A^j)
    cases = []
    for params in canonical_params_up_to(7):
        graph = build_inclusion_graph(params)
        cases.append((spectrum_inclusion(params), graph.adjacency_matrix()))
        if params.n <= 6:
            line = build_line_graph(graph).adjacency_matrix()
            cases.append((spectrum_line_inclusion(params), line))
    for spec, a in cases:
        power = np.eye(len(a), dtype=np.int64)
        for j in range(7):
            assert spec.power_sum(j) == (int(np.trace(power)), {}), (spec, j)
            power = power @ a


def test_power_sum_keeps_irrational_parts():
    # phi = (5+√21)/2 has phi^2 = 5 phi - 1, so phi^3 = 55 + 12√21; √2 is
    # held as √8/2, and its cube 2√2 is √8
    spec = Spectrum([(SurdEigenvalue(5, 21, 1), 2), (ExactEigenvalue(1, 2), 1)])
    assert spec.power_sum(0) == (3, {})
    assert spec.power_sum(1) == (5, {21: 1, 8: Fraction(1, 2)})
    assert spec.power_sum(3) == (110, {21: 24, 8: 1})
    with pytest.raises(ValueError):
        spec.power_sum(-1)


@pytest.mark.parametrize("n,k,l", [(301, 20, 41), (300, 20, 280), (300, 20, 41)])
def test_spectra_match_beta_sum_reference(n, k, l):
    # reference: radicands from the paper's sum, multiplicities from binom
    params = GraphParams(n, k, l)
    top = [
        (ExactEigenvalue(1, beta(params, s)), binom(n, s) - binom(n, s - 1))
        for s in range(k + 1)
    ]
    negated = [(Eigenvalue(-ev.a, -ev.e, ev.r), mult) for ev, mult in top]
    zero = [(ExactEigenvalue(0, 0), binom(n, l) - binom(n, k))]
    assert spectrum_inclusion(params) == Spectrum(top + negated + zero)
    assert spectrum_line_inclusion(params) == spectrum_line_semiregular(
        params.n1, params.n2, params.r1, params.r2, top
    )


@pytest.mark.parametrize("triples", [
    pytest.param((), id="canonical-n-to-12"),
    # line graphs with values that float64 cannot order
    pytest.param(((111, 12, 26), (999, 60, 122), (412, 10, 402), (887, 58, 829)), id="large"),
])
def test_each_closed_form_certifies_its_own_order(triples):
    # every closed form proves its order on the integers its values come
    # from and joins its runs by exact comparisons; its entries shuffled
    # give the same spectrum through the general constructor
    if triples:
        cases = [(f, GraphParams(*t)) for t in triples for f in (spectrum_inclusion, spectrum_line_inclusion)]
        cases += [(spectrum_middle, 3050, 900), (spectrum_line_middle, 3050, 900)]
    else:
        cases = [(f, p) for p in canonical_params_up_to(12) for f in (spectrum_inclusion, spectrum_line_inclusion)]
    rng = random.Random(27)
    for build, *args in cases:
        spec = build(*args)
        values = [ev for ev, _ in spec.entries]
        assert all(_cmp_keys(x, y) > 0 for x, y in zip(values, values[1:])), (build.__name__, args)
        pairs = list(spec.entries)
        rng.shuffle(pairs)
        assert Spectrum(pairs) == spec, (build.__name__, args)


def _line_pairs(n1, n2, r1, r2, tops):
    """The line spectrum of the semi-regular bipartite lemma, value by
    value, from tops, the (m, multiplicity) of each top lam = +-sqrt(m):
    r1 + r2 - 2 once, (p +- sqrt(d))/2 for each top but one principal copy,
    with p = r1 + r2 - 4 and d = (r1 - r2)^2 + 4m, then r2 - 2 and -2."""
    pairs = [(Eigenvalue(2 * (r1 + r2 - 2), 0, 0), 1)]
    for m, mult in tops:
        if m == r1 * r2:
            mult -= 1
        d = (r1 - r2) ** 2 + 4 * m
        pairs += [(SurdEigenvalue(r1 + r2 - 4, d, 1), mult), (SurdEigenvalue(r1 + r2 - 4, d, -1), mult)]
    pairs.append((Eigenvalue(2 * (r2 - 2), 0, 0), n2 - n1))
    pairs.append((Eigenvalue(-4, 0, 0), n2 * r2 - n1 - n2 + 1))
    return pairs


_SWAPPED_RADICANDS = """
import sys
import setincl.spectra as spectra
from setincl import GraphParams
radicands = spectra.radicands
def swapped(params):
    betas = radicands(params)
    return [betas[0], betas[2], betas[1], *betas[3:]]
spectra.radicands = swapped
try:
    spectra.spectrum_inclusion(GraphParams(12, 4, 6))
except AssertionError as exc:
    print(sys.flags.optimize, "refused:", exc)
"""


@pytest.mark.parametrize("optimize", [0, 1])
def test_a_failed_chain_check_raises_under_python_O(optimize):
    # beta_1 and beta_2 swapped: the chain check fails, and it raises, so
    # python -O, which strips assert statements, keeps it
    command = [sys.executable, *["-O"] * optimize, "-c", _SWAPPED_RADICANDS]
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(command, capture_output=True, text=True, env={"PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith(f"{optimize} refused:") and "strictly fall" in run.stdout, run.stdout


def test_a_failed_seam_check_raises():
    # the 4-cycle with a top -3 past its spectral radius 2, handed straight
    # to the line form: the + root 3 rises above the top value 2
    with pytest.raises(AssertionError, match="seam"):
        spectra_module._line_spectrum(2, 2, 2, 2, {16: 1, -36: 1})


def test_closed_forms_merge_equal_values_at_their_seams(monkeypatch):
    # the last radicand made 0: the chain holds, and the roots +-0 merge with
    # the zeros at two seams.  The swapped radicands of the line form are
    # sorted as ints d, so its chain holds too.  Each result equals Spectrum
    # over the same pairs, value by value
    params = GraphParams(12, 4, 6)
    betas, mults = radicands(params), multiplicities(12, 4)
    swapped = [betas[0], betas[2], betas[1], *betas[3:]]
    for patched, line_only in ((betas[:-1] + [0], False), (swapped, True)):
        monkeypatch.setattr(spectra_module, "radicands", lambda p, patched=patched: list(patched))
        if not line_only:
            roots = [(ExactEigenvalue(sign if b else 0, b), m) for b, m in zip(patched, mults) for sign in (1, -1)]
            zeros = (ExactEigenvalue(0, 0), params.n2 - params.n1)
            assert spectrum_inclusion(params) == Spectrum(roots + [zeros])
        tops = list(zip(patched, mults))
        line = spectrum_line_inclusion(params)
        assert line == Spectrum(_line_pairs(params.n1, params.n2, params.r1, params.r2, tops))
    # tops out of order, among them K_{2,4}'s zero, whose - root 0 = r2 - 2
    # merges with the bulk value at the seam between them
    rng = random.Random(27)
    for sizes, tops in (
        ((2, 4, 4, 2), [(0, 1), (8, 1)]),
        ((params.n1, params.n2, params.r1, params.r2), list(zip(betas, mults))),
    ):
        rng.shuffle(tops)
        spec = spectrum_line_semiregular(*sizes, [(ExactEigenvalue(1 if m else 0, m), mult) for m, mult in tops])
        assert spec == Spectrum(_line_pairs(*sizes, tops))
    # K_{2,4}'s line graph is the rook's graph K_2 x K_4
    spec = spectrum_line_semiregular(2, 4, 4, 2, [(ExactEigenvalue(0, 0), 1), (ExactEigenvalue(1, 8), 1)])
    assert spectrum_as_multiset(spec) == {"4": 1, "2": 1, "0": 3, "-2": 3}


def test_spectrum_middle_frozen():
    assert spectrum_as_multiset(spectrum_middle(5, 2)) == {
        "3": 1,
        "2": 4,
        "1": 5,
        "-1": 5,
        "-2": 4,
        "-3": 1,
    }
    assert spectrum_as_multiset(spectrum_middle(4, 1)) == {
        "√6": 1,
        "√2": 3,
        "0": 2,
        "-√2": 3,
        "-√6": 1,
    }


def test_spectrum_middle_equals_inclusion():
    for n in range(3, 10):
        for k in range(1, (n - 1) // 2 + 1):
            assert spectrum_middle(n, k) == spectrum_inclusion(GraphParams(n, k, k + 1))
    with pytest.raises(ValueError):
        spectrum_middle(4, 2)
    with pytest.raises(ValueError):
        spectrum_line_middle(4, 2)


def test_spectrum_line_semiregular_regular_bipartite_case():
    # 6-cycle: 2-regular bipartite on 3+3 vertices; line graph is again a 6-cycle
    top = [(ExactEigenvalue(1, 4), 1), (ExactEigenvalue(1, 1), 2)]
    spec = spectrum_line_semiregular(3, 3, 2, 2, top)
    assert spectrum_as_multiset(spec) == {"2": 1, "1": 2, "-1": 2, "-2": 1}
    # numpy integers give the same values, stored as ints
    again = spectrum_line_semiregular(*map(np.int64, (3, 3, 2, 2)), top)
    assert again == spec
    assert {type(x) for ev, _ in again for x in (ev.a, ev.e, ev.r)} == {int}
    # 8-cycle: its eigenvalue 0 gives d = 0, whose two roots (0 +- sqrt(0))/2
    # are one value; the line graph is again an 8-cycle
    top = [(ExactEigenvalue(1, 4), 1), (ExactEigenvalue(1, 2), 2), (ExactEigenvalue(0, 0), 1)]
    spec = spectrum_line_semiregular(4, 4, 2, 2, top)
    assert spectrum_as_multiset(spec) == {"2": 1, "√2": 2, "0": 2, "-√2": 2, "-2": 1}


def test_spectrum_line_semiregular_tops_in_any_order_and_sign():
    # only lam^2 enters the roots, so each non-principal top may be given as
    # +sqrt(m) or -sqrt(m), in any order, and the values still come in order
    params = GraphParams(7, 2, 3)
    top = [(ExactEigenvalue(1, b), m) for b, m in zip(radicands(params), multiplicities(7, 2))]
    split = top[:1]
    for ev, m in top[1:]:
        split += [(ev, m // 2), (Eigenvalue(-ev.a, -ev.e, ev.r), m - m // 2)]
    random.Random(27).shuffle(split)
    sizes = params.n1, params.n2, params.r1, params.r2
    assert spectrum_line_semiregular(*sizes, split) == spectrum_line_inclusion(params)
    # the 8-cycle: a zero top with r1 = r2, whose two roots equal r2 - 2 = 0,
    # and two disjoint 4-cycles: a principal of multiplicity 2, whose second
    # copy gives r1 + r2 - 2 and -2 again
    root2, zero = ExactEigenvalue(1, 2), ExactEigenvalue(0, 0)
    spec = spectrum_line_semiregular(4, 4, 2, 2, [(zero, 1), (ExactEigenvalue(1, 4), 1), (root2, 2)])
    assert spectrum_as_multiset(spec) == {"2": 1, "√2": 2, "0": 2, "-√2": 2, "-2": 1}
    spec = spectrum_line_semiregular(4, 4, 2, 2, [(zero, 2), (ExactEigenvalue(1, 4), 2)])
    assert spectrum_as_multiset(spec) == {"2": 2, "0": 4, "-2": 2}


def test_spectrum_line_semiregular_refuses_non_integer_multiplicities():
    # int() would read 2.5 and "2" as 2, and the multiplicities would sum to n1
    for mult in (2.5, "2"):
        with pytest.raises(TypeError):
            spectrum_line_semiregular(3, 3, 2, 2, [(ExactEigenvalue(1, 4), 1), (ExactEigenvalue(1, 1), mult)])


def test_spectrum_line_semiregular_validation():
    top = [(ExactEigenvalue(1, 4), 1), (ExactEigenvalue(1, 1), 2)]
    with pytest.raises(ValueError):
        spectrum_line_semiregular(4, 3, 2, 2, top)  # n1 > n2
    with pytest.raises(ValueError):
        spectrum_line_semiregular(3, 3, 2, 2, top[:1])  # multiplicities sum != n1
    bad_top = [(ExactEigenvalue(1, 5), 1), (ExactEigenvalue(1, 1), 2)]
    with pytest.raises(ValueError):
        spectrum_line_semiregular(3, 3, 2, 2, bad_top)  # principal != sqrt(r1 r2)
    # -sqrt(r1 r2) has the principal's lam^2, but the largest value is 1
    with pytest.raises(ValueError, match="largest"):
        spectrum_line_semiregular(3, 3, 2, 2, [(ExactEigenvalue(-1, 4), 1), (ExactEigenvalue(1, 1), 2)])
    with pytest.raises(ValueError, match=r"n1\*r1 = n2\*r2"):
        # 2*3 != 4*2: no bipartite graph has these degrees
        spectrum_line_semiregular(2, 4, 3, 2, [(ExactEigenvalue(1, 6), 1), (ExactEigenvalue(-1, 6), 1)])
    # (1+√5)/2, 1/2 and √2/2 are no +-sqrt(m) for an integer m
    for odd in (SurdEigenvalue(1, 5, 1), SurdEigenvalue(1, 0, 1), SurdEigenvalue(0, 2, 1)):
        with pytest.raises(ValueError, match=r"sqrt\(m\)"):
            spectrum_line_semiregular(3, 3, 2, 2, [(ExactEigenvalue(1, 4), 1), (odd, 2)])
    # the sum 1 + 3 - 1 is n1, but a negative multiplicity is no multiplicity
    with pytest.raises(ValueError, match="negative multiplicity"):
        spectrum_line_semiregular(
            3, 3, 2, 2, [(ExactEigenvalue(1, 4), 1), (ExactEigenvalue(1, 1), 3), (ExactEigenvalue(1, 2), -1)])


def test_spectrum_line_semiregular_refuses_tops_no_graph_has():
    # the 4-cycle: sqrt(r1*r2) = 2 is its spectral radius, so no top is -3,
    # and its principal 2 of multiplicity 0 is no principal at all (the
    # spectrum once read {3, 2, -2, -3} and {2, 0, 0, 0, 0, -2})
    two, zero = ExactEigenvalue(1, 4), ExactEigenvalue(0, 0)
    with pytest.raises(ValueError, match="spectral radius"):
        spectrum_line_semiregular(2, 2, 2, 2, [(two, 1), (ExactEigenvalue(-1, 9), 1)])
    with pytest.raises(ValueError, match="largest"):
        spectrum_line_semiregular(2, 2, 2, 2, [(two, 0), (zero, 2)])
    # a top of multiplicity 0 is dropped, as Spectrum drops it, even past the radius
    spec = spectrum_line_semiregular(2, 2, 2, 2, [(two, 1), (ExactEigenvalue(1, 9), 0), (zero, 1)])
    assert spectrum_as_multiset(spec) == {"2": 1, "0": 2, "-2": 1}


def test_spectrum_line_semiregular_reads_values_not_forms():
    # √6 and √2 given as the surds (0 + √24)/2 and (0 + √8)/2
    params = GraphParams(4, 1, 2)
    top = [(SurdEigenvalue(0, 24, 1), 1), (SurdEigenvalue(0, 8, 1), 3)]
    spec = spectrum_line_semiregular(params.n1, params.n2, params.r1, params.r2, top)
    assert spec == spectrum_line_inclusion(params)
    # the 4-cycle, its top value 2 given by the raw fields of (0 + sqrt(16))/2
    top = [(Eigenvalue(0, 1, 16), 1), (Eigenvalue(0, 0, 0), 1)]
    spec = spectrum_line_semiregular(2, 2, 2, 2, top)
    assert spectrum_as_multiset(spec) == {"2": 1, "0": 2, "-2": 1}


def _largest(spec, count):
    """The count largest values of spec, as (value, multiplicity) pairs."""
    out = []
    for ev, mult in spec.entries:
        if count <= 0:
            break
        out.append((ev, min(mult, count)))
        count -= mult
    return out


def test_line_inclusion_is_the_semiregular_form_of_its_top_eigenvalues():
    # spectrum_line_inclusion keys the tops by 4 beta_s directly; the public
    # form reads and checks each top Eigenvalue first
    for p in canonical_params_up_to(12):
        top = _largest(spectrum_inclusion(p), p.n1)
        assert sum(m for _, m in top) == p.n1
        expect = spectrum_line_semiregular(p.n1, p.n2, p.r1, p.r2, top)
        assert spectrum_line_inclusion(p) == expect, p


def test_spectrum_line_inclusion_frozen_412():
    spec = spectrum_line_inclusion(GraphParams(4, 1, 2))
    assert spectrum_as_multiset(spec) == {"3": 1, "2": 3, "0": 2, "-1": 3, "-2": 3}


def test_spectrum_line_inclusion_irrational_family_513():
    spec = spectrum_line_inclusion(GraphParams(5, 1, 3))
    ms = spectrum_as_multiset(spec)
    assert ms["(5+√21)/2"] == 4 and ms["(5-√21)/2"] == 4
    assert spec.total_multiplicity == 30


def test_spectrum_line_inclusion_total_multiplicity_and_trace():
    for params in canonical_params_up_to(8):
        spec = spectrum_line_inclusion(params)
        assert spec.total_multiplicity == params.n1 * params.r1
        rational, irrational = spec.power_sum(1)
        assert rational == 0 and irrational == {}  # line graphs are loop-free
        assert abs(sum(spec.to_floats())) < 1e-6


def test_spectrum_line_middle_distinct_values():
    for n in range(4, 8):
        values = sorted(as_rational_int(ev) for ev, _ in spectrum_line_middle(n, 1).entries)
        assert values == [-2, -1, 0, n - 2, n - 1]


def test_spectrum_line_middle_equals_line_inclusion():
    for n in range(3, 10):
        for k in range(1, (n - 1) // 2 + 1):
            assert spectrum_line_middle(n, k) == spectrum_line_inclusion(
                GraphParams(n, k, k + 1)
            )


def test_middle_spectra_take_ints():
    # the multiplicities at (100, 30) pass 2^63, where int64 would wrap
    n, k = np.int64(100), np.int64(30)
    assert spectrum_middle(n, k) == spectrum_middle(100, 30)
    assert spectrum_line_middle(n, k) == spectrum_line_middle(100, 30)
    for spectrum in (spectrum_middle, spectrum_line_middle):
        for args in ((7.0, 2), (7, 2.0)):
            with pytest.raises(TypeError):
                spectrum(*args)


def test_spectrum_line_middle_is_integral():
    for n in range(3, 10):
        for k in range(1, (n - 1) // 2 + 1):
            for ev, _ in spectrum_line_middle(n, k).entries:
                as_rational_int(ev)


def test_spectrum_json_and_csv():
    spec = spectrum_line_inclusion(GraphParams(5, 1, 3))
    obj = spec.to_json_obj()
    assert [entry["value"]["kind"] for entry in obj] == ["int", "surd", "int", "surd", "int"]
    assert obj[0] == {"value": {"kind": "int", "value": "7"}, "multiplicity": "1"}
    assert obj[1]["value"] == {"kind": "surd", "p": "5", "d": "21", "branch": "+"}
    spec = spectrum_inclusion(GraphParams(4, 1, 2))
    obj = spec.to_json_obj()
    assert obj[0]["value"] == {"kind": "sqrt", "sign": 1, "radicand": "6"}
    # a half-integer is its own kind, with no branch and no d
    assert Spectrum([(Eigenvalue(-3, 0, 0), 2)]).to_json_obj() == [
        {"value": {"kind": "half", "numerator": "-3"}, "multiplicity": "2"}
    ]
    csv = spec.to_csv_text().strip().split("\n")
    assert csv[0] == "value,multiplicity"
    assert len(csv) == 6
    assert csv[1].split(",")[1] == "1"
    assert float(csv[1].split(",")[0]) == pytest.approx(6**0.5)


def _closed_form_shapes():
    """Triples of every shape the benchmark's closed-form workload asks
    spectrum for: even k from 4 to 60, l = k+1, n-k or 2k+1 (2k+2 with
    --line), and n in that workload's window 300+10k upwards."""
    for k in range(4, 62, 2):
        n = 300 + 10 * k + k % 7
        for l in (k + 1, n - k, 2 * k + 1, 2 * k + 2):
            yield GraphParams(n, k, l)


def test_json_text_is_the_text_json_dumps_writes():
    # every value kind: an int, a sqrt, a surd, a half-integer (its own
    # kind, with no branch) and a folded square, (0 + sqrt(16))/2 = 2
    kinds = Spectrum([
        (Eigenvalue(3, 0, 0), 2), (Eigenvalue(0, 1, 16), 1), (ExactEigenvalue(-1, 3), 1),
        (SurdEigenvalue(5, 21, 1), 4), (Eigenvalue(-8, 0, 0), 10**30),
    ])
    spectra = [Spectrum([]), kinds]
    for params in chain(canonical_params_up_to(12), _closed_form_shapes()):
        spectra += [spectrum_inclusion(params), spectrum_line_inclusion(params)]
    assert {entry["value"]["kind"] for entry in kinds.to_json_obj()} == {"int", "half", "sqrt", "surd"}
    for spec in spectra:
        obj = spec.to_json_obj()
        text = spec.to_json_text()
        assert text == json.dumps(obj, indent=2), spec
        assert json.loads(text) == obj
    assert Spectrum([]).to_json_text() == "[]"


# ---------------------------------------------------------------------------
# numeric solver and comparison


def test_eigensolver_trivial_cases():
    assert eigensolver_oracle([[0.0]]) == [0.0]
    k4 = np.ones((4, 4)) - np.eye(4)
    values = eigensolver_oracle(k4)
    assert values[0] == pytest.approx(3.0, abs=1e-9)
    assert values[1:] == pytest.approx([-1.0, -1.0, -1.0], abs=1e-9)


def test_eigensolver_input_validation():
    with pytest.raises(ValueError):
        eigensolver_oracle([[0, 1], [2, 0]])  # not symmetric
    with pytest.raises(ValueError):
        eigensolver_oracle([[1, 2]])  # not square


def test_eigensolver_against_lapack():
    # residual contract: agree with an independent dense solver to 1e-9 * ||A||
    rng = np.random.default_rng(20240817)
    for n in (3, 10, 25, 40):
        a = rng.integers(-3, 4, size=(n, n)).astype(float)
        a = (a + a.T) / 2
        ours = np.array(eigensolver_oracle(a))
        theirs = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.max(np.abs(ours - theirs)) <= 1e-9 * max(1.0, np.linalg.norm(a))


def test_eigensolver_matches_exact_spectrum_523():
    g = build_inclusion_graph(GraphParams(5, 2, 3))
    numeric = eigensolver_oracle(g.adjacency_matrix())
    expect = [3.0] + [2.0] * 4 + [1.0] * 5 + [-1.0] * 5 + [-2.0] * 4 + [-3.0]
    assert numeric == pytest.approx(expect, abs=1e-8)


def test_compare_spectra_trivial_and_negative_control():
    zero3 = Spectrum([(ExactEigenvalue(0, 0), 3)])
    report = compare_spectra(zero3, [0.0, 0.0, 0.0], 1e-8)
    assert report.passed and report.max_deviation == 0.0

    params = GraphParams(4, 1, 2)
    g = build_inclusion_graph(params)
    numeric = eigensolver_oracle(g.adjacency_matrix())
    assert compare_spectra(spectrum_inclusion(params), numeric, 1e-8).passed
    for index in (0, 4, 9):
        perturbed = list(numeric)
        perturbed[index] += 1e-4 if index < 9 else -1e-4  # each stays in its place
        report = compare_spectra(spectrum_inclusion(params), perturbed, 1e-8)
        assert not report.passed
        assert (report.worst_index, report.worst_numeric) == (index, perturbed[index])


@pytest.mark.parametrize("spectrum", [spectrum_inclusion, spectrum_line_inclusion])
def test_compare_spectra_fails_on_a_nan_anywhere(spectrum):
    # sorted has no order for a NaN and max never prefers a NaN gap, so a
    # NaN past index 0 once passed with max_deviation 0.0
    exact = spectrum(GraphParams(4, 1, 2))
    floats = exact.to_floats()
    for index in range(len(floats)):
        numeric = list(floats)
        numeric[index] = float("nan")
        report = compare_spectra(exact, numeric, 1e-8)
        assert not report.passed, index
        assert np.isnan(report.max_deviation) and np.isnan(report.worst_numeric), index


def test_eigenvalue_at_walks_the_expanded_multiset():
    spec = spectrum_inclusion(GraphParams(4, 1, 2))
    expanded = [spec.eigenvalue_at(i) for i in range(spec.total_multiplicity)]
    assert [format_eigenvalue(ev) for ev in expanded] == (
        ["√6"] + ["√2"] * 3 + ["0"] * 2 + ["-√2"] * 3 + ["-√6"]
    )
    assert [float(ev) for ev in expanded] == spec.to_floats()
    for index in (-1, spec.total_multiplicity):
        with pytest.raises(IndexError):
            spec.eigenvalue_at(index)


# the pair +-MIDPOINT_SURD, and the line spectra of G(n,1,3) whose fourth
# value (p - sqrt(d))/2, about 2/n, cancels: each value once
_ROUNDING_SPECTRA = [
    Spectrum([(MIDPOINT_SURD, 1), (Eigenvalue(0, -1, MIDPOINT_SURD.r), 1)]),
    *(
        Spectrum([(ev, 1) for ev, _ in spectrum_line_inclusion(GraphParams(n, 1, 3)).entries])
        for n in (10**15, 10**18, 10**24)
    ),
]


@pytest.mark.parametrize("spec", _ROUNDING_SPECTRA, ids=["midpoint", "n=1e15", "n=1e18", "n=1e24"])
def test_to_floats_is_float_of_each_value(spec):
    # to_floats shares a radicand's roots between a pair, at every precision
    values = [ev for ev, _ in spec.entries]
    assert spec.to_floats() == [float(ev) for ev in values]
    for ev in values:
        if ev.e:
            assert_correctly_rounded(ev)


def reduced_oracle(params, line=False):
    """verify's numeric path: the spectrum from the reduced matrix."""
    ranks = inclusion_ranks(params)
    mu = eigensolver_oracle(reduced_matrix(ranks, params.n1, line))
    return expand_reduced(mu, ranks, line)


@pytest.mark.parametrize("block", [spectra_module._GRAM_BLOCK, 7])
def test_reduced_matrices_equal_the_explicit_products(block, monkeypatch):
    # a 7-entry block makes the Gram sum run over many blocks of l-subsets
    monkeypatch.setattr(spectra_module, "_GRAM_BLOCK", block)
    for params in canonical_params_up_to(7):
        a = build_inclusion_graph(params).adjacency_matrix()
        b = a[: params.n1, params.n1 :]
        ranks = inclusion_ranks(params)
        gram = reduced_matrix(ranks, params.n1)
        assert gram.dtype == np.float64 and np.array_equal(gram, b @ b.T), params
        q = reduced_matrix(ranks, params.n1, line=True)
        assert np.array_equal(q, np.diag(a.sum(axis=1)) + a), params


def test_reduced_oracle_equals_full_solve():
    lines = set()
    for params in canonical_params_up_to(8):
        g = build_inclusion_graph(params)
        cases = [(False, g)] + ([(True, build_line_graph(g))] if params.n <= 7 else [])
        for line, graph in cases:
            full = eigensolver_oracle(graph.adjacency_matrix())
            reduced = reduced_oracle(params, line)
            assert len(reduced) == len(full), (params, line)
            scale = max(1.0, abs(full[0]))
            assert np.max(np.abs(np.subtract(reduced, full))) <= 1e-9 * scale, (params, line)
            if line:
                lines.add((params.n, params.k, params.l))
    assert {(7, 2, 4), (7, 2, 5)} <= lines and len(lines) == len(list(canonical_params_up_to(7)))


def inclusion_spectrum_with_radicands(params, betas, line):
    """spectrum_inclusion (spectrum_line_inclusion with line), rebuilt from
    the given radicands."""
    mults = multiplicities(params.n, params.k)
    top = [(ExactEigenvalue(1, b), m) for b, m in zip(betas, mults)]
    if line:
        return spectrum_line_semiregular(params.n1, params.n2, params.r1, params.r2, top)
    bottom = [(ExactEigenvalue(-1, b), m) for b, m in zip(betas, mults)]
    return Spectrum(top + bottom + [(ExactEigenvalue(0, 0), params.n2 - params.n1)])


def test_reduced_oracle_rejects_a_radicand_off_by_one():
    for params in canonical_params_up_to(8):
        betas = radicands(params)
        for line in (False, True):
            numeric = reduced_oracle(params, line)
            spec = inclusion_spectrum_with_radicands(params, betas, line)
            assert compare_spectra(spec, numeric, 1e-8).passed, (params, line)
            # the line form requires beta_0 = r1*r2, its principal value
            for s in range(1 if line else 0, params.k + 1):
                bumped = betas[:s] + [betas[s] + 1] + betas[s + 1 :]
                spec = inclusion_spectrum_with_radicands(params, bumped, line)
                assert not compare_spectra(spec, numeric, 1e-8).passed, (params, line, s)


def test_reduced_oracle_rejects_a_moved_multiplicity():
    # one unit moved between neighbouring eigenvalues, the total unchanged:
    # the smallest change a multiplicity error can make to the sorted list
    for params in canonical_params_up_to(8):
        for line in (False, True):
            exact = (spectrum_line_inclusion if line else spectrum_inclusion)(params)
            numeric = reduced_oracle(params, line)
            assert compare_spectra(exact, numeric, 1e-8).passed
            entries = list(exact.entries)
            for i in range(len(entries) - 1):
                for src, dst in ((i, i + 1), (i + 1, i)):
                    moved = [(ev, m + (j == dst) - (j == src)) for j, (ev, m) in enumerate(entries)]
                    spec = Spectrum(moved)
                    assert spec.total_multiplicity == exact.total_multiplicity
                    assert not compare_spectra(spec, numeric, 1e-8).passed, (params, line, i)


def test_compare_spectra_length_mismatch():
    with pytest.raises(ValueError):
        compare_spectra(Spectrum([(ExactEigenvalue(0, 0), 2)]), [0.0], 1e-8)
