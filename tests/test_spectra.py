"""Tests for exact eigenvalue arithmetic, closed-form spectra and the
numeric solver cross-checks."""

import random
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from setincl import (
    ExactEigenvalue,
    GraphParams,
    Spectrum,
    SurdEigenvalue,
    beta,
    binom,
    build_inclusion_graph,
    build_line_graph,
    canonical_params_up_to,
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
    assert SurdEigenvalue(5, 25, 1).is_rational
    assert not SurdEigenvalue(5, 21, 1).is_rational


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


def test_spectrum_distinguishes_close_values():
    # sqrt(2e18) vs sqrt(8e18 + 1)/2 differ by ~9e-11, far below float64
    # resolution at this magnitude; ordering must still come out exact
    a = ExactEigenvalue(1, 2_000_000_000_000_000_000)
    b = SurdEigenvalue(0, 8_000_000_000_000_000_001, 1)
    spec = Spectrum([(a, 1), (b, 1)])
    assert len(spec) == 2
    assert spec.entries[0][0] == b
    assert spec.entries[1][0] == a


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
            assert _cmp_keys(k1, k2) == expect, (k1, k2)


def test_key_comparison_needs_no_working_precision():
    # sqrt(N^2 + 1) - N is below 1/(2N) = 2**-(2**20 + 9), past any fixed
    # precision; the sign test settles it with one squaring
    n = 1 << ((1 << 20) + 8)
    key = (-2 * n, 1, 4 * n * n + 4)  # (-2N + sqrt(4N^2 + 4))/2
    assert _cmp_keys(key, (0, 0, 0)) == 1
    assert _cmp_keys((0, 0, 0), key) == -1
    assert _cmp_keys(key, (-2 * n, 1, 4 * n * n + 5)) == -1


def test_huge_surd_pair_merges_without_a_square_root(monkeypatch):
    # 4N^2 + 4 is 8 modulo 63, which is no square modulo 9, so the residue
    # filter settles that the radicand is not a square
    n = 1 << ((1 << 20) + 8)
    d = 4 * n * n + 4

    def no_root(_):
        raise AssertionError("isqrt of a radicand of 2**21 bits")

    monkeypatch.setattr(spectra_module, "isqrt", no_root)
    spec = Spectrum([(SurdEigenvalue(-2 * n, d, 1), 1), (SurdEigenvalue(-2 * n, d, -1), 2)])
    assert [(ev.branch, m) for ev, m in spec.entries] == [(1, 1), (-1, 2)]
    assert not spec.entries[0][0].is_rational


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
        assert isinstance(top, ExactEigenvalue)
        assert top.sign == 1
        assert top.radicand == params.r1 * params.r2
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


@pytest.mark.parametrize("n,k,l", [(301, 20, 41), (300, 20, 280), (300, 20, 41)])
def test_spectra_match_beta_sum_reference(n, k, l):
    # reference: radicands from the paper's sum, multiplicities from binom
    params = GraphParams(n, k, l)
    top = [
        (ExactEigenvalue(1, beta(params, s)), binom(n, s) - binom(n, s - 1))
        for s in range(k + 1)
    ]
    negated = [(ExactEigenvalue(-1, ev.radicand), mult) for ev, mult in top]
    zero = [(ExactEigenvalue(0, 0), binom(n, l) - binom(n, k))]
    assert spectrum_inclusion(params) == Spectrum(top + negated + zero)
    assert spectrum_line_inclusion(params) == spectrum_line_semiregular(
        params.n1, params.n2, params.r1, params.r2, top
    )


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


def test_spectrum_line_semiregular_regular_bipartite_case():
    # 6-cycle: 2-regular bipartite on 3+3 vertices; line graph is again a 6-cycle
    top = [(ExactEigenvalue(1, 4), 1), (ExactEigenvalue(1, 1), 2)]
    spec = spectrum_line_semiregular(3, 3, 2, 2, top)
    assert spectrum_as_multiset(spec) == {"2": 1, "1": 2, "-1": 2, "-2": 1}


def test_spectrum_line_semiregular_validation():
    top = [(ExactEigenvalue(1, 4), 1), (ExactEigenvalue(1, 1), 2)]
    with pytest.raises(ValueError):
        spectrum_line_semiregular(4, 3, 2, 2, top)  # n1 > n2
    with pytest.raises(ValueError):
        spectrum_line_semiregular(3, 3, 2, 2, top[:1])  # multiplicities sum != n1
    bad_top = [(ExactEigenvalue(1, 5), 1), (ExactEigenvalue(1, 1), 2)]
    with pytest.raises(ValueError):
        spectrum_line_semiregular(3, 3, 2, 2, bad_top)  # principal != sqrt(r1 r2)


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
    csv = spec.to_csv_text().strip().split("\n")
    assert csv[0] == "value,multiplicity"
    assert len(csv) == 6
    assert csv[1].split(",")[1] == "1"
    assert float(csv[1].split(",")[0]) == pytest.approx(6**0.5)


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
