"""Tests for exact eigenvalue arithmetic, closed-form spectra and the
numeric solver cross-checks."""

from fractions import Fraction

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
    format_eigenvalue,
    spectrum_inclusion,
    spectrum_line_inclusion,
    spectrum_line_middle,
    spectrum_line_semiregular,
    spectrum_middle,
)
from setincl.errors import CapExceededError


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
    with pytest.raises(CapExceededError):
        eigensolver_oracle(np.zeros((5, 5)), max_dim=4)


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
    perturbed = list(numeric)
    perturbed[0] += 1e-4
    assert not compare_spectra(spectrum_inclusion(params), perturbed, 1e-8).passed


def test_compare_spectra_length_mismatch():
    with pytest.raises(ValueError):
        compare_spectra(Spectrum([(ExactEigenvalue(0, 0), 2)]), [0.0], 1e-8)
