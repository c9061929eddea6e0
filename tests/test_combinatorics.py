"""Tests for the exact integer quantities (binomials, relation eigenvalues,
inclusion-graph radicands, intersection numbers)."""

from math import comb

import numpy as np
import pytest

from setincl import (
    GraphParams,
    alpha,
    beta,
    beta_middle,
    binom,
    eigensolver_oracle,
    intersection_number,
    johnson_scheme_holds,
    multiplicities,
    radicands,
    spectrum_line_middle,
    spectrum_middle,
)
from setincl.cli import main

from reference_helpers import (
    build_johnson_graph,
    canonical_params_up_to,
    intersection_number_by_full_sum,
)


def test_binom_conventions():
    assert binom(5, 2) == 10
    assert binom(3, 5) == 0
    assert binom(4, -1) == 0
    assert binom(-2, 1) == 0
    assert binom(-1, 0) == 0
    assert binom(0, 0) == 1
    assert binom(7, 0) == 1


def test_binom_matches_stdlib_on_valid_range():
    for a in range(13):
        for b in range(a + 1):
            assert binom(a, b) == comb(a, b)


def test_alpha_identity_relation_is_all_ones():
    for n in range(2, 11):
        for k in range(n // 2 + 1):
            for s in range(k + 1):
                assert alpha(n, k, k, s) == 1


def test_alpha_frozen_small_cases():
    # complete graph on 4 vertices: spectrum {3, -1, -1, -1}
    assert alpha(4, 1, 0, 0) == 3
    assert alpha(4, 1, 0, 1) == -1
    # triangular graph on 2-subsets of a 5-set is 6-regular
    assert alpha(5, 2, 1, 0) == 6


@pytest.mark.parametrize(
    "n,k,i",
    [(4, 1, 0), (5, 2, 0), (5, 2, 1), (6, 2, 1), (6, 3, 2), (7, 3, 1)],
)
def test_alpha_against_eigensolver(n, k, i):
    # oracle: dense eigensolver on the explicit relation graph
    g = build_johnson_graph(n, k, i)
    numeric = eigensolver_oracle(g.adjacency_matrix())
    expanded = []
    for s in range(k + 1):
        expanded.extend([alpha(n, k, i, s)] * (binom(n, s) - binom(n, s - 1)))
    expanded.sort(reverse=True)
    assert len(expanded) == len(numeric)
    assert max(abs(e - x) for e, x in zip(expanded, numeric)) < 1e-8


def test_alpha_bounds():
    with pytest.raises(ValueError):
        alpha(4, 3, 0, 0)  # k > n/2
    with pytest.raises(ValueError):
        alpha(4, 1, 2, 0)  # i > k
    with pytest.raises(ValueError):
        alpha(4, 1, 0, 2)  # s > k
    with pytest.raises(ValueError):
        alpha(4, 1, 0, -1)


def test_beta_frozen_values():
    assert [beta(GraphParams(4, 1, 2), s) for s in range(2)] == [6, 2]
    assert [beta(GraphParams(5, 2, 3), s) for s in range(3)] == [9, 4, 1]


def test_beta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        beta(GraphParams(5, 2, 4), 0)  # k+l > n
    with pytest.raises(ValueError):
        beta(GraphParams(4, 1, 2), 2)  # s > k
    with pytest.raises(ValueError):
        beta(GraphParams(4, 1, 2), -1)


def test_beta_nonnegative_and_top_value():
    for params in canonical_params_up_to(12):
        values = [beta(params, s) for s in range(params.k + 1)]
        assert all(v >= 0 for v in values)
        assert values[0] == binom(params.n - params.k, params.l - params.k) * binom(
            params.l, params.k
        )


def test_radicands_match_beta_sum():
    # reference: the paper's sum over the intersection relations
    for params in canonical_params_up_to(30):
        assert radicands(params) == [beta(params, s) for s in range(params.k + 1)]
    with pytest.raises(ValueError):
        radicands(GraphParams(5, 2, 4))  # k+l > n


def test_multiplicities_match_binomial_differences():
    cases = [(n, k) for n in range(65) for k in range(n // 2 + 1)]
    cases += [(1000, 500), (2047, 300), (3001, 400), (4096, 37)]
    for n, k in cases:
        assert multiplicities(n, k) == [binom(n, s) - binom(n, s - 1) for s in range(k + 1)]
    with pytest.raises(ValueError):
        multiplicities(5, 3)  # k > n/2
    with pytest.raises(ValueError):
        multiplicities(5, -1)


def test_multiplicities_and_beta_middle_take_ints():
    # numpy ints give the Python-int results; int64 arithmetic would wrap at
    # C(100, 30) > 2^63
    got = multiplicities(np.int64(100), np.int64(30))
    assert got == multiplicities(100, 30) and all(type(m) is int for m in got)
    assert got[-1] == comb(100, 30) - comb(100, 29)
    got = beta_middle(np.int64(7), np.int64(2), np.int64(1))
    assert got == beta_middle(7, 2, 1) == 8 and type(got) is int
    for call in (
        lambda: multiplicities(7.5, 2),
        lambda: multiplicities(7, 2.0),
        lambda: beta_middle(7, 2.0, 1),
        lambda: beta_middle(7, 2, 1.0),
    ):
        with pytest.raises(TypeError):
            call()


def test_every_nk_range_check_keeps_its_message(capsys):
    # one check serves the six callers: each keeps its message and exception
    whole, middle = "need 0 <= k <= n/2, got n=5, k=3", "need 1 <= k <= (n-1)/2, got n={}, k={}"
    calls = [(multiplicities, (5, 3), whole), (johnson_scheme_holds, (5, 3), whole)]
    for nk in ((4, 2), (5, 0)):
        calls += [(f, nk, middle.format(*nk)) for f in (spectrum_middle, spectrum_line_middle)]
        calls.append((beta_middle, (*nk, 0), middle.format(*nk)))
    for f, args, message in calls:
        with pytest.raises(ValueError) as info:
            f(*args)
        assert str(info.value) == message, f
        with pytest.raises(TypeError):
            f(float(args[0]), *args[1:])
    assert main(["scheme", "5", "3"]) == 64
    assert capsys.readouterr().err == f"setincl: error: {whole}\n"


def test_beta_middle_frozen_values():
    assert beta_middle(4, 1, 0) == 6
    assert beta_middle(4, 1, 1) == 2
    assert beta_middle(5, 2, 2) == 1


def test_beta_middle_matches_beta():
    for n in range(3, 13):
        for k in range(1, (n - 1) // 2 + 1):
            params = GraphParams(n, k, k + 1)
            for s in range(k + 1):
                assert beta_middle(n, k, s) == beta(params, s)


def test_beta_middle_bounds():
    with pytest.raises(ValueError):
        beta_middle(4, 1, 2)  # s > k
    with pytest.raises(ValueError):
        beta_middle(4, 2, 0)  # k > (n-1)/2
    with pytest.raises(ValueError):
        beta_middle(5, 0, 0)


def test_intersection_number_rejects_equal_relations():
    with pytest.raises(ValueError):
        intersection_number(6, 2, 1, 1, 0)


def test_intersection_number_bounds():
    with pytest.raises(ValueError):
        intersection_number(5, 3, 0, 1, 0)  # k > n/2
    with pytest.raises(ValueError):
        intersection_number(6, 2, 0, 3, 0)  # j > k
    with pytest.raises(ValueError):
        intersection_number(6, 2, 0, 1, 3)  # s > k


def test_intersection_number_vanishes_on_diagonal_coefficient():
    # A_i A_j has zero diagonal for i != j, so the identity coefficient is 0
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            for i in range(k + 1):
                for j in range(k + 1):
                    if i != j:
                        assert intersection_number(n, k, i, j, k) == 0


def test_intersection_number_matches_full_range_sum():
    # every argument up to n = 12; test_properties draws them up to n = 400
    for n in range(13):
        for k in range(n // 2 + 1):
            for i in range(k + 1):
                for j in range(k + 1):
                    if i != j:
                        for s in range(k + 1):
                            expect = intersection_number_by_full_sum(n, k, i, j, s)
                            assert intersection_number(n, k, i, j, s) == expect


@pytest.mark.parametrize("n,k", [(5, 2), (6, 2), (6, 3), (7, 3)])
def test_intersection_number_against_matrix_products(n, k):
    # oracle: explicit matrix multiplication of the relation adjacencies,
    # with the identity for relation k
    mats = [build_johnson_graph(n, k, i).adjacency_matrix() for i in range(k)]
    mats.append(np.eye(comb(n, k), dtype=np.int64))
    for i in range(k + 1):
        for j in range(k + 1):
            if i == j:
                continue
            expect = sum(
                intersection_number(n, k, i, j, s) * mats[s] for s in range(k + 1)
            )
            assert np.array_equal(mats[i] @ mats[j], expect)


def test_intersection_number_frozen_case():
    # relation product A_0 A_1 on 2-subsets of a 6-set: coefficients 4, 3, 0
    assert [intersection_number(6, 2, 0, 1, s) for s in range(3)] == [4, 3, 0]
