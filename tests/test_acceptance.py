"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to watch the lines as they appear;
without -s pytest shows them for failing criteria only.
"""

from math import factorial

from setincl import (
    GraphParams,
    beta,
    beta_middle,
    binom,
    brute_force_aut_order,
    build_inclusion_graph,
    build_line_graph,
    compare_spectra,
    eigensolver_oracle,
    aut_group,
    johnson_scheme_holds,
    orbit_count,
    spectrum_inclusion,
    spectrum_line_inclusion,
    spectrum_line_middle,
)

from reference_helpers import (
    canonical_params_up_to,
    common_neighbor_fingerprint,
    pointwise_stabilizer_trivial,
)
from reference_ranks import vertex_sets

TOL = 1e-8


def report(number, ok, text):
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_01_spectrum_vs_oracle():
    failures = []
    for params in canonical_params_up_to(8):
        g = build_inclusion_graph(params)
        result = compare_spectra(
            spectrum_inclusion(params), eigensolver_oracle(g.adjacency_matrix()), TOL
        )
        if not result.passed:
            failures.append((params, result.max_deviation))
    report(1, not failures,
           f"closed-form vs oracle on all canonical graphs, 3 <= n <= 8 {failures}")


def test_criterion_02_line_spectrum_vs_oracle():
    failures = []
    checked_surd_case = False
    for params in canonical_params_up_to(7):
        lg = build_line_graph(build_inclusion_graph(params))
        if lg.num_vertices > 2000:
            continue
        result = compare_spectra(
            spectrum_line_inclusion(params), eigensolver_oracle(lg.adjacency_matrix()), TOL
        )
        if not result.passed:
            failures.append((params, result.max_deviation))
        if (params.n, params.k, params.l) == (5, 1, 3):
            checked_surd_case = True
    report(2, not failures and checked_surd_case,
           f"line-graph closed form vs oracle, 3 <= n <= 7, surd family included {failures}")


def test_criterion_03_integral_line_spectrum_distinct_values():
    failures = []
    for n in range(4, 8):
        values = sorted(round(float(ev)) for ev, _ in spectrum_line_middle(n, 1).entries)
        if values != [-2, -1, 0, n - 2, n - 1]:
            failures.append((n, values))
    report(3, not failures,
           f"distinct line-spectrum values are -2,-1,0,n-2,n-1 for n=4..7 {failures}")


def test_criterion_04_top_radicand_identity():
    failures = []
    for params in canonical_params_up_to(30):
        expect = binom(params.n - params.k, params.l - params.k) * binom(params.l, params.k)
        if beta(params, 0) != expect:
            failures.append(params)
    report(4, not failures, f"beta_0 equals r1*r2 for all canonical n <= 30 {failures}")


def test_criterion_05_layer_radicand_product_form():
    failures = []
    for n in range(3, 31):
        for k in range(1, (n - 1) // 2 + 1):
            params = GraphParams(n, k, k + 1)
            for s in range(k + 1):
                if beta(params, s) != (n - k - s) * (k + 1 - s) or beta(
                    params, s
                ) != beta_middle(n, k, s):
                    failures.append((n, k, s))
    report(5, not failures, f"beta equals (n-k-s)(k+1-s) at l=k+1 for n <= 30 {failures}")


def test_criterion_06_scheme_identities():
    failures = []
    for n in range(1, 11):
        for k in range(n // 2 + 1):
            if not johnson_scheme_holds(n, k):
                failures.append((n, k))
    report(6, not failures, f"scheme intersection numbers counted exactly for n <= 10 {failures}")


def test_criterion_07_aut_order_oracle():
    named = {(4, 1, 2): 24, (4, 1, 3): 48, (5, 1, 2): 120, (5, 1, 4): 240,
             (5, 2, 3): 240, (6, 1, 2): 720, (6, 2, 3): 720}
    instances = list(canonical_params_up_to(9))
    covered = {(p.n, p.k, p.l) for p in instances}
    failures = [triple for triple in named if triple not in covered]
    if len(instances) != 50:
        failures.append(("instances", len(instances)))
    for params in instances:
        expect = factorial(params.n)
        if params.k + params.l == params.n:
            expect *= 2
        got = brute_force_aut_order(build_inclusion_graph(params))
        if got != expect:
            failures.append((params, got, expect))
        triple = (params.n, params.k, params.l)
        if triple in named and got != named[triple]:
            failures.append((triple, got, named[triple]))
    report(7, not failures,
           f"searched group order equals n! or 2n! on {len(instances)} instances {failures}")


def test_criterion_08_pointwise_stabilizer():
    failures = [p for p in canonical_params_up_to(8)
                if not pointwise_stabilizer_trivial(build_inclusion_graph(p))]
    report(8, not failures, f"only the identity fixes the whole k-side {failures}")


def test_criterion_09_fingerprint_determines_intersection():
    failures = []
    for params in canonical_params_up_to(8):
        g = build_inclusion_graph(params)
        n, k, l = params.n, params.k, params.l
        lo = max(2 * k - l, 0)
        formula = {i: binom(n - 2 * k + i, l - 2 * k + i) for i in range(lo, k)}
        if len(set(formula.values())) != len(formula):
            failures.append((params, "fingerprint map not injective"))
            continue
        inverse = {fp: i for i, fp in formula.items()}
        sets = vertex_sets(params)
        for u in range(g.v1_count):
            for v in range(u + 1, g.v1_count):
                i = len(sets[u] & sets[v])
                fp = common_neighbor_fingerprint(g, u, v)
                ok = fp == formula[i] and inverse[fp] == i if i in formula else fp == 0
                if not ok:
                    failures.append((params, u, v, i, fp))
    report(9, not failures,
           f"common-neighbor counts pin down |u n v| on every n <= 8 graph {failures[:3]}")


def test_criterion_10_orbit_counts():
    failures = []
    for params in canonical_params_up_to(8):
        g = build_inclusion_graph(params)
        gens = aut_group(params).generators
        if orbit_count(g, gens, on="edges") != 1:
            failures.append((params, "edges"))
        balanced = params.k + params.l == params.n
        if not balanced and params.r1 == params.r2:
            failures.append((params, "degree classes collide"))
        if orbit_count(g, gens, on="arcs") != (1 if balanced else 2):
            failures.append((params, "arcs"))
    report(10, not failures,
           f"edge-transitive always, arc-transitive exactly at k+l=n {failures}")


def test_criterion_11_exact_trace_identities():
    failures = []
    for params in canonical_params_up_to(12):
        spec = spectrum_inclusion(params)
        sum1 = spec.power_sum(1)
        sum2 = spec.power_sum(2)
        if sum1 != (0, {}) or sum2 != (2 * params.n1 * params.r1, {}):
            failures.append(params)
    report(11, not failures,
           f"exact trace identities on all canonical n <= 12 {failures}")
