"""Tests for graph construction, subset ranking and interchange formats."""

import subprocess
import sys
import time
import tracemalloc
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

import setincl.graphs as graphs_module
from setincl import (
    CapExceededError,
    Graph,
    GraphParams,
    build_inclusion_graph,
    build_line_graph,
    canonicalize,
    colex_ranks,
    export_graph,
    inclusion_ranks,
    johnson_scheme_holds,
    parse_graph6,
    subset_positions,
)
from setincl.cli import main

from reference_export import reference_export
import reference_helpers
from reference_helpers import (
    assert_matches_reference_csr,
    build_johnson_graph,
    canonical_params_up_to,
    dense_scheme_holds,
    is_connected,
    meets,
    reference_csr,
)
from reference_ranks import mask_of, subset_rank, subset_unrank, vertex_sets


def test_params_validation():
    with pytest.raises(ValueError):
        GraphParams(4, 2, 2)  # k == l
    with pytest.raises(ValueError):
        GraphParams(4, 0, 2)  # k < 1
    with pytest.raises(ValueError):
        GraphParams(4, 1, 4)  # l > n-1
    # every field is an integer: 6.5 is not truncated nor "6" parsed, and
    # numpy integers are stored as Python ints
    for fields in ((6.5, 2, 3), ("6", 2, 3)):
        with pytest.raises(TypeError):
            GraphParams(*fields)
    p = GraphParams(np.int64(6), np.int32(2), np.int64(3))
    assert [type(x) for x in (p.n, p.k, p.l)] == [int, int, int] and p.n1 == 15


def test_params_accessors():
    p = GraphParams(5, 2, 3)
    assert (p.n1, p.n2, p.r1, p.r2) == (10, 10, 3, 3)
    p = GraphParams(6, 1, 3)
    assert (p.n1, p.n2, p.r1, p.r2) == (6, 20, 10, 3)


def test_canonicalize():
    assert canonicalize(GraphParams(4, 1, 2)) == (GraphParams(4, 1, 2), False)
    assert canonicalize(GraphParams(5, 3, 4)) == (GraphParams(5, 1, 2), True)
    assert canonicalize(GraphParams(6, 2, 5)) == (GraphParams(6, 1, 4), True)


def test_enumerate_subsets_order():
    assert subset_positions(3, 1).tolist() == [[0], [1], [2]]
    rows = subset_positions(4, 2)
    assert rows.dtype == np.int64 and rows.shape == (6, 2)
    assert rows[0].tolist() == [0, 1] and rows[-1].tolist() == [2, 3]
    assert (rows[:, 1:] > rows[:, :-1]).all()  # each row ascends
    masks = [mask_of(row) for row in rows.tolist()]
    assert masks == sorted(masks)  # colex = numeric order of masks at fixed size
    assert subset_positions(5, 0).shape == (1, 0)


def test_enumerate_subsets_counts():
    # the reference is itertools' enumeration, put in colex order
    for n in range(12):
        for size in range(n + 1):
            rows = subset_positions(n, size).tolist()
            assert len(rows) == len(set(map(tuple, rows))) == comb(n, size)
            expect = sorted(combinations(range(n), size), key=lambda c: c[::-1])
            assert rows == [list(c) for c in expect]


def test_enumerate_one_subsets_in_one_write():
    # level 1 is one arange; one Python step per element took about 1 s
    start = time.perf_counter()
    rows = subset_positions(10**6, 1)
    assert time.perf_counter() - start < 0.1
    assert rows.shape == (10**6, 1) and np.array_equal(rows[:, 0], np.arange(10**6))


def test_enumerate_subsets_bounds():
    with pytest.raises(ValueError):
        subset_positions(3, 4)
    with pytest.raises(ValueError):
        subset_positions(3, -1)
    # no bound on the ground set: 65 and more elements are rows like any others
    assert subset_positions(65, 1).tolist() == [[e] for e in range(65)]
    wide = subset_positions(130, 129)
    assert wide[0].tolist() == list(range(129)) and wide[-1].tolist() == list(range(1, 130))
    # C(64, 32) rows of 32 entries are past numpy's array limit: refused
    # with the size in bytes, from the library as from the CLI's preflight
    bytes_ = f"byte count of the l-subset rows is {8 * 32 * comb(64, 32)}, numpy's array limit"
    with pytest.raises(CapExceededError, match=bytes_):
        subset_positions(64, 32)
    with pytest.raises(CapExceededError, match=bytes_):
        build_inclusion_graph(GraphParams(64, 2, 32))


def test_rank_unrank_roundtrip_exhaustive():
    for n in (8, 12, 14):
        for size in range(n + 1):
            rows = subset_positions(n, size)
            if size:
                assert np.array_equal(colex_ranks(rows.T, n), np.arange(len(rows)))
            for rank, row in enumerate(rows.tolist()):
                assert subset_rank(mask_of(row)) == rank
                assert subset_unrank(size, rank) == mask_of(row)


def test_rank_unrank_roundtrip_large_ground_set():
    # sampled ranks including both ends of each class whose ranks fit int64.
    # The last 15-subset of a 124-set reads C(123, 15), between 2**62 and
    # 2**63; at n = 130 the Pascal column that colex_ranks carries holds
    # entries past 2**63 from C(129, 15) on, so the classes of 116 to 129
    # elements go through columns whose larger entries wrapped
    for n, samples in ((17, 97), (20, 97), (65, 13), (124, 13), (130, 13)):
        for size in range(n + 1):
            count = comb(n, size)
            if count > 2**63:
                continue
            step = max(1, count // samples)
            ranks = sorted(set(range(0, count, step)) | {0, count - 1})
            masks = [subset_unrank(size, rank) for rank in ranks]
            assert all(m.bit_count() == size and m < (1 << n) for m in masks)
            assert [subset_rank(m) for m in masks] == ranks
            if size:
                rows = np.array([[e for e in range(n) if m >> e & 1] for m in masks])
                assert np.array_equal(colex_ranks(rows.T, n), ranks), (n, size)


def test_inclusion_graph_small_case_against_direct_construction():
    g = build_inclusion_graph(GraphParams(4, 1, 2))
    assert g.num_vertices == 10
    assert g.num_edges == 12
    assert sorted({g.degree(v) for v in range(4)}) == [3]
    assert sorted({g.degree(v) for v in range(4, 10)}) == [2]
    # independent edge set from raw subsets
    singletons = [frozenset([i]) for i in range(4)]
    pairs = [frozenset(c) for c in combinations(range(4), 2)]
    expect = set()
    for a in singletons:
        for b in pairs:
            if a < b:
                expect.add((a, b))
    got = set()
    sets = vertex_sets(g.params)
    for u, v in g.edges():
        got.add((sets[u], sets[v]))
    assert got == expect


def test_inclusion_graph_semiregular_audit():
    for params in canonical_params_up_to(9):
        g = build_inclusion_graph(params)
        n1, n2 = params.n1, params.n2
        assert g.num_vertices == n1 + n2
        assert g.num_edges == n1 * params.r1 == n2 * params.r2
        assert all(g.degree(v) == params.r1 for v in range(n1))
        assert all(g.degree(v) == params.r2 for v in range(n1, n1 + n2))
        assert is_connected(g)


# every canonical n <= 9, and three with n = 65
_INCLUSION_CASES = [*canonical_params_up_to(9), *map(GraphParams, (65, 65, 65), (1, 1, 2), (2, 64, 3))]


def _rank_edges(params):
    """The edges (k-rank, n1 + i) of the rank rows, row by row."""
    ranks = inclusion_ranks(params)
    return np.column_stack((ranks.ravel(), np.repeat(np.arange(params.n2) + params.n1, params.r2)))


def test_inclusion_graph_csr_matches_generic_build():
    # indptr, indices, edges() and lower_edges(), made from the rank rows,
    # against one sort of all the arcs of the same edges
    for params in _INCLUSION_CASES:
        assert_matches_reference_csr(build_inclusion_graph(params), _rank_edges(params))


def test_subset_graph_lower_edges_are_the_generic_lower_edges():
    # lower_edges() lists (hi, lo), hi > lo, by ascending hi*nv + lo, its
    # keys _keys, and given images, the images of those two arrays
    rng = np.random.default_rng(0)
    for params in _INCLUSION_CASES:
        g = build_inclusion_graph(params)
        nv = g.num_vertices
        hi, lo = g.lower_edges()
        assert (hi > lo).all() and (np.diff(hi * nv + lo) > 0).all(), params
        images = rng.permutation(nv)
        want = reference_csr(nv, _rank_edges(params)).lower_edges
        assert np.array_equal(g._keys, want[0] * nv + want[1]), params
        for got, ref in zip(g.lower_edges(images), want):
            assert np.array_equal(got, images[ref]), params


def test_line_and_johnson_graphs_match_the_reference_csr():
    # both are built through Graph(num_vertices, edges); their edges are
    # found here from the definitions: two edges of g that share an end,
    # and two k-subsets (colex unranked bitmasks) that share i elements
    for params in [*canonical_params_up_to(9), GraphParams(65, 1, 2)]:
        ends = reference_csr(params.n1 + params.n2, _rank_edges(params)).edges.tolist()
        incident = {}
        for e, pair in enumerate(ends):
            for v in pair:
                incident.setdefault(v, []).append(e)
        pairs = [pair for edges in incident.values() for pair in combinations(edges, 2)]
        assert_matches_reference_csr(build_line_graph(build_inclusion_graph(params)), pairs)
    for n in range(2, 10):
        for k in range(1, n // 2 + 1):
            masks = [subset_unrank(k, r) for r in range(comb(n, k))]
            for i in range(k):
                pairs = [
                    (a, b) for a, b in combinations(range(len(masks)), 2)
                    if (masks[a] & masks[b]).bit_count() == i
                ]
                assert_matches_reference_csr(build_johnson_graph(n, k, i), pairs)


def test_subset_graph_builds_its_k_side_rows_when_first_read():
    # the build holds the rank rows only.  graph6 export reads them as they
    # are; edges() and the text exports sort the codes lo * nv + hi afresh
    # and keep nothing; only the automorphism checks make the keys, and
    # only indices (or indptr) the CSR arrays, which
    # test_inclusion_graph_csr_matches_generic_build compares
    made = {"indptr", "indices", "_upper_codes", "_keys"}
    for params in canonical_params_up_to(8):
        g = build_inclusion_graph(params)
        assert made.isdisjoint(vars(g)), params
        export_graph(g, "graph6")
        assert made.isdisjoint(vars(g)), params
        for fmt in ("edgelist", "dot"):
            export_graph(g, fmt)
        assert np.array_equal(g.edges(), reference_csr(g.num_vertices, _rank_edges(params)).edges)
        assert made.isdisjoint(vars(g)), params


def _export_peak(monkeypatch, fmt):
    """tracemalloc's peak over the build plus a text export at (16,4,8),
    which must not read Graph.edges(), the (m, 2) rows."""
    def refused(self):
        raise AssertionError("a text export read Graph.edges()")
    monkeypatch.setattr(Graph, "edges", refused)
    tracemalloc.start()
    try:
        export_graph(build_inclusion_graph(GraphParams(16, 4, 8)), fmt)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_edgelist_export_with_its_build_keeps_no_codes(monkeypatch):
    # 900,900 edges, 7.2 MB an int64 array of them, and 8.8 MB of text.  The
    # peak is 26.8 MB; with the (m, 2) rows and one preallocated text buffer
    # copied by tobytes() it was 42.3 MB
    peak = _export_peak(monkeypatch, "edgelist")
    assert peak < 30e6, peak


def test_dot_export_with_its_build_keeps_no_codes(monkeypatch):
    # 14.3 MB of text: the peak is 37.4 MB, and it was 54.2 MB with the rows
    # and the buffer
    peak = _export_peak(monkeypatch, "dot")
    assert peak < 40e6, peak


_BAD_RANKS = """
import sys
import setincl.graphs as graphs
from setincl import GraphParams
ranks = graphs.inclusion_ranks
def edited(params):
    rows = ranks(params)
    return {edit}
graphs.inclusion_ranks = edited
try:
    graphs.build_inclusion_graph(GraphParams(5, 1, 2))
except AssertionError as exc:
    print(sys.flags.optimize, "refused:", exc)
"""


@pytest.mark.parametrize("edit,reason", [
    ("rows[:, ::-1]", "does not strictly ascend"),  # the row [1, 0] among them
    ("rows[[0, 0, *range(2, len(rows))]]", "k-degree"),  # row 1 becomes row 0
])
@pytest.mark.parametrize("optimize", [0, 1])
def test_inclusion_graph_refuses_bad_rank_rows_under_python_O(edit, reason, optimize):
    # the checks raise, so python -O, which strips assert statements, keeps them
    command = [sys.executable, *["-O"] * optimize, "-c", _BAD_RANKS.format(edit=edit)]
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(command, capture_output=True, text=True, env={"PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith(f"{optimize} refused:") and reason in run.stdout, run.stdout


def test_inclusion_graph_rejects_noncanonical():
    with pytest.raises(ValueError, match=r"\(5,2,4\)"):
        build_inclusion_graph(GraphParams(5, 2, 4))
    with pytest.raises(ValueError, match=r"\(5,2,4\)"):
        inclusion_ranks(GraphParams(5, 2, 4))


def test_inclusion_ranks_are_the_k_side_neighbours():
    # l-subsets of {0..3} in colex order: 01, 02, 12, 03, 13, 23
    assert inclusion_ranks(GraphParams(4, 1, 2)).tolist() == [
        [0, 1], [0, 2], [1, 2], [0, 3], [1, 3], [2, 3]
    ]
    for params in canonical_params_up_to(8):
        ranks = inclusion_ranks(params)
        assert ranks.dtype == np.int64 and ranks.shape == (params.n2, params.r2)
        g = build_inclusion_graph(params)
        sets = vertex_sets(params)
        for i, row in enumerate(ranks):
            assert np.array_equal(row, g.neighbors(params.n1 + i)), (params, i)
            assert all(sets[r] <= sets[params.n1 + i] for r in row)


def reference_rank_row(params, i):
    """Row i of inclusion_ranks, one subset at a time: the colex ranks of
    the k-subsets inside the l-subset of rank i, ascending."""
    mask = subset_unrank(params.l, i)
    elements = [e for e in range(params.n) if mask >> e & 1]
    return sorted(subset_rank(mask_of(c)) for c in combinations(elements, params.k))


def test_inclusion_ranks_match_the_reference():
    for params in canonical_params_up_to(10):
        expect = [reference_rank_row(params, i) for i in range(params.n2)]
        assert inclusion_ranks(params).tolist() == expect, params
    # elements past bit 63 of a mask; (66, 2, 64) has 63 blocks at level 2
    # and (65, 3, 4) three levels.  Sampled rows, both ends included
    for params in map(GraphParams, (66, 65), (2, 3), (64, 4)):
        ranks = inclusion_ranks(params)
        assert ranks.shape == (params.n2, params.r2)
        for i in sorted({*range(0, params.n2, params.n2 // 13), params.n2 - 1}):
            assert ranks[i].tolist() == reference_rank_row(params, i), (params, i)


def test_colex_ranks_number_the_vertices():
    # a vertex's index from its subset alone: the colex rank of its sorted
    # elements, after the n1 k-subsets when it is an l-subset
    params = GraphParams(5, 2, 3)
    for idx, subset in enumerate(vertex_sets(params)):
        rank = int(colex_ranks(np.array([sorted(subset)]).T, params.n)[0])
        assert (rank if len(subset) == params.k else params.n1 + rank) == idx
        assert subset_rank(mask_of(subset)) == rank


def test_complement_bijection_preserves_adjacency():
    # map v -> complement from G(n,k,l) into the (generally non-canonical)
    # graph on (n-l)- and (n-k)-subsets, built directly from raw subsets
    for params in canonical_params_up_to(8):
        g = build_inclusion_graph(params)
        n = params.n
        full = (1 << n) - 1
        masks = [mask_of(s) for s in vertex_sets(params)]
        comp_edges = set()
        for u, v in g.edges():
            a, b = full ^ masks[u], full ^ masks[v]
            comp_edges.add((min(a, b), max(a, b)))
        expect = set()
        small = [sum(1 << i for i in c) for c in combinations(range(n), n - params.l)]
        for s in small:
            rest = full ^ s
            for c in combinations([i for i in range(n) if rest >> i & 1],
                                  (n - params.k) - (n - params.l)):
                t = s | sum(1 << i for i in c)
                expect.add((min(s, t), max(s, t)))
        assert comp_edges == expect


def test_johnson_graph_cases():
    k4 = build_johnson_graph(4, 1, 0)
    assert k4.num_vertices == 4 and k4.num_edges == 6
    j52 = build_johnson_graph(5, 2, 1)
    assert j52.num_vertices == 10
    assert all(j52.degree(v) == 6 for v in range(10))
    petersen = build_johnson_graph(5, 2, 0)
    assert all(petersen.degree(v) == 3 for v in range(10))
    assert is_connected(petersen)


def test_johnson_bounds():
    with pytest.raises(ValueError):
        build_johnson_graph(5, 3, 0)  # k > n/2
    with pytest.raises(ValueError):
        build_johnson_graph(5, 2, 3)  # i > k


def test_johnson_identity_relation():
    # relation k joins every k-subset to itself: loops only, no simple graph
    with pytest.raises(ValueError):
        build_johnson_graph(5, 2, 2)
    with pytest.raises(ValueError):
        Graph(10, [(v, v) for v in range(10)])


def test_meets_counts_common_elements():
    # the dense reference's input against an independent path: the k-subsets
    # as sets, in colex order (the numeric order of their masks)
    for n in range(1, 11):
        for k in range(n // 2 + 1):
            sets = sorted(map(frozenset, combinations(range(n), k)), key=mask_of)
            expect = [[len(a & b) for b in sets] for a in sets]
            assert np.array_equal(meets(n, k), expect), (n, k)


def test_scheme_counts_are_the_dense_products_on_every_relation():
    # the count at (A, B_s) is (A_i A_j)[X, Y] for every pair (X, Y) in
    # relation s, as Sym(n) is transitive on those pairs: each dense product
    # is constant on each relation, and that constant is the counted
    # table[s, i, j], for every i and j, i = j included
    for n in range(13):
        for k in range(n // 2 + 1):
            table = graphs_module._scheme_counts(n, k)
            label = meets(n, k).astype(np.uint8)
            mats = [(label == s).astype(np.float32) for s in range(k)]
            for i in range(k + 1):
                for j in range(i, k + 1):
                    # A_k = I (test_meets_counts_common_elements); A_j A_i
                    # is the transpose
                    prod = mats[i] @ mats[j] if j < k else (label == i).astype(np.float32)
                    assert np.array_equal(prod, table[:, i, j][label]), (n, k, i, j)
                    assert np.array_equal(prod.T, table[:, j, i][label]), (n, k, j, i)


def test_representatives_meet_a_in_s_points():
    # the count reads only the elements below 2k
    for k in range(8):
        for s, b in enumerate(graphs_module._representatives(k)):
            assert len(b) == k and b == sorted(set(b)) and set(b) <= set(range(2 * k))
            assert len(set(b) & set(range(k))) == s


# Negative controls: each breaks one ingredient of a scheme check and
# returns the check that must then fail.  johnson_scheme_holds must report
# FAIL through the CLI as well; the dense reference is not on the CLI.
SCHEME_N, SCHEME_K = 7, 3


def _shift_intersection_number(monkeypatch, i, j, s):
    """Make p^s_ij, for this order of i and j only, one too large."""
    exact = graphs_module.intersection_number

    def shifted(n, k, a, b, t):
        return exact(n, k, a, b, t) + ((a, b, t) == (i, j, s))

    monkeypatch.setattr(graphs_module, "intersection_number", shifted)
    return johnson_scheme_holds


def _edit_labels(monkeypatch, edit):
    """Let edit(label) change the intersection-size matrix in place before
    the dense reference reads it."""
    exact = reference_helpers.meets

    def edited(n, k):
        label = exact(n, k)
        edit(label)
        return label

    monkeypatch.setattr(reference_helpers, "meets", edited)
    return dense_scheme_holds


def _edit_subsets(monkeypatch, edit):
    """Let edit(rows) replace the k-subsets' element rows that the count
    enumerates."""
    exact = graphs_module.subset_positions

    def edited(n, size):
        return edit(exact(n, size))

    monkeypatch.setattr(graphs_module, "subset_positions", edited)
    return johnson_scheme_holds


def _shift_representative(monkeypatch, s, by):
    """Make B_s meet A in s + by points instead of s: take B_(s+by) for it."""
    exact = graphs_module._representatives

    def shifted(k):
        reps = exact(k)
        reps[s] = reps[s + by]
        return reps

    monkeypatch.setattr(graphs_module, "_representatives", shifted)
    return johnson_scheme_holds


# {2, 3, 6} meets each B_s in as many points as it meets A, so only the
# row sums (the valencies) see it missing
_SYMMETRIC_ROW = [2, 3, 6]


def _swap_labels_0_and_1(label):
    # row and column 0: one 0-pair becomes 1 and one 1-pair becomes 0, so the
    # labels stay symmetric and in range and only the products see it
    b0, b1 = np.flatnonzero(label[0] == 0)[0], np.flatnonzero(label[0] == 1)[0]
    label[[0, b0, 0, b1], [b0, 0, b1, 0]] = 1, 1, 0, 0


def _set_label(value, both_directions):
    # the pair {0,1,2}, {3,4,5} (vertices 0 and 19) has label 0
    def edit(label):
        label[0, 19] = value
        if both_directions:
            label[19, 0] = value

    return edit


@pytest.mark.parametrize(
    "break_check",
    [
        pytest.param(lambda mp: _shift_intersection_number(mp, 0, 1, 1), id="p_ij"),
        pytest.param(lambda mp: _shift_intersection_number(mp, 2, 1, 1), id="p_ji-only"),
        # the pairs (i, k), whose product is A_i itself
        pytest.param(lambda mp: _shift_intersection_number(mp, 1, 3, 1), id="p_ik"),
        pytest.param(lambda mp: _shift_intersection_number(mp, 3, 1, 1), id="p_ki-only"),
        pytest.param(lambda mp: _edit_labels(mp, _swap_labels_0_and_1), id="relabelled"),
        # one direction of the pair moves from relation 0 to relation 1
        pytest.param(lambda mp: _edit_labels(mp, _set_label(1, False)), id="arc-moved"),
        pytest.param(lambda mp: _edit_labels(mp, _set_label(SCHEME_K + 1, True)), id="out-of-range"),
        # the cast to indices truncates 0.5 to 0, so only the range check sees it
        pytest.param(lambda mp: _edit_labels(mp, _set_label(0.5, True)), id="fractional"),
        # every pair in relation k, as if every k-subset were the same one:
        # p^k_ij = 0 for i != j, so every product holds and only the identity
        # check sees it
        pytest.param(lambda mp: _edit_labels(mp, lambda label: label.fill(SCHEME_K)), id="off-diagonal-k"),
        # the count's enumeration and representatives
        pytest.param(
            lambda mp: _edit_subsets(mp, lambda rows: rows[(rows != _SYMMETRIC_ROW).any(axis=1)]),
            id="subset-dropped",
        ),
        pytest.param(lambda mp: _edit_subsets(mp, lambda rows: np.concatenate((rows, rows[-1:]))), id="subset-repeated"),
        # every k-subset is A: the analogue of off-diagonal-k
        pytest.param(
            lambda mp: _edit_subsets(mp, lambda rows: np.broadcast_to(np.arange(rows.shape[1]), rows.shape)),
            id="every-subset-A",
        ),
        pytest.param(lambda mp: _shift_representative(mp, 1, +1), id="representative-meets-s+1"),
        pytest.param(lambda mp: _shift_representative(mp, 1, -1), id="representative-meets-s-1"),
    ],
)
def test_scheme_check_negative_controls(break_check, monkeypatch, capsys):
    holds = break_check(monkeypatch)
    assert holds(SCHEME_N, SCHEME_K) is False
    if holds is johnson_scheme_holds:
        assert main(["scheme", str(SCHEME_N), str(SCHEME_K), "--check"]) == 1
        assert "FAIL" in capsys.readouterr().out


def test_scheme_check_takes_ints_in_range():
    assert johnson_scheme_holds(np.int64(6), np.int64(2)) is True
    for n, k in ((5, 3), (6, -1)):
        with pytest.raises(ValueError, match=rf"^need 0 <= k <= n/2, got n={n}, k={k}$"):
            johnson_scheme_holds(n, k)
    for n, k in ((6.0, 2), (6, 2.0)):
        with pytest.raises(TypeError):
            johnson_scheme_holds(n, k)


def test_scheme_check_builds_no_graph(monkeypatch):
    def never(*_):
        raise AssertionError("the scheme check built a Graph")

    monkeypatch.setattr(Graph, "__init__", never)
    assert johnson_scheme_holds(SCHEME_N, SCHEME_K) is True


def test_scheme_check_forms_no_square_product():
    # the count visits one pair per relation: its peak at (13,6) is 129 KB,
    # where one dense product of C(13,6)^2 int64 entries would be 23.6 MB
    tracemalloc.start()
    try:
        assert johnson_scheme_holds(13, 6) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000 < 8 * comb(13, 6) ** 2


def test_line_graph_cases():
    g = build_line_graph(build_inclusion_graph(GraphParams(4, 1, 2)))
    assert g.num_vertices == 12
    assert all(g.degree(v) == 3 for v in range(12))
    single_edge = Graph(2, [(0, 1)])
    lg = build_line_graph(single_edge)
    assert lg.num_vertices == 1 and lg.num_edges == 0
    g = build_line_graph(build_inclusion_graph(GraphParams(5, 2, 3)))
    assert g.num_vertices == 30
    assert all(g.degree(v) == 4 for v in range(30))


def test_line_graph_regularity_sweep():
    for params in canonical_params_up_to(7):
        g = build_inclusion_graph(params)
        lg = build_line_graph(g)
        assert lg.num_vertices == params.n1 * params.r1
        degree = params.r1 + params.r2 - 2
        assert all(lg.degree(v) == degree for v in range(lg.num_vertices))


def test_graph_refuses_non_integers():
    # as GraphParams does: the count passes through operator.index, and an
    # edge end must survive the int64 cast unchanged
    with pytest.raises(TypeError):
        Graph(3.7, [[0, 1], [1, 2]])
    with pytest.raises(TypeError):
        Graph("3", [[0, 1]])
    with pytest.raises(ValueError, match="integers"):
        Graph(3, [[0.5, 1.9], [1, 2]])
    g = Graph(np.int64(3), [[1.0, 0.0], [1, 2]])
    assert type(g.num_vertices) is int and g.edges().tolist() == [[0, 1], [1, 2]]


def test_graph_vertex_count_fits_the_int64_edge_keys(monkeypatch):
    # keys and codes are below nv^2: isqrt(2^63 - 1) vertices round-trip,
    # and one more would wrap, as 2^33 did (hi*nv + lo past 2^63 - 1)
    top = 3037000499
    assert top**2 <= 2**63 - 1 < (top + 1) ** 2
    g = Graph(top, [[0, top - 1], [1, 2]])
    assert [a.tolist() for a in g.lower_edges()] == [[2, top - 1], [1, 0]]
    assert g.edges().tolist() == [[0, top - 1], [1, 2]]
    for nv in (-1, top + 1, 2**33):
        with pytest.raises(ValueError, match=f"vertex count {nv} is outside 0..{top}"):
            Graph(nv, [[0, 1]] if nv > 0 else [])
    assert Graph(0, []).num_vertices == 0

    # build_inclusion_graph refuses before inclusion_ranks allocates
    def never(params):
        raise AssertionError("inclusion_ranks ran")

    monkeypatch.setattr(graphs_module, "inclusion_ranks", never)
    for n in (77936, 100000):  # n + C(n,2) vertices: 3,037,049,016 and 5,000,050,000
        with pytest.raises(CapExceededError, match=f"graph has {n + comb(n, 2)} vertices"):
            build_inclusion_graph(GraphParams(n, 1, 2))


def test_graph_refuses_edges_that_are_not_pairs():
    # read as pairs, each of these would be the path 0-1-2-3
    for edges in ([[0, 1, 2], [1, 2, 3]], [0, 1, 2, 3], np.array([[[0, 1]], [[1, 2]], [[2, 3]]])):
        with pytest.raises(ValueError, match=r"\(m, 2\)"):
            Graph(4, edges)
    # an empty input is no edges, whatever its shape
    for edges in ([], np.empty((0, 2)), np.array([], dtype=np.int64)):
        assert Graph(4, edges).num_edges == 0


def test_degree_and_neighbors_refuse_a_non_vertex():
    # on the path 0-1-2, -1 and -3 once read the CSR from its end
    path = Graph(3, [(0, 1), (1, 2)])
    for v in (-1, -3, 3):
        for method in (path.degree, path.neighbors):
            with pytest.raises(IndexError, match=rf"vertex {v} is outside 0\.\.2"):
                method(v)
    assert [path.degree(v) for v in range(3)] == [1, 2, 1]
    assert path.neighbors(1).tolist() == [0, 2]


def test_graph_refuses_repeated_edges():
    # (1, 0) is the edge (0, 1) again
    with pytest.raises(ValueError, match="repeated edge"):
        Graph(3, [(0, 1), (1, 0)])


def test_line_graph_rejects_loops():
    # a loop never reaches build_line_graph: Graph refuses it at construction
    with pytest.raises(ValueError):
        build_line_graph(Graph(3, [(0, 1), (1, 1)]))
    with pytest.raises(ValueError):
        build_line_graph(build_johnson_graph(4, 2, 2))


def test_edgelist_export():
    g = build_inclusion_graph(GraphParams(3, 1, 2))
    assert export_graph(g, "edgelist") == b"p 6 6\n0 3\n0 4\n1 3\n1 5\n2 4\n2 5\n"


def test_edgelist_header_only_for_edgeless_graph():
    g = Graph(2, [])
    assert export_graph(g, "edgelist").decode() == "p 2 0\n"


def test_dot_export():
    g = build_inclusion_graph(GraphParams(3, 1, 2))
    assert export_graph(g, "dot") == (
        b"graph g {\n  0;\n  1;\n  2;\n  3;\n  4;\n  5;\n"
        b"  0 -- 3;\n  0 -- 4;\n  1 -- 3;\n  1 -- 5;\n  2 -- 4;\n  2 -- 5;\n}\n"
    )


@pytest.mark.parametrize("fmt", ["edgelist", "dot"])
def test_text_export_matches_reference_on_canonical_graphs(fmt):
    for p in canonical_params_up_to(8):
        g = build_inclusion_graph(p)
        assert export_graph(g, fmt) == reference_export(g, fmt), p


# the benchmark's structure graphs: 16632-75075 edges, so many blocks of
# rows and a partial last one
@pytest.mark.parametrize("triple", [(12, 3, 6), (12, 5, 7), (14, 3, 5), (13, 5, 8), (15, 4, 6)])
@pytest.mark.parametrize("fmt", ["edgelist", "dot"])
def test_text_export_matches_reference_on_large_graphs(triple, fmt):
    g = build_inclusion_graph(GraphParams(*triple))
    assert export_graph(g, fmt) == reference_export(g, fmt)


def test_graph6_known_encodings():
    k4 = Graph(4, list(combinations(range(4), 2)))
    assert export_graph(k4, "graph6") == b"C~"
    assert export_graph(Graph(1, []), "graph6") == b"@"


def test_graph6_roundtrip():
    for params in canonical_params_up_to(6):
        g = build_inclusion_graph(params)
        again = parse_graph6(export_graph(g, "graph6"))
        assert_matches_reference_csr(again, _rank_edges(params))
    # three-byte vertex-count encoding
    big = Graph(63, [])
    assert parse_graph6(export_graph(big, "graph6")).num_vertices == 63


def test_graph6_cross_check_against_networkx():
    nx = pytest.importorskip("networkx")
    for params in [GraphParams(4, 1, 2), GraphParams(5, 2, 3), GraphParams(6, 1, 3)]:
        g = build_inclusion_graph(params)
        h = nx.Graph()
        h.add_nodes_from(range(g.num_vertices))  # fix node order before edges
        h.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(h, header=False).strip()
        assert export_graph(g, "graph6") == theirs


def test_graph6_holds_about_the_output_not_a_byte_per_bit():
    # 4433 vertices: a 1.64 MB string, and 13 MB as one uint8 per bit
    g = build_inclusion_graph(GraphParams(14, 4, 7))
    tracemalloc.start()
    try:
        data = export_graph(g, "graph6")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data) == 4 + (4433 * 4432 // 2 + 5) // 6
    assert peak < 10 * 2**20, peak


def test_graph6_vertex_count_encoding():
    # n + 63 up to 62; then "~" and three 6-bit groups up to 258047; then
    # "~~" and six 6-bit groups up to 2**36 - 1, each group plus 63
    def by_definition(n):
        if n <= 62:
            return bytes([n + 63])
        width, prefix = (3, b"~") if n <= 258047 else (6, b"~~")
        return prefix + bytes((n >> (6 * s)) % 64 + 63 for s in reversed(range(width)))

    for n in (0, 62, 63, 258047, 258048, 2**36 - 1):
        assert graphs_module._graph6_encode_count(n) == by_definition(n), n
    assert graphs_module._graph6_encode_count(2**36 - 1) == b"~~" + b"~" * 6


def test_graph6_parse_errors():
    with pytest.raises(ValueError):
        parse_graph6(b"")
    with pytest.raises(ValueError):
        parse_graph6(b"C~~~")  # trailing junk
    # two cut-off four-byte headers, and a header byte below "?" (n = -1)
    for bad in (b"~", b"~??", b">?"):
        with pytest.raises(ValueError):
            parse_graph6(bad)


def test_export_unknown_format():
    g = Graph(1, [])
    with pytest.raises(ValueError):
        export_graph(g, "gml")


def test_graph6_rejects_loops():
    # graph6 cannot encode a loop; Graph refuses one before export sees it
    with pytest.raises(ValueError):
        export_graph(Graph(3, [(0, 1), (2, 2)]), "graph6")
    with pytest.raises(ValueError):
        export_graph(build_johnson_graph(4, 2, 2), "graph6")
