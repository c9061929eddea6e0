"""Tests for graph construction, subset ranking and interchange formats."""

import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

import setincl.graphs as graphs_module
from setincl import (
    Graph,
    GraphParams,
    build_inclusion_graph,
    build_johnson_graph,
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
from reference_helpers import canonical_params_up_to, is_connected
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
    for n in range(11):
        for size in range(n + 1):
            rows = subset_positions(n, size).tolist()
            assert len(rows) == len(set(map(tuple, rows))) == comb(n, size)
            expect = sorted(combinations(range(n), size), key=lambda c: c[::-1])
            assert rows == [list(c) for c in expect]


def test_enumerate_subsets_bounds():
    with pytest.raises(ValueError):
        subset_positions(3, 4)
    with pytest.raises(ValueError):
        subset_positions(3, -1)
    # no bound on the ground set: 65 and more elements are rows like any others
    assert subset_positions(65, 1).tolist() == [[e] for e in range(65)]
    wide = subset_positions(130, 129)
    assert wide[0].tolist() == list(range(129)) and wide[-1].tolist() == list(range(1, 130))
    # C(64, 32) rows of 32 entries are past numpy's array limit: a ValueError
    # that names the size, from the library as from the CLI's preflight
    with pytest.raises(ValueError, match="32-subsets of 64 elements"):
        subset_positions(64, 32)
    with pytest.raises(ValueError, match="32-subsets of 64 elements"):
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


def test_inclusion_graph_csr_matches_generic_build():
    # the direct CSR against Graph(n1+n2, edges) from the same rank array
    for params in canonical_params_up_to(9):
        n1, n2, r2 = params.n1, params.n2, params.r2
        edges = np.column_stack(
            (inclusion_ranks(params).ravel(), np.repeat(np.arange(n1, n1 + n2), r2))
        )
        generic = Graph(n1 + n2, edges)
        g = build_inclusion_graph(params)
        assert np.array_equal(g.indptr, generic.indptr), params
        assert np.array_equal(g.indices, generic.indices), params
        assert g.num_edges == generic.num_edges
        assert g.indptr.dtype == g.indices.dtype == np.int64


def test_subset_graph_edges_are_the_generic_edges():
    # SubsetGraph.edges reads the k-side rows; Graph.edges filters all arcs
    cases = [*canonical_params_up_to(9), *map(GraphParams, (65, 65, 65), (1, 1, 2), (2, 64, 3))]
    for params in cases:
        g = build_inclusion_graph(params)
        edges = g.edges()
        assert edges.dtype == np.int64 and edges.shape == (g.num_edges, 2), params
        assert np.array_equal(edges, Graph.edges(g)), params


def test_subset_graph_lower_edges_are_the_generic_lower_edges():
    # SubsetGraph.lower_edges reads the rank rows; Graph.lower_edges
    # filters all arcs.  Both list (hi, lo), hi > lo, by ascending hi*nv + lo
    rng = np.random.default_rng(0)
    cases = [*canonical_params_up_to(9), *map(GraphParams, (65, 65, 65), (1, 1, 2), (2, 64, 3))]
    for params in cases:
        g = build_inclusion_graph(params)
        nv = g.num_vertices
        hi, lo = g.lower_edges()
        assert hi.dtype == lo.dtype == np.int64 and hi.shape == lo.shape == (g.num_edges,)
        assert (hi > lo).all() and (np.diff(hi * nv + lo) > 0).all(), params
        for got, want in zip((hi, lo), Graph.lower_edges(g)):
            assert np.array_equal(got, want), params
        images = rng.permutation(nv)
        for got, want in zip(g.lower_edges(images), Graph.lower_edges(g, images)):
            assert np.array_equal(got, want), params
        assert {tuple(e) for e in g.edges().tolist()} == set(zip(lo.tolist(), hi.tolist()))


def test_subset_graph_builds_its_k_side_rows_when_first_read():
    # the build holds the rank rows only; edges() and export sort the
    # k-side rows, and only indices (or indptr) makes the CSR arrays, which
    # test_inclusion_graph_csr_matches_generic_build compares
    for params in canonical_params_up_to(8):
        g = build_inclusion_graph(params)
        assert {"indptr", "indices", "_k_heads"}.isdisjoint(vars(g)), params
        for fmt in ("edgelist", "graph6", "dot"):
            export_graph(g, fmt)
        assert np.array_equal(g.edges(), Graph.edges(build_inclusion_graph(params))), params
        assert "_k_heads" in vars(g) and {"indptr", "indices"}.isdisjoint(vars(g)), params


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
    # the scheme check's input against an independent path: the k-subsets
    # as sets, in colex order (the numeric order of their masks)
    for n in range(1, 11):
        for k in range(n // 2 + 1):
            sets = sorted(map(frozenset, combinations(range(n), k)), key=mask_of)
            expect = [[len(a & b) for b in sets] for a in sets]
            assert np.array_equal(graphs_module._meets(n, k), expect), (n, k)


# Negative controls for johnson_scheme_holds: each breaks one ingredient of
# the check, which must then report FAIL through the CLI as well.
SCHEME_N, SCHEME_K = 7, 3


def _shift_intersection_number(monkeypatch, i, j, s):
    """Make p^s_ij, for this order of i and j only, one too large."""
    exact = graphs_module.intersection_number

    def shifted(n, k, a, b, t):
        return exact(n, k, a, b, t) + ((a, b, t) == (i, j, s))

    monkeypatch.setattr(graphs_module, "intersection_number", shifted)


def _edit_labels(monkeypatch, edit):
    """Let edit(label) change the intersection-size matrix in place before
    the scheme check reads it."""
    meets = graphs_module._meets

    def edited(n, k):
        label = meets(n, k)
        edit(label)
        return label

    monkeypatch.setattr(graphs_module, "_meets", edited)


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
    ],
)
def test_scheme_check_negative_controls(break_check, monkeypatch, capsys):
    break_check(monkeypatch)
    assert johnson_scheme_holds(SCHEME_N, SCHEME_K) is False
    assert main(["scheme", str(SCHEME_N), str(SCHEME_K), "--check"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_scheme_check_builds_no_graph(monkeypatch):
    def never(*_):
        raise AssertionError("the scheme check built a Graph")

    monkeypatch.setattr(Graph, "__init__", never)
    assert johnson_scheme_holds(SCHEME_N, SCHEME_K) is True


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
        assert np.array_equal(again.indptr, g.indptr) and np.array_equal(again.indices, g.indices)
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
    for n in (-1, 2**36):
        with pytest.raises(ValueError, match="graph6 limits"):
            graphs_module._graph6_encode_count(n)


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
