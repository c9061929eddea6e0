"""Tests for graph construction, subset ranking and interchange formats."""

from itertools import combinations
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest

import setincl.graphs as graphs_module
from setincl import (
    Graph,
    GraphParams,
    build_inclusion_graph,
    build_johnson_graph,
    build_line_graph,
    canonical_params_up_to,
    canonicalize,
    enumerate_subsets,
    export_graph,
    inclusion_ranks,
    is_connected,
    johnson_scheme_holds,
    parse_graph6,
    subset_rank,
    subset_unrank,
)
from setincl.cli import main

from reference_export import reference_export


def test_params_validation():
    with pytest.raises(ValueError):
        GraphParams(4, 2, 2)  # k == l
    with pytest.raises(ValueError):
        GraphParams(4, 0, 2)  # k < 1
    with pytest.raises(ValueError):
        GraphParams(4, 1, 4)  # l > n-1


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
    assert enumerate_subsets(3, 1) == [0b001, 0b010, 0b100]
    masks = enumerate_subsets(4, 2)
    assert len(masks) == 6
    assert masks[0] == 0b0011 and masks[-1] == 0b1100
    assert masks == sorted(masks)  # colex = numeric order at fixed popcount
    assert enumerate_subsets(5, 0) == [0]


def test_enumerate_subsets_counts():
    for n in range(11):
        for size in range(n + 1):
            assert len(enumerate_subsets(n, size)) == comb(n, size)


def test_enumerate_subsets_bounds():
    with pytest.raises(ValueError):
        enumerate_subsets(3, 4)
    with pytest.raises(ValueError):
        enumerate_subsets(3, -1)
    with pytest.raises(ValueError):
        enumerate_subsets(65, 1)


def test_rank_unrank_roundtrip_exhaustive():
    for n in (8, 12, 14):
        for size in range(n + 1):
            for rank, mask in enumerate(enumerate_subsets(n, size)):
                assert subset_rank(mask) == rank
                assert subset_unrank(size, rank) == mask


def test_rank_unrank_roundtrip_large_ground_set():
    # sizes up to n = 20, sampled ranks including both ends of each class
    for n in (17, 20):
        for size in range(n + 1):
            count = comb(n, size)
            step = max(1, count // 97)
            ranks = set(range(0, count, step)) | {0, count - 1}
            for rank in ranks:
                mask = subset_unrank(size, rank)
                assert mask.bit_count() == size
                assert mask < (1 << n)
                assert subset_rank(mask) == rank


def test_unrank_out_of_range():
    with pytest.raises(ValueError):
        subset_unrank(2, -1)


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
    for u, v in g.edges():
        a = frozenset(i for i in range(4) if g.masks[u] >> i & 1)
        b = frozenset(i for i in range(4) if g.masks[v] >> i & 1)
        got.add((a, b))
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
        for i, row in enumerate(ranks):
            assert np.array_equal(np.sort(row), g.neighbors(params.n1 + i)), (params, i)
            mask = g.masks[params.n1 + i]
            assert all(g.masks[r] & ~mask == 0 for r in row)


def test_rank_of_mask():
    g = build_inclusion_graph(GraphParams(5, 2, 3))
    for idx, mask in enumerate(g.masks):
        assert g.rank_of_mask(mask) == idx
    with pytest.raises(ValueError):
        g.rank_of_mask(0b1)  # singleton is not a vertex here


def test_complement_bijection_preserves_adjacency():
    # map v -> complement from G(n,k,l) into the (generally non-canonical)
    # graph on (n-l)- and (n-k)-subsets, built directly from raw subsets
    for params in canonical_params_up_to(8):
        g = build_inclusion_graph(params)
        n = params.n
        full = (1 << n) - 1
        comp_edges = set()
        for u, v in g.edges():
            a, b = full ^ g.masks[u], full ^ g.masks[v]
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


def test_johnson_identity_relation():
    g = build_johnson_graph(5, 2, 2)
    assert g.num_edges == 0
    assert np.array_equal(g.adjacency_matrix(), np.eye(10, dtype=np.int64))


def test_johnson_bounds():
    with pytest.raises(ValueError):
        build_johnson_graph(5, 3, 0)  # k > n/2
    with pytest.raises(ValueError):
        build_johnson_graph(5, 2, 3)  # i > k


# Negative controls for johnson_scheme_holds: each breaks one ingredient of
# the check, which must then report FAIL through the CLI as well.
SCHEME_N, SCHEME_K = 7, 3


def _shift_intersection_number(monkeypatch, i, j, s):
    """Make p^s_ij, for this order of i and j only, one too large."""
    exact = graphs_module.intersection_number

    def shifted(n, k, a, b, t):
        return exact(n, k, a, b, t) + ((a, b, t) == (i, j, s))

    monkeypatch.setattr(graphs_module, "intersection_number", shifted)


def _edit_relations(monkeypatch, edit):
    """Let edit(s, a) change relation s's adjacency matrix a in place before
    the scheme check sees it."""
    build = graphs_module.build_johnson_graph

    def edited(n, k, s):
        a = build(n, k, s).adjacency_matrix()
        edit(s, a)
        return SimpleNamespace(adjacency_matrix=lambda: a)

    monkeypatch.setattr(graphs_module, "build_johnson_graph", edited)


def _conjugate_relation_0(s, a):
    # swap vertices {0,1,2} and {4,5,6}: not an automorphism of relation 0
    if s == 0:
        a[[0, -1]] = a[[-1, 0]]
        a[:, [0, -1]] = a[:, [-1, 0]]


def _drop_arc_direction(s, a):
    # {0,1,2} -> {3,4,5} leaves relation 0, {3,4,5} -> {0,1,2} stays
    if s == 0:
        a[0, 19] = 0


def _move_arc_direction(s, a):
    # as above, but the arc joins relation 1 so the relations still
    # partition all-ones
    if s in (0, 1):
        a[0, 19] = s


@pytest.mark.parametrize(
    "break_check",
    [
        pytest.param(lambda mp: _shift_intersection_number(mp, 0, 1, 1), id="p_ij"),
        pytest.param(lambda mp: _shift_intersection_number(mp, 2, 1, 1), id="p_ji-only"),
        pytest.param(lambda mp: _edit_relations(mp, _conjugate_relation_0), id="conjugated"),
        pytest.param(lambda mp: _edit_relations(mp, _drop_arc_direction), id="arc-dropped"),
        pytest.param(lambda mp: _edit_relations(mp, _move_arc_direction), id="arc-moved"),
    ],
)
def test_scheme_check_negative_controls(break_check, monkeypatch, capsys):
    break_check(monkeypatch)
    assert johnson_scheme_holds(SCHEME_N, SCHEME_K) is False
    assert main(["scheme", str(SCHEME_N), str(SCHEME_K), "--check"]) == 1
    assert "FAIL" in capsys.readouterr().out


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


def test_line_graph_rejects_loops():
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
    with pytest.raises(ValueError):
        export_graph(build_johnson_graph(4, 2, 2), "graph6")
