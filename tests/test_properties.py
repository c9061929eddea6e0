"""Property-based tests (hypothesis) for graph6 and the vectorised colex rank."""

from itertools import combinations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from setincl import Graph, export_graph, parse_graph6, subset_rank, subset_unrank  # noqa: E402
from setincl.graphs import colex_ranks  # noqa: E402


@settings(deadline=None)
@given(st.data())
def test_graph6_roundtrip_random_edge_sets(data):
    # up to 70 vertices, so both the one- and four-byte headers occur
    n = data.draw(st.integers(0, 70), label="n")
    pairs = list(combinations(range(n), 2))
    chosen = data.draw(st.sets(st.sampled_from(pairs), max_size=80), label="edges") if pairs else set()
    g = Graph(n, sorted(chosen))
    again = parse_graph6(export_graph(g, "graph6"))
    assert again.num_vertices == n
    assert np.array_equal(again.indptr, g.indptr)
    assert np.array_equal(again.indices, g.indices)
    assert set(map(tuple, again.edges().tolist())) == chosen


_GRAPH6_PREFIXES = st.sampled_from([b"", b"~", b"~~", b">>graph6<<", b"A", b"C"])


@settings(deadline=None)
@given(st.builds(bytes.__add__, _GRAPH6_PREFIXES, st.binary(max_size=40)))
def test_parse_graph6_arbitrary_bytes_raise_only_value_error(data):
    try:
        g = parse_graph6(data)
    except ValueError:
        return
    assert g.num_edges <= g.num_vertices * (g.num_vertices - 1) // 2


@settings(deadline=None)
@given(st.data())
def test_colex_ranks_match_subset_rank(data):
    n = data.draw(st.integers(1, 64), label="n")
    size = data.draw(st.integers(1, n), label="size")
    rows = data.draw(
        st.lists(st.permutations(range(n)), min_size=1, max_size=8), label="perms"
    )
    positions = np.array([sorted(perm[:size]) for perm in rows], dtype=np.int64)
    ranks = colex_ranks(positions.T)
    assert ranks.dtype == np.int64
    for row, rank in zip(positions.tolist(), ranks.tolist()):
        mask = sum(1 << p for p in row)
        assert rank == subset_rank(mask)
        assert subset_unrank(size, rank) == mask
