"""Property-based tests (hypothesis) for graph6, the vectorised colex rank
and the exact merge and order of `Spectrum`."""

from itertools import combinations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from setincl import (  # noqa: E402
    ExactEigenvalue,
    Graph,
    Spectrum,
    SurdEigenvalue,
    export_graph,
    parse_graph6,
    subset_rank,
    subset_unrank,
)
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


def _exact(sign, radicand):
    return ExactEigenvalue(0, 0) if sign == 0 or radicand == 0 else ExactEigenvalue(sign, radicand)


_SIGNS = st.sampled_from([-1, 0, 1])
_BRANCHES = st.sampled_from([-1, 1])
# small ranges, so that equal values in different forms turn up often
_SMALL_RADICANDS = st.one_of(st.integers(0, 12), st.integers(0, 10).map(lambda t: t * t))
_SMALL = st.one_of(
    st.builds(_exact, _SIGNS, _SMALL_RADICANDS),
    st.builds(SurdEigenvalue, st.integers(-8, 8), _SMALL_RADICANDS, _BRANCHES),
)
# the integer m twice: as sign(m)*sqrt(m^2) and as ((2m + t) - sqrt(t^2))/2
_RATIONAL_TWINS = st.builds(
    lambda m, t: [_exact((m > 0) - (m < 0), m * m), SurdEigenvalue(2 * m + t, t * t, -1)],
    st.integers(-10, 10),
    st.integers(0, 10),
)
# sqrt(r) next to sqrt(4r + delta)/2: equal for delta = 0, and otherwise
# closer together than float64 can tell
_CLOSE_PAIRS = st.builds(
    lambda r, delta, sign: [_exact(sign, r), SurdEigenvalue(0, 4 * r + delta, sign)],
    st.integers(10**17, 10**20),
    st.integers(-1, 1),
    _BRANCHES,
)
_EIGENVALUES = st.lists(
    st.one_of(_SMALL.map(lambda ev: [ev]), _RATIONAL_TWINS, _CLOSE_PAIRS), max_size=6
).map(lambda groups: [ev for group in groups for ev in group])


# each sympy sign decision on a close pair costs milliseconds
@settings(deadline=None, max_examples=50)
@given(st.data())
def test_spectrum_merge_and_order_match_sympy(data):
    sympy = pytest.importorskip("sympy")

    def value(ev):
        if isinstance(ev, ExactEigenvalue):
            return ev.sign * sympy.sqrt(sympy.Integer(ev.radicand))
        return (ev.p + ev.branch * sympy.sqrt(sympy.Integer(ev.d))) / sympy.Integer(2)

    evs = data.draw(_EIGENVALUES, label="eigenvalues")
    mults = data.draw(st.lists(st.integers(0, 3), min_size=len(evs), max_size=len(evs)), label="mults")
    pairs = list(zip(evs, mults))
    spec = Spectrum(pairs)
    values = [value(ev) for ev, _ in spec.entries]
    # strictly descending, so no two entries are equal
    for hi, lo in zip(values, values[1:]):
        assert (hi - lo).is_positive is True
    counted = [0] * len(values)
    for ev, mult in pairs:
        x = value(ev)
        # a structural match proves equality; otherwise ask sympy
        matches = [i for i, v in enumerate(values) if v == x]
        matches = matches or [i for i, v in enumerate(values) if (v - x).is_zero]
        if mult == 0 and not matches:
            continue
        assert len(matches) == 1
        counted[matches[0]] += mult
    assert counted == [mult for _, mult in spec.entries]
    assert all(mult > 0 for _, mult in spec.entries)
