"""Property-based tests (hypothesis) for graph6, the text exports, the
vectorised colex rank, the union of link maps, the exact merge and order
of `Spectrum` (also where float64 cannot order or hold the values), the
normal form of every value a closed form emits, the reflection and the
equal-(a, e) and equal-e comparisons of exact eigenvalues, the range of r
that each intersection number sums over, the automorphism-order oracle, the
neighbour-weight sums of a colour refinement round and the command line's
exit codes and its argv reader, which parses as argparse does."""

import contextlib
import importlib
import io
import os
import sys
from functools import cmp_to_key
from itertools import combinations
from math import comb, factorial, isqrt
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from reference_export import reference_export  # noqa: E402
from reference_helpers import (  # noqa: E402
    assert_bounds_are_lower_bounds,
    assert_matches_reference_edges,
    canonical_params_up_to,
    intersection_number_by_full_sum,
)
from reference_ranks import mask_of, subset_rank, subset_unrank  # noqa: E402
from setincl import (  # noqa: E402
    Eigenvalue,
    ExactEigenvalue,
    Graph,
    GraphParams,
    Spectrum,
    SurdEigenvalue,
    brute_force_aut_order,
    build_inclusion_graph,
    export_graph,
    format_eigenvalue,
    intersection_number,
    parse_graph6,
    spectrum_inclusion,
    spectrum_line_inclusion,
    spectrum_line_middle,
    spectrum_line_semiregular,
    spectrum_middle,
)
from setincl import cli, combinatorics, limits  # noqa: E402
from setincl.automorphisms import _color_weights, _refinement_colors, component_labels  # noqa: E402
from setincl.cli import main  # noqa: E402
from setincl.spectra import _cmp_keys, _from_runs  # noqa: E402
from setincl.graphs import colex_ranks  # noqa: E402


@st.composite
def _graphs(draw):
    """Up to 70 vertices, so both the one- and four-byte graph6 headers
    occur, and up to 80 distinct edges, each pair in either order and the
    list in any order: isolated vertices, the empty graph and graphs with
    no edge all occur."""
    n = draw(st.integers(0, 70))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=80)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return n, [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)]


@settings(deadline=None)
@given(_graphs())
@example((0, []))
@example((7, []))
@example((7, [(6, 0), (2, 5)]))
def test_graph6_roundtrip_random_edge_sets(graph):
    # the graph and its graph6 round trip both match the reference edges
    # of the edge list
    n, edges = graph
    g = Graph(n, edges)
    again = parse_graph6(export_graph(g, "graph6"))
    assert again.num_vertices == n
    assert_matches_reference_edges(g, edges)
    assert_matches_reference_edges(again, edges)


# vertex counts at which the widest vertex number gains a digit
_DIGIT_BOUNDARIES = st.sampled_from(
    [0, 1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 1100, 9999, 10000, 99999, 100000]
)


@st.composite
def _text_export_graphs(draw):
    """A graph on at most 1100 vertices, or on a count at a digit boundary up
    to 100000 (the 5- and 6-digit ids of the scale exports), with up to 9000
    random edges, past two blocks of rows; or an edgeless graph, whose export
    is its header only."""
    if draw(st.booleans(), label="edgeless"):
        return Graph(draw(st.integers(2, 12), label="n"), [])
    n = draw(st.one_of(_DIGIT_BOUNDARIES, st.integers(0, 1100)), label="n")
    draws = draw(st.integers(0, 9000), label="edge draws")
    if n < 2:
        return Graph(n, [])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    u, v = rng.integers(0, n, (2, draws))
    keep = u != v
    codes = np.unique(np.minimum(u, v)[keep] * n + np.maximum(u, v)[keep])
    return Graph(n, np.column_stack((codes // n, codes % n)))


# run shapes the draws never make: the star's one run of 9000 edges fills
# the first two blocks of 4096 and ends in the third, so the second and the
# third block each start it again; every run of the perfect matching is one
# edge
_STAR = Graph(9001, np.column_stack((np.zeros(9000, dtype=np.int64), np.arange(1, 9001))))
_MATCHING = Graph(18000, np.arange(18000).reshape(-1, 2))


@settings(deadline=None)
@given(_text_export_graphs(), st.sampled_from(["edgelist", "dot"]))
@example(Graph(0, []), "edgelist")
@example(Graph(0, []), "dot")
@example(Graph(1100, []), "dot")
@example(Graph(1001, [(8, 9), (9, 10), (98, 99), (99, 100), (998, 999), (999, 1000)]), "edgelist")
@example(Graph(1001, [(8, 9), (9, 10), (98, 99), (99, 100), (998, 999), (999, 1000)]), "dot")
@example(Graph(100001, [(9998, 9999), (9999, 10000), (99998, 99999), (99999, 100000)]), "edgelist")
@example(Graph(100001, [(9998, 9999), (9999, 10000), (99998, 99999), (99999, 100000)]), "dot")
@example(_STAR, "edgelist")
@example(_STAR, "dot")
@example(_MATCHING, "edgelist")
@example(_MATCHING, "dot")
def test_text_export_matches_per_edge_reference(g, fmt):
    assert export_graph(g, fmt) == reference_export(g, fmt)


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
    # every size whose ranks fit int64; from n = 68 on, the wide sizes read
    # the columns of C(p, j) whose larger entries wrapped past 2**63
    n = data.draw(st.integers(1, 130), label="n")
    size = data.draw(
        st.sampled_from([s for s in range(1, n + 1) if comb(n, s) <= 2**63]), label="size"
    )
    rows = data.draw(
        st.lists(st.permutations(range(n)), min_size=1, max_size=8), label="perms"
    )
    positions = np.array([sorted(perm[:size]) for perm in rows], dtype=np.int64)
    ranks = colex_ranks(positions.T, n)
    assert ranks.dtype == np.int64
    for row, rank in zip(positions.tolist(), ranks.tolist()):
        assert rank == subset_rank(mask_of(row))
        assert subset_unrank(size, rank) == mask_of(row)


def _union_find_classes(size, links):
    """Smallest member of each element's class, and, ascending, that of
    every class some chain of links closes with odd parity, by a plain
    union-find on the double cover: (x, d) is element 2x + d, and a link
    (f, flip) joins (x, d) with (f[x], d ^ flip[x]) (flip 0 without
    flips).  Keeping the smaller root, the root of (x, 0) is 2y + d for the
    smallest member y of x's class."""
    parent = list(range(2 * size))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for f, *flip in links:
        flips = flip[0] if flip else [0] * size
        for x, (y, fl) in enumerate(zip(f, flips)):
            for d in (0, 1):
                rx, ry = find(2 * x + d), find(2 * y + (d ^ fl))
                parent[max(rx, ry)] = min(rx, ry)
    labels = [find(2 * x) // 2 for x in range(size)]
    odd = sorted({labels[x] for x in range(size) if find(2 * x) == find(2 * x + 1)})
    return labels, odd


@st.composite
def _link_lists(draw):
    """A size and up to five links on 0..size-1, each the map of a random
    permutation or of a random function, and each with or without a random
    flip per element."""
    size = draw(st.integers(1, 60), label="size")
    links = []
    for _ in range(draw(st.integers(0, 5), label="links")):
        if draw(st.booleans(), label="permutation"):
            f = draw(st.permutations(range(size)))
        else:
            f = draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
        link = (np.array(f, dtype=np.int64),)
        if draw(st.booleans(), label="flips"):
            flip = draw(st.lists(st.booleans(), min_size=size, max_size=size))
            link += (np.array(flip, dtype=bool),)
        links.append(link)
    return size, links


def _link(size, a, b, flip=None):
    """The map on 0..size-1 that sends each a[i] to b[i] and fixes every
    other element, with the flip flip[i] at a[i] and none elsewhere."""
    f = np.arange(size)
    f[a] = b
    if flip is None:
        return (f,)
    flips = np.zeros(size, dtype=bool)
    flips[a] = flip
    return f, flips


@settings(deadline=None)
@given(_link_lists())
# two flips chained in one hooking round compose to parity 0, so the last
# link closes no odd cycle
@example((3, [_link(3, [2, 1], [1, 0], [1, 1]), _link(3, [2], [0], [0])]))
# an odd cycle closes on root 1, which is then hooked under 0
@example((3, [_link(3, [2], [1], [1]), _link(3, [2], [1], [0]), _link(3, [1], [0])]))
# parities start at the first flip that is True: all-False flips join as
# plain links first, then a reversing link closes an odd cycle, or not
@example((3, [_link(3, [0, 1], [1, 2], [0, 0]), _link(3, [2], [0], [1])]))
@example((4, [_link(4, [0], [1], [0]), _link(4, [2], [3], [1]), _link(4, [1], [2], [0])]))
def test_component_labels_match_union_find(case):
    size, links = case
    labels, odd = component_labels(size, links)
    assert (labels.tolist(), odd.tolist()) == _union_find_classes(size, links)


# an eigenvalue is drawn as its constructor and arguments, so that the
# reference below evaluates the arguments and not the normalized value
def _exact(sign, radicand):
    return (ExactEigenvalue, (0, 0) if sign == 0 or radicand == 0 else (sign, radicand))


def _surd(p, d, branch):
    return (SurdEigenvalue, (p, d, branch))


_SIGNS = st.sampled_from([-1, 0, 1])
_BRANCHES = st.sampled_from([-1, 1])
# small ranges, so that equal values in different forms turn up often
_SMALL_RADICANDS = st.one_of(st.integers(0, 12), st.integers(0, 10).map(lambda t: t * t))
_SMALL = st.one_of(
    st.builds(_exact, _SIGNS, _SMALL_RADICANDS),
    st.builds(_surd, st.integers(-8, 8), _SMALL_RADICANDS, _BRANCHES),
)
# the integer m twice: as sign(m)*sqrt(m^2) and as ((2m + t) - sqrt(t^2))/2
_RATIONAL_TWINS = st.builds(
    lambda m, t: [_exact((m > 0) - (m < 0), m * m), _surd(2 * m + t, t * t, -1)],
    st.integers(-10, 10),
    st.integers(0, 10),
)
# sqrt(r) next to sqrt(4r + delta)/2: equal for delta = 0, and otherwise
# closer together than float64 can tell
_CLOSE_PAIRS = st.builds(
    lambda r, delta, sign: [_exact(sign, r), _surd(0, 4 * r + delta, sign)],
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

    def value(ctor, args):
        """The number that a constructor's arguments name."""
        if ctor is ExactEigenvalue:
            sign, radicand = args
            return sign * sympy.sqrt(sympy.Integer(radicand))
        p, d, branch = args
        return (p + branch * sympy.sqrt(sympy.Integer(d))) / sympy.Integer(2)

    evs = data.draw(_EIGENVALUES, label="eigenvalues")
    mults = data.draw(st.lists(st.integers(0, 3), min_size=len(evs), max_size=len(evs)), label="mults")
    pairs = list(zip(evs, mults))
    spec = Spectrum((ctor(*args), mult) for (ctor, args), mult in pairs)
    values = [
        (ev.a + ev.e * sympy.sqrt(sympy.Integer(ev.r))) / sympy.Integer(2) for ev, _ in spec.entries
    ]
    # strictly descending, so no two entries are equal
    for hi, lo in zip(values, values[1:]):
        assert (hi - lo).is_positive is True
    counted = [0] * len(values)
    for (ctor, args), mult in pairs:
        x = value(ctor, args)
        # a structural match proves equality; otherwise ask sympy
        matches = [i for i, v in enumerate(values) if v == x]
        matches = matches or [i for i, v in enumerate(values) if (v - x).is_zero]
        if mult == 0 and not matches:
            continue
        assert len(matches) == 1
        counted[matches[0]] += mult
    assert counted == [mult for _, mult in spec.entries]
    assert all(mult > 0 for _, mult in spec.entries)


# values that float64 cannot order: sqrt(R) against sqrt(R + delta) near
# R = 10^40, and (p +- sqrt(p^2 + delta))/2, which cancels; and values past
# 10^400, beyond the float64 range
def _near_square_surd(p, delta, branch):
    return SurdEigenvalue(p, max(p * p + delta, 0), branch)


_NEAR_TIES = st.one_of(
    st.builds(ExactEigenvalue, _BRANCHES, st.integers(10**40 - 4, 10**40 + 4)),
    st.builds(_near_square_surd, st.integers(-(10**25), 10**25), st.integers(-4, 4), _BRANCHES),
    st.builds(ExactEigenvalue, _BRANCHES, st.integers(10**800 - 4, 10**800 + 4)),
    st.builds(
        _near_square_surd,
        st.sampled_from([-1, 1]).map(lambda sign: sign * 10**400) | st.integers(-3, 3),
        st.integers(-4, 4),
        _BRANCHES,
    ),
)
_ORDER_VALUES = st.one_of(_SMALL.map(lambda ev: ev[0](*ev[1])), _NEAR_TIES)


@settings(deadline=None, max_examples=100)
@given(st.lists(_ORDER_VALUES, max_size=12).flatmap(st.permutations))
@example([ExactEigenvalue(1, 10**40), ExactEigenvalue(1, 10**40 + 1)])
@example([_near_square_surd(10**20, 2, -1), _near_square_surd(10**20, 1, -1)])
@example([ExactEigenvalue(1, 10**800 + 1), ExactEigenvalue(1, 10**800 + 2), ExactEigenvalue(1, 3)])
@example([_near_square_surd(10**400, 1, -1), ExactEigenvalue(0, 0), ExactEigenvalue(-1, 2)])
def test_spectrum_order_is_the_exact_sort(values):
    spec = Spectrum((ev, 1) for ev in values)
    expect = sorted(set(values), key=cmp_to_key(_cmp_keys), reverse=True)
    assert [ev for ev, _ in spec.entries] == expect


# fields of (a + e*sqrt(r))/2 before normal form: r is often a square, which
# Eigenvalue folds into a, and 0 with e = 0
_RAW_FIELDS = st.one_of(
    st.tuples(st.integers(-50, 50), st.just(0), st.just(0)),
    st.tuples(
        st.integers(-(10**20), 10**20),
        _BRANCHES,
        st.integers(0, 10**6).map(lambda t: t * t) | st.integers(0, 10**40),
    ),
)


@settings(deadline=None)
@given(_RAW_FIELDS, st.integers(-(10**20), 10**20))
@example((0, 1, 16), 0)  # sqrt(16)/2 is stored as 2 = 4/2: its mirror is -2, its conjugate 2
@example((5, 1, 49), 7)  # (5 + 7)/2 = 6 and 7 - 6 = 1
@example((0, 1, 0), 0)  # the 8-cycle's line roots for lam = 0: d = 0
def test_reflection_is_the_constructed_value(fields, p):
    # the - run that _from_runs makes of a one-entry + run: p - ev follows
    # ev, merges with it when equal, and above it fails the seam check
    a, e, r = fields
    ev = Eigenvalue(a, e, r)
    expect = Eigenvalue(2 * p - a, -e, r)  # p - (a + e*sqrt(r))/2
    order = _exact_order(ev, expect)
    if order < 0:
        with pytest.raises(AssertionError, match="at a seam"):
            _from_runs([0], [(ev, 1)], p, None)
        return
    entries = _from_runs([0], [(ev, 1)], p, None).entries
    assert [m for _, m in entries] == ([1, 1] if order else [2])
    mirror = entries[-1][0]  # a merge keeps the - run's value
    assert (mirror.a, mirror.e, mirror.r) == (expect.a, expect.e, expect.r)
    assert mirror == expect and hash(mirror) == hash(expect)
    assert [type(x) for x in (mirror.a, mirror.e, mirror.r)] == [int, int, int]


@st.composite
def _closed_form_calls(draw):
    """A closed form with its arguments, and the count its multiplicities
    total: the vertices n1 + n2 of the graph, or its edges n2 * r2 for a
    line graph.  Half the triples are layer graphs (n, k, k+1), whose line
    spectra are integral: there every line discriminant is a square."""
    n = draw(st.integers(3, 120))
    k = draw(st.integers(1, (n - 1) // 2))
    middle = draw(st.booleans())
    params = GraphParams(n, k, k + 1 if middle else draw(st.integers(k + 1, n - k)))
    line = draw(st.booleans())
    if middle and draw(st.booleans()):
        call = (spectrum_line_middle if line else spectrum_middle, n, k)
    else:
        call = (spectrum_line_inclusion if line else spectrum_inclusion, params)
    return call, params.n2 * params.r2 if line else params.n1 + params.n2


@settings(deadline=None)
@given(_closed_form_calls())
@example(((spectrum_middle, 6, 1), 6 + 15))  # beta_1 = 4: the roots +-2
@example(((spectrum_inclusion, GraphParams(6, 1, 2)), 6 + 15))
@example(((spectrum_inclusion, GraphParams(9, 1, 7)), 9 + 36))  # beta_0 = 196, beta_1 = 7
@example(((spectrum_line_inclusion, GraphParams(5, 1, 2)), 20))  # every d a square
@example(((spectrum_line_inclusion, GraphParams(12, 4, 6)), 13860))  # d = 1009, 529, 289, 193
# (p - sqrt(d))/2, about 2/n, cancels; and the pair +-sqrt(r)/2 of the
# midpoint case in test_spectra, whose rounding needs a second precision
@example(((spectrum_line_inclusion, GraphParams(10**15, 1, 3)), 3 * comb(10**15, 3)))
@example(((spectrum_line_inclusion, GraphParams(10**18, 1, 3)), 3 * comb(10**18, 3)))
@example(((spectrum_line_inclusion, GraphParams(10**24, 1, 3)), 3 * comb(10**24, 3)))
@example(((Spectrum, [(Eigenvalue(0, e, (2**101 + 2**48) ** 2 + 1), 1) for e in (1, -1)]), 2))
def test_closed_forms_emit_values_in_normal_form(case):
    # each closed form makes its values as tuples, by one square test and no
    # check: building each again through Eigenvalue must change nothing.
    # The values strictly fall under the isqrt brackets, and the csv and
    # table writers, which share the root and the text of a pair's two
    # members, write each value as float() and format_eigenvalue do
    (form, *args), total = case
    spec = form(*args)
    assert sum(mult for _, mult in spec.entries) == total
    for ev, mult in spec.entries:
        assert type(ev) is Eigenvalue and type(mult) is int and mult > 0
        assert Eigenvalue(*ev) == ev and [type(x) for x in ev] == [int, int, int], (form, args, ev)
    values = [ev for ev, _ in spec.entries]
    assert all(_exact_order(x, y) == 1 for x, y in zip(values, values[1:])), (form, args)
    csv = spec.to_csv_text().splitlines()
    assert csv[1:] == [f"{float(ev):.17g},{m}" for ev, m in spec.entries], (form, args)
    table = [row.rsplit("  ", 1) for row in spec.to_table_text().splitlines()]
    assert table == [[format_eigenvalue(ev).rjust(len(table[0][0])), str(m)] for ev, m in spec.entries]


@st.composite
def _semiregular_tops(draw):
    """(n1, n2, r1, r2) with n1*r1 = n2*r2 and n1 <= n2, and top values
    +-sqrt(m) with 0 <= m <= r1*r2 in any order, sign and form, whose
    multiplicities sum to n1 and give sqrt(r1*r2) at least one; some
    multiplicities are 0.  Also the (m, multiplicity) of each top, with one
    principal copy taken off."""
    mults = draw(st.lists(st.integers(0, 3), max_size=6))
    principal = draw(st.integers(1, 3))
    n1 = principal + sum(mults)
    r1 = draw(st.integers(1, 30) | st.integers(10**6, 10**12))
    r2 = draw(st.sampled_from([d for d in range(1, min(r1, 60) + 1) if n1 * r1 % d == 0]))
    ms = [draw(st.integers(0, r1 * r2) | st.sampled_from([0, r1 * r2])) for _ in mults]
    pairs = [(ExactEigenvalue(1, r1 * r2), principal)]
    for m, mult in zip(ms, mults):
        sign = draw(_BRANCHES) if m else 0
        surd = draw(st.booleans())
        pairs.append((SurdEigenvalue(0, 4 * m, sign or 1) if surd else ExactEigenvalue(sign, m), mult))
    tops = [(r1 * r2, principal - 1), *zip(ms, mults)]
    return (n1, n1 * r1 // r2, r1, r2), draw(st.permutations(pairs)), tops


@settings(deadline=None)
@given(_semiregular_tops())
# K_{2,4}: the - root of its zero top is r2 - 2.  The 4-cycle with a top
# -2: its roots 2 and -2 are r1 + r2 - 2 and -2
@example(((2, 4, 4, 2), [(ExactEigenvalue(0, 0), 1), (ExactEigenvalue(1, 8), 1)], [(8, 0), (0, 1)]))
@example(((2, 2, 2, 2), [(ExactEigenvalue(-1, 4), 1), (ExactEigenvalue(1, 4), 1)], [(4, 0), (4, 1)]))
def test_line_form_of_valid_tops_passes_its_own_checks(case):
    # tops that satisfy the lemma's conditions never reach a failed chain
    # or seam check (AssertionError): the line spectrum is Spectrum over
    # its values, r1 + r2 - 2 once, (p +- sqrt(d))/2 for each top but one
    # principal copy, r2 - 2 and -2, unless the degrees leave fewer edges
    # than vertices
    (n1, n2, r1, r2), pairs, tops = case
    cycle_rank = n2 * r2 - n1 - n2 + 1
    if cycle_rank < 0:
        with pytest.raises(ValueError, match="not connected"):
            spectrum_line_semiregular(n1, n2, r1, r2, pairs)
        return
    spec = spectrum_line_semiregular(n1, n2, r1, r2, pairs)
    p, expect = r1 + r2 - 4, [(Eigenvalue(2 * (r1 + r2 - 2), 0, 0), 1)]
    for m, mult in tops:
        d = (r1 - r2) ** 2 + 4 * m
        expect += [(SurdEigenvalue(p, d, 1), mult), (SurdEigenvalue(p, d, -1), mult)]
    expect += [(Eigenvalue(2 * (r2 - 2), 0, 0), n2 - n1), (Eigenvalue(-4, 0, 0), cycle_rank)]
    assert spec == Spectrum(expect)
    assert spec.total_multiplicity == n1 * r1


def _bracket(ev, bits):
    """Integers c - 1 < 2^bits * (a + e*sqrt(r)) < c + 1, by isqrt."""
    c = (ev.a << bits) + ev.e * isqrt(ev.r << (2 * bits))
    return c - 1, c + 1


def _exact_order(x, y):
    """sign(x - y): equal fields are equal values (normal form), and the
    brackets of two unequal values part once bits is large enough."""
    if (x.a, x.e, x.r) == (y.a, y.e, y.r):
        return 0
    bits = 16
    while True:
        (lo_x, hi_x), (lo_y, hi_y) = _bracket(x, bits), _bracket(y, bits)
        if lo_x >= hi_y or hi_x <= lo_y:
            return 1 if lo_x >= hi_y else -1
        bits *= 2


# two values with one a and one e, whose radicands are equal, close or far
_EQUAL_A_AND_E = st.one_of(
    st.tuples(st.integers(-(10**30), 10**30), st.just(0), st.just(0), st.just(0)),
    st.tuples(
        st.integers(-(10**30), 10**30),
        _BRANCHES,
        st.integers(0, 10**40),
        st.integers(-3, 3) | st.integers(-(10**40), 10**40),
    ).map(lambda t: (t[0], t[1], t[2], max(t[2] + t[3], 0))),
)


@settings(deadline=None)
@given(_EQUAL_A_AND_E)
@example((0, -1, 2, 3))  # -sqrt(2)/2 > -sqrt(3)/2
@example((7, -1, 10**40 + 1, 10**40 + 2))
@example((3, 1, 5, 5))
@example((3, 0, 0, 0))
def test_equal_a_and_e_comparison_is_exact(fields):
    a, e, r1, r2 = fields
    x, y = Eigenvalue(a, e, r1), Eigenvalue(a, e, r2)
    assert _cmp_keys(x, y) == _exact_order(x, y)
    assert _cmp_keys(y, x) == _exact_order(y, x)


# two values with one e: two ints (e = 0), one radicand where a1 - a2 is
# odd, and any two radicands where it is even, where sign(a1 - a2) alone
# can be wrong
_EQUAL_E = st.one_of(
    st.tuples(st.integers(-(10**30), 10**30), st.integers(-(10**30), 10**30), st.just(0), st.just(0), st.just(0)),
    st.tuples(
        st.integers(-(10**30), 10**30),
        st.integers(-3, 3) | st.integers(-(10**30), 10**30),
        _BRANCHES,
        st.integers(0, 10**40),
        st.integers(0, 10**40),
    ).map(lambda t: (t[0], t[0] + t[1], t[2], t[3], t[3] if t[1] % 2 else t[4])),
)


@settings(deadline=None)
@given(_EQUAL_E)
@example((4, -6, 0, 0, 0))  # the ints 2 > -3
@example((3, 5, -1, 7, 7))  # (3 - sqrt(7))/2 < (5 - sqrt(7))/2
@example((5, 3, 1, 2, 30))  # (5 + sqrt(2))/2 < (3 + sqrt(30))/2, though 5 > 3
@example((5, 3, -1, 30, 2))  # (5 - sqrt(30))/2 < (3 - sqrt(2))/2
def test_equal_e_comparison_is_exact(fields):
    a1, a2, e, r1, r2 = fields
    x, y = Eigenvalue(a1, e, r1), Eigenvalue(a2, e, r2)
    assert _cmp_keys(x, y) == _exact_order(x, y)
    assert _cmp_keys(y, x) == _exact_order(y, x)


@st.composite
def _intersection_arguments(draw):
    """(n, k, i, j, s) with i != j, 0 <= i, j, s <= k <= 24 and 2k <= n <= 400."""
    k = draw(st.integers(1, 24), label="k")
    n = draw(st.integers(2 * k, 400), label="n")
    i = draw(st.integers(0, k), label="i")
    j = draw(st.integers(0, k).filter(lambda j: j != i), label="j")
    return n, k, i, j, draw(st.integers(0, k), label="s")


@settings(deadline=None)
@given(_intersection_arguments())
@example((8, 4, 0, 1, 0))  # an empty range: r >= 0, but r <= m - t = 0 - 3
@example((400, 24, 0, 24, 24))
def test_intersection_number_sums_exactly_its_nonzero_terms(arguments):
    # every term of the full-range sum is >= 0, so a sum that meets it and
    # takes only nonzero terms takes every nonzero term
    expect = intersection_number_by_full_sum(*arguments)

    def nonzero_comb(a, b):
        assert 0 <= b <= a, (arguments, a, b)
        return comb(a, b)

    with mock.patch.object(combinatorics, "comb", nonzero_comb):
        assert intersection_number(*arguments) == expect


@st.composite
def _small_graphs(draw, min_n=0, max_n=8):
    """(n, edges) on min_n to max_n vertices, each pair an edge independently."""
    n = draw(st.integers(min_n, max_n), label="n")
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [pair for pair, kept in zip(pairs, keep) if kept]


@settings(deadline=None, max_examples=100)
@given(_small_graphs())
# the smallest asymmetric graphs have 6 vertices; this is one
@example((6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 5)]))
def test_aut_order_matches_networkx_isomorphism_count(graph):
    nx = pytest.importorskip("networkx")
    n, edges = graph
    if len(edges) in (0, n * (n - 1) // 2):
        # every bijection is an automorphism; networkx would list all 8! of
        # them one by one, which takes seconds
        expect = factorial(n)
    else:
        reference = nx.Graph()
        reference.add_nodes_from(range(n))
        reference.add_edges_from(edges)
        matcher = nx.algorithms.isomorphism.GraphMatcher(reference, reference)
        expect = sum(1 for _ in matcher.isomorphisms_iter())
    assert brute_force_aut_order(Graph(n, edges)) == expect


@st.composite
def _relabelled_colourings(draw):
    """A graph on 1 to 12 vertices, a colouring numbered 0..c-1 and a
    permutation of the vertices."""
    n, edges = draw(_small_graphs(min_n=1, max_n=12))
    drawn = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n), label="colours")
    colors = np.unique(drawn, return_inverse=True)[1].reshape(n)
    return n, edges, colors, np.array(draw(st.permutations(range(n)), label="perm"), dtype=np.int64)


@settings(deadline=None, max_examples=100)
@given(_relabelled_colourings())
def test_refinement_commutes_with_relabelling(case):
    n, edges, colors, perm = case
    weights = _color_weights(n)
    refined, trace = _refinement_colors(Graph(n, edges), weights, colors)
    moved_graph = Graph(n, [(perm[u], perm[v]) for u, v in edges])
    moved_colors = np.empty(n, dtype=np.int64)
    moved_colors[perm] = colors
    moved, moved_trace = _refinement_colors(moved_graph, weights, moved_colors)
    assert np.array_equal(moved[perm], refined)
    assert len(moved_trace) == len(trace)
    for ours, theirs in zip(moved_trace, trace):
        assert all(map(np.array_equal, ours, theirs))
    assert _refinement_colors(moved_graph, weights, moved_colors, trace) is not None


@st.composite
def _coloured_graphs(draw):
    """A graph of _graphs() on at least one vertex (most of them isolated
    when it is large) and a colour in 0..4 for each vertex."""
    n, edges = draw(_graphs().filter(lambda graph: graph[0] > 0))
    return n, edges, draw(st.lists(st.integers(0, 4), min_size=n, max_size=n), label="colours")


@settings(deadline=None, max_examples=100)
@given(_coloured_graphs())
@example((3, [(1, 0)], [1, 1, 0]))  # vertex 2 is isolated
def test_refinement_round_sums_the_neighbour_weights(case):
    # the first round's sorted pairs (c(v), h(v)), h(v) the sum mod 2^64 of
    # weights[c(u)] over the neighbours u of v, made here in Python ints
    n, edges, drawn = case
    colors = np.unique(drawn, return_inverse=True)[1].reshape(n)
    weights = _color_weights(n)
    h = [0] * n
    for u, v in edges:
        h[u] += int(weights[colors[v]])
        h[v] += int(weights[colors[u]])
    want = sorted((int(c), s % 2**64) for c, s in zip(colors, h))
    classes, sums = _refinement_colors(Graph(n, edges), weights, colors)[1][0]
    assert list(zip(classes.tolist(), sums.tolist())) == want


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(list(canonical_params_up_to(7))), st.randoms(use_true_random=False))
def test_aut_order_of_a_relabelled_inclusion_graph(params, rng):
    g = build_inclusion_graph(params)
    label = list(range(g.num_vertices))
    rng.shuffle(label)
    edges = [(label[u], label[v]) for u, v in g.edges().tolist()]
    expect = factorial(params.n) * (2 if params.k + params.l == params.n else 1)
    assert brute_force_aut_order(Graph(g.num_vertices, edges)) == expect


# per subcommand: each flag with the values to draw for it (None: a switch)
_FLAGS = {
    "spectrum": {"--line": None, "--format": ["table", "json", "csv", "xml"]},
    "verify": {
        "--line": None,
        "--tol": ["1e-8", "0", "-1", "nan", "inf", "x"],
        "--inject-perturbation": ["0.5", "0", "x"],
    },
    "aut": {
        "--brute-force": None,
        "--format": ["table", "json", "xml"],
    },
    "orbits": {"--on": ["vertices", "edges", "arcs", "faces"]},
    "export": {"--format": ["edgelist", "graph6", "dot", "gml"]},
    "scheme": {"--check": None},
}
# the removed cap flags are usage errors like any unknown option
_BAD_TOKENS = [["--bogus"], ["--help"], ["--format"], ["-1"], ["nine"], [""],
               ["--max-vertices", "5"], ["--max-dim", "5"]]
# malformed or small: never above the defaults, so no run can be slow
_ENV_VALUES = ["", "1", "5", "30", "0", "-2", "abc", "2.5"]
_RARELY = st.integers(0, 7).map(lambda x: x == 0)


@st.composite
def _parameters(draw, command):
    """Mostly valid numbers for the command, canonical or not; sometimes any."""
    # aut --brute-force is capped at the certificate's n*2m arc visits; every
    # canonical n <= 12 is certified at the default cap, the largest,
    # (12,4,8), in 831,600 of them
    if draw(_RARELY, label="any numbers"):
        count = 2 if command == "scheme" else 3
        return draw(st.lists(st.integers(-1, 9), min_size=count, max_size=count))
    if command == "scheme":
        n = draw(st.integers(0, 10))
        return [n, draw(st.integers(0, n // 2))]
    n = draw(st.integers(3, 12 if command == "aut" else 9))
    k = draw(st.integers(1, n - 2))
    return [n, k, draw(st.integers(k + 1, n - 1))]


@st.composite
def _cli_calls(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)), label="command")
    argv = [command, *map(str, draw(_parameters(command), label="numbers"))]
    if draw(_RARELY, label="drop a number"):
        argv.pop()
    for flag, values in _FLAGS[command].items():
        if draw(st.booleans(), label=flag):
            argv += [flag] if values is None else [flag, draw(st.sampled_from(values))]
    if draw(_RARELY, label="bad token"):
        argv += draw(st.sampled_from(_BAD_TOKENS))
    name = "SETINCL_MAX_VERTICES"
    env = {name: draw(st.one_of(st.none(), st.sampled_from(_ENV_VALUES)), label=name)}
    return argv, env


@settings(deadline=None)
@given(_cli_calls())
def test_cli_exits_with_a_documented_code(call):
    argv, env = call
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ):
        for name, value in env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 64), (argv, env, code)
    assert "Traceback" not in err.getvalue()


# tokens that only argparse reads (abbreviations, --opt=value, "--", help, a
# negative number, "", the value "-", --out with no value or an option after
# it) or that it reads in any order
_ARGPARSE_TOKENS = [["--form", "json"], ["--lin"], ["--format=json"], ["--"], ["-h"], ["--help"],
                    ["-3"], [""], ["--out", "-"], ["--out"], ["--line"], ["--format", "csv"],
                    ["--on", "arcs"]]


@st.composite
def _argvs(draw):
    """A command line of _cli_calls, its options maybe moved before the
    positionals or repeated, with tokens of _ARGPARSE_TOKENS inserted; or
    one with an unknown command, or none."""
    if draw(_RARELY, label="no command"):
        return draw(st.sampled_from([[], ["bogus", "4", "1", "2"], ["-h"], ["--version"]]))
    (command, *rest), _ = draw(_cli_calls(), label="call")
    first = next((i for i, token in enumerate(rest) if token.startswith("--")), len(rest))
    if draw(st.booleans(), label="options first"):
        rest = rest[first:] + rest[:first]
    if draw(_RARELY, label="repeat the options"):
        rest += rest[first:]
    for tokens in draw(st.lists(st.sampled_from(_ARGPARSE_TOKENS), max_size=2), label="insert"):
        at = draw(st.integers(0, len(rest)), label="at")
        rest[at:at] = tokens
    return [command, *rest]


def _parsed(parse, argv):
    """vars of parse(argv)'s Namespace, or its SystemExit code, with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _read_then_argparse(argv):
    args = cli._read_argv(argv)
    return cli._PARSER.parse_args(argv) if args is None else args


@settings(deadline=None, max_examples=300)
@given(_argvs())
@example([])
@example(["orbits", "4", "1", "2"])  # --on is required
@example(["spectrum", "4", "1", "2", "3"])  # one positional too many
@example(["spectrum", "--line", "--format", "json", "6", "2", "3", "--line"])
@example(["spectrum", "6", "2", "3", "--out", "-"])
@example(["spectrum", "6", "2", "3", "--out", "--line"])  # --out has no value
@example(["export", "6", "2", "3", "--out"])
@example(["spectrum", "6", "2", "3", "--format="])
@example(["verify", "6", "-2", "3"])
@example(["verify", "6", "2", "3", "--tol", "nan"])
@example(["export", "6", "2", "3", "--format", "gml"])
@example(["scheme", " 6", "2_0"])  # int() reads spaces and underscores
def test_reader_then_argparse_is_argparse(argv):
    assert _parsed(_read_then_argparse, argv) == _parsed(cli._PARSER.parse_args, argv), argv


def test_reader_takes_every_workload_command_line():
    """Every CLI job of the benchmark, at two seeds, takes the reader."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    with mock.patch.object(sys, "path", [perfbench, *sys.path]), mock.patch.dict(sys.modules):
        workloads = importlib.import_module("workloads")
        jobs = [*workloads.WARMUP.values()] + [
            job for pool in workloads.WORKLOADS.values() for seed in (0, 1)
            for each_pass in pool(seed, 2) for job in each_pass]
    commands = set()
    for job in jobs:
        if job.argv:
            argv = list(job.argv)
            args = cli._read_argv(argv)
            assert args is not None and vars(args) == vars(cli._PARSER.parse_args(argv)), argv
            commands.add(argv[0])
    assert commands == set(cli._GRAMMAR)


@st.composite
def _huge_calls(draw):
    """A command line with rows in limits.ROWS, each required option given
    one of its choices, on parameters no cap lets through: n from 10^12 to
    10^18 with k <= 3 (smaller n may pass numpy's limit and fail only on
    allocation), or n from 1000 to 10^6 with k just below n/2; (n,k,l)
    canonical or its complement.  Plain aut and spectrum have no rows: they
    answer at any size, and printing 10^6! takes minutes."""
    command, *flags = draw(st.sampled_from(sorted(limits.ROWS)), label="command").split()
    for option, action in cli._GRAMMAR[command][1].items():
        if action.required:
            flags += [option, draw(st.sampled_from(action.choices), label=option)]
    if draw(st.booleans(), label="k near n/2"):
        n = draw(st.integers(1000, 10**6), label="n")
        k = n // 2 - draw(st.integers(1, 4), label="n/2 - k")
        l = draw(st.integers(k + 1, n - k), label="l")
    else:
        n = draw(st.integers(10**12, 10**18), label="n")
        k = draw(st.integers(1, 3), label="k")
        l = draw(st.one_of(st.integers(k + 1, k + 3), st.integers(n - k - 3, n - k)), label="l")
    if command == "scheme":
        return [command, str(n), str(k), *flags]
    if draw(st.booleans(), label="complement"):
        k, l = n - l, n - k
    return [command, *map(str, (n, k, l)), *flags]


@settings(deadline=None)
@given(_huge_calls())
def test_cli_refuses_huge_parameters_in_short_lines(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ):
        os.environ.pop("SETINCL_MAX_VERTICES", None)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code == 2 and out.getvalue() == "", (argv, code)
    assert "Traceback" not in err.getvalue()
    assert max(len(line.encode()) for line in err.getvalue().splitlines()) <= 200, argv


@settings(deadline=None)
@given(st.data())
def test_bound_rows_are_lower_bounds_up_to_huge_n(data):
    k = data.draw(st.integers(0, 3), label="k")
    n = data.draw(st.integers(2 * k + 2, 10**18), label="n")
    assert_bounds_are_lower_bounds(n, k)
    if k:
        near_k, near_n = st.integers(k + 1, min(k + 4, n - 1)), st.integers(max(k + 1, n - k - 3), n - 1)
        assert_bounds_are_lower_bounds(n, k, data.draw(near_k | near_n, label="l"))
