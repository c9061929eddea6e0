"""Property-based tests (hypothesis) for graph6, the text exports, the
vectorised colex rank, the union of link arrays, the exact merge and order
of `Spectrum` (also where float64 cannot order or hold the values), the
automorphism-order oracle and the command line's exit codes."""

import contextlib
import io
import os
from functools import cmp_to_key
from itertools import combinations
from math import comb, factorial
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from reference_export import reference_export  # noqa: E402
from reference_helpers import canonical_params_up_to  # noqa: E402
from reference_ranks import mask_of, subset_rank, subset_unrank  # noqa: E402
from setincl import (  # noqa: E402
    ExactEigenvalue,
    Graph,
    Spectrum,
    SurdEigenvalue,
    brute_force_aut_order,
    build_inclusion_graph,
    export_graph,
    parse_graph6,
)
from setincl.automorphisms import _color_weights, _refinement_colors  # noqa: E402
from setincl.cli import main  # noqa: E402
from setincl.spectra import _cmp_keys  # noqa: E402
from setincl.graphs import colex_ranks, component_labels  # noqa: E402


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


# vertex counts at which the widest vertex number gains a digit
_DIGIT_BOUNDARIES = st.sampled_from([0, 1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 1100])


@st.composite
def _text_export_graphs(draw):
    """A graph on at most 1100 vertices with up to 9000 random edges, past two
    blocks of rows; or an edgeless graph, whose export is its header only."""
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


@settings(deadline=None)
@given(_text_export_graphs(), st.sampled_from(["edgelist", "dot"]))
@example(Graph(0, []), "edgelist")
@example(Graph(0, []), "dot")
@example(Graph(1100, []), "dot")
@example(Graph(1001, [(8, 9), (9, 10), (98, 99), (99, 100), (998, 999), (999, 1000)]), "edgelist")
@example(Graph(1001, [(8, 9), (9, 10), (98, 99), (99, 100), (998, 999), (999, 1000)]), "dot")
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
    (a, b, flip) joins (a[i], d) with (b[i], d ^ flip[i]) (flip 0 without
    flips).  Keeping the smaller root, the root of (x, 0) is 2y + d for the
    smallest member y of x's class."""
    parent = list(range(2 * size))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b, *flip in links:
        flips = flip[0] if flip else [0] * len(a)
        for x, y, f in zip(a, b, flips):
            for d in (0, 1):
                rx, ry = find(2 * x + d), find(2 * y + (d ^ f))
                parent[max(rx, ry)] = min(rx, ry)
    labels = [find(2 * x) // 2 for x in range(size)]
    odd = sorted({labels[x] for x in range(size) if find(2 * x) == find(2 * x + 1)})
    return labels, odd


@st.composite
def _link_lists(draw):
    """A size and up to five links on 0..size-1, each random pairs or the
    pairs (x, p(x)) of a random permutation p, and each with or without a
    random flip per pair."""
    size = draw(st.integers(1, 60), label="size")
    links = []
    for _ in range(draw(st.integers(0, 5), label="links")):
        if draw(st.booleans(), label="permutation"):
            a, b = list(range(size)), draw(st.permutations(range(size)))
        else:
            pairs = draw(st.lists(st.tuples(*[st.integers(0, size - 1)] * 2), max_size=80))
            a, b = [x for x, _ in pairs], [y for _, y in pairs]
        link = (np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
        if draw(st.booleans(), label="flips"):
            flip = draw(st.lists(st.booleans(), min_size=len(a), max_size=len(a)))
            link += (np.array(flip, dtype=bool),)
        links.append(link)
    return size, links


def _link(a, b, flip=None):
    arrays = (np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
    return arrays if flip is None else (*arrays, np.array(flip, dtype=bool))


@settings(deadline=None)
@given(_link_lists())
# two flips chained in one hooking round compose to parity 0, so the last
# link closes no odd cycle
@example((3, [_link([2, 1], [1, 0], [1, 1]), _link([2], [0], [0])]))
# an odd cycle closes on root 1, which is then hooked under 0
@example((3, [_link([2], [1], [1]), _link([2], [1], [0]), _link([1], [0])]))
# parities start at the first flip that is True: all-False flips join as
# plain links first, then a reversing link closes an odd cycle, or not
@example((3, [_link([0, 1], [1, 2], [0, 0]), _link([2], [0], [1])]))
@example((4, [_link([0], [1], [0]), _link([2], [3], [1]), _link([1], [2], [0])]))
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
        "--max-vertices": ["1", "5", "100", "0", "-3", "x"],
        "--inject-perturbation": ["0.5", "0", "x"],
    },
    "aut": {
        "--brute-force": None,
        "--max-vertices": ["1", "5", "30", "0", "x"],
        "--format": ["table", "json", "xml"],
    },
    "orbits": {"--on": ["vertices", "edges", "arcs", "faces"]},
    "export": {"--format": ["edgelist", "graph6", "dot", "gml"]},
    "scheme": {"--check": None, "--max-dim": ["1", "10", "200", "0", "-1", "x"]},
}
_BAD_TOKENS = ["--bogus", "--help", "--format", "-1", "nine", ""]
# malformed or small: never above the defaults, so no run can be slow
_ENV_VALUES = ["", "1", "5", "30", "0", "-2", "abc", "2.5"]
_RARELY = st.integers(0, 7).map(lambda x: x == 0)


@st.composite
def _parameters(draw, command):
    """Mostly valid numbers for the command, canonical or not; sometimes any."""
    # aut --brute-force is capped at the certificate's n*2m arc visits; the
    # largest canonical triple drawn, (9,3,6), takes 30,240 of them
    if draw(_RARELY, label="any numbers"):
        count = 2 if command == "scheme" else 3
        return draw(st.lists(st.integers(-1, 9), min_size=count, max_size=count))
    if command == "scheme":
        n = draw(st.integers(0, 10))
        return [n, draw(st.integers(0, n // 2))]
    n = draw(st.integers(3, 9))
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
        argv.append(draw(st.sampled_from(_BAD_TOKENS)))
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
