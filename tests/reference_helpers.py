"""Helpers that only the tests need: every canonical parameter triple up to
a bound, the check that each preflight row's bits bound its size, the
intersection numbers summed over every r, a reference CSR build and the
check of a graph against it, connectivity by networkx, and the product and
identity test of vertex actions."""

from types import SimpleNamespace

import numpy as np
import pytest

from setincl import binom, cli
from setincl.automorphisms import InducedAction
from setincl.graphs import GraphParams, canonicalize


def canonical_params_up_to(max_n: int, min_n: int = 3):
    """Yield every canonical GraphParams with min_n <= n <= max_n."""
    for n in range(min_n, max_n + 1):
        for k in range(1, n // 2 + 1):
            for l in range(k + 1, min(n - k, n - 1) + 1):
                yield GraphParams(n, k, l)


# each command that builds, with its flags
_BUILDING_CALLS = [
    ["verify"], ["verify", "--line"], ["aut", "--brute-force"], ["orbits", "--on", "edges"], ["export"]
]


def assert_bounds_are_lower_bounds(n, k, l=None):
    """Check 2^bits <= size() on every row that cli._bounds yields for each
    building command at (n,k,l), or for scheme --check at (n,k) when l is
    None: every row, whatever the rows before it would decide."""
    for command, *flags in [["scheme", "--check"]] if l is None else _BUILDING_CALLS:
        argv = [command, *(str(x) for x in (n, k, l) if x is not None), *flags]
        args = cli._PARSER.parse_args(argv)
        if l is not None:
            args.params = canonicalize(GraphParams(n, k, l))[0]
        rows = list(cli._bounds(args, cli.MAX_VERTICES))
        assert rows, argv
        for bits, size, _, message in rows:
            assert 0 <= bits and 1 << bits <= size(), (argv, message)


def intersection_number_by_full_sum(n, k, i, j, s):
    """p^s_{ij} with the formula summed over every r = 0..s, zero terms
    included, each binomial total over the integers."""
    return sum(
        binom(s, r) * binom(k - s, i - r) * binom(k - s, j - r) * binom(n - 2 * k + s, k - i - j + r)
        for r in range(s + 1)
    )


def reference_csr(num_vertices: int, edges) -> SimpleNamespace:
    """indptr, indices, edges and lower_edges of the simple graph with this
    edge list, all read off one sort of all 2m arc codes tail * nv + head,
    a build that shares no step with Graph's.  edges are the pairs u < v and
    lower_edges the pairs (hi, lo), hi > lo, each in the order of the arcs."""
    nv = num_vertices
    u, v = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    arcs = np.sort(np.concatenate((u * nv + v, v * nv + u)))
    tails, heads = np.divmod(arcs, nv)
    upper, lower = tails < heads, tails > heads
    return SimpleNamespace(
        indptr=np.searchsorted(arcs, np.arange(nv + 1) * nv),
        indices=heads,
        edges=np.column_stack((tails[upper], heads[upper])),
        lower_edges=(tails[lower], heads[lower]),
    )


def assert_matches_reference_csr(g, edges) -> None:
    """g's edge count, and its indptr, indices, edges() and lower_edges(),
    values and int64 dtype, against reference_csr of the edge list."""
    ref = reference_csr(g.num_vertices, edges)
    assert g.num_edges == len(ref.edges)
    pairs = [(g.indptr, ref.indptr), (g.indices, ref.indices), (g.edges(), ref.edges)]
    for got, want in [*pairs, *zip(g.lower_edges(), ref.lower_edges)]:
        assert got.dtype == np.int64 and np.array_equal(got, want)


def is_connected(g) -> bool:
    """True when g has a single connected component (empty graph counts as
    connected only if it has at most one vertex), by networkx."""
    nx = pytest.importorskip("networkx")
    if g.num_vertices <= 1:
        return True
    graph = nx.empty_graph(g.num_vertices)
    graph.add_edges_from(g.edges().tolist())
    return nx.is_connected(graph)


def compose(a: InducedAction, b: InducedAction) -> InducedAction:
    """Action applying b first, then a."""
    return InducedAction(a.images[b.images])


def is_identity(a: InducedAction) -> bool:
    return np.array_equal(a.images, np.arange(len(a.images)))
