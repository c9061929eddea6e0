"""Helpers that only the tests need: every canonical parameter triple up to
a bound, the check that each preflight row's bits bound its size, the
intersection numbers summed over every r, the intersection sizes of every
pair of k-subsets with the relation graphs and the dense scheme check read
from them, a reference CSR build and the check of a graph against it,
connectivity by networkx, the product and identity test of vertex
actions, and the two lemma checks on the k-side of an inclusion graph: only
the identity fixes it pointwise, and common neighbours give intersection
sizes."""

from types import SimpleNamespace

import numpy as np
import pytest

from setincl import binom, limits
from setincl.automorphisms import InducedAction
from setincl.combinatorics import intersection_number
from setincl.graphs import Graph, GraphParams, SubsetGraph, canonicalize, subset_positions


def canonical_params_up_to(max_n: int, min_n: int = 3):
    """Yield every canonical GraphParams with min_n <= n <= max_n."""
    for n in range(min_n, max_n + 1):
        for k in range(1, n // 2 + 1):
            for l in range(k + 1, min(n - k, n - 1) + 1):
                yield GraphParams(n, k, l)


def assert_bounds_are_lower_bounds(n, k, l=None):
    """Check 2^bits <= size on every row of every command line in
    limits.ROWS at (n,k,l), canonicalized as the CLI does, or of every
    scheme command line at (n,k) when l is None: every row, whatever the
    rows before it would decide.  A size of 0 (the k-subset rows at k = 0)
    has bits -1."""
    if l is not None:
        p = canonicalize(GraphParams(n, k, l))[0]
        n, k, l = p.n, p.k, p.l
    checked = 0
    for call, rows in limits.ROWS.items():
        if call.startswith("scheme") == (l is None):
            q = limits.Sizes(n=n, k=k, l=l)
            for row in rows:
                bits, size = row.bits(q), row.size(q)
                ok = size == 0 if bits == -1 else 0 <= bits and 1 << bits <= size
                assert ok, (call, row.message)
                checked += 1
    assert checked, (n, k, l)


def intersection_number_by_full_sum(n, k, i, j, s):
    """p^s_{ij} with the formula summed over every r = 0..s, zero terms
    included, each binomial total over the integers."""
    return sum(
        binom(s, r) * binom(k - s, i - r) * binom(k - s, j - r) * binom(n - 2 * k + s, k - i - j + r)
        for r in range(s + 1)
    )


def meets(n: int, k: int) -> np.ndarray:
    """Intersection size |a & b| of every pair of k-subsets of an n-set, in
    colex order: X X^T for the float32 0/1 incidence matrix X of k-subsets
    against elements, exact since every partial sum is an integer in 0..k."""
    positions = subset_positions(n, k)
    incidence = np.zeros((len(positions), n), dtype=np.float32)
    incidence[np.arange(len(positions))[:, None], positions] = 1
    return incidence @ incidence.T


def build_johnson_graph(n: int, k: int, i: int) -> Graph:
    """The intersection-i relation graph on all k-subsets of an n-set, for
    i < k.  Relation k, the identity, is no simple graph."""
    if not (0 <= i < k and 2 * k <= n):
        raise ValueError(f"need 0 <= i < k <= n/2, got n={n}, k={k}, i={i}")
    label = meets(n, k)
    return Graph(len(label), np.column_stack(np.nonzero(np.triu(label == i, 1))))


def dense_scheme_holds(n: int, k: int) -> bool:
    """Entrywise check of the scheme identities on explicit matrices, the
    reference for setincl's count at one pair per relation.

    The relation index of every pair of k-subsets is its intersection size,
    label = meets(n, k), and A_s = (label == s).  Checked in order: label is
    symmetric with every entry in 0..k, label == k is the identity, and for
    i != j, A_i A_j = A_j A_i = sum_s p^s_{ij} A_s = sum_s p^s_{ji} A_s.
    The A_s partition all-ones by construction, so each is a symmetric 0/1
    matrix once label is, and sum_s p_s A_s is the gather p[label].

    Symmetry gives A_j A_i = (A_i A_j)^T, and p[label] is symmetric, so one
    product per pair i < j covers both orders.  Once it equals p_ij[label],
    it equals p_ji[label] exactly when p_ij and p_ji agree on every relation
    that occurs in label.  The identity check makes A_k = I, so the pairs
    (i, k) take A_i itself as the product.  The others run in float32 and
    are exact while C(n,k) <= 2**24: every entry and partial sum is an
    integer in 0..C(n,k).
    """
    label = meets(n, k)
    if not (np.array_equal(label, label.T) and np.isin(label, range(k + 1)).all()):
        return False
    if not np.array_equal(label == k, np.eye(len(label), dtype=bool)):
        return False
    label = label.astype(np.uint8)
    present = np.bincount(label.ravel(), minlength=k + 1) > 0
    mats = [(label == s).astype(np.float32) for s in range(k)]
    for i in range(k):
        for j in range(i + 1, k + 1):
            prod = mats[i] @ mats[j] if j < k else mats[i]
            p_ij, p_ji = [
                np.array([intersection_number(n, k, a, b, s) for s in range(k + 1)], np.float32)
                for a, b in ((i, j), (j, i))
            ]
            if not np.array_equal(prod, p_ij[label]):
                return False
            if not np.array_equal(p_ij[present], p_ji[present]):
                return False
    return True


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


def pointwise_stabilizer_trivial(g: SubsetGraph) -> bool:
    """True iff the identity is the only automorphism fixing every k-subset
    vertex.

    An automorphism fixing the first size class pointwise can move an
    l-subset vertex only onto one with the identical (fixed) neighborhood,
    and any permutation inside such duplicate classes is an automorphism;
    the restricted search therefore reduces to checking that all
    neighborhoods on the l-side are distinct.
    """
    # the l-side rows are the rank rows, each sorted
    return len(np.unique(g.ranks, axis=0)) == len(g.ranks)


def common_neighbor_fingerprint(g: SubsetGraph, u: int, v: int) -> int:
    """Number of common neighbors of two k-subset vertices (their degree
    when u == v); determines the intersection size of the two subsets."""
    if not (0 <= u < g.v1_count and 0 <= v < g.v1_count):
        raise ValueError("both vertices must lie in the k-subset class")
    return len(np.intersect1d(g.neighbors(u), g.neighbors(v), assume_unique=True))
