"""Explicit graph construction: inclusion graphs on k- and l-subsets,
intersection-relation graphs on k-subsets, line graphs, and interchange
formats (edge list, graph6, dot).

Vertices are subsets of {0, ..., n-1} stored as bitmasks.  Within each size
class masks are ranked colexicographically (equivalently: by numeric value),
k-subsets first; the fixed order makes every export and eigensolver input
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

import numpy as np

from .combinatorics import binom, intersection_number

MAX_GROUND_SET = 64  # subsets are kept inside one machine word's worth of bits
_GRAPH6_MAX = 68719476735  # largest vertex count the format can encode

__all__ = [
    "GraphParams",
    "Graph",
    "SubsetGraph",
    "canonicalize",
    "canonical_params_up_to",
    "enumerate_subsets",
    "subset_rank",
    "subset_unrank",
    "inclusion_ranks",
    "build_inclusion_graph",
    "build_johnson_graph",
    "build_line_graph",
    "export_graph",
    "parse_graph6",
    "is_connected",
    "johnson_matrices",
    "johnson_scheme_holds",
]


@dataclass(frozen=True)
class GraphParams:
    """Validated (n, k, l) triple for the inclusion graph on k- and l-subsets."""

    n: int
    k: int
    l: int

    def __post_init__(self) -> None:
        if not (1 <= self.k < self.l <= self.n - 1):
            raise ValueError(
                f"need 1 <= k < l <= n-1, got (n,k,l)=({self.n},{self.k},{self.l})"
            )

    @property
    def is_canonical(self) -> bool:
        return self.k + self.l <= self.n

    def require_canonical(self) -> None:
        """Raise ValueError unless k + l <= n; see canonicalize."""
        if not self.is_canonical:
            raise ValueError(
                f"parameters ({self.n},{self.k},{self.l}) are not canonical"
                " (k+l>n); canonicalize first"
            )

    @property
    def n1(self) -> int:
        """Number of k-subsets."""
        return comb(self.n, self.k)

    @property
    def n2(self) -> int:
        """Number of l-subsets."""
        return comb(self.n, self.l)

    @property
    def r1(self) -> int:
        """Degree of every k-subset vertex."""
        return comb(self.n - self.k, self.l - self.k)

    @property
    def r2(self) -> int:
        """Degree of every l-subset vertex."""
        return comb(self.l, self.k)


def canonicalize(params: GraphParams) -> tuple[GraphParams, bool]:
    """Reduce parameters to the k + l <= n form.

    The complement map v -> [n] \\ v identifies G(n,k,l) with G(n,n-l,n-k),
    so a non-canonical triple is replaced by its complement; the flag reports
    whether that happened.
    """
    if params.is_canonical:
        return params, False
    return GraphParams(params.n, params.n - params.l, params.n - params.k), True


def canonical_params_up_to(max_n: int, min_n: int = 3):
    """Yield every canonical GraphParams with min_n <= n <= max_n."""
    for n in range(min_n, max_n + 1):
        for k in range(1, n // 2 + 1):
            for l in range(k + 1, min(n - k, n - 1) + 1):
                yield GraphParams(n, k, l)


def enumerate_subsets(n: int, size: int) -> list[int]:
    """All size-subsets of {0,...,n-1} as bitmasks in colexicographic order.

    For a fixed size, colex order coincides with numeric order of the masks.
    """
    # uint64 throughout: bit 63 does not fit int64, and mixing the two
    # promotes to float64
    bits = np.left_shift(np.uint64(1), subset_positions(n, size).astype(np.uint64))
    return bits.sum(axis=1, dtype=np.uint64).tolist()


def subset_positions(n: int, size: int) -> np.ndarray:
    """Elements of every size-subset of {0,...,n-1}: one ascending int64 row
    per subset, rows in colexicographic order."""
    if not 0 <= size <= n:
        raise ValueError(f"need 0 <= size <= n, got n={n}, size={size}")
    if n > MAX_GROUND_SET:
        raise ValueError(f"ground set capped at {MAX_GROUND_SET} elements")
    # lex order of descending tuples drawn from n-1, ..., 0 is reverse colex
    flat = np.fromiter(
        chain.from_iterable(combinations(range(n - 1, -1, -1), size)),
        dtype=np.int64,
        count=comb(n, size) * size,
    )
    return flat.reshape(comb(n, size), size)[::-1, ::-1]


def subset_rank(mask: int) -> int:
    """Colexicographic rank of a bitmask among subsets of its own size."""
    r = 0
    j = 0
    while mask:
        low = mask & -mask
        j += 1
        r += comb(low.bit_length() - 1, j)
        mask ^= low
    return r


def subset_unrank(size: int, rank: int) -> int:
    """Mask of the given colex rank among size-subsets; inverse of subset_rank."""
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    mask = 0
    r = rank
    for j in range(size, 0, -1):
        e = j - 1
        while comb(e + 1, j) <= r:
            e += 1
        r -= comb(e, j)
        mask |= 1 << e
    if r != 0:
        raise ValueError(f"rank {rank} out of range for size {size}")
    return mask


# _BINOM[p, j] = C(p, j) for element positions p < 64; C(63, 31) < 2**63
_BINOM = np.array(
    [[comb(p, j) for j in range(MAX_GROUND_SET + 1)] for p in range(MAX_GROUND_SET)],
    dtype=np.int64,
)


def colex_ranks(columns) -> np.ndarray:
    """Vectorised subset_rank.  columns[j] holds the (j+1)-th smallest
    element of every subset (for a positions array p, pass p.T); the rank is
    the sum of C(columns[j], j+1)."""
    return sum(_BINOM[col, j] for j, col in enumerate(columns, 1))


class Graph:
    """Immutable simple undirected graph on vertices 0..num_vertices-1, in
    compressed sparse row form: the neighbours of v are
    indices[indptr[v]:indptr[v+1]], in ascending order (int64 arrays).

    Loops (used only by the identity relation graph) are tracked separately:
    they show up in the adjacency-matrix view but never in edge lists.
    """

    def __init__(self, num_vertices: int, edges, loop_vertices=()):
        """edges: an (m, 2) array of distinct pairs of distinct vertices."""
        nv = int(num_vertices)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        u, v = edges.T
        if edges.size and (edges.min() < 0 or edges.max() >= nv or (u == v).any()):
            raise ValueError(f"edges must join two distinct vertices of 0..{nv - 1}")
        arcs = np.sort(np.concatenate((u * nv + v, v * nv + u)))
        if (arcs[1:] == arcs[:-1]).any():
            raise ValueError("repeated edge")
        self.num_vertices = nv
        self.num_edges = len(edges)
        self.indices = arcs % nv
        self.indptr = np.searchsorted(arcs, np.arange(nv + 1) * nv)
        self.loop_vertices = tuple(sorted(loop_vertices))

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def arc_sources(self) -> np.ndarray:
        """Tail of every arc, aligned with indices: the arcs (u, v) of both
        directions of every edge, in lexicographic order."""
        return np.repeat(np.arange(self.num_vertices), self.indptr[1:] - self.indptr[:-1])

    def edges(self) -> np.ndarray:
        """Edges as an (m, 2) int64 array of pairs u < v, in lexicographic order."""
        tails = self.arc_sources()
        upper = tails < self.indices
        return np.column_stack((tails[upper], self.indices[upper]))

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.num_vertices, self.num_vertices), dtype=np.int64)
        a[self.arc_sources(), self.indices] = 1
        a[self.loop_vertices, self.loop_vertices] = 1
        return a


class SubsetGraph(Graph):
    """Inclusion graph: k-subsets (first) and l-subsets of an n-set, adjacent
    under containment."""

    def __init__(self, params: GraphParams, masks, edges):
        super().__init__(params.n1 + params.n2, edges)
        self.params = params
        self.masks = tuple(masks)
        self.v1_count = params.n1

    def rank_of_mask(self, mask: int) -> int:
        """Vertex index of a subset mask (k-subsets first, colex within class)."""
        if mask.bit_count() == self.params.k:
            return subset_rank(mask)
        if mask.bit_count() == self.params.l:
            return self.v1_count + subset_rank(mask)
        raise ValueError(f"mask {mask:#x} is not a k- or l-subset")


def inclusion_ranks(params: GraphParams) -> np.ndarray:
    """Biadjacency of the inclusion graph, for canonical parameters, as an
    (n2, r2) int64 array: row i holds the colex ranks of the k-subsets
    inside the l-subset of colex rank i (in the order of
    itertools.combinations over its sorted elements)."""
    params.require_canonical()
    large = subset_positions(params.n, params.l)
    # the k-subsets of an l-subset, as column choices from its element row
    inside = np.array(list(combinations(range(params.l), params.k)), dtype=np.int64)
    return colex_ranks(large[:, cols] for cols in inside.T)


def build_inclusion_graph(params: GraphParams) -> SubsetGraph:
    """Construct the inclusion graph for canonical parameters."""
    ranks = inclusion_ranks(params)
    n, k, l = params.n, params.k, params.l
    n1, n2, r2 = params.n1, params.n2, params.r2
    edges = np.column_stack((ranks.ravel(), np.repeat(np.arange(n1, n1 + n2), r2)))
    g = SubsetGraph(params, enumerate_subsets(n, k) + enumerate_subsets(n, l), edges)
    degrees = np.diff(g.indptr)
    assert (degrees[:n1] == params.r1).all() and (degrees[n1:] == r2).all()
    assert g.num_edges == params.n1 * params.r1 == params.n2 * params.r2
    return g


def build_johnson_graph(n: int, k: int, i: int) -> Graph:
    """Construct the intersection-i relation graph on all k-subsets of an n-set.

    For i = k the relation is the identity; the graph then has no edges and
    one loop per vertex, matching the scheme's identity matrix.
    """
    if not (0 <= i <= k and 2 * k <= n):
        raise ValueError(f"need 0 <= i <= k <= n/2, got n={n}, k={k}, i={i}")
    positions = subset_positions(n, k)
    nv = len(positions)
    incidence = np.zeros((nv, n), dtype=np.int64)
    incidence[np.arange(nv)[:, None], positions] = 1
    # entry (a, b) of X X^T is |a & b|
    meets = incidence @ incidence.T
    edges = np.column_stack(np.nonzero(np.triu(meets == i, 1)))
    return Graph(nv, edges, loop_vertices=range(nv) if i == k else ())


def build_line_graph(g: Graph) -> Graph:
    """Line graph of g: vertices are g's edges in sorted edge-list order,
    adjacent when the edges share an endpoint."""
    if g.loop_vertices:
        raise ValueError("line graph of a graph with loops is not supported")
    ends = g.edges()
    m = len(ends)
    # edge ids grouped by endpoint, vertex v's group at indptr[v]:indptr[v+1]
    incident = np.argsort(ends.T.ravel(), kind="stable") % m
    degrees = g.indptr[1:] - g.indptr[:-1]
    pairs = [np.empty((0, 2), dtype=np.int64)]
    # two distinct edges share at most one endpoint, so no pair repeats
    for d in np.flatnonzero(np.bincount(degrees)).tolist():
        at = incident[g.indptr[:-1][degrees == d][:, None] + np.arange(d)]
        choose = np.array(list(combinations(range(d), 2)), dtype=np.int64).reshape(-1, 2)
        pairs.append(at[:, choose].reshape(-1, 2))
    return Graph(m, np.concatenate(pairs))


def component_labels(size: int, a, b) -> np.ndarray:
    """Smallest member of each element's class in the equivalence on
    0..size-1 generated by a[i] ~ b[i], by min-label propagation with
    pointer jumping."""
    label = np.arange(size)  # every label is a root at the top of the loop
    while True:
        la, lb = label[a], label[b]
        if np.array_equal(la, lb):
            return label
        # hook each larger root under the smallest root paired with it, then
        # point every element straight at its root
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        up = label[label]
        while not np.array_equal(up, label):
            label, up = up, up[up]


def component_count(size: int, a, b) -> int:
    """Number of classes of the equivalence on 0..size-1 generated by
    a[i] ~ b[i]."""
    return int(np.count_nonzero(component_labels(size, a, b) == np.arange(size)))


def is_connected(g: Graph) -> bool:
    """True when g has a single connected component (empty graph counts as
    connected only if it has at most one vertex)."""
    return g.num_vertices <= 1 or component_count(g.num_vertices, *g.edges().T) == 1


# ---------------------------------------------------------------------------
# Interchange formats


def export_graph(g: Graph, format: str) -> bytes:
    """Serialize g deterministically under the fixed vertex order.

    Supported formats: "edgelist" ("p <nv> <ne>" header then "u v" lines),
    "graph6" (standard bit-packed encoding), "dot".  Loops are never written
    to edge lists; graph6 cannot represent them at all.  The text formats are
    built in one buffer, so peak memory is about twice the output size plus
    one fixed block of rows.
    """
    if format == "graph6":
        if g.loop_vertices:
            raise ValueError("graph6 cannot encode loops")
        return _to_graph6(g)
    if format not in ("edgelist", "dot"):
        raise ValueError(f"unsupported format: {format!r}")
    nv = g.num_vertices
    # an edge line is two tokens: one naming u (ids 0..nv-1), one naming v
    # and ending the line (ids nv..2nv-1)
    rows = g.edges()
    rows[:, 1] += nv
    if format == "edgelist":
        head, tail = b"p %d %d\n" % (nv, g.num_edges), b""
        starts, ends = [b"%d " % v for v in range(nv)], [b"%d\n" % v for v in range(nv)]
    else:
        starts, ends = [b"  %d -- " % v for v in range(nv)], [b"%d;\n" % v for v in range(nv)]
        # the vertex lines "  v;\n" are the line-ending tokens, each after two spaces
        head, tail = b"  ".join([b"graph g {\n", *ends]), b"}\n"
    return _text_rows(head, starts + ends, rows, tail)


_TEXT_BLOCK = 4096  # rows per gather step; bounds the index temporaries


def _text_rows(head: bytes, tokens: list[bytes], rows: np.ndarray, tail: bytes) -> bytes:
    """head, then each row of token ids written as its tokens in order, then
    tail.  Each block of rows is one segmented gather from the joined token
    table: byte j of a token that starts at offset o of the block comes from
    table position (token start - o) + j."""
    table = np.frombuffer(b"".join(tokens), dtype=np.uint8)
    length = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    start = np.cumsum(length) - length
    body = int(np.bincount(rows.ravel(), minlength=len(tokens)) @ length)
    out = np.empty(len(head) + body + len(tail), dtype=np.uint8)
    out[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    pos = len(head)
    step = np.arange(_TEXT_BLOCK * rows.shape[1] * int(length.max(initial=0)))
    for first in range(0, len(rows), _TEXT_BLOCK):
        ids = rows[first : first + _TEXT_BLOCK].ravel()
        lens = length[ids]
        offsets = np.cumsum(lens)
        size = int(offsets[-1])
        offsets -= lens
        src = np.repeat(start[ids] - offsets, lens)
        src += step[:size]
        np.take(table, src, out=out[pos : pos + size])
        pos += size
    out[pos:] = np.frombuffer(tail, dtype=np.uint8)
    return out.tobytes()


def _graph6_encode_count(n: int) -> bytes:
    if n < 0 or n > _GRAPH6_MAX:
        raise ValueError(f"vertex count {n} outside graph6 limits")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    return bytes([126, 126] + [((n >> (6 * s)) & 63) + 63 for s in range(5, -1, -1)])


def _to_graph6(g: Graph) -> bytes:
    # edge (i, j), i < j, is bit j(j-1)/2 + i of the upper triangle read
    # column by column; each output byte carries six bits, high bit first
    n = g.num_vertices
    i, j = g.edges().T
    bit = j * (j - 1) // 2 + i
    groups = (n * (n - 1) // 2 + 5) // 6
    octets = np.zeros(groups * 8, dtype=np.uint8)
    octets[bit // 6 * 8 + bit % 6 + 2] = 1
    return _graph6_encode_count(n) + (np.packbits(octets) + 63).tobytes()


def parse_graph6(data: bytes) -> Graph:
    """Decode a graph6 byte string (as produced by export_graph)."""
    buf = data.rstrip(b"\n")
    if buf.startswith(b">>graph6<<"):
        buf = buf[len(b">>graph6<<") :]
    if not buf:
        raise ValueError("empty graph6 data")
    if buf[:2] == b"~~":
        start, pos = 2, 8
    elif buf[:1] == b"~":
        start, pos = 1, 4
    else:
        start, pos = 0, 1
    if len(buf) < pos:
        raise ValueError("graph6 header is cut short")
    n = 0
    for byte in buf[start:pos]:
        if not 63 <= byte <= 126:
            raise ValueError("invalid graph6 byte")
        n = (n << 6) | (byte - 63)
    nbits = n * (n - 1) // 2
    if len(buf) - pos != (nbits + 5) // 6:
        raise ValueError("graph6 data has wrong length")
    values = np.frombuffer(buf, dtype=np.uint8)[pos:] - np.uint8(63)
    if (values > 63).any():
        raise ValueError("invalid graph6 byte")
    set_bits = np.flatnonzero(np.unpackbits(values))
    bit = set_bits // 8 * 6 + set_bits % 8 - 2
    bit = bit[bit < nbits]
    # column j holds bits j(j-1)/2 .. j(j+1)/2 - 1
    starts = np.arange(n) * (np.arange(n) - 1) // 2
    j = np.searchsorted(starts, bit, side="right") - 1
    return Graph(n, np.column_stack((bit - starts[j], j)))


# ---------------------------------------------------------------------------
# Scheme identity checking (explicit matrices vs the product formula)


def johnson_matrices(n: int, k: int) -> list[np.ndarray]:
    """Adjacency matrices of all intersection relations i = 0..k on k-subsets."""
    return [build_johnson_graph(n, k, i).adjacency_matrix() for i in range(k + 1)]


def johnson_scheme_holds(n: int, k: int) -> bool:
    """Entrywise check of the scheme identities on explicit matrices:
    every A_s is a symmetric 0/1 matrix, sum_s A_s = all-ones, A_k = identity,
    and for i != j, A_i A_j = A_j A_i = sum_s p^s_{ij} A_s = sum_s p^s_{ji} A_s.

    The products run in float64 (BLAS) and are exact: the factors are 0/1,
    so every product entry and every partial sum of one is an integer in
    0..C(n,k), and C(n,k) < 2**53.  Symmetry gives A_j A_i = (A_i A_j)^T, so
    one product per pair i < j covers both orders.  Once the A_s are known to
    partition all-ones, sum_s p_s A_s is the gather p[label], where label
    holds the relation index of each entry.  It takes no cap (``scheme
    --check`` refuses an oversized C(n,k) before building anything).
    """
    dim = comb(n, k)
    mats = [
        build_johnson_graph(n, k, s).adjacency_matrix().astype(np.float64)
        for s in range(k + 1)
    ]
    for a in mats:
        if not (np.array_equal(a, a.T) and np.isin(a, (0, 1)).all()):
            return False
    if not (sum(mats) == 1).all() or not np.array_equal(mats[k], np.eye(dim)):
        return False
    label = sum(s * a for s, a in enumerate(mats)).astype(np.intp)
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            prod = mats[i] @ mats[j]
            if not np.array_equal(prod, prod.T):
                return False
            for a, b in ((i, j), (j, i)):
                p = np.array([intersection_number(n, k, a, b, s) for s in range(k + 1)])
                if not np.array_equal(prod, p[label]):
                    return False
    return True
