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
from itertools import combinations
from math import comb

import numpy as np

from .combinatorics import binom, intersection_number

MAX_GROUND_SET = 64  # subsets are kept inside one machine word's worth of bits
_GRAPH6_MAX = 68719476735  # largest vertex count the format can encode

__all__ = [
    "GraphParams",
    "Graph",
    "SubsetGraph",
    "JohnsonGraph",
    "canonicalize",
    "canonical_params_up_to",
    "enumerate_subsets",
    "subset_rank",
    "subset_unrank",
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
    if not 0 <= size <= n:
        raise ValueError(f"need 0 <= size <= n, got n={n}, size={size}")
    if n > MAX_GROUND_SET:
        raise ValueError(f"ground set capped at {MAX_GROUND_SET} elements")
    if size == 0:
        return [0]
    out = []
    v = (1 << size) - 1
    limit = 1 << n
    while v < limit:
        out.append(v)
        u = v & -v  # Gosper's hack: next mask of equal popcount
        t = v + u
        v = t | (((t ^ v) // u) >> 2)
    return out


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


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Adjacency lists are sorted.  Loops (used only by the identity relation
    graph) are tracked separately: they show up in the adjacency-matrix view
    but never in edge lists.
    """

    def __init__(self, adj, loop_vertices=()):
        self.adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        self.num_edges = sum(len(nbrs) for nbrs in self.adj) // 2
        self.loop_vertices = tuple(sorted(loop_vertices))

    @property
    def num_vertices(self) -> int:
        return len(self.adj)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as (u, v) pairs with u < v, in lexicographic order."""
        return [(u, v) for u in range(self.num_vertices) for v in self.adj[u] if u < v]

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.num_vertices, self.num_vertices), dtype=np.int64)
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                a[u, v] = 1
        for v in self.loop_vertices:
            a[v, v] = 1
        return a

    def neighbor_masks(self) -> list[int]:
        """Per-vertex neighbor sets packed as integer bitmasks (loops ignored)."""
        return [sum(1 << v for v in nbrs) for nbrs in self.adj]


class SubsetGraph(Graph):
    """Inclusion graph: k-subsets (first) and l-subsets of an n-set, adjacent
    under containment."""

    def __init__(self, params: GraphParams, masks, adj):
        super().__init__(adj)
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


class JohnsonGraph(Graph):
    """Intersection-relation graph on k-subsets: u ~ v iff |u & v| = i.

    For i = k the relation is the identity; the graph then has no edges and
    one loop per vertex, matching the scheme's identity matrix.
    """

    def __init__(self, n: int, k: int, i: int, masks, adj, loop_vertices=()):
        super().__init__(adj, loop_vertices)
        self.n = n
        self.k = k
        self.i = i
        self.masks = tuple(masks)


def build_inclusion_graph(params: GraphParams) -> SubsetGraph:
    """Construct the inclusion graph for canonical parameters."""
    params.require_canonical()
    n, k, l = params.n, params.k, params.l
    if n > MAX_GROUND_SET:
        raise ValueError(f"ground set capped at {MAX_GROUND_SET} elements")
    masks_k = enumerate_subsets(n, k)
    masks_l = enumerate_subsets(n, l)
    masks = masks_k + masks_l
    n1 = len(masks_k)
    adj = [[] for _ in range(len(masks))]
    for j, ml in enumerate(masks_l):
        for mk in _subsets_of_mask(ml, k):
            i = subset_rank(mk)
            adj[i].append(n1 + j)
            adj[n1 + j].append(i)
    g = SubsetGraph(params, masks, adj)
    assert all(g.degree(v) == params.r1 for v in range(n1))
    assert all(g.degree(v) == params.r2 for v in range(n1, g.num_vertices))
    assert g.num_edges == params.n1 * params.r1 == params.n2 * params.r2
    return g


def _subsets_of_mask(mask: int, size: int):
    """All size-subsets of the set bits of mask, as masks."""
    bits = []
    m = mask
    while m:
        low = m & -m
        bits.append(low)
        m ^= low
    for combo in combinations(bits, size):
        sub = 0
        for b in combo:
            sub |= b
        yield sub


def build_johnson_graph(n: int, k: int, i: int) -> JohnsonGraph:
    """Construct the intersection-i relation graph on all k-subsets of an n-set."""
    if not (0 <= i <= k and 2 * k <= n):
        raise ValueError(f"need 0 <= i <= k <= n/2, got n={n}, k={k}, i={i}")
    if n > MAX_GROUND_SET:
        raise ValueError(f"ground set capped at {MAX_GROUND_SET} elements")
    masks = enumerate_subsets(n, k)
    nv = len(masks)
    adj = [[] for _ in range(nv)]
    if i == k:
        return JohnsonGraph(n, k, i, masks, adj, loop_vertices=range(nv))
    for a in range(nv):
        ma = masks[a]
        for b in range(a + 1, nv):
            if (ma & masks[b]).bit_count() == i:
                adj[a].append(b)
                adj[b].append(a)
    return JohnsonGraph(n, k, i, masks, adj)


def build_line_graph(g: Graph) -> Graph:
    """Line graph of g: vertices are g's edges in sorted edge-list order,
    adjacent when the edges share an endpoint."""
    if g.loop_vertices:
        raise ValueError("line graph of a graph with loops is not supported")
    edge_list = g.edges()
    incident = [[] for _ in range(g.num_vertices)]
    for e, (u, v) in enumerate(edge_list):
        incident[u].append(e)
        incident[v].append(e)
    adj = [[] for _ in range(len(edge_list))]
    for edges_at_v in incident:
        # two distinct edges share at most one endpoint, so no pair repeats
        for a in range(len(edges_at_v)):
            for b in range(a + 1, len(edges_at_v)):
                adj[edges_at_v[a]].append(edges_at_v[b])
                adj[edges_at_v[b]].append(edges_at_v[a])
    return Graph(adj)


def is_connected(g: Graph) -> bool:
    """True when g has a single connected component (empty graph counts as
    connected only if it has at most one vertex)."""
    nv = g.num_vertices
    if nv <= 1:
        return True
    seen = [False] * nv
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for v in g.adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == nv


# ---------------------------------------------------------------------------
# Interchange formats


def export_graph(g: Graph, format: str) -> bytes:
    """Serialize g deterministically under the fixed vertex order.

    Supported formats: "edgelist" ("p <nv> <ne>" header then "u v" lines),
    "graph6" (standard bit-packed encoding), "dot".  Loops are never written
    to edge lists; graph6 cannot represent them at all.
    """
    if format == "edgelist":
        lines = [f"p {g.num_vertices} {g.num_edges}"]
        lines.extend(f"{u} {v}" for u, v in g.edges())
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "graph6":
        if g.loop_vertices:
            raise ValueError("graph6 cannot encode loops")
        return _to_graph6(g)
    if format == "dot":
        lines = ["graph g {"]
        lines.extend(f"  {v};" for v in range(g.num_vertices))
        lines.extend(f"  {u} -- {v};" for u, v in g.edges())
        lines.append("}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unsupported format: {format!r}")


def _graph6_encode_count(n: int) -> bytes:
    if n < 0 or n > _GRAPH6_MAX:
        raise ValueError(f"vertex count {n} outside graph6 limits")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    return bytes([126, 126] + [((n >> (6 * s)) & 63) + 63 for s in range(5, -1, -1)])


def _to_graph6(g: Graph) -> bytes:
    n = g.num_vertices
    out = bytearray(_graph6_encode_count(n))
    nbr = g.neighbor_masks()
    bits = []
    for j in range(1, n):
        col = nbr[j]
        for i in range(j):
            bits.append((col >> i) & 1)
    for start in range(0, len(bits), 6):
        group = bits[start : start + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = (val << 1) | b
        out.append(val + 63)
    return bytes(out)


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
    need = (nbits + 5) // 6
    if len(buf) - pos != need:
        raise ValueError("graph6 data has wrong length")
    bits = []
    for byte in buf[pos:]:
        val = byte - 63
        if not 0 <= val <= 63:
            raise ValueError("invalid graph6 byte")
        bits.extend((val >> s) & 1 for s in range(5, -1, -1))
    adj = [[] for _ in range(n)]
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                adj[i].append(j)
                adj[j].append(i)
            idx += 1
    return Graph(adj)


# ---------------------------------------------------------------------------
# Scheme identity checking (explicit matrices vs the product formula)


def johnson_matrices(n: int, k: int) -> list[np.ndarray]:
    """Adjacency matrices of all intersection relations i = 0..k on k-subsets."""
    return [build_johnson_graph(n, k, i).adjacency_matrix() for i in range(k + 1)]


def johnson_scheme_holds(n: int, k: int, max_dim: int = 2000) -> bool:
    """Entrywise check of the scheme identities on explicit matrices:
    A_i A_j = sum_s p^s_{ij} A_s and A_i A_j = A_j A_i for i != j,
    sum_i A_i = all-ones, A_k = identity.
    """
    from .errors import CapExceededError

    dim = comb(n, k)
    if dim > max_dim:
        raise CapExceededError(f"matrix dimension {dim} exceeds cap {max_dim}")
    mats = johnson_matrices(n, k)
    if not np.array_equal(sum(mats), np.ones((dim, dim), dtype=np.int64)):
        return False
    if not np.array_equal(mats[k], np.eye(dim, dtype=np.int64)):
        return False
    for i in range(k + 1):
        for j in range(k + 1):
            if i == j:
                continue
            prod = mats[i] @ mats[j]
            if not np.array_equal(prod, mats[j] @ mats[i]):
                return False
            expect = sum(
                intersection_number(n, k, i, j, s) * mats[s] for s in range(k + 1)
            )
            if not np.array_equal(prod, expect):
                return False
    return True
