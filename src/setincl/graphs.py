"""Explicit graph construction: inclusion graphs on k- and l-subsets,
intersection-relation graphs on k-subsets, line graphs, and interchange
formats (edge list, graph6, dot).

Vertices are the k- and l-subsets of {0, ..., n-1}, numbered k-subsets
first and colexicographically within each size class; the fixed order makes
every export and eigensolver input reproducible.  A subset is a row of its
ascending elements (subset_positions), numbered within its size class by
colex_ranks; this is the one representation, for every n.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from math import comb

import numpy as np

from .combinatorics import intersection_number

_GRAPH6_MAX = 68719476735  # largest vertex count the format can encode
_ARRAY_MAX = np.iinfo(np.intp).max  # numpy's limit on the bytes of one array

__all__ = [
    "GraphParams",
    "Graph",
    "SubsetGraph",
    "canonicalize",
    "subset_positions",
    "colex_ranks",
    "inclusion_ranks",
    "build_inclusion_graph",
    "build_johnson_graph",
    "build_line_graph",
    "export_graph",
    "parse_graph6",
    "johnson_scheme_holds",
]


@dataclass(frozen=True)
class GraphParams:
    """Validated (n, k, l) triple for the inclusion graph on k- and l-subsets;
    each of its sizes n1, n2, r1 and r2 is computed once, when first read."""

    n: int
    k: int
    l: int

    def __post_init__(self) -> None:
        for name in ("n", "k", "l"):  # refuses 6.5 and "6", stores numpy ints as int
            object.__setattr__(self, name, operator.index(getattr(self, name)))
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

    @cached_property
    def n1(self) -> int:
        """Number of k-subsets."""
        return comb(self.n, self.k)

    @cached_property
    def n2(self) -> int:
        """Number of l-subsets."""
        return comb(self.n, self.l)

    @cached_property
    def r1(self) -> int:
        """Degree of every k-subset vertex."""
        return comb(self.n - self.k, self.l - self.k)

    @cached_property
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


def subset_positions(n: int, size: int) -> np.ndarray:
    """Elements of every size-subset of {0,...,n-1}: one ascending int64 row
    per subset, rows in colexicographic order.  The array is the transpose
    of a C-contiguous one, so its .T, one column per element place, costs
    no copy."""
    if not 0 <= size <= n:
        raise ValueError(f"need 0 <= size <= n, got n={n}, size={size}")
    count = comb(n, size)
    if 8 * count * size > _ARRAY_MAX:  # int64 entries, 8 bytes each
        raise ValueError(
            f"the {size}-subsets of {n} elements need {count} rows of {size}"
            " entries, past numpy's array limit"
        )
    # columns[:s, :C(span + s, s)] holds level s: the s-subsets that can
    # still grow to size-subsets, those with largest element q <= span + s - 1.
    # In colex order, the level-s subsets that end at q are the first
    # C(q, s-1) of level s-1, each with q added.  Each level is written over
    # the last from the back: block q starts at place C(q, s), past every
    # place that a smaller q still reads
    span = n - size
    columns = np.empty((size, count), dtype=np.int64)
    for s in range(1, size + 1):
        stop = comb(span + s, s)
        for q in range(span + s - 1, s - 2, -1):
            rows = comb(q, s - 1)
            columns[: s - 1, stop - rows : stop] = columns[: s - 1, :rows]
            columns[s - 1, stop - rows : stop] = q
            stop -= rows
    return columns.T


def _binomial_columns(n: int):
    """C(p, j) for p < n, as one int64 array for j = 1, 2, ... in turn (the
    same array, overwritten for each j).  Each column is carried from the
    last by Pascal's rule C(p, j+1) = sum of C(q, j) over q < p.  Entries
    past 2**63 - 1 wrap, but int64 sums are exact modulo 2**64, so every
    entry below 2**63 is exact."""
    binom = np.zeros(n + 1, dtype=np.int64)
    below, at = binom[:-1], binom[1:]  # at[p] = C(p, j), below[p] = C(p-1, j)
    at[:] = 1  # j = 0
    while True:
        # np.add.accumulate, not np.cumsum: a third of the cost on short columns
        at[:] = np.add.accumulate(below)
        yield at


def colex_ranks(columns, n: int) -> np.ndarray:
    """Colex rank of each of a batch of subsets of {0,...,n-1} among the
    subsets of its size.  columns[j-1] holds the j-th smallest element of
    every subset (for element rows p, as from subset_positions, pass p.T);
    the rank is the sum over j of C(columns[j-1], j), read from
    _binomial_columns.  Each entry read is at most the subset's rank, so
    none that wrapped is read while the ranks fit int64."""
    ranks = 0
    for col, at in zip(columns, _binomial_columns(n)):
        ranks = ranks + at[col]
    return ranks


class Graph:
    """Immutable simple undirected graph on vertices 0..num_vertices-1, in
    compressed sparse row form: the neighbours of v are
    indices[indptr[v]:indptr[v+1]], in ascending order (int64 arrays).
    """

    def __init__(self, num_vertices: int, edges):
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

    def lower_edges(self, images=None) -> tuple[np.ndarray, np.ndarray]:
        """Edges as int64 arrays of larger ends hi and smaller ends lo in CSR
        order (hi * num_vertices + lo ascends), or, given images, theirs."""
        tails = self.arc_sources()
        lower = self.indices < tails
        hi, lo = tails[lower], self.indices[lower]
        return (hi, lo) if images is None else (images[hi], images[lo])

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.num_vertices, self.num_vertices), dtype=np.int64)
        a[self.arc_sources(), self.indices] = 1
        return a


class SubsetGraph(Graph):
    """Inclusion graph: k-subsets (first) and l-subsets of an n-set, adjacent
    under containment, built by build_inclusion_graph.  It holds the checked
    rank rows: ranks[i], ascending, are the k-neighbours of l-vertex n1 + i.
    The CSR arrays are made when first read; only the k-side rows sort."""

    def __init__(self, params: GraphParams, ranks: np.ndarray):
        # Graph.__init__ is skipped: its sort of all arc codes and its repeat
        # check would redo what build_inclusion_graph has already checked
        self.num_vertices = params.n1 + params.n2
        self.num_edges = ranks.size
        self.ranks = ranks
        self.params = params
        self.v1_count = params.n1

    @cached_property
    def indptr(self) -> np.ndarray:
        p = self.params
        return np.concatenate((p.r1 * np.arange(p.n1), p.r2 * np.arange(p.n2 + 1) + p.n1 * p.r1))

    @cached_property
    def indices(self) -> np.ndarray:
        return np.concatenate((self._k_heads, self.ranks.ravel()))

    @cached_property
    def _k_heads(self) -> np.ndarray:
        """The k-side rows, concatenated, from the sorted codes rank * n2 + i."""
        n2 = self.params.n2
        codes = self.ranks * n2  # one array, sorted and reduced in place
        codes += np.arange(n2)[:, None]
        codes.ravel().sort()  # a view: codes is C-contiguous
        codes %= n2
        codes += self.v1_count
        return codes.ravel()

    def edges(self) -> np.ndarray:
        """Graph.edges, read off the k-side rows: every k-vertex precedes
        every l-vertex, so the k-side arcs are the edges in order."""
        tails = np.repeat(np.arange(self.v1_count), self.params.r1)
        return np.column_stack((tails, self._k_heads))

    def lower_edges(self, images=None) -> tuple[np.ndarray, np.ndarray]:
        """Graph.lower_edges off the rank rows; hi's images repeat, no gather."""
        r2, n1 = self.params.r2, self.v1_count
        if images is None:
            return np.repeat(np.arange(n1, self.num_vertices), r2), self.ranks.ravel()
        return np.repeat(images[n1:], r2), images[self.ranks.ravel()]


def inclusion_ranks(params: GraphParams) -> np.ndarray:
    """Biadjacency of the inclusion graph, for canonical parameters, as an
    (n2, r2) int64 array: row i holds, ascending, the colex ranks of the
    k-subsets inside the l-subset of colex rank i.

    Column c is the c-th choice of k positions from the l-subsets' element
    rows, in colex order, which a monotone map of positions to elements
    keeps, so each row ascends.  Level s holds the choices of size s that
    can still grow to size k (largest position q <= l-k+s-1); those ending
    at q are the first C(q, s-1) of level s-1 plus the gathered
    C(element q, s), so level k is all C(l, k) = r2 of them."""
    params.require_canonical()
    n, k, l = params.n, params.k, params.l
    # row q: the (q+1)-th smallest element of every l-subset
    large = np.ascontiguousarray(subset_positions(n, l).T)
    span = l - k + 1  # how many positions q can end a choice, at each level
    sums = large[:span]  # level 1: C(p, 1) = p
    for s, at in zip(range(2, k + 1), islice(_binomial_columns(n), 1, None)):
        tops = at[large[s - 1 : s - 1 + span]]  # C(element q, s), one row per q
        level = np.empty((comb(span - 1 + s, s), large.shape[1]), dtype=np.int64)
        start = 0
        for q, top in enumerate(tops, s - 1):
            stop = start + comb(q, s - 1)
            np.add(sums[: stop - start], top, out=level[start:stop])
            start = stop
        sums = level
    return np.ascontiguousarray(sums.T)


def build_inclusion_graph(params: GraphParams) -> SubsetGraph:
    """Construct the inclusion graph for canonical parameters.

    The graph holds inclusion_ranks' rows as they are: l-subset i's CSR row
    is its rank row, which ascends, and the k-side rows are sorted only when
    first read (see SubsetGraph).  Checked here: every rank row strictly
    increases (so no edge repeats), and every k-degree is r1, the count of
    each rank (every l-degree is r2 by shape).
    """
    ranks = inclusion_ranks(params)
    assert (ranks[:, 1:] > ranks[:, :-1]).all()
    assert (np.bincount(ranks.ravel(), minlength=params.n1) == params.r1).all()
    return SubsetGraph(params, ranks)


def _meets(n: int, k: int) -> np.ndarray:
    """Intersection size |a & b| of every pair of k-subsets of an n-set, in
    colex order: X X^T for the float32 0/1 incidence matrix X of k-subsets
    against elements, exact since every partial sum is an integer in 0..k."""
    positions = subset_positions(n, k)
    incidence = np.zeros((len(positions), n), dtype=np.float32)
    incidence[np.arange(len(positions))[:, None], positions] = 1
    return incidence @ incidence.T


def build_johnson_graph(n: int, k: int, i: int) -> Graph:
    """Construct the intersection-i relation graph on all k-subsets of an
    n-set, for i < k.  Relation k, the identity, is no simple graph; the
    scheme check reads it from the intersection sizes directly.
    """
    if not (0 <= i < k and 2 * k <= n):
        raise ValueError(f"need 0 <= i < k <= n/2, got n={n}, k={k}, i={i}")
    meets = _meets(n, k)
    return Graph(len(meets), np.column_stack(np.nonzero(np.triu(meets == i, 1))))


def build_line_graph(g: Graph) -> Graph:
    """Line graph of g: vertices are g's edges in sorted edge-list order,
    adjacent when the edges share an endpoint."""
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


def component_labels(size: int, links) -> tuple[np.ndarray, np.ndarray]:
    """Classes of the equivalence on 0..size-1 generated by the links, by
    min-label hooking with pointer jumping (Shiloach & Vishkin, 1982).

    A link (a, b) joins a[i] with b[i].  A link (a, b, flip), flip a boolean
    array, joins (a[i], d) with (b[i], d ^ flip[i]) in the double cover of
    pairs (x, d), d in {0, 1}.  From the first link whose flips contain a
    True on, each element keeps its parity against its label: a root hooked
    under another takes the parity between them, and pointer jumping
    adds the parities mod 2 on the way up.  (Before that link every parity is
    0, and a link whose flips are all False joins what a link without flips
    joins.)  A pair whose ends share a root at different parities closes an
    odd cycle; such a class is one class of the cover, every other class
    two.

    Returns the smallest member of each element's class, and, ascending,
    that of every class closed with odd parity (empty while no flip is
    True).  The links are taken from the iterable one at a time, and each
    hooking round keeps only the pairs whose roots still differ."""
    label = np.arange(size)  # every label is a root at the top of the loop
    par = odd = None  # once a flip is True: parities, and roots closing odd cycles
    for a, b, *flip in links:
        if flip and par is None and flip[0].any():
            par, odd = np.zeros(size, dtype=bool), np.zeros(size, dtype=bool)
        # the roots of each pair's ends, and the parity q between the two
        # roots that the pair joins; a root's label is its new root
        la, lb, q = label[a], label[b], None
        if par is not None:
            q = par[a] ^ par[b]
            if flip:
                q ^= flip[0]
        # the link is not read again: drop it, so that a link made on
        # demand is freed before the next one is made
        del a, b, flip
        while True:
            keep = la != lb
            if par is not None:
                odd[la[q & ~keep]] = True
                q = q[keep]
            la = la[keep]
            lb = lb[keep]
            if not len(la):
                break
            _hook(label, par, la, lb, q)
            label = _jump(label, par)
            if par is not None:
                q ^= par[la] ^ par[lb]
            la, lb = label[la], label[lb]
    if odd is None:
        return label, np.empty(0, dtype=np.int64)
    return label, np.unique(label[np.flatnonzero(odd)])


def _hook(label: np.ndarray, par, la: np.ndarray, lb: np.ndarray, q) -> None:
    """Hook each larger root of the pairs (la, lb) under the smallest root
    paired with it; with parities, at the parity q of one pair that joins
    the two (any one: a pair left at another parity closes an odd cycle in
    the next round)."""
    hi, lo = np.maximum(la, lb), np.minimum(la, lb)
    np.minimum.at(label, hi, lo)
    if par is not None:
        won = label[hi] == lo
        par[hi[won]] = q[won]


def _jump(label: np.ndarray, par) -> np.ndarray:
    """Point every element straight at its root, composing each parity with
    its label's before every jump."""
    up = label[label]
    while not np.array_equal(up, label):
        if par is not None:
            par ^= par[label]
        label, up = up, up[up]
    return label


# ---------------------------------------------------------------------------
# Interchange formats


def export_graph(g: Graph, format: str) -> bytes:
    """Serialize g deterministically under the fixed vertex order.

    Supported formats: "edgelist" ("p <nv> <ne>" header then "u v" lines),
    "graph6" (standard bit-packed encoding), "dot".  The text formats are
    built in one buffer, so peak memory is about twice the output size plus
    one fixed block of rows.
    """
    if format == "graph6":
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
    # column by column; each byte after the header carries six bits, high
    # bit first, plus 63
    n = g.num_vertices
    head = _graph6_encode_count(n)
    i, j = g.edges().T
    byte, place = np.divmod(j * (j - 1) // 2 + i + 6 * len(head), 6)
    out = np.full(len(head) + (n * (n - 1) // 2 + 5) // 6, 63, dtype=np.uint8)
    out[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    np.add.at(out, byte, np.uint8(32) >> place.astype(np.uint8))  # distinct bits: + is |
    return out.tobytes()


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
    # unpack only the bytes that carry an edge; most carry none
    nonzero = np.flatnonzero(values)
    set_bits = np.flatnonzero(np.unpackbits(values[nonzero]))
    bit = nonzero[set_bits // 8] * 6 + set_bits % 8 - 2
    bit = bit[bit < nbits]
    # column j holds bits j(j-1)/2 .. j(j+1)/2 - 1
    starts = np.arange(n) * (np.arange(n) - 1) // 2
    j = np.searchsorted(starts, bit, side="right") - 1
    return Graph(n, np.column_stack((bit - starts[j], j)))


# ---------------------------------------------------------------------------
# Scheme identity checking (explicit matrices vs the product formula)


def johnson_scheme_holds(n: int, k: int) -> bool:
    """Entrywise check of the scheme identities on explicit matrices.

    The relation index of every pair of k-subsets is its intersection size,
    label = _meets(n, k), and A_s = (label == s).  Checked in order: label is
    symmetric with every entry in 0..k, label == k is the identity, and for
    i != j, A_i A_j = A_j A_i = sum_s p^s_{ij} A_s = sum_s p^s_{ji} A_s.
    The A_s partition all-ones by construction, so each is a symmetric 0/1
    matrix once label is, and sum_s p_s A_s is the gather p[label].

    Symmetry gives A_j A_i = (A_i A_j)^T, and p[label] is symmetric, so one
    product per pair i < j covers both orders.  Once it equals p_ij[label],
    it equals p_ji[label] exactly when p_ij and p_ji agree on every relation
    that occurs in label, one comparison of two short vectors.  The
    identity check makes A_k = I, so the pairs (i, k) take A_i itself as
    the product.  The others run in float32 (BLAS) and are exact: with 0/1
    factors every entry and partial sum is an integer in 0..C(n,k).  float32
    holds every integer up to 2**24 exactly, and a larger C(n,k) would need
    dense C(n,k)^2 float32 matrices of more than 1 PiB each, so no input
    that can run leaves that range.  The same holds for the gathered p^s_ij,
    which are at most C(n,k).  label, at most k and so far below 255 at any
    such C(n,k), is held in uint8.
    It takes no cap (``scheme --check`` refuses an oversized C(n,k) before
    building anything).
    """
    label = _meets(n, k)
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
