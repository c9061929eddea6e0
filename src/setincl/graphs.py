"""Explicit graph construction: inclusion graphs on k- and l-subsets, line
graphs, interchange formats (edge list, graph6, dot), and the scheme check.

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

from .combinatorics import _checked_nk, intersection_number
from .limits import _VERTEX_MAX, SUBSET_ROWS, VERTICES, Sizes, check

__all__ = [
    "GraphParams",
    "Graph",
    "SubsetGraph",
    "canonicalize",
    "subset_positions",
    "colex_ranks",
    "inclusion_ranks",
    "build_inclusion_graph",
    "build_line_graph",
    "export_graph",
    "parse_graph6",
    "johnson_scheme_holds",
]


@dataclass(frozen=True)
class GraphParams(Sizes):
    """Validated (n, k, l) triple for the inclusion graph on k- and l-subsets;
    each of its Sizes (n1, n2, r1, r2, ...) is computed once, when first read."""

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
    no copy.  Rows past numpy's array limit raise CapExceededError (SUBSET_ROWS, l = size)."""
    if not 0 <= size <= n:
        raise ValueError(f"need 0 <= size <= n, got n={n}, size={size}")
    check((SUBSET_ROWS,), Sizes(n=n, l=size))
    count = comb(n, size)
    # columns[:s, :C(span + s, s)] holds level s: the s-subsets that can
    # still grow to size-subsets, those with largest element q <= span + s - 1.
    # In colex order, the level-s subsets that end at q are the first
    # C(q, s-1) of level s-1, each with q added.  Each level is written over
    # the last from the back: block q starts at place C(q, s), past every
    # place that a smaller q still reads
    span = n - size
    columns = np.empty((size, count), dtype=np.int64)
    if size:  # level 1: the 1-subsets {q}, q <= span, in one write
        columns[0, : span + 1] = np.arange(span + 1)
    for s in range(2, size + 1):
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
    """Immutable simple undirected graph on vertices 0..num_vertices-1 (at
    most _VERTEX_MAX = isqrt(2^63 - 1)), held as its lower edges: the pairs
    (hi, lo), hi > lo, by ascending key hi * num_vertices + lo, the int64
    array _keys.  The rest is made from them when read: the edges in
    lexicographic order, afresh, and, once, the compressed sparse row form,
    in which the neighbours of v are indices[indptr[v]:indptr[v+1]], in
    ascending order (int64 arrays).
    """

    def __init__(self, num_vertices: int, edges):
        """edges: an (m, 2) integer array of distinct pairs of distinct vertices."""
        nv = operator.index(num_vertices)  # refuses 3.7 and "3"
        if not 0 <= nv <= _VERTEX_MAX:
            raise ValueError(f"vertex count {nv} is outside 0..{_VERTEX_MAX}, the edge keys' range")
        pairs = np.asarray(edges, dtype=np.int64)
        if pairs.size and pairs.shape[1:] != (2,):  # [] and an empty array are no edges
            raise ValueError(f"edges must be an (m, 2) array of pairs, got shape {pairs.shape}")
        if pairs is not edges and not np.array_equal(pairs, edges):  # 1.0 passes, 0.5 not
            raise ValueError("edge ends must be integers")
        u, v = pairs.reshape(-1, 2).T
        if pairs.size and (pairs.min() < 0 or pairs.max() >= nv or (u == v).any()):
            raise ValueError(f"edges must join two distinct vertices of 0..{nv - 1}")
        keys = np.sort(np.maximum(u, v) * nv + np.minimum(u, v))
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("repeated edge")
        self.num_vertices = nv
        self.num_edges = len(keys)
        self._keys = keys

    def lower_edges(self, images=None) -> tuple[np.ndarray, np.ndarray]:
        """Edges as int64 arrays of larger ends hi and smaller ends lo, by
        ascending hi * num_vertices + lo (hi made afresh), or, given images,
        theirs."""
        hi, lo = np.divmod(self._keys, self.num_vertices)
        return (hi, lo) if images is None else (images[hi], images[lo])

    def _upper_codes(self) -> np.ndarray:
        """The code lo * num_vertices + hi of every edge, ascending, afresh:
        the edges in lexicographic order, and the arcs (lo, hi) in CSR order."""
        hi, lo = self.lower_edges()
        codes = lo * self.num_vertices + hi
        codes.sort()
        return codes

    def edges(self) -> np.ndarray:
        """Edges as an (m, 2) int64 array of pairs u < v, in lexicographic
        order, made afresh."""
        out = np.empty((self.num_edges, 2), dtype=np.int64)
        np.divmod(self._upper_codes(), self.num_vertices, out=(out[:, 0], out[:, 1]))
        return out

    @cached_property
    def indptr(self) -> np.ndarray:
        nv = self.num_vertices
        hi, lo = self.lower_edges()
        degrees = np.bincount(hi, minlength=nv) + np.bincount(lo, minlength=nv)
        return np.concatenate(([0], np.cumsum(degrees)))

    @cached_property
    def indices(self) -> np.ndarray:
        # the arc codes tail * nv + head: the lower arcs (hi, lo), ascending,
        # are _keys, then the upper arcs (lo, hi), ascending; one stable sort
        # merges them
        arcs = np.concatenate((self._keys, self._upper_codes()))
        arcs.sort(kind="stable")
        arcs %= self.num_vertices
        return arcs

    def degree(self, v: int) -> int:
        if not 0 <= v < self.num_vertices:
            raise IndexError(f"vertex {v} is outside 0..{self.num_vertices - 1}")
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        d = self.degree(v)  # refuses any v outside 0..num_vertices-1
        return self.indices[self.indptr[v] : self.indptr[v] + d]

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.num_vertices, self.num_vertices), dtype=np.int64)
        hi, lo = self.lower_edges()
        a[hi, lo] = a[lo, hi] = 1
        return a


class SubsetGraph(Graph):
    """Inclusion graph: k-subsets (first) and l-subsets of an n-set, adjacent
    under containment, built by build_inclusion_graph.  It holds the checked
    rank rows: ranks[i], ascending, are the k-neighbours of l-vertex n1 + i,
    so the rows, in order, are the lower edges."""

    def __init__(self, params: GraphParams, ranks: np.ndarray):
        # no Graph.__init__: the build checked the rows, and _keys is made when read
        self.num_vertices = params.n1 + params.n2
        self.num_edges = ranks.size
        self.ranks = ranks
        self.params = params
        self.v1_count = params.n1

    @cached_property
    def _keys(self) -> np.ndarray:
        """Graph._keys, made from the rank rows when first read."""
        hi, lo = self.lower_edges()
        return np.add(np.multiply(hi, self.num_vertices, out=hi), lo, out=hi)

    def lower_edges(self, images=None) -> tuple[np.ndarray, np.ndarray]:
        """Graph.lower_edges off the rank rows (lo is a view of them); hi's
        images repeat, no gather."""
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

    The graph holds inclusion_ranks' rows as they are: the rows, in order,
    are its lower edges, and the rest is made from them only when read (see
    Graph).  Checked here, by an AssertionError raised under python -O too:
    every rank row strictly increases (so no edge repeats), and every
    k-degree is r1, the count of each rank (every l-degree is r2 by shape).
    Too many l-subset rows, then vertices, raise CapExceededError before
    allocation, from the rows (and with the messages) of the CLI's refusals.
    """
    check((SUBSET_ROWS, VERTICES), params)
    ranks = inclusion_ranks(params)
    if not (ranks[:, 1:] > ranks[:, :-1]).all():
        raise AssertionError(f"a rank row of {params} does not strictly ascend")
    if not (np.bincount(ranks.ravel(), minlength=params.n1) == params.r1).all():
        raise AssertionError(f"a k-degree of {params} is not r1 = {params.r1}")
    return SubsetGraph(params, ranks)


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


# ---------------------------------------------------------------------------
# Interchange formats


def export_graph(g: Graph, format: str) -> bytes:
    """Serialize g deterministically under the fixed vertex order.

    Supported formats: "edgelist" ("p <nv> <ne>" header then "u v" lines),
    "graph6" (standard bit-packed encoding), "dot".  The text formats read
    the sorted edge codes one block at a time and join the block texts once,
    after the codes are freed: beyond the graph, peak memory is about twice
    the output size.
    """
    if format == "graph6":
        return _to_graph6(g)
    if format not in ("edgelist", "dot"):
        raise ValueError(f"unsupported format: {format!r}")
    nv = g.num_vertices
    # an edge line is two tokens: one naming u (ids 0..nv-1), one naming v
    # and ending the line (ids nv..2nv-1)
    if format == "edgelist":
        head, tail = b"p %d %d\n" % (nv, g.num_edges), b""
        starts, ends = [b"%d " % v for v in range(nv)], [b"%d\n" % v for v in range(nv)]
    else:
        starts, ends = [b"  %d -- " % v for v in range(nv)], [b"%d;\n" % v for v in range(nv)]
        # the vertex lines "  v;\n" are the line-ending tokens, each after two spaces
        head, tail = b"  ".join([b"graph g {\n", *ends]), b"}\n"
    return b"".join([head, *_text_rows(starts + ends, g), tail])


_TEXT_BLOCK = 4096  # edges per block; bounds its index temporaries and its text


def _text_rows(tokens: list[bytes], g: Graph):
    """The text of each edge u < v of g, in lexicographic order, as its
    tokens u and nv + v: one uint8 array per block of the sorted codes
    u * nv + v, which are freed once the last block is made.  Each block is
    one segmented gather from the joined token table: byte j of a token
    that starts at offset o of the block comes from table position (token
    start - o) + j."""
    table = np.frombuffer(b"".join(tokens), dtype=np.uint8)
    length = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    start = np.cumsum(length) - length
    step = np.arange(2 * _TEXT_BLOCK * int(length.max(initial=0)))
    codes = g._upper_codes()
    for first in range(0, len(codes), _TEXT_BLOCK):
        u, v = np.divmod(codes[first : first + _TEXT_BLOCK], g.num_vertices)
        ids = np.column_stack((u, v + g.num_vertices)).ravel()
        lens = length[ids]
        offsets = np.cumsum(lens)
        offsets -= lens
        src = np.repeat(start[ids] - offsets, lens)
        src += step[: len(src)]
        yield table[src]


def _graph6_encode_count(n: int) -> bytes:
    # every Graph has 0..isqrt(2^63 - 1) vertices, inside graph6's 0..2^36 - 1
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    return bytes([126, 126] + [((n >> (6 * s)) & 63) + 63 for s in range(5, -1, -1)])


def _to_graph6(g: Graph) -> bytes:
    # edge (i, j), i < j, is bit j(j-1)/2 + i of the upper triangle read
    # column by column; each byte after the header carries six bits, high
    # bit first, plus 63.  The bits are set in any order, so the edges are
    # read as they are held
    n = g.num_vertices
    head = _graph6_encode_count(n)
    j, i = g.lower_edges()
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
# Scheme identity checking (counts at one pair per relation vs the product formula)


def _representatives(k: int) -> list[list[int]]:
    """B_s = {0..s-1} | {k..2k-s-1}, s = 0..k: ascending k-sets inside
    {0..2k-1}, B_s meeting A = {0..k-1} in s points."""
    return [[*range(s), *range(k, 2 * k - s)] for s in range(k + 1)]


def _scheme_counts(n: int, k: int) -> np.ndarray:
    """table[s, i, j] = #{k-subsets C : |A & C| = i, |B_s & C| = j}, from
    one enumeration of the k-subsets.  Only the elements e < 2k tell A and
    the B_s apart; each is looked for in the places 0..e of the ascending
    element rows."""
    columns = subset_positions(n, k).T
    dtype = np.min_scalar_type((k + 1) ** 2)  # holds i * (k+1) + j
    member = np.zeros((2 * k, columns.shape[1]), dtype=bool)
    for e in range(2 * k):
        np.any(columns[: e + 1] == e, axis=0, out=member[e])
    a = member[:k].sum(axis=0, dtype=dtype) * dtype.type(k + 1)
    table = np.empty((k + 1, (k + 1) ** 2), dtype=np.int64)
    for s, b in enumerate(_representatives(k)):
        table[s] = np.bincount(a + member[b].sum(axis=0, dtype=dtype), minlength=(k + 1) ** 2)
    return table.reshape(k + 1, k + 1, k + 1)


def johnson_scheme_holds(n: int, k: int) -> bool:
    """Check the intersection numbers p^s_ij by counting at one pair of
    k-subsets per relation, in O(k^2 C(n,k)) small-integer work.

    The relation of a pair is its intersection size, and a permutation of
    the ground set maps any pair with Venn regions (k-s, s, k-s, n-2k+s)
    onto any other (Brouwer, Cohen & Neumaier, Distance-Regular Graphs,
    1989, 9.1).  So the count at (A, B_s) of _scheme_counts is
    (A_i A_j)[X, Y] for every pair (X, Y) in relation s, as the tests check
    on every pair up to n = 12.  Checked: it equals intersection_number for
    every s and i != j, in both orders (with A_k = I, the pairs (i, k) too),
    and each row table[s, i] sums to the valency C(k,i) C(n-k,k-i), as
    A_i J = v_i J, which fixes the diagonal the formula does not give.
    """
    n, k = _checked_nk(n, k)
    return all(
        sum(row) == comb(k, i) * comb(n - k, k - i)
        and all(count == intersection_number(n, k, i, j, s) for j, count in enumerate(row) if j != i)
        for s, rows in enumerate(_scheme_counts(n, k).tolist())
        for i, row in enumerate(rows)
    )
