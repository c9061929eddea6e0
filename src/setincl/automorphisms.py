"""Symmetries of inclusion graphs: induced vertex actions from base
permutations, the complementation involution, orbit computation, an
independent oracle for the automorphism-group order of any graph, an
orbit-stabiliser search by individualisation and refinement, and a
certificate of the order of an inclusion graph by an upper and a lower
bound that meet.

The ground set is {0, ..., n-1}; a base permutation is its image table.
Vertex indices follow the construction order (k-subsets first, colex within
each size class), so actions built from parameters alone agree with any
graph built from the same parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count
from math import factorial

import numpy as np

from .graphs import (
    Graph,
    GraphParams,
    SubsetGraph,
    colex_ranks,
    component_labels,
    subset_positions,
)

__all__ = [
    "InducedAction",
    "GroupShape",
    "induced_action",
    "tau_action",
    "is_automorphism",
    "group_shape",
    "aut_group",
    "brute_force_aut_order",
    "certified_aut_order",
    "pointwise_stabilizer_trivial",
    "common_neighbor_fingerprint",
    "orbit_count",
]


@dataclass(frozen=True, eq=False)
class InducedAction:
    """A vertex permutation of an inclusion graph: images is one read-only
    int64 array, the image of each vertex, checked to be a permutation when
    the action is built.  Actions compare by identity."""

    images: np.ndarray

    def __post_init__(self) -> None:
        images = np.array(self.images, dtype=np.int64)
        # the second test refuses entries that the cast changed, such as 0.5
        if not (
            np.array_equal(np.sort(images), np.arange(len(images)))
            and np.array_equal(images, self.images)
        ):
            raise ValueError("image table is not a permutation of the vertex set")
        images.flags.writeable = False
        object.__setattr__(self, "images", images)


@dataclass(frozen=True)
class GroupShape:
    """Kind, order and generator count of the automorphism group of an
    inclusion graph, and the generators as vertex permutations: aut_group
    builds them, group_shape leaves them empty."""

    kind: str  # "Sym(n)" or "Sym(n)xZ2"
    order: int
    generator_count: int
    generators: tuple[InducedAction, ...] = ()

    def to_json_dict(self, verified_brute_force=None) -> dict:
        return {
            "kind": self.kind,
            "order": str(self.order),
            "generators": self.generator_count,
            "verified_brute_force": verified_brute_force,
        }


def _subset_rows(params: GraphParams) -> tuple[np.ndarray, np.ndarray]:
    """Element rows of the k-subsets and of the l-subsets, in vertex order;
    aut_group computes them once for both sigma generators."""
    return subset_positions(params.n, params.k), subset_positions(params.n, params.l)


def _sigma(g: np.ndarray, params: GraphParams, rows) -> InducedAction:
    """induced_action of the image table g, given _subset_rows(params)."""
    images = [colex_ranks(np.sort(g[r], axis=1).T, params.n) for r in rows]
    images[1] += params.n1
    return InducedAction(np.concatenate(images))


def induced_action(g, params: GraphParams) -> InducedAction:
    """Vertex action of a ground-set permutation: each subset maps to its
    elementwise image.  Always an automorphism of the inclusion graph."""
    params.require_canonical()
    g = tuple(g)
    if sorted(g) != list(range(params.n)):
        raise ValueError(f"not a permutation of 0..{params.n - 1}: {g!r}")
    return _sigma(np.array(g, dtype=np.int64), params, _subset_rows(params))


def tau_action(params: GraphParams) -> InducedAction:
    """Complementation v -> [n] \\ v as a vertex permutation; defined only
    when k + l = n, where it swaps the two size classes and has order 2.
    It is the reversal v -> nv - 1 - v of the vertex order."""
    params.require_canonical()
    if params.k + params.l != params.n:
        raise ValueError(
            "complementation is a vertex permutation only when k + l = n"
        )
    # complementing reverses colex order, and n1 = n2 when k + l = n
    return InducedAction(np.arange(params.n1 + params.n2)[::-1])


def _edge_keys(u: np.ndarray, v: np.ndarray, nv: int) -> np.ndarray:
    """Key max*nv + min of each pair (u[i], v[i]), written over u (which
    lower_edges makes afresh); on lower_edges' order the keys ascend."""
    lo = np.minimum(u, v)
    np.maximum(u, v, out=u)
    u *= nv
    u += lo
    return u


def _image_table(g: Graph, action: InducedAction) -> np.ndarray:
    if len(action.images) != g.num_vertices:
        raise ValueError(
            f"action acts on {len(action.images)} vertices, graph has {g.num_vertices}"
        )
    return action.images


def _places(keys: np.ndarray, image_keys: np.ndarray):
    """Index of each image key among the sorted keys, or None unless the
    image keys are the keys in some order (as in _preserves_edges)."""
    order = np.argsort(image_keys, kind="stable")
    if not np.array_equal(image_keys[order], keys):
        return None
    places = np.empty_like(order)
    places[order] = np.arange(len(order))
    return places


def _lower_keys(g: Graph) -> np.ndarray:
    """_edge_keys of g's lower_edges, ascending: hi * nv + lo, as hi > lo."""
    hi, lo = g.lower_edges()
    return np.add(np.multiply(hi, g.num_vertices, out=hi), lo, out=hi)


def _preserves_edges(g: Graph, images: np.ndarray, keys: np.ndarray) -> bool:
    """True iff the vertex map images sends g's edges, whose keys are keys
    (_lower_keys), onto themselves, by one stable sort of the image keys
    (they come in long ascending runs).  For a permutation that certifies an
    automorphism: it maps edges into edges iff it maps the edge set onto itself."""
    image_keys = _edge_keys(*g.lower_edges(images), len(images))
    image_keys.sort(kind="stable")
    return np.array_equal(image_keys, keys)


def is_automorphism(g: Graph, action: InducedAction) -> bool:
    """True iff the action maps every edge of g onto an edge of g."""
    return _preserves_edges(g, _image_table(g, action), _lower_keys(g))


def group_shape(params: GraphParams) -> GroupShape:
    """Kind, order and generator count of the automorphism group, read off
    (n, k, l): Sym(n) acting on subsets, generated by the transposition
    (0 1) and the n-cycle, extended by the complementation involution when
    k + l = n."""
    params.require_canonical()
    n = params.n
    if params.k + params.l == n:
        return GroupShape(f"Sym({n})xZ2", 2 * factorial(n), 3)
    return GroupShape(f"Sym({n})", factorial(n), 2)


def aut_group(params: GraphParams) -> GroupShape:
    """Automorphism group of the inclusion graph with its generators (see
    group_shape) built as vertex permutations."""
    shape = group_shape(params)
    n = params.n
    rows = _subset_rows(params)
    gens = [
        _sigma(np.array((1, 0) + tuple(range(2, n))), params, rows),
        _sigma(np.roll(np.arange(n), -1), params, rows),
    ]
    if shape.generator_count == 3:
        gens.append(tau_action(params))
    return replace(shape, generators=tuple(gens))


def _color_weights(size: int) -> np.ndarray:
    """A fixed pseudo-random uint64 weight for each colour number 0..size-1:
    splitmix64 of the number (Steele, Lea & Flood, "Fast splittable
    pseudorandom number generators", 2014)."""
    x = (np.arange(size, dtype=np.uint64) + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _refinement_colors(g: Graph, weights: np.ndarray, colors=None, expect=None):
    """Refinement of a vertex colouring by hashed neighbour colours: split
    the classes by h(v), the sum mod 2^64 of weights[c(u)] over the
    neighbours u of v, until no class splits (the hashing of
    Weisfeiler-Leman refinement; Shervashidze et al., "Weisfeiler-Lehman
    graph kernels", JMLR 2011).

    colors numbers the classes 0..c-1 (None: one class), and weights holds
    one weight per colour number, at least num_vertices of them.  Each round
    sorts the vertices by (class, h) and renumbers the classes by the rank
    of that pair, so the result depends on the colour numbers only, never
    on the vertex labels: refining the colouring relabelled by an
    automorphism gives the relabelled result.  Each round costs one gather
    and one cumulative sum over the arcs and one sort of the vertices.  Two
    vertices whose neighbour colours differ as multisets share a class only
    if their sums collide; that leaves a class unsplit, never splits one
    that equitable refinement would keep.  Returns (colours, trace), where
    the trace lists each round's sorted (class, h) pairs.  With expect, the
    trace of another refinement, it returns None at the first round that
    differs from it, and an empty trace otherwise; equal rounds end
    together, since the number of classes is read off the pairs.
    """
    nv = g.num_vertices
    indptr, indices = g.indptr, g.indices
    colors = np.zeros(nv, dtype=np.int64) if colors is None else colors
    classes = int(colors.max()) + 1
    sums = np.zeros(len(indices) + 1, dtype=np.uint64)
    trace = []
    for round_ in count():
        np.cumsum(weights[colors][indices], out=sums[1:])
        h = sums[indptr[1:]] - sums[indptr[:-1]]
        order = np.lexsort((h, colors))
        ranked = (colors[order], h[order])
        if expect is None:
            trace.append(ranked)
        elif not all(map(np.array_equal, ranked, expect[round_])):
            return None
        step = (ranked[0][1:] != ranked[0][:-1]) | (ranked[1][1:] != ranked[1][:-1])
        rank = np.concatenate(([0], np.cumsum(step)))
        colors = np.empty(nv, dtype=np.int64)
        colors[order] = rank
        if rank[-1] + 1 == classes:
            return colors, trace
        classes = int(rank[-1]) + 1


def _individualize(colors: np.ndarray, v: int) -> np.ndarray:
    """The colouring with v alone in a new class just after its own."""
    out = colors + (colors > colors[v])
    out[v] += 1
    return out


def _base_chain(g: Graph, weights: np.ndarray):
    """The refined colourings down the base chain of brute_force_aut_order,
    as (colours, trace, b): the refinement of the colouring with the base
    so far individualised, its trace, and the next base vertex b, None at
    the last colouring, which is discrete.  b is the first vertex of the
    target cell: the smallest non-singleton class, the lowest colour among
    equal sizes (a rule on colour numbers, so it is as label-free as the
    refinement).  A generator, so a caller that needs only the current
    colouring holds one level at a time."""
    nv = g.num_vertices
    colors, trace = _refinement_colors(g, weights)
    while True:
        sizes = np.bincount(colors)
        if len(sizes) == nv:
            yield colors, trace, None
            return
        target = np.argmin(np.where(sizes > 1, sizes, nv + 1))
        b = int(np.flatnonzero(colors == target)[0])
        yield colors, trace, b
        colors, trace = _refinement_colors(g, weights, _individualize(colors, b))


def brute_force_aut_order(g: Graph) -> int:
    """Exact automorphism-group order of g as a product of orbit sizes down
    a stabiliser chain, found by individualisation and refinement (McKay &
    Piperno, "Practical graph isomorphism, II", 2014; Seress, "Permutation
    Group Algorithms", ch. 4).

    The base b_1, b_2, ... is _base_chain's: each b_i comes from the target
    cell of the refined colouring with b_1..b_{i-1} individualised, until
    that colouring is discrete.  The order is the product over i of the
    size of b_i's orbit under the pointwise stabiliser of b_1..b_{i-1}.  For
    each candidate c in b_i's class, a depth-first search individualises c
    where the base individualises b_i, then follows the base's later
    choices with every vertex of the matching class, and cuts a branch as
    soon as its refinement trace differs from the base's.  It stops at the
    first leaf whose vertex map sends every edge to an edge.  One orbit
    partition runs through the search, joined with each automorphism as it
    is found, so a candidate already joined to b_i or to a rejected
    candidate is never searched.

    The order is exact whatever the refinement's hash does.  Refinement
    commutes with relabelling, so the branch that follows an automorphism
    reproduces the base's trace at every level and is never cut, and its
    leaf is that automorphism.  A hash collision only leaves classes
    unsplit, which grows the search; a leaf that is not an automorphism is
    rejected by the check of its map against the edge keys, the certificate
    of is_automorphism and the one check that every automorphism used
    passes.  Only indptr/indices are read, and the search keeps its own
    stack, so graphs of any size run without recursion.  It takes no cap:
    the caller bounds the graph (the ``aut`` command refuses an oversized
    one before building it).
    """
    nv = g.num_vertices
    if nv == 0:
        return 1
    keys = _lower_keys(g)
    weights = _color_weights(nv)
    # chain[i]: the refined colouring (and its trace) with base[:i] individualised
    chain = list(_base_chain(g, weights))
    base = [b for _, _, b in chain[:-1]]
    leaf = chain[-1][0]

    def extension(depth: int, c: int):
        """Vertex map of an automorphism preserving chain[depth]'s colouring
        and sending base[depth] to c, or None if there is none."""
        pending = [(depth, chain[depth][0], c)]
        while pending:
            d, colors, v = pending.pop()
            refined = _refinement_colors(
                g, weights, _individualize(colors, v), chain[d + 1][1]
            )
            if refined is None:
                continue
            colors = refined[0]
            if d + 1 == len(base):
                # send each vertex to the one of its colour on this branch
                vertex_of = np.empty(nv, dtype=np.int64)
                vertex_of[colors] = np.arange(nv)
                image = vertex_of[leaf]
                if _preserves_edges(g, image, keys):
                    return image
                continue
            target = chain[d + 1][0][base[d + 1]]
            pending.extend((d + 1, colors, y) for y in np.flatnonzero(colors == target)[::-1])
        return None

    # bottom-up, so every automorphism already found fixes base[:depth]
    orbit = np.arange(nv)
    order = 1
    for depth in reversed(range(len(base))):
        b = base[depth]
        colors = chain[depth][0]
        cell = np.flatnonzero(colors == colors[b])
        rejected: list[int] = []
        for c in cell:
            if orbit[c] == orbit[b] or orbit[c] in orbit[rejected]:
                continue
            image = extension(depth, int(c))
            if image is None:
                rejected.append(int(c))
            else:
                points = np.arange(nv)
                orbit = component_labels(nv, [(points, orbit), (points, image)])[0]
        order *= int(np.count_nonzero(orbit[cell] == orbit[b]))
    return order


def certified_aut_order(g: SubsetGraph) -> int | None:
    """|Aut(g)| of an inclusion graph, certified by an upper bound
    (_chain_bound) and a lower bound (_generated_order of aut_group's
    generators, checked against g's edges) that meet, or None when they do
    not; brute_force_aut_order then decides.  The lower bound is 1 when
    n < 5, and the chain is refined only when it proves more than that."""
    lower = _generated_order(g, *aut_group(g.params).generators)
    if lower == 1 or _chain_bound(g) != lower:
        return None
    return lower


def _chain_bound(g: Graph) -> int:
    """An upper bound on |Aut(g)|: the product of the target-cell sizes down
    brute_force_aut_order's base chain, with no branch.  An automorphism
    that fixes b_1..b_{i-1} preserves the refined colouring with them
    individualised, since refinement commutes with relabelling, so b_i's
    orbit under that pointwise stabiliser lies in b_i's cell; the order, the
    product of those orbit sizes, is at most this.  A hash collision only
    leaves a cell larger."""
    bound = 1
    for colors, _, b in _base_chain(g, _color_weights(g.num_vertices)):
        if b is not None:
            bound *= int(np.count_nonzero(colors == colors[b]))
    return bound


def _generated_order(g: SubsetGraph, t: InducedAction, s: InducedAction, tau=None) -> int:
    """A lower bound on |Aut(g)| from vertex permutations meant to be the
    transposition t = sigma(0 1), the n-cycle s = sigma(0 1 ... n-1) and,
    when k + l = n, complementation tau.

    n! when n >= 5, t and s map g's edges onto its edges, satisfy Moore's
    presentation of Sym(n) (_moore_relations) and do not commute: the
    relations make <t, s> a quotient of Sym(n), and for n >= 5 the only
    quotients are 1, Z2 and Sym(n), of which only Sym(n) is not abelian.
    Twice that when tau is an automorphism too, t and s map the k-subset
    vertices 0..n1-1 among themselves and tau does not: every element of
    <t, s> keeps the sides, so tau lies outside it.  Otherwise 1, the
    identity alone."""
    n, n1 = g.params.n, g.params.n1
    if n < 5:
        return 1
    keys = _lower_keys(g)

    def keeps_sides(images: np.ndarray) -> bool:
        return bool((images[:n1] < n1).all())

    t, s = t.images, s.images
    if not (
        _preserves_edges(g, t, keys)
        and _preserves_edges(g, s, keys)
        and _moore_relations(t, s, n)
    ):
        return 1
    if (
        tau is not None
        and keeps_sides(t)
        and keeps_sides(s)
        and not keeps_sides(tau.images)
        and _preserves_edges(g, tau.images, keys)
    ):
        return 2 * factorial(n)
    return factorial(n)


def _moore_relations(t: np.ndarray, s: np.ndarray, n: int) -> bool:
    """True iff the permutations t and s (image arrays) satisfy
    s^n = t^2 = (ts)^(n-1) = (t s^-1 t s)^3 = (t s^-j t s^j)^2 = 1 for
    2 <= j <= n-2, Moore's presentation of Sym(n) on a transposition and an
    n-cycle (Moore 1897; Coxeter & Moser, "Generators and Relations for
    Discrete Groups", section 6.2), and ts != st.  A word is applied left
    to right, so "t then s" is s[t]; read right to left, each relator would
    be its reverse, a conjugate of it, so the relations do not depend on the
    convention."""
    one = np.arange(len(t))

    def is_one(p: np.ndarray, power: int) -> bool:
        q = p
        for _ in range(power - 1):
            q = p[q]
        return np.array_equal(q, one)

    s_inv = np.argsort(s)
    if not (is_one(t, 2) and is_one(s, n) and is_one(s[t], n - 1)):
        return False
    if not is_one(s[t[s_inv[t]]], 3) or np.array_equal(s[t], t[s]):
        return False
    s_j, s_inv_j = s[s], s_inv[s_inv]
    for _ in range(2, n - 1):
        if not is_one(s_j[t[s_inv_j[t]]], 2):
            return False
        s_j, s_inv_j = s[s_j], s_inv[s_inv_j]
    return True


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


def orbit_count(g: Graph, generators, on: str = "vertices") -> int:
    """Number of orbits of the group generated by verified automorphisms on
    the chosen object set ("vertices", "edges" or "arcs"): the classes of
    the pairs (x, generator(x)), counted by component_labels with one link
    per generator.

    Edges are numbered by their place in g.lower_edges(), not g.edges()
    (the counts do not depend on it; on an inclusion graph it reads only the
    rank rows), and an arc is an edge with a direction.  Each generator is
    verified by the search that maps the edges (every image of an edge key
    must be a key), and its link is built and joined before the next
    generator is read.  On the arcs the classes are those of the edges with
    a flip on each edge the generator reverses: an edge class in which some
    chain of links reverses an edge holds one arc orbit, every other edge
    class two."""
    nv, m = g.num_vertices, g.num_edges
    sizes = {"vertices": nv, "edges": m, "arcs": m}
    if on not in sizes:
        raise ValueError(f"unknown object set: {on!r}")
    labels, odd = component_labels(sizes[on], _orbit_links(g, generators, on))
    classes = int(np.count_nonzero(labels == np.arange(sizes[on])))
    return 2 * classes - len(odd) if on == "arcs" else classes


def _orbit_links(g: Graph, generators, on: str):
    """orbit_count's link of each generator, verified and built only when
    the union-find asks for it.  No array a check makes is bound in this
    frame, so nothing of one generator outlives its link."""
    keys = _lower_keys(g)
    objects = np.arange(g.num_vertices if on == "vertices" else len(keys))
    for action in generators:
        yield objects, *_edge_link(g, _image_table(g, action), keys, on)


def _edge_link(g: Graph, images: np.ndarray, keys: np.ndarray, on: str) -> tuple:
    """The link of one generator after the check that its vertex map
    images sends g's edges (keys: _lower_keys) onto the edges, or ValueError:
    on the vertices the images themselves, checked by one sort of the image
    keys; on the edges each edge's place among the edges; on the arcs also a
    flip on each edge whose larger end's image is below its smaller end's."""
    if on == "vertices":
        link = images if _preserves_edges(g, images, keys) else None
    else:
        image_hi, image_lo = g.lower_edges(images)
        reverses = image_hi < image_lo if on == "arcs" else None
        image_keys = _edge_keys(image_hi, image_lo, len(images))
        del image_hi, image_lo  # not alive during the sort
        link = _places(keys, image_keys)
    if link is None:
        raise ValueError("generator is not an automorphism of the graph")
    return (link, reverses) if on == "arcs" else (link,)
