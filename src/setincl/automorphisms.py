"""Symmetries of inclusion graphs: induced vertex actions from base
permutations, the complementation involution, orbit computation, and an
independent oracle for the automorphism-group order of any graph, an
orbit-stabiliser search by individualisation and refinement.

The ground set is {0, ..., n-1}; a base permutation is its image table.
Vertex indices follow the construction order (k-subsets first, colex within
each size class), so actions built from parameters alone agree with any
graph built from the same parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import factorial

import numpy as np

from .graphs import (
    Graph,
    GraphParams,
    SubsetGraph,
    colex_ranks,
    component_count,
    component_labels,
    subset_positions,
)

__all__ = [
    "InducedAction",
    "GroupShape",
    "GroupDescription",
    "induced_action",
    "tau_action",
    "is_automorphism",
    "group_shape",
    "aut_group",
    "brute_force_aut_order",
    "pointwise_stabilizer_trivial",
    "common_neighbor_fingerprint",
    "orbit_count",
]


@dataclass(frozen=True)
class InducedAction:
    """A vertex permutation of an inclusion graph with known provenance
    ("sigma" for subset-wise base permutations, "tau" for complementation,
    "composite" for products)."""

    images: tuple[int, ...]
    provenance: str

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("image table is not a permutation of the vertex set")

    def __call__(self, v: int) -> int:
        return self.images[v]

    def compose(self, other: "InducedAction") -> "InducedAction":
        """Action applying other first, then self."""
        return InducedAction(
            tuple(self.images[w] for w in other.images), "composite"
        )

    @property
    def is_identity(self) -> bool:
        return all(w == v for v, w in enumerate(self.images))


@dataclass(frozen=True)
class GroupShape:
    """Kind, order and generator count of the automorphism group of an
    inclusion graph."""

    kind: str  # "Sym(n)" or "Sym(n)xZ2"
    order: int
    generator_count: int

    def to_json_dict(self, verified_brute_force=None) -> dict:
        return {
            "kind": self.kind,
            "order": str(self.order),
            "generators": self.generator_count,
            "verified_brute_force": verified_brute_force,
        }


@dataclass(frozen=True)
class GroupDescription(GroupShape):
    """Automorphism group of an inclusion graph with generators."""

    generators: tuple[InducedAction, ...]


def induced_action(g, params: GraphParams) -> InducedAction:
    """Vertex action of a ground-set permutation: each subset maps to its
    elementwise image.  Always an automorphism of the inclusion graph."""
    params.require_canonical()
    g = tuple(g)
    if sorted(g) != list(range(params.n)):
        raise ValueError(f"not a permutation of 0..{params.n - 1}: {g!r}")
    g = np.array(g, dtype=np.int64)
    images = [
        colex_ranks(np.sort(g[subset_positions(params.n, size)], axis=1).T)
        for size in (params.k, params.l)
    ]
    images[1] += params.n1
    return InducedAction(tuple(np.concatenate(images).tolist()), "sigma")


def _complement_positions(positions: np.ndarray, n: int) -> np.ndarray:
    """Element rows of the complements in {0,...,n-1} of the given subsets."""
    outside = np.ones((len(positions), n), dtype=bool)
    outside[np.arange(len(positions))[:, None], positions] = False
    return np.nonzero(outside)[1].reshape(len(positions), -1)


def tau_action(params: GraphParams) -> InducedAction:
    """Complementation v -> [n] \\ v as a vertex permutation; defined only
    when k + l = n, where it swaps the two size classes and has order 2."""
    params.require_canonical()
    if params.k + params.l != params.n:
        raise ValueError(
            "complementation is a vertex permutation only when k + l = n"
        )
    images = [
        colex_ranks(_complement_positions(subset_positions(params.n, size), params.n).T)
        for size in (params.k, params.l)
    ]
    images[0] += params.n1
    return InducedAction(tuple(np.concatenate(images).tolist()), "tau")


def _edge_keys(pairs: np.ndarray, nv: int) -> np.ndarray:
    """Key min*nv + max of each vertex pair; keys sort like the edges."""
    u, v = pairs.T
    return np.minimum(u, v) * nv + np.maximum(u, v)


def _image_table(g: Graph, action: InducedAction) -> np.ndarray:
    if len(action.images) != g.num_vertices:
        raise ValueError(
            f"action acts on {len(action.images)} vertices, graph has {g.num_vertices}"
        )
    return np.array(action.images, dtype=np.int64)


def _places(keys: np.ndarray, image_keys: np.ndarray):
    """Index of each image key among the sorted keys, or None unless the
    image keys are the keys in some order.  For the keys of the edges (or
    arcs) under a vertex permutation, which are distinct, a result that is
    not None certifies an automorphism: a permutation maps edges into edges
    iff it maps the edge set onto itself.  A stable sort, because image keys
    mostly come in long ascending runs."""
    order = np.argsort(image_keys, kind="stable")
    if not np.array_equal(image_keys[order], keys):
        return None
    places = np.empty_like(order)
    places[order] = np.arange(len(order))
    return places


def is_automorphism(g: Graph, action: InducedAction) -> bool:
    """True iff the action maps every edge of g onto an edge of g."""
    images = _image_table(g, action)
    edges = g.edges()
    nv = g.num_vertices
    return _places(_edge_keys(edges, nv), _edge_keys(images[edges], nv)) is not None


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


def aut_group(params: GraphParams) -> GroupDescription:
    """Automorphism group of the inclusion graph with its generators (see
    group_shape) built as vertex permutations."""
    shape = group_shape(params)
    n = params.n
    gens = [
        induced_action((1, 0) + tuple(range(2, n)), params),
        induced_action(tuple(range(1, n)) + (0,), params),
    ]
    if shape.generator_count == 3:
        gens.append(tau_action(params))
    return GroupDescription(shape.kind, shape.order, shape.generator_count, tuple(gens))


def _refinement_colors(g: Graph, colors=None, expect=None):
    """Equitable refinement of a vertex colouring: split the classes by the
    number of neighbours each vertex has in every class until no class
    splits.

    colors numbers the classes 0..c-1 (None: one class).  Each round gives
    every vertex the signature (class, (class, count) of each class among
    its neighbours) and renumbers the classes by the rank of their
    signature, so the result depends on the colour numbers only, never on
    the vertex labels: refining the colouring relabelled by an automorphism
    gives the relabelled result.  Returns (colours, trace), where the trace
    lists each round's sorted signatures.  With expect, the trace of another
    refinement, it returns None at the first round that differs from it,
    and an empty trace otherwise; equal rounds end together, since the
    number of classes is read off the signatures.
    """
    nv = g.num_vertices
    tails, heads = g.arc_sources(), g.indices
    colors = np.zeros(nv, dtype=np.int64) if colors is None else colors
    classes = int(colors.max()) + 1
    trace = []
    for round_ in count():
        pairs, mult = np.unique(tails * classes + colors[heads], return_counts=True)
        owner = pairs // classes
        per = np.bincount(owner, minlength=nv)
        rows = np.full((nv, 1 + int(per.max(initial=0))), -1, dtype=np.int64)
        rows[:, 0] = colors
        slot = np.arange(len(owner)) - (np.cumsum(per) - per)[owner]
        rows[owner, 1 + slot] = (pairs - owner * classes) * nv + mult
        order = np.lexsort(rows.T[::-1])
        ranked = rows[order]
        if expect is None:
            trace.append(ranked)
        elif not np.array_equal(ranked, expect[round_]):
            return None
        rank = np.concatenate(([0], np.cumsum(np.any(ranked[1:] != ranked[:-1], axis=1))))
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


def _orbit_labels(nv: int, images: list[np.ndarray]) -> np.ndarray:
    """Smallest member of each vertex's orbit under the group generated by
    the given vertex maps.  The maps go in as one link: the graphs here are
    small, so one call's overhead outweighs hooking them one by one."""
    if not images:
        return np.arange(nv)
    points = np.tile(np.arange(nv), len(images))
    return component_labels(nv, [(points, np.concatenate(images))])


def brute_force_aut_order(g: Graph) -> int:
    """Exact automorphism-group order of g as a product of orbit sizes down
    a stabiliser chain, found by individualisation and refinement (McKay &
    Piperno, "Practical graph isomorphism, II", 2014; Seress, "Permutation
    Group Algorithms", ch. 4).

    The base b_1, b_2, ... takes each b_i from the first non-singleton class
    of the refined colouring with b_1..b_{i-1} individualised, until that
    colouring is discrete.  The order is the product over i of the size of
    b_i's orbit under the pointwise stabiliser of b_1..b_{i-1}.  For each
    candidate c in b_i's class, a depth-first search individualises c where
    the base individualises b_i, then follows the base's later choices with
    every vertex of the matching class, and cuts a branch as soon as its
    refinement trace differs from the base's.  It stops at the first leaf
    whose vertex map sends every edge to an edge.  Orbits are merged under
    all automorphisms found so far, so a candidate already joined to b_i or
    to a rejected candidate is never searched.  Only indptr/indices are
    read, every automorphism used is checked against the edges, and the
    search keeps its own stack, so graphs of any size run without
    recursion.  It takes no cap: the caller bounds the graph (the ``aut``
    command refuses an oversized one before building it).
    """
    nv = g.num_vertices
    if nv == 0:
        return 1
    tails, heads = g.arc_sources(), g.indices
    arc_keys = tails * nv + heads
    # chain[i]: the refined colouring (and its trace) with base[:i] individualised
    chain = [_refinement_colors(g)]
    base: list[int] = []
    while chain[-1][0].max() + 1 < nv:
        colors = chain[-1][0]
        first = np.argmax(np.bincount(colors) > 1)
        base.append(int(np.flatnonzero(colors == first)[0]))
        chain.append(_refinement_colors(g, _individualize(colors, base[-1])))
    leaf = chain[-1][0]

    def extension(depth: int, c: int):
        """Vertex map of an automorphism preserving chain[depth]'s colouring
        and sending base[depth] to c, or None if there is none."""
        pending = [(depth, chain[depth][0], c)]
        while pending:
            d, colors, v = pending.pop()
            refined = _refinement_colors(g, _individualize(colors, v), chain[d + 1][1])
            if refined is None:
                continue
            colors = refined[0]
            if d + 1 == len(base):
                # send each vertex to the one of its colour on this branch
                vertex_of = np.empty(nv, dtype=np.int64)
                vertex_of[colors] = np.arange(nv)
                image = vertex_of[leaf]
                if _places(arc_keys, image[tails] * nv + image[heads]) is not None:
                    return image
                continue
            target = chain[d + 1][0][base[d + 1]]
            pending.extend((d + 1, colors, y) for y in np.flatnonzero(colors == target)[::-1])
        return None

    # bottom-up, so every automorphism already found fixes base[:depth]
    found: list[np.ndarray] = []
    order = 1
    for depth in reversed(range(len(base))):
        b = base[depth]
        colors = chain[depth][0]
        cell = np.flatnonzero(colors == colors[b])
        orbit = _orbit_labels(nv, found)
        rejected: list[int] = []
        for c in cell:
            if orbit[c] == orbit[b] or orbit[c] in orbit[rejected]:
                continue
            image = extension(depth, int(c))
            if image is None:
                rejected.append(int(c))
            else:
                found.append(image)
                orbit = _orbit_labels(nv, found)
        order *= int(np.count_nonzero(orbit[cell] == orbit[b]))
    return order


def pointwise_stabilizer_trivial(g: SubsetGraph) -> bool:
    """True iff the identity is the only automorphism fixing every k-subset
    vertex.

    An automorphism fixing the first size class pointwise can move an
    l-subset vertex only onto one with the identical (fixed) neighborhood,
    and any permutation inside such duplicate classes is an automorphism;
    the restricted search therefore reduces to checking that all
    neighborhoods on the l-side are distinct.
    """
    # every l-subset vertex has degree r2, so its sorted row has r2 entries
    rows = g.indices[g.indptr[g.v1_count] :].reshape(-1, g.params.r2)
    return len(np.unique(rows, axis=0)) == len(rows)


def common_neighbor_fingerprint(g: SubsetGraph, u: int, v: int) -> int:
    """Number of common neighbors of two k-subset vertices (their degree
    when u == v); determines the intersection size of the two subsets."""
    if not (0 <= u < g.v1_count and 0 <= v < g.v1_count):
        raise ValueError("both vertices must lie in the k-subset class")
    return len(np.intersect1d(g.neighbors(u), g.neighbors(v), assume_unique=True))


def orbit_count(g: Graph, generators, on: str = "vertices") -> int:
    """Number of orbits of the group generated by verified automorphisms on
    the chosen object set ("vertices", "edges" or "arcs"): the classes of
    the pairs (x, generator(x)), counted by component_count with one link
    per generator.

    Edges are numbered by their place in g.edges(), and arc e + d*m is edge
    e read from its larger end when d = 1.  Each generator is verified by
    the search that maps the edges: every image of an edge key must be a
    key.  A generator sends arc e + d*m to arc places[e] + d'*m, where d'
    flips d exactly when the generator reverses edge e."""
    nv, m = g.num_vertices, g.num_edges
    sizes = {"vertices": nv, "edges": m, "arcs": 2 * m}
    if on not in sizes:
        raise ValueError(f"unknown object set: {on!r}")
    objects = np.arange(sizes[on])
    ends = g.edges()
    keys = _edge_keys(ends, nv)
    links = []
    for action in generators:
        images = _image_table(g, action)
        image_ends = images[ends]
        places = _places(keys, _edge_keys(image_ends, nv))
        if places is None:
            raise ValueError("generator is not an automorphism of the graph")
        if on == "vertices":
            target = images
        elif on == "edges":
            target = places
        else:
            target = np.concatenate((places, places))
            flip = (image_ends[:, 0] > image_ends[:, 1]) * m
            target[:m] += flip
            target[m:] += m - flip
        links.append((objects, target))
    return component_count(len(objects), links)
