"""Symmetries of inclusion graphs: induced vertex actions from base
permutations, the complementation involution, orbit computation, and a
brute-force automorphism counter used as an independent oracle.

The ground set is {0, ..., n-1}; a base permutation is its image table.
Vertex indices follow the construction order (k-subsets first, colex within
each size class), so actions built from parameters alone agree with any
graph built from the same parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import CapExceededError
from .graphs import (
    Graph,
    GraphParams,
    SubsetGraph,
    colex_ranks,
    component_count,
    subset_positions,
)

__all__ = [
    "InducedAction",
    "GroupDescription",
    "induced_action",
    "tau_action",
    "is_automorphism",
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
class GroupDescription:
    """Abstract automorphism group of an inclusion graph with generators."""

    kind: str  # "Sym(n)" or "Sym(n)xZ2"
    order: int
    generators: tuple[InducedAction, ...]

    def to_json_dict(self, verified_brute_force=None) -> dict:
        return {
            "kind": self.kind,
            "order": str(self.order),
            "generators": len(self.generators),
            "verified_brute_force": verified_brute_force,
        }


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


def is_automorphism(g: Graph, action: InducedAction) -> bool:
    """True iff the action maps every edge of g onto an edge of g."""
    if len(action.images) != g.num_vertices:
        raise ValueError(
            f"action acts on {len(action.images)} vertices, graph has {g.num_vertices}"
        )
    edges = g.edges()
    image_keys = _edge_keys(np.array(action.images, dtype=np.int64)[edges], g.num_vertices)
    # a permutation maps edges into edges iff it maps the edge set onto itself
    return np.array_equal(np.sort(image_keys), _edge_keys(edges, g.num_vertices))


def aut_group(params: GraphParams) -> GroupDescription:
    """Automorphism group of the inclusion graph: the full symmetric group
    acting on subsets when k + l < n, extended by complementation when
    k + l = n.  Generators: the transposition (0 1), the n-cycle, and the
    complementation involution where it exists."""
    params.require_canonical()
    n = params.n
    transposition = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    gens = [induced_action(transposition, params), induced_action(cycle, params)]
    if params.k + params.l == n:
        gens.append(tau_action(params))
        return GroupDescription(f"Sym({n})xZ2", 2 * factorial(n), tuple(gens))
    return GroupDescription(f"Sym({n})", factorial(n), tuple(gens))


def _refinement_colors(adj: list[list[int]]) -> list[int]:
    """Iterated degree refinement: split vertex classes by the multiset of
    neighbor classes until stable."""
    colors = [len(nbrs) for nbrs in adj]
    palette = {c: i for i, c in enumerate(sorted(set(colors)))}
    colors = [palette[c] for c in colors]
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in adj[v])))
            for v in range(len(adj))
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def _search_order(adj: list[list[int]]) -> list[int]:
    """Most-constrained-first vertex order: each step appends the vertex with
    the most already-placed neighbors (ties by index), so image candidates
    are cut down as early as possible."""
    nv = len(adj)
    placed_nbrs = [0] * nv
    placed = [False] * nv
    order: list[int] = []
    for _ in range(nv):
        best = -1
        for v in range(nv):
            if not placed[v] and (best < 0 or placed_nbrs[v] > placed_nbrs[best]):
                best = v
        placed[best] = True
        order.append(best)
        for u in adj[best]:
            placed_nbrs[u] += 1
    return order


def brute_force_aut_order(
    g: Graph, max_vertices: int = 40, force: bool = False
) -> int:
    """Exact automorphism-group order by backtracking over vertex images.

    Candidate images must share the refinement class of their preimage and
    be adjacent to the images of all previously assigned neighbors; since a
    bijection mapping edges into edges is an automorphism, completing the
    assignment certifies one.  The count enumerates every automorphism, so
    the cap guards against astronomically large groups.
    """
    nv = g.num_vertices
    if nv > max_vertices and not force:
        raise CapExceededError(
            f"graph has {nv} vertices, brute-force cap is {max_vertices}"
        )
    if nv == 0:
        return 1
    adj = [g.neighbors(v).tolist() for v in range(nv)]
    colors = _refinement_colors(adj)
    color_mask = {}
    for v, c in enumerate(colors):
        color_mask[c] = color_mask.get(c, 0) | (1 << v)
    nbr_mask = [sum(1 << u for u in nbrs) for nbrs in adj]
    order = _search_order(adj)
    pos_of = {v: d for d, v in enumerate(order)}
    earlier_nbrs = [
        [u for u in adj[v] if pos_of[u] < d] for d, v in enumerate(order)
    ]
    image = [0] * nv
    base_cand = [color_mask[colors[v]] for v in order]

    def count_extensions(depth: int, used: int) -> int:
        if depth == nv:
            return 1
        v = order[depth]
        cand = base_cand[depth] & ~used
        for u in earlier_nbrs[depth]:
            cand &= nbr_mask[image[u]]
            if not cand:
                return 0
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            image[v] = low.bit_length() - 1
            total += count_extensions(depth + 1, used | low)
        return total

    return count_extensions(0, 0)


def pointwise_stabilizer_trivial(
    g: SubsetGraph, max_vertices: int = 40, force: bool = False
) -> bool:
    """True iff the identity is the only automorphism fixing every k-subset
    vertex.

    An automorphism fixing the first size class pointwise can move an
    l-subset vertex only onto one with the identical (fixed) neighborhood,
    and any permutation inside such duplicate classes is an automorphism;
    the restricted search therefore reduces to checking that all
    neighborhoods on the l-side are distinct.
    """
    nv = g.num_vertices
    if nv > max_vertices and not force:
        raise CapExceededError(
            f"graph has {nv} vertices, brute-force cap is {max_vertices}"
        )
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
    the pairs (x, generator(x)), counted by component_count."""
    generators = list(generators)
    for action in generators:
        if not is_automorphism(g, action):
            raise ValueError("generator is not an automorphism of the graph")
    nv = g.num_vertices
    # each object has a key; image_keys(img) gives the keys of the images
    if on == "vertices":
        keys, image_keys = np.arange(nv), lambda img: img
    elif on == "edges":
        ends = g.edges()
        keys, image_keys = _edge_keys(ends, nv), lambda img: _edge_keys(img[ends], nv)
    elif on == "arcs":
        tails, heads = g.arc_sources(), g.indices
        keys, image_keys = tails * nv + heads, lambda img: img[tails] * nv + img[heads]
    else:
        raise ValueError(f"unknown object set: {on!r}")
    # keys are sorted, so an object's number is its key's place among them
    targets = [
        np.searchsorted(keys, image_keys(np.array(a.images, dtype=np.int64)))
        for a in generators
    ]
    objects = np.tile(np.arange(len(keys)), len(targets))
    return component_count(
        len(keys), objects, np.concatenate(targets) if targets else objects
    )
