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
from functools import lru_cache
from math import comb, factorial

from .errors import CapExceededError
from .graphs import Graph, GraphParams, SubsetGraph, enumerate_subsets

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


@lru_cache(maxsize=128)
def _vertex_table(params: GraphParams):
    masks = enumerate_subsets(params.n, params.k) + enumerate_subsets(
        params.n, params.l
    )
    return masks, {m: i for i, m in enumerate(masks)}


def _check_base_permutation(g, n: int) -> tuple[int, ...]:
    g = tuple(g)
    if sorted(g) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {g!r}")
    return g


def induced_action(g, params: GraphParams) -> InducedAction:
    """Vertex action of a ground-set permutation: each subset maps to its
    elementwise image.  Always an automorphism of the inclusion graph."""
    params.require_canonical()
    g = _check_base_permutation(g, params.n)
    masks, index = _vertex_table(params)
    images = []
    for mask in masks:
        out = 0
        m = mask
        while m:
            low = m & -m
            out |= 1 << g[low.bit_length() - 1]
            m ^= low
        images.append(index[out])
    return InducedAction(tuple(images), "sigma")


def tau_action(params: GraphParams) -> InducedAction:
    """Complementation v -> [n] \\ v as a vertex permutation; defined only
    when k + l = n, where it swaps the two size classes and has order 2."""
    params.require_canonical()
    if params.k + params.l != params.n:
        raise ValueError(
            "complementation is a vertex permutation only when k + l = n"
        )
    masks, index = _vertex_table(params)
    full = (1 << params.n) - 1
    return InducedAction(tuple(index[full ^ m] for m in masks), "tau")


def is_automorphism(g: Graph, action: InducedAction) -> bool:
    """True iff the action maps every edge of g onto an edge of g."""
    if len(action.images) != g.num_vertices:
        raise ValueError(
            f"action acts on {len(action.images)} vertices, graph has {g.num_vertices}"
        )
    nbr = [set(nbrs) for nbrs in g.adj]
    img = action.images
    return all(img[v] in nbr[img[u]] for u, v in g.edges())


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


def _refinement_colors(g: Graph) -> list[int]:
    """Iterated degree refinement: split vertex classes by the multiset of
    neighbor classes until stable."""
    colors = [g.degree(v) for v in range(g.num_vertices)]
    palette = {c: i for i, c in enumerate(sorted(set(colors)))}
    colors = [palette[c] for c in colors]
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in g.adj[v])))
            for v in range(g.num_vertices)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def _search_order(g: Graph) -> list[int]:
    """Most-constrained-first vertex order: each step appends the vertex with
    the most already-placed neighbors (ties by index), so image candidates
    are cut down as early as possible."""
    nv = g.num_vertices
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
        for u in g.adj[best]:
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
    colors = _refinement_colors(g)
    color_mask = {}
    for v, c in enumerate(colors):
        color_mask[c] = color_mask.get(c, 0) | (1 << v)
    nbr_mask = g.neighbor_masks()
    order = _search_order(g)
    pos_of = {v: d for d, v in enumerate(order)}
    earlier_nbrs = [
        [u for u in g.adj[v] if pos_of[u] < d] for d, v in enumerate(order)
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
    seen = set()
    for v in range(g.v1_count, nv):
        nbrs = g.adj[v]
        if nbrs in seen:
            return False
        seen.add(nbrs)
    return True


def common_neighbor_fingerprint(g: SubsetGraph, u: int, v: int) -> int:
    """Number of common neighbors of two k-subset vertices (their degree
    when u == v); determines the intersection size of the two subsets."""
    if not (0 <= u < g.v1_count and 0 <= v < g.v1_count):
        raise ValueError("both vertices must lie in the k-subset class")
    if u == v:
        return g.degree(u)
    return len(set(g.adj[u]).intersection(g.adj[v]))


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx

    def count(self) -> int:
        return sum(1 for x, p in enumerate(self.parent) if x == p)


def orbit_count(g: Graph, generators, on: str = "vertices") -> int:
    """Number of orbits of the group generated by verified automorphisms on
    the chosen object set ("vertices", "edges" or "arcs"), by union-find
    closure under the generators."""
    generators = list(generators)
    for action in generators:
        if not is_automorphism(g, action):
            raise ValueError("generator is not an automorphism of the graph")
    if on == "vertices":
        uf = _UnionFind(g.num_vertices)
        for action in generators:
            for x in range(g.num_vertices):
                uf.union(x, action.images[x])
        return uf.count()
    edges = g.edges()
    if on == "edges":
        index = {e: i for i, e in enumerate(edges)}
        uf = _UnionFind(len(edges))
        for action in generators:
            img = action.images
            for i, (a, b) in enumerate(edges):
                x, y = img[a], img[b]
                uf.union(i, index[(x, y) if x < y else (y, x)])
        return uf.count()
    if on == "arcs":
        arcs = [(a, b) for a, b in edges] + [(b, a) for a, b in edges]
        index = {arc: i for i, arc in enumerate(arcs)}
        uf = _UnionFind(len(arcs))
        for action in generators:
            img = action.images
            for i, (a, b) in enumerate(arcs):
                uf.union(i, index[(img[a], img[b])])
        return uf.count()
    raise ValueError(f"unknown object set: {on!r}")
