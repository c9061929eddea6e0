"""Tests for induced actions, the complementation involution, orbit counts
and the orbit-stabiliser automorphism oracle."""

import random
import sys
import time
import tracemalloc
from itertools import combinations
from math import factorial

import numpy as np
import pytest

from setincl import (
    Graph,
    GraphParams,
    InducedAction,
    aut_group,
    binom,
    brute_force_aut_order,
    build_inclusion_graph,
    certified_aut_order,
    group_shape,
    induced_action,
    is_automorphism,
    orbit_count,
    tau_action,
)
from setincl import automorphisms

from reference_helpers import (
    build_johnson_graph,
    canonical_params_up_to,
    common_neighbor_fingerprint,
    compose,
    is_identity,
    pointwise_stabilizer_trivial,
)
from reference_ranks import mask_of, subset_rank, vertex_sets


def random_permutation(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def close_group(generators):
    """All elements of the group generated by the given actions."""
    identity = InducedAction(tuple(range(len(generators[0].images))))
    seen = {identity.images.tobytes(): identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for element in frontier:
            for gen in generators:
                composed = compose(gen, element)
                if composed.images.tobytes() not in seen:
                    seen[composed.images.tobytes()] = composed
                    nxt.append(composed)
        frontier = nxt
    return list(seen.values())


def test_induced_action_identity():
    params = GraphParams(4, 1, 2)
    action = induced_action(tuple(range(4)), params)
    assert is_identity(action)


def test_induced_action_small_example():
    # swapping ground elements 0 and 1 sends {0} to {1} and {0,2} to {1,2}
    params = GraphParams(3, 1, 2)
    sets = vertex_sets(params)
    action = induced_action((1, 0, 2), params)
    assert sets[action.images[sets.index({0})]] == {1}
    assert sets[action.images[sets.index({0, 2})]] == {1, 2}


def test_induced_action_rejects_non_bijection():
    with pytest.raises(ValueError):
        induced_action((0, 0, 2), GraphParams(3, 1, 2))


def test_induced_actions_are_automorphisms():
    rng = random.Random(7)
    for params in canonical_params_up_to(7):
        g = build_inclusion_graph(params)
        for _ in range(100):
            perm = random_permutation(params.n, rng)
            assert is_automorphism(g, induced_action(perm, params))


def test_induced_action_respects_composition():
    rng = random.Random(11)
    params = GraphParams(5, 2, 3)
    for _ in range(25):
        g1 = random_permutation(5, rng)
        g2 = random_permutation(5, rng)
        composed_base = tuple(g1[g2[x]] for x in range(5))
        lhs = induced_action(composed_base, params)
        rhs = compose(induced_action(g1, params), induced_action(g2, params))
        assert np.array_equal(lhs.images, rhs.images)


def test_tau_action_cases():
    params = GraphParams(4, 1, 3)
    g = build_inclusion_graph(params)
    sets = vertex_sets(params)
    tau = tau_action(params)
    assert sets[tau.images[sets.index({0})]] == {1, 2, 3}
    assert is_automorphism(g, tau)
    assert is_identity(compose(tau, tau))

    tau53 = tau_action(GraphParams(5, 2, 3))
    assert is_identity(compose(tau53, tau53))

    with pytest.raises(ValueError):
        tau_action(GraphParams(4, 1, 2))  # k + l != n

    # the reversal of the vertex order against the definition of τ
    for params in canonical_params_up_to(10):
        if params.k + params.l == params.n:
            sets = vertex_sets(params)
            tau, full = tau_action(params), frozenset(range(params.n))
            assert all(sets[tau.images[v]] == full - s for v, s in enumerate(sets)), params


def test_induced_action_images():
    for images in ((0, 0, 2), (0, 1, 3), (0.5, 1)):
        with pytest.raises(ValueError):
            InducedAction(images)
    a = InducedAction((2, 0, 1, 3))
    b = InducedAction((1, 3, 0, 2))
    assert a.images.dtype == np.int64 and not a.images.flags.writeable
    with pytest.raises(ValueError):
        a.images[0] = 0
    assert np.array_equal(compose(a, b).images, [a.images[b.images[v]] for v in range(4)])


def test_tau_commutes_with_induced_actions():
    rng = random.Random(3)
    for params in [GraphParams(4, 1, 3), GraphParams(5, 2, 3), GraphParams(6, 2, 4)]:
        tau = tau_action(params)
        for _ in range(20):
            sigma = induced_action(random_permutation(params.n, rng), params)
            assert np.array_equal(compose(tau, sigma).images, compose(sigma, tau).images)


def test_is_automorphism_negative_control():
    params = GraphParams(4, 1, 2)
    g = build_inclusion_graph(params)
    # swapping a degree-3 vertex with a degree-2 vertex breaks adjacency
    images = list(range(10))
    images[0], images[4] = images[4], images[0]
    assert not is_automorphism(g, InducedAction(tuple(images)))


def test_is_automorphism_domain_mismatch():
    g = build_inclusion_graph(GraphParams(4, 1, 2))
    with pytest.raises(ValueError):
        is_automorphism(g, InducedAction((0, 1, 2)))


def test_aut_group_descriptions():
    grp = aut_group(GraphParams(4, 1, 2))
    assert grp.kind == "Sym(4)" and grp.order == 24 and len(grp.generators) == 2
    grp = aut_group(GraphParams(4, 1, 3))
    assert grp.kind == "Sym(4)xZ2" and grp.order == 48 and len(grp.generators) == 3
    grp = aut_group(GraphParams(5, 2, 3))
    assert grp.order == 240
    report = grp.to_json_dict(verified_brute_force=True)
    assert report == {
        "kind": "Sym(5)xZ2",
        "order": "240",
        "generators": 3,
        "verified_brute_force": True,
    }


def test_group_shape_matches_aut_group():
    for params in canonical_params_up_to(8):
        shape, group = group_shape(params), aut_group(params)
        assert shape.generators == ()
        assert (group.kind, group.order, group.generator_count) == (
            shape.kind,
            shape.order,
            shape.generator_count,
        ), params
        assert len(group.generators) == group.generator_count, params


def test_aut_group_generators_are_automorphisms():
    for params in [GraphParams(4, 1, 2), GraphParams(5, 2, 3), GraphParams(6, 1, 4)]:
        g = build_inclusion_graph(params)
        for gen in aut_group(params).generators:
            assert is_automorphism(g, gen)


@pytest.mark.parametrize(
    "n,k,l,expect",
    [
        (4, 1, 2, 24),
        (4, 1, 3, 48),
        (5, 1, 2, 120),
        (5, 1, 4, 240),
        (5, 2, 3, 240),
        (6, 1, 2, 720),
        (6, 2, 3, 720),
    ],
)
def test_brute_force_aut_order(n, k, l, expect):
    g = build_inclusion_graph(GraphParams(n, k, l))
    assert brute_force_aut_order(g) == expect


def test_brute_force_petersen():
    # the Kneser graph K(5,2), whose group is Sym(5)
    assert brute_force_aut_order(build_johnson_graph(5, 2, 0)) == 120


def test_brute_force_long_path_needs_no_recursion():
    nv = sys.getrecursionlimit() + 200
    path = Graph(nv, [(v, v + 1) for v in range(nv - 1)])
    assert brute_force_aut_order(path) == 2


def cfi_k4(twisted):
    """(vertices, edges) of the Cai-Furer-Immerman graph over K4: for each
    base vertex, one vertex per even subset of its three edges and two per
    edge end, the ends of each base edge joined bit to bit, crosswise on the
    first edge when twisted.  Refinement cannot tell the plain graph from
    the twisted one, which are not isomorphic; each has 2^3 * 4! = 192
    automorphisms."""
    ids = {}

    def vid(key):
        return ids.setdefault(key, len(ids))

    base = list(combinations(range(4), 2))
    edges = []
    for v in range(4):
        ends = [e for e in base if v in e]
        for even in [()] + list(combinations(ends, 2)):
            edges += [(vid(("a", v, even)), vid(("b", v, e, e in even))) for e in ends]
    for i, (v, w) in enumerate(base):
        cross = twisted and i == 0
        edges += [(vid(("b", v, (v, w), bit)), vid(("b", w, (v, w), bit ^ cross))) for bit in (0, 1)]
    return len(ids), edges


def test_brute_force_backtracks_across_lookalike_components():
    # in P + P + T only the two plain copies can swap: 2 * 192^3.  Under a
    # shuffled labelling the classes left by refinement mix the components,
    # so some searches must back out of a branch whose traces agree
    rng = random.Random(3)
    parts = [cfi_k4(False), cfi_k4(False), cfi_k4(True)]
    for nv, edges in parts[1:]:
        assert brute_force_aut_order(Graph(nv, edges)) == 192
    edges, offset = [], 0
    for nv, part in parts:
        edges += [(u + offset, v + offset) for u, v in part]
        offset += nv
    label = list(range(offset))
    for _ in range(3):
        rng.shuffle(label)
        g = Graph(offset, [(label[u], label[v]) for u, v in edges])
        assert brute_force_aut_order(g) == 2 * 192**3


# at most 8 vertices: with equal weights the search grows fast, and on the
# 12-vertex Frucht graph it runs for more than 90 s
EQUAL_WEIGHT_GRAPHS = [
    pytest.param(5, [(v, (v + 1) % 5) for v in range(5)], id="C5"),
    pytest.param(5, [(v, v + 1) for v in range(4)], id="P5"),
    pytest.param(6, [(u, v) for u in range(3) for v in range(3, 6)], id="K3,3"),
    pytest.param(8, [(u, u | bit) for u in range(8) for bit in (1, 2, 4) if not u & bit], id="Q3"),
    pytest.param(8, [(v, (v + 1) % 6) for v in range(6)] + [(6, 7)], id="C6+K2"),
]


@pytest.mark.parametrize("nv,edges", EQUAL_WEIGHT_GRAPHS)
def test_brute_force_is_exact_when_every_colour_weighs_the_same(monkeypatch, nv, edges):
    # with one weight for every colour, refinement sees only degrees, so
    # most leaves the search reaches are not automorphisms and only the
    # check of each leaf map against the arcs keeps the order exact
    nx = pytest.importorskip("networkx")
    monkeypatch.setattr(automorphisms, "_color_weights", lambda size: np.ones(size, dtype=np.uint64))
    reference = nx.Graph(edges)
    matcher = nx.algorithms.isomorphism.GraphMatcher(reference, reference)
    expect = sum(1 for _ in matcher.isomorphisms_iter())
    assert brute_force_aut_order(Graph(nv, edges)) == expect


def test_certificate_bounds_meet_at_the_order():
    # U from the base chain, L from the verified generators, and the order
    # read off (n,k,l) agree; the search agrees too where it is cheap
    for params in canonical_params_up_to(11, min_n=5):
        g = build_inclusion_graph(params)
        order = group_shape(params).order
        lower = automorphisms._generated_order(g, *aut_group(params).generators)
        assert automorphisms._chain_bound(g) == lower == order, params
        assert certified_aut_order(g) == order, params
        if params.n <= 9:
            assert brute_force_aut_order(g) == order, params


def test_certificate_meets_below_five_points():
    # ts != st keeps A_3 out of the kernel at n = 3, and s^2 != 1 keeps V4
    # out at n = 4, so the relations prove Sym(n) there too, and the search
    # agrees
    for params in canonical_params_up_to(4):
        g = build_inclusion_graph(params)
        order = group_shape(params).order
        lower = automorphisms._generated_order(g, *aut_group(params).generators)
        assert automorphisms._chain_bound(g) == lower == order, params
        assert certified_aut_order(g) == order, params
        assert brute_force_aut_order(g) == order, params


def test_certificate_peaks_below_40_bytes_per_edge():
    # traced numpy allocations of one call at (14,4,7), 120,120 edges, with
    # the graph and its keys built first: 24.6 B per edge when refinement
    # reads the edge ends, 56.0 when it built and kept a CSR form (16 B per
    # edge) and summed each round over all 2m arcs
    g = build_inclusion_graph(GraphParams(14, 4, 7))
    g._keys
    tracemalloc.start()
    try:
        assert certified_aut_order(g) == factorial(14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * g.num_edges, peak / g.num_edges


@pytest.mark.parametrize("n", range(3, 10))
def test_moore_relations_on_the_ground_set(n):
    t = np.array((1, 0) + tuple(range(2, n)))
    s = np.roll(np.arange(n), -1)
    assert automorphisms._moore_relations(t, s, n)
    three_cycle = np.array((1, 2, 0) + tuple(range(3, n)))
    zero_two = np.array((2, 1, 0) + tuple(range(3, n)))
    bad = [(three_cycle, s), (t, np.arange(n))]
    if n > 3:  # on three points s^2 = s^-1 and (0 2) with s generate Sym(3)
        bad += [(t, s[s]), (zero_two, s)]
    if n == 4:
        # (1 2) and (0 2), the image of (0 1) and the 4-cycle in Sym(4)/V4 =
        # Sym(3), satisfy every relator and do not commute; only s^2 != 1
        # refuses them
        bad.append((np.array([0, 2, 1, 3]), np.array([2, 1, 0, 3])))
    for bad_t, bad_s in bad:
        assert not automorphisms._moore_relations(bad_t, bad_s, n)
    # on two more points, s also swaps them and t fixes them: only s^n
    # fails for odd n, and only (ts)^(n-1) for even n
    fixed, swap = np.array([n, n + 1]), np.array([n + 1, n])
    assert not automorphisms._moore_relations(
        np.concatenate((t, fixed)), np.concatenate((s, swap)), n
    )


@pytest.mark.parametrize("n,k,l", [(4, 1, 2), (4, 1, 3), (6, 2, 3), (7, 2, 5), (8, 3, 4)])
def test_lower_bound_refuses_wrong_generators(n, k, l):
    # each control is a pair of vertex permutations; the first three are
    # automorphisms that fail a relation, the fourth satisfies every relation
    # but is no automorphism, so only the edge check refuses it
    params = GraphParams(n, k, l)
    g = build_inclusion_graph(params)
    t, s, *tau = aut_group(params).generators
    rest = tuple(range(3, n))
    # t and s conjugated by a vertex permutation p: p t p^-1 sends p(v) to p(t(v))
    p = np.random.default_rng(0).permutation(g.num_vertices)
    moved_t, moved_s = (InducedAction(p[x.images][np.argsort(p)]) for x in (t, s))
    assert not is_automorphism(g, moved_t)
    controls = [
        (t, InducedAction(s.images[s.images])),
        (induced_action((1, 2, 0) + rest, params), s),
        (induced_action((2, 1, 0) + rest, params), s),
        (moved_t, moved_s),
    ]
    if n == 4:
        # sigma(1 2) and sigma(0 2): automorphisms that satisfy every relator
        # and do not commute, but generate Sym(3), the image of Sym(4) in
        # Sym(4)/V4; only s^2 != 1 refuses them
        controls.append((induced_action((0, 2, 1, 3), params), induced_action((2, 1, 0, 3), params)))
    assert automorphisms._moore_relations(moved_t.images, moved_s.images, n)
    for control in controls:
        assert automorphisms._generated_order(g, *control, *tau) == 1


def test_lower_bound_needs_a_tau_that_swaps_the_sides():
    params = GraphParams(7, 3, 4)
    g = build_inclusion_graph(params)
    t, s, tau = aut_group(params).generators
    assert automorphisms._generated_order(g, t, s, tau) == 2 * factorial(7)
    # a side-keeping automorphism in place of tau proves Sym(n) only
    assert automorphisms._generated_order(g, t, s, t) == factorial(7)
    # so does a permutation that swaps the sides but is no automorphism
    images = tau.images.copy()
    images[[0, 1]] = images[[1, 0]]
    assert automorphisms._generated_order(g, t, s, InducedAction(images)) == factorial(7)


def test_bipartition_behavior_of_full_group():
    # every automorphism preserves the two size classes or swaps them, and
    # swaps occur exactly when the classes have equal size (k + l = n)
    for params in [GraphParams(4, 1, 2), GraphParams(4, 1, 3)]:
        g = build_inclusion_graph(params)
        grp = aut_group(params)
        elements = close_group(list(grp.generators))
        assert len(elements) == grp.order == brute_force_aut_order(g)
        v1 = set(range(params.n1))
        swaps = 0
        for element in elements:
            image_of_v1 = set(element.images[: params.n1].tolist())
            assert image_of_v1 == v1 or image_of_v1.isdisjoint(v1)
            swaps += image_of_v1 != v1
        if params.k + params.l == params.n:
            assert swaps == grp.order // 2
        else:
            assert swaps == 0


@pytest.mark.parametrize("n,k,l", [(4, 1, 2), (5, 2, 3), (6, 1, 2)])
def test_pointwise_stabilizer_trivial(n, k, l):
    g = build_inclusion_graph(GraphParams(n, k, l))
    assert pointwise_stabilizer_trivial(g)


def test_fingerprint_values():
    g = build_inclusion_graph(GraphParams(5, 2, 3))
    sets = vertex_sets(g.params)
    pair01 = [(u, v) for u in range(10) for v in range(10) if len(sets[u] & sets[v]) == 1]
    pair00 = [(u, v) for u in range(10) for v in range(10) if u != v and not sets[u] & sets[v]]
    assert all(common_neighbor_fingerprint(g, u, v) == 1 for u, v in pair01)
    assert all(common_neighbor_fingerprint(g, u, v) == 0 for u, v in pair00)
    assert common_neighbor_fingerprint(g, 3, 3) == 3  # degree on the k-side

    g613 = build_inclusion_graph(GraphParams(6, 1, 3))
    assert common_neighbor_fingerprint(g613, 0, 1) == 4

    with pytest.raises(ValueError):
        common_neighbor_fingerprint(g, 0, g.v1_count)  # second vertex on l-side


def test_fingerprint_determines_intersection_size():
    for params in canonical_params_up_to(6):
        g = build_inclusion_graph(params)
        n, k, l = params.n, params.k, params.l
        lo = max(2 * k - l, 0)
        formula = {i: binom(n - 2 * k + i, l - 2 * k + i) for i in range(lo, k)}
        assert len(set(formula.values())) == len(formula)  # injective per instance
        sets = vertex_sets(params)
        for u in range(g.v1_count):
            for v in range(u + 1, g.v1_count):
                i = len(sets[u] & sets[v])
                fp = common_neighbor_fingerprint(g, u, v)
                assert fp == formula.get(i, 0)


def test_orbit_counts():
    params = GraphParams(4, 1, 2)
    g = build_inclusion_graph(params)
    gens = aut_group(params).generators
    assert orbit_count(g, gens, on="edges") == 1
    assert orbit_count(g, gens, on="arcs") == 2  # r1 != r2 pins the two classes
    assert orbit_count(g, gens, on="vertices") == 2

    params = GraphParams(5, 2, 3)
    g = build_inclusion_graph(params)
    gens = aut_group(params).generators
    assert orbit_count(g, gens, on="edges") == 1
    assert orbit_count(g, gens, on="arcs") == 1
    assert orbit_count(g, gens, on="vertices") == 1


def test_orbit_count_rejects_non_automorphism():
    g = build_inclusion_graph(GraphParams(4, 1, 2))
    images = list(range(10))
    images[0], images[4] = images[4], images[0]
    swap = InducedAction(tuple(images))
    gens = aut_group(GraphParams(4, 1, 2)).generators
    for on in ("vertices", "edges", "arcs"):
        # a bad generator after good ones, and on its own
        for bad in ([*gens, swap], [swap]):
            with pytest.raises(ValueError, match="not an automorphism"):
                orbit_count(g, bad, on=on)
        with pytest.raises(ValueError, match="acts on 3 vertices"):
            orbit_count(g, [InducedAction((0, 1, 2))], on=on)
    with pytest.raises(ValueError):
        orbit_count(g, gens, on="faces")


def test_arc_orbits_do_not_depend_on_where_tau_sits():
    for params in canonical_params_up_to(8):
        g = build_inclusion_graph(params)
        sigmas = aut_group(params).generators[:2]
        # sigma keeps the k-vertices before the l-vertices, so it reverses
        # no edge and every edge class holds two arc orbits
        assert orbit_count(g, sigmas, on="arcs") == 2 * orbit_count(g, sigmas, on="edges")
        if params.k + params.l == params.n:
            # tau reverses every edge: one arc orbit wherever it sits
            tau = tau_action(params)
            for gens in ([tau, *sigmas], [sigmas[0], tau, sigmas[1]], [*sigmas, tau]):
                assert orbit_count(g, gens, on="arcs") == 1, params
        else:
            # tau's vertex reversal, where n1 < n2: it maps the first
            # l-vertex and its k-neighbours into the l-side
            reversal = InducedAction(np.arange(g.num_vertices)[::-1])
            for gens in ([reversal, *sigmas], [*sigmas, reversal]):
                with pytest.raises(ValueError, match="not an automorphism"):
                    orbit_count(g, gens, on="vertices")


def closure_orbit_count(g, generators, on):
    """Orbits counted in pure Python: vertices as 1-tuples, edges as sorted
    pairs, arcs as ordered pairs, each orbit grown by applying every
    generator until nothing new appears (a finite group needs no inverses)."""
    edges = [tuple(e) for e in g.edges().tolist()]
    objects = {
        "vertices": [(v,) for v in range(g.num_vertices)],
        "edges": edges,
        "arcs": edges + [(v, u) for u, v in edges],
    }[on]
    seen, count = set(), 0
    for x in objects:
        if x in seen:
            continue
        count += 1
        seen.add(x)
        stack = [x]
        while stack:
            y = stack.pop()
            for action in generators:
                z = tuple(action.images[v] for v in y)
                z = tuple(sorted(z)) if on == "edges" else z
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
    return count


def actions(*maps):
    """Vertex actions from image lists."""
    return [InducedAction(tuple(images)) for images in maps]


def petersen():
    """The Petersen graph drawn as an outer 5-cycle 0..4, spokes i - i+5 and
    an inner pentagram, with its dihedral generators."""
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    rotate = [(v + 1) % 5 + v // 5 * 5 for v in range(10)]
    reflect = [-v % 5 + v // 5 * 5 for v in range(10)]
    return Graph(10, [sorted(e) for e in edges]), actions(rotate, reflect)


def cycle(nv):
    """The cycle graph C_nv with its rotation and reflection."""
    edges = [(i, i + 1) for i in range(nv - 1)] + [(0, nv - 1)]
    rotate, reflect = [(v + 1) % nv for v in range(nv)], [-v % nv for v in range(nv)]
    return Graph(nv, edges), actions(rotate, reflect)


def test_orbit_count_matches_pure_python_closure():
    cases = []
    for params in canonical_params_up_to(6):
        gens = aut_group(params).generators
        subsets = [c for r in range(1, len(gens) + 1) for c in combinations(gens, r)]
        cases += [(str(params), build_inclusion_graph(params), c) for c in subsets]
    for name, (g, gens) in (("petersen", petersen()), ("C12", cycle(12))):
        cases += [(name, g, c) for c in ([gens[0]], [gens[1]], gens)]
    for name, g, gens in cases:
        assert all(is_automorphism(g, a) for a in gens), name
        for on in ("vertices", "edges", "arcs"):
            expect = closure_orbit_count(g, gens, on)
            assert orbit_count(g, gens, on=on) == expect, (name, len(gens), on)
    # D5 on the Petersen graph: outer and inner vertices; outer, spoke and
    # inner edges; the spokes' two directions stay apart
    g, gens = petersen()
    assert [orbit_count(g, gens, on=on) for on in ("vertices", "edges", "arcs")] == [2, 3, 4]
    # D12 on C12: neither the rotation nor the reflection v -> -v maps an
    # edge onto itself, but their product v -> 1 - v reverses the edge
    # {0, 1}, so only a chain of two links closes an odd cycle
    g, gens = cycle(12)
    assert [orbit_count(g, gens, on=on) for on in ("vertices", "edges", "arcs")] == [1, 1, 1]
    assert orbit_count(g, gens[:1], on="arcs") == 2
    # C8(2), two 4-cycles of edges {v, v + 2}, under v -> v + 1 and v -> 5v:
    # no v -> av + b with a in {1, 5} reverses an edge (that needs 2a + 2 = 0
    # mod 8), but v -> 5v flips some edge and not its preimage, so a flip
    # read at the image instead of the preimage joins the arcs
    g = Graph(8, [sorted((v, (v + 2) % 8)) for v in range(8)])
    gens = actions([(v + 1) % 8 for v in range(8)], [5 * v % 8 for v in range(8)])
    expect = [closure_orbit_count(g, gens, on) for on in ("vertices", "edges", "arcs")]
    assert expect == [orbit_count(g, gens, on=on) for on in ("vertices", "edges", "arcs")]
    assert expect == [1, 1, 2]


@pytest.mark.parametrize("nkl", [(13, 5, 8), (15, 4, 6)])
def test_orbit_count_on_arcs_costs_about_what_edges_cost(nkl):
    # arcs are the edges with a direction parity, not 2m objects of their
    # own; traced numpy allocations, peak of one call on each object set
    params = GraphParams(*nkl)
    g = build_inclusion_graph(params)
    gens = aut_group(params).generators
    peaks = {}
    for on in ("edges", "arcs"):
        tracemalloc.start()
        try:
            orbit_count(g, gens, on=on)
            peaks[on] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["arcs"] <= 1.3 * peaks["edges"], peaks


def test_orbit_count_peaks_below_50_bytes_per_edge():
    # traced numpy allocations of one call at (13,5,8), 72,072 edges: 49 B
    # per edge, 57 when pointer jumping kept the caller's labels beside two
    # jumped copies, 65 when every link carried an identity array beside its map
    params = GraphParams(13, 5, 8)
    g = build_inclusion_graph(params)
    gens = aut_group(params).generators
    for on in ("edges", "arcs"):
        tracemalloc.start()
        try:
            orbit_count(g, gens, on=on)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 50 * g.num_edges, (on, peak / g.num_edges)


def test_orbit_count_on_subset_graph_matches_the_generic_graph():
    # the SubsetGraph reads its edges off its rank rows, the generic Graph
    # off the keys it sorted; the counts do not depend on how they are read
    for params in canonical_params_up_to(8):
        g = build_inclusion_graph(params)
        generic = Graph(g.num_vertices, g.edges())
        gens = aut_group(params).generators
        subsets = [c for r in range(1, len(gens) + 1) for c in combinations(gens, r)]
        for on in ("vertices", "edges", "arcs"):
            for c in subsets:
                assert orbit_count(g, c, on=on) == orbit_count(generic, c, on=on), (params, on)
        # a k-vertex swapped with an l-vertex is never an automorphism
        images = np.arange(g.num_vertices)
        images[[0, -1]] = images[[-1, 0]]
        swap = InducedAction(images)
        for graph in (g, generic):
            assert not is_automorphism(graph, swap)
            for on in ("vertices", "edges", "arcs"):
                with pytest.raises(ValueError, match="not an automorphism"):
                    orbit_count(graph, [*gens, swap], on=on)


def test_orbit_count_reads_only_the_rank_rows():
    # the rank rows and the keys made from them, and nothing else, are held
    held = {"num_vertices", "num_edges", "ranks", "params", "v1_count", "_keys"}
    for params in canonical_params_up_to(8):
        g = build_inclusion_graph(params)
        gens = aut_group(params).generators
        for on in ("vertices", "edges", "arcs"):
            orbit_count(g, gens, on=on)
        pointwise_stabilizer_trivial(g)
        assert set(vars(g)) == held, params


@pytest.mark.parametrize("on,limit", [("vertices", 5.0e6), ("edges", 6.8e6)])
def test_orbit_count_with_its_build_holds_no_k_side_rows(on, limit):
    # traced numpy allocations of the build plus the count at (15,4,6):
    # 75,075 edges, 0.6 MB an int64 array of them.  With the k-side rows
    # sorted at build and an (m, 2) edge copy, the peaks were 5.56 and 7.34 MB
    params = GraphParams(15, 4, 6)
    gens = aut_group(params).generators
    tracemalloc.start()
    try:
        orbit_count(build_inclusion_graph(params), gens, on=on)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, peak


def test_orbit_count_on_a_long_cycle_is_not_a_frontier_search():
    # one rotation of C_100000: a search that grows orbits one step at a
    # time would need about 10^5 rounds
    g, (rotation, _) = cycle(100_000)
    for on, expect in (("vertices", 1), ("edges", 1), ("arcs", 2)):
        start = time.perf_counter()
        assert orbit_count(g, [rotation], on=on) == expect
        assert time.perf_counter() - start < 1.0, on


@pytest.mark.parametrize(
    "n,k,expect",
    [(4, 1, 24), (4, 2, 48), (5, 2, 120), (6, 2, 720), (6, 3, 1440)],
)
def test_johnson_graph_aut_orders(n, k, expect):
    # the relation graph at intersection k-1; doubled order exactly at k = n/2
    g = build_johnson_graph(n, k, k - 1)
    assert brute_force_aut_order(g) == expect
    if k < n / 2:
        assert expect == factorial(n)
    else:
        assert expect == 2 * factorial(n)


def test_full_64_element_ground_set():
    # the last vertex holds element n - 1 (bit 63 of a mask at n = 64, past
    # any 64-bit word at n = 65); τ pairs each subset of G(n,1,n-1) with its
    # complement in the ground set
    cases = [
        ((64, 1, 2), (2, 1, 2)), ((64, 1, 63), (1, 1, 1)),
        ((65, 1, 2), (2, 1, 2)), ((65, 1, 64), (1, 1, 1)),
    ]
    for (n, k, l), expect in cases:
        params = GraphParams(n, k, l)
        g = build_inclusion_graph(params)
        sets = vertex_sets(params)
        assert max(sets[-1]) == n - 1
        firsts = (0, params.n1)  # each class is numbered by colex rank
        assert all(subset_rank(mask_of(s)) == v - firsts[len(s) == l] for v, s in enumerate(sets))
        gens = aut_group(params).generators
        counts = tuple(orbit_count(g, gens, on=on) for on in ("vertices", "edges", "arcs"))
        assert counts == expect
        if k + l == n:
            tau, full = tau_action(params), frozenset(range(n))
            assert is_automorphism(g, tau)
            assert all(sets[tau.images[v]] == full - s for v, s in enumerate(sets))
