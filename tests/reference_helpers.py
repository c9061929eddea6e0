"""Helpers that only the tests need: every canonical parameter triple up to
a bound, connectivity by the package's union-find, and the product and
identity test of vertex actions."""

import numpy as np

from setincl.automorphisms import InducedAction
from setincl.graphs import GraphParams, component_labels


def canonical_params_up_to(max_n: int, min_n: int = 3):
    """Yield every canonical GraphParams with min_n <= n <= max_n."""
    for n in range(min_n, max_n + 1):
        for k in range(1, n // 2 + 1):
            for l in range(k + 1, min(n - k, n - 1) + 1):
                yield GraphParams(n, k, l)


def is_connected(g) -> bool:
    """True when g has a single connected component (empty graph counts as
    connected only if it has at most one vertex), by the package's
    union-find."""
    nv = g.num_vertices
    if nv <= 1:
        return True
    labels = component_labels(nv, [g.edges().T])[0]
    return np.count_nonzero(labels == np.arange(nv)) == 1


def compose(a: InducedAction, b: InducedAction) -> InducedAction:
    """Action applying b first, then a."""
    return InducedAction(a.images[b.images])


def is_identity(a: InducedAction) -> bool:
    return np.array_equal(a.images, np.arange(len(a.images)))
