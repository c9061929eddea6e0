"""Helpers that only the tests need: every canonical parameter triple up to
a bound, the check that each preflight row's bits bound its size,
connectivity by the package's union-find, and the product and identity test
of vertex actions."""

import numpy as np

from setincl import cli
from setincl.automorphisms import InducedAction
from setincl.graphs import GraphParams, canonicalize, component_labels


def canonical_params_up_to(max_n: int, min_n: int = 3):
    """Yield every canonical GraphParams with min_n <= n <= max_n."""
    for n in range(min_n, max_n + 1):
        for k in range(1, n // 2 + 1):
            for l in range(k + 1, min(n - k, n - 1) + 1):
                yield GraphParams(n, k, l)


# each command that builds, with its flags
_BUILDING_CALLS = [
    ["verify"], ["verify", "--line"], ["aut", "--brute-force"], ["orbits", "--on", "edges"], ["export"]
]


def assert_bounds_are_lower_bounds(n, k, l=None):
    """Check 2^bits <= size() on every row that cli._bounds yields for each
    building command at (n,k,l), or for scheme --check at (n,k) when l is
    None: every row, whatever the rows before it would decide."""
    for command, *flags in [["scheme", "--check"]] if l is None else _BUILDING_CALLS:
        argv = [command, *(str(x) for x in (n, k, l) if x is not None), *flags]
        args = cli._PARSER.parse_args(argv)
        if l is not None:
            args.params = canonicalize(GraphParams(n, k, l))[0]
        rows = list(cli._bounds(args, cli.MAX_VERTICES))
        assert rows, argv
        for bits, size, _, message in rows:
            assert 0 <= bits and 1 << bits <= size(), (argv, message)


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
