"""Exact spectra, explicit constructions and automorphism-group tools for
set-inclusion graphs and the intersection-relation families on k-subsets."""

from . import automorphisms, combinatorics, graphs, spectra
from .automorphisms import *  # noqa: F403
from .combinatorics import *  # noqa: F403
from .errors import CapExceededError
from .graphs import *  # noqa: F403
from .spectra import *  # noqa: F403

__all__ = [
    "CapExceededError",
    *combinatorics.__all__,
    *graphs.__all__,
    *spectra.__all__,
    *automorphisms.__all__,
]
