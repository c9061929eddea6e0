"""Every limit on what setincl builds, each written once, as a row of TABLE: a
size from (n,k,l) at most work*cap^power under the one cap, or the fixed
limit work (numpy's array bytes, Graph's vertices).  The CLI checks the rows
of its command line, ROWS[call], before it builds; the library, the rows of
what it builds.  Nothing here imports numpy."""

import math
import sys
from functools import cached_property
from typing import Callable, NamedTuple

from .errors import CapExceededError

MAX_VERTICES = 2000  # default cap of verify's solve, aut's certificate and scheme's count
# Gram products of GRAM_WORK*cap^3 multiply-adds take about as long as the
# dense solve at dimension cap: about 1.1 s each at cap 2000 on one thread of
# a 2-vCPU Xeon (BLAS symmetric rank-k update and eigvalsh)
GRAM_WORK = 6
# aut's certificate visits at most n*2m arcs; CERT_WORK*cap^2 visits take 0.6-1.1 s
# at cap 2000 (1.4-2.8e-8 s each from 4e5 visits up, numpy 2.4, one 2-vCPU Xeon thread)
CERT_WORK = 10
# scheme --check's count of SCHEME_WORK*cap^2 entries takes 0.5-1.3 s at cap 2000 (2-vCPU Xeon)
SCHEME_WORK = 10
_ARRAY_MAX = sys.maxsize  # numpy's limit on the bytes of one array, np.iinfo(np.intp).max
_VERTEX_MAX = math.isqrt(2**63 - 1)  # Graph's int64 edge keys are below num_vertices^2


def _size(x: int) -> str:
    """x in full up to 30 digits, else its digit count, so that a cap
    message stays one short line however large the parameters are."""
    text = str(x)
    return text if len(text) <= 30 else f"a {len(text)}-digit number"


def _binom_bits(n: int, l: int) -> int:
    """An integer N with 2^N <= C(n,l), for 0 <= l <= n, from C(n,l) >=
    (n/m)^m with m = min(l, n-l): log2(n/m) in 32-bit fixed point, rounded
    down past the error of the two float logarithms."""
    m = min(l, n - l)
    if m == 0:
        return 0
    high = math.log2(n)
    return m * math.floor((high - math.log2(m) - high * 2**-49) * 2**32) >> 32


class Sizes:
    """The sizes of G(n,k,l), from n, k and l, each computed once, when first
    read: n1 = C(n,k) and n2 = C(n,l) vertices, r1 = C(n-k,l-k) and r2 = C(l,k)
    the degrees of a k- and an l-vertex, nv = n1 + n2 vertices in all, and
    b1, b2 and br, each an N with 2^N <= n1, n2 (so nv) and r2."""

    def __init__(self, **nkl):
        self.__dict__.update(nkl)

    n1 = cached_property(lambda q: math.comb(q.n, q.k))
    n2 = cached_property(lambda q: math.comb(q.n, q.l))
    r1 = cached_property(lambda q: math.comb(q.n - q.k, q.l - q.k))
    r2 = cached_property(lambda q: math.comb(q.l, q.k))
    nv = cached_property(lambda q: q.n1 + q.n2)
    b1 = cached_property(lambda q: _binom_bits(q.n, q.k))
    b2 = cached_property(lambda q: _binom_bits(q.n, q.l))
    br = cached_property(lambda q: _binom_bits(q.l, q.k))


class Row(NamedTuple):
    """A limit on the command lines calls: size(q), {} in message, is at most
    work*cap^power; bits(q) is an N with 2^N <= size(q), or -1 for 0; help
    is the --help phrase of a row under the cap, {} for bound("cap")."""

    calls: tuple
    message: str
    bits: Callable[[Sizes], int]
    size: Callable[[Sizes], int]
    work: int
    power: int = 0
    help: str = ""

    def bound(self, cap: str) -> str:
        """The limit, with the text cap for the cap."""
        work = "" if self.work == 1 else f"{self.work}*"
        return work + cap + ("" if self.power == 1 else f"^{self.power}")


def check(rows, q: Sizes, cap: int = MAX_VERTICES) -> None:
    """Raise CapExceededError at the first of rows whose size passes its limit: on
    its bits when 64 past the limit's, so no huge binomial is computed, else exactly."""
    for row in rows:
        limit, bits = row.work * cap**row.power, row.bits(q)
        size = None if bits >= limit.bit_length() + 64 else row.size(q)
        if size is None or size > limit:
            text = row.message.format(f"more than 2^{_size(bits)}" if size is None else _size(size))
            if row.power:
                c, bound = _size(cap), row.bound(_size(cap))
                text += f", cap is {bound}" if bound == c else f", cap is {bound} = {_size(limit)}"
            raise CapExceededError(text)


def _array(calls, what, bits, size) -> Row:
    return Row(calls, f"byte count of the {what} is {{}}, numpy's array limit is {_ARRAY_MAX}",
               bits, size, _ARRAY_MAX)


_BUILDS = ("verify", "verify --line", "aut --brute-force", "orbits", "export")
L_SUBSET_ROWS = _array(_BUILDS, "l-subset rows", lambda q: (8 * q.l).bit_length() - 1 + q.b2,
                       lambda q: 8 * q.l * q.n2)  # int64 elements
K_SUBSET_ROWS = _array(("scheme --check",), "k-subset rows",
                       lambda q: (8 * q.k).bit_length() - 1 + q.b1,
                       lambda q: 8 * q.k * q.n1)  # int64 elements
VERTICES = Row(_BUILDS[2:], f"graph has {{}} vertices, its int64 edge keys allow {_VERTEX_MAX}",
               lambda q: q.b2, lambda q: q.nv, _VERTEX_MAX)
# the rows under the cap, then numpy's array limit, then the vertex limit
TABLE = (
    Row(("scheme --check",), "scheme count has {} entries",
        lambda q: (q.k + 1).bit_length() - 1 + q.b1, lambda q: (q.k + 1) * q.n1,
        SCHEME_WORK, 2, "the count of --check: (k+1)*C(n,k) entries <= {}"),
    Row(("verify",), "verify solves dimension {}", lambda q: q.b1, lambda q: q.n1, 1, 1,
        "the solved dimension n1 <= {}"),
    Row(("verify --line",), "verify solves dimension {}", lambda q: q.b2, lambda q: q.nv, 1, 1,
        "n1+n2 <= {} with --line"),
    Row(_BUILDS[:2], "rank array has {} entries", lambda q: q.b2 + q.br, lambda q: q.n2 * q.r2,
        1, 2, "rank array n2*r2 <= {}"),
    Row(("verify",), "Gram matrix takes {} multiply-adds", lambda q: 2 * q.b1 + q.b2,
        lambda q: q.n1**2 * q.n2, GRAM_WORK, 3, "Gram products n1^2*n2 <= {}"),
    # at most n refined colourings, one pass over the 2m arcs each
    Row(("aut --brute-force",), "certificate takes {} arc visits",
        lambda q: (2 * q.n).bit_length() - 1 + q.br + q.b2, lambda q: 2 * q.n * q.r2 * q.n2,
        CERT_WORK, 2, "the --brute-force certificate: n*2m arc visits (m edges) <= {}"),
    K_SUBSET_ROWS,
    L_SUBSET_ROWS,
    _array(_BUILDS, "arcs", lambda q: 4 + q.br + q.b2, lambda q: 16 * q.r2 * q.n2),  # int64 pairs
    _array(("verify",), "dense matrix", lambda q: 3 + 2 * q.b1, lambda q: 8 * q.n1**2),  # float64
    _array(("verify --line",), "dense matrix", lambda q: 3 + 2 * q.b2, lambda q: 8 * q.nv**2),
    VERTICES,
)
ROWS = {call: tuple(row for row in TABLE if call in row.calls)
        for row in TABLE for call in row.calls}


def help_text(command: str):
    """The --help description of command, what the cap bounds, or None."""
    phrases = [row.help.format(row.bound("cap")) for row in TABLE
               if row.help and any(call.split()[0] == command for call in row.calls)]
    if len(phrases) > 1:
        phrases[-2:] = [f"{phrases[-2]} and {phrases[-1]}"]
    if phrases:
        return f"The cap SETINCL_MAX_VERTICES (default {MAX_VERTICES}) bounds {', '.join(phrases)}."
