"""Command-line front end: exact spectra, oracle verification, automorphism
reports, orbit counts, graph export and scheme checking.

Exit codes: 0 success, 1 verification failure, 2 resource cap exceeded or
out of memory, 64 usage error.  Machine output goes to stdout, diagnostics
to stderr.

Caps are checked here only, before anything is built, by one rule on the
rows of _bounds: one cap, SETINCL_MAX_VERTICES (default 2000, read on
every call), for verify, aut --brute-force and scheme --check, and numpy's
array limit for all.  A size whose lower bound 2^N is far past its cap is
refused on N alone, with no exact binomial; any other is computed exactly.
A cap, from a flag or the environment, must be a positive integer and --tol
a finite nonnegative number; anything else is a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# brute_force_aut_order is called through this module's binding, which
# perfbench/spans.py looks up to trace the search
from .automorphisms import (
    aut_group,
    brute_force_aut_order,
    certified_aut_order,
    group_shape,
    orbit_count,
)
from .errors import CapExceededError
# build_line_graph is not called here; the name stays bound because
# perfbench/spans.py looks it up in this module to trace it
from .graphs import (  # noqa: F401
    _ARRAY_MAX,
    GraphParams,
    build_inclusion_graph,
    build_line_graph,
    canonicalize,
    export_graph,
    inclusion_ranks,
    johnson_scheme_holds,
)
from .spectra import (
    compare_spectra,
    eigensolver_oracle,
    expand_reduced,
    format_eigenvalue,
    reduced_matrix,
    spectrum_inclusion,
    spectrum_line_inclusion,
)

EX_OK = 0
EX_VERIFY_FAIL = 1
EX_CAP = 2
EX_USAGE = 64

MAX_VERTICES = 2000  # default cap of verify's solve, aut's certificate and scheme's matrices
# Gram products of GRAM_WORK*cap^3 multiply-adds take about as long as the
# dense solve at dimension cap: about 1.1 s each at cap 2000 on one thread of
# a 2-vCPU Xeon (BLAS symmetric rank-k update and eigvalsh)
GRAM_WORK = 6
# aut's certificate visits at most n*2m arcs; CERT_WORK*cap^2 visits take about
# 1 s at cap 2000 (1.7-2.5e-8 s each from 3e6 visits up, one 2-vCPU Xeon thread)
CERT_WORK = 10
# Python 3.10.7 and later limit int <-> str conversion to 4300 digits
_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")


def _env_cap(name: str, default: int) -> int:
    value = os.environ.get(name)
    if not value:
        return default
    try:
        cap = int(value)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if cap < 1:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return cap


def _positive_int(text: str) -> int:
    """argparse type for caps: a cap below 1 is a usage error, not a cap hit."""
    try:
        value = int(text)
    except ValueError:
        value = 0  # rejected below
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """argparse type for --tol: finite and nonnegative."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # rejected below
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EX_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="setincl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("n", type=int)
        p.add_argument("k", type=int)
        p.add_argument("l", type=int)

    p = sub.add_parser("spectrum", help="print the exact spectrum")
    add_params(p)
    p.add_argument("--line", action="store_true", help="spectrum of the line graph")
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.add_argument("--out", help="write to this path instead of stdout")

    p = sub.add_parser("verify", help="compare the exact spectrum with the numeric solver")
    add_params(p)
    p.add_argument("--line", action="store_true")
    p.add_argument("--tol", type=_tolerance, default=1e-8)
    p.add_argument(
        "--max-vertices",
        type=_positive_int,
        help="cap on the solved dimension, n1 (n1+n2 with --line); it also bounds "
        "the rank array (n2*r2 <= cap^2) and the Gram products "
        f"(n1^2*n2 <= {GRAM_WORK}*cap^3)",
    )
    p.add_argument("--inject-perturbation", type=float, default=0.0, help=argparse.SUPPRESS)

    p = sub.add_parser("aut", help="automorphism group report")
    add_params(p)
    p.add_argument(
        "--brute-force",
        action="store_true",
        help="check the order on the built graph: by upper and lower bounds that "
        "must meet, else by orbit-stabiliser search",
    )
    p.add_argument("--max-vertices", type=_positive_int, help="cap on the certificate's "
                   f"work: n*2m arc visits <= {CERT_WORK}*cap^2, for m edges")
    p.add_argument("--format", choices=["table", "json"], default="table")

    p = sub.add_parser("orbits", help="orbit counts under the automorphism group")
    add_params(p)
    p.add_argument("--on", choices=["vertices", "edges", "arcs"], required=True)

    p = sub.add_parser("export", help="write the graph in an interchange format")
    add_params(p)
    p.add_argument("--format", choices=["edgelist", "graph6", "dot"], default="edgelist")
    p.add_argument("--out", help="write to this path instead of stdout")

    p = sub.add_parser("scheme", help="intersection numbers of the scheme on k-subsets")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--check", action="store_true", help="verify the identities on explicit matrices")
    p.add_argument("--max-dim", type=_positive_int)
    return parser


_PARSER = _build_parser()


def _size(x: int) -> str:
    """x in full up to 30 digits, else its digit count, so that a cap
    message stays one short line however large the parameters are."""
    text = str(x)
    return text if len(text) <= 30 else f"a {len(text)}-digit number"


# a row whose lower bound passes this many bits, and its cap by 64 bits, is
# refused on the bound: the exact C(10^6, 4*10^5), 1.0e6 bits, takes seconds
_BOUND_BITS = 1 << 16


def _binom_bits(n: int, l: int) -> int:
    """An integer N with 2^N <= C(n,l), for 0 <= l <= n, from C(n,l) >=
    (n/m)^m with m = min(l, n-l): log2(n/m) in 32-bit fixed point, rounded
    down past the error of the two float logarithms."""
    m = min(l, n - l)
    if m == 0:
        return 0
    high = math.log2(n)
    return m * math.floor((high - math.log2(m) - high * 2**-49) * 2**32) >> 32


def _array_row(what: str) -> str:
    """The message of numpy's array limit on what, with {} for its bytes."""
    return f"byte count of the {what} is {{}}, numpy's array limit is {_ARRAY_MAX}"


def _bounds(args, max_vertices: int):
    """Yield the (bits, size, cap, message) rows of the command in args, in
    order: the command's caps, then numpy's array limit on what it builds.
    Each is from (n,k,l) and the flags alone.  bits is an N with 2^N <=
    size(), the sum of a lower bound on each binomial factor and on the small
    exact ones; size() is the exact size; the message has {} for the size."""
    cmd = args.command
    if cmd == "scheme" and args.check:
        n, cap = args.n, args.max_dim or max_vertices
        n1, bits = (lambda: math.comb(n, args.k)), _binom_bits(n, args.k)
        yield bits, n1, cap, f"matrix dimension {{}} exceeds cap {_size(cap)}"
        # float32: the incidence matrix (n1 x n) and the n1 x n1 products
        yield 2 + 2 * bits, lambda: 4 * n1() * max(n, n1()), _ARRAY_MAX, _array_row("k-subset matrices")
    elif cmd in ("verify", "orbits", "export") or cmd == "aut" and args.brute_force:
        p = args.params
        b1, b2, br = _binom_bits(p.n, p.k), _binom_bits(p.n, p.l), _binom_bits(p.l, p.k)
        if cmd == "verify":
            cap = args.max_vertices or max_vertices
            c = _size(cap)
            # the solved dimension; n2 >= n1, since k < l <= n - k
            dim_bits, dim = (b2, lambda: p.n1 + p.n2) if args.line else (b1, lambda: p.n1)
            yield dim_bits, dim, cap, f"verify solves dimension {{}}, cap is {c}"
            yield b2 + br, lambda: p.n2 * p.r2, cap**2, (
                f"rank array has {{}} entries, cap is {c}^2 = {_size(cap**2)}")
            if not args.line:
                yield 2 * b1 + b2, lambda: p.n1**2 * p.n2, GRAM_WORK * cap**3, (
                    f"Gram matrix takes {{}} multiply-adds, "
                    f"cap is {GRAM_WORK}*{c}^3 = {_size(GRAM_WORK * cap**3)}")
        elif cmd == "aut":  # at most n refined colourings, one pass over the 2m arcs each
            cap = args.max_vertices or max_vertices
            visit_bits = (2 * p.n).bit_length() - 1 + br + b2
            yield visit_bits, lambda: p.n * 2 * p.r2 * p.n2, CERT_WORK * cap**2, (
                f"certificate takes {{}} arc visits, "
                f"cap is {CERT_WORK}*{_size(cap)}^2 = {_size(CERT_WORK * cap**2)}")
        # int64 l-subset rows and arcs; verify's rank array is half the arcs
        rows_bits = (8 * p.l).bit_length() - 1 + b2
        yield rows_bits, lambda: 8 * p.l * p.n2, _ARRAY_MAX, _array_row("l-subset rows")
        yield 4 + br + b2, lambda: 16 * p.r2 * p.n2, _ARRAY_MAX, _array_row("arcs")
        if cmd == "verify":  # float64
            yield 3 + 2 * dim_bits, lambda: 8 * dim() ** 2, _ARRAY_MAX, _array_row("dense matrix")


def _preflight(argv):
    """Parse argv and validate the parameters (canonicalizing any (n,k,l),
    with a note), then refuse the command at the first row of _bounds past
    its cap, on the row's bound N when that is past _BOUND_BITS and 64 bits
    past the cap.  The environment cap is read, and so validated, first."""
    max_vertices = _env_cap("SETINCL_MAX_VERTICES", MAX_VERTICES)
    args = _PARSER.parse_args(argv)
    # argv is read under the digit limit; what follows from it, such as
    # C(n,k) in a cap message or n! in a report, may be longer
    if _DIGIT_LIMIT:
        sys.set_int_max_str_digits(0)
    if args.command == "scheme":
        if not (0 <= args.k and 2 * args.k <= args.n):
            raise ValueError(f"need 0 <= k <= n/2, got n={args.n}, k={args.k}")
    else:
        p, complemented = canonicalize(GraphParams(args.n, args.k, args.l))
        if complemented:
            sys.stderr.write(
                f"note: ({args.n},{args.k},{args.l}) canonicalized to "
                f"({p.n},{p.k},{p.l}) via complementation\n"
            )
        args.params = p
    for bits, size, cap, message in _bounds(args, max_vertices):
        if bits > _BOUND_BITS and bits >= cap.bit_length() + 64:
            raise CapExceededError(message.format(f"more than 2^{_size(bits)}"))
        exact = size()
        if exact > cap:
            raise CapExceededError(message.format(_size(exact)))
    return args


def _cmd_spectrum(args) -> int:
    params = args.params
    spec = spectrum_line_inclusion(params) if args.line else spectrum_inclusion(params)
    if args.format == "json":
        text = spec.to_json_text() + "\n"
    elif args.format == "csv":
        text = spec.to_csv_text()
    else:
        values = [format_eigenvalue(ev) for ev, _ in spec.entries]
        width = max(map(len, values))
        text = "".join(f"{v:>{width}}  {m}\n" for v, (_, m) in zip(values, spec.entries))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EX_OK


def _cmd_verify(args) -> int:
    params = args.params
    ranks = inclusion_ranks(params)
    mu = eigensolver_oracle(reduced_matrix(ranks, params.n1, args.line))
    numeric = expand_reduced(mu, ranks, args.line)
    exact = spectrum_line_inclusion(params) if args.line else spectrum_inclusion(params)
    if args.inject_perturbation:
        numeric[0] += args.inject_perturbation
    report = compare_spectra(exact, numeric, args.tol)
    label = "line graph" if args.line else "graph"
    status = "PASS" if report.passed else "FAIL"
    print(
        f"verify ({params.n},{params.k},{params.l}) {label}: "
        f"max deviation {report.max_deviation:.3e} "
        f"(tol {report.tolerance:g} * scale {report.scale:g}) -> {status}"
    )
    if report.passed:
        return EX_OK
    worst = exact.eigenvalue_at(report.worst_index)
    sys.stderr.write(
        f"setincl: worst pair at index {report.worst_index}: exact "
        f"{format_eigenvalue(worst)} ({float(worst):.17g}), "
        f"numeric {report.worst_numeric:.17g}\n"
    )
    return EX_VERIFY_FAIL


def _cmd_aut(args) -> int:
    group = group_shape(args.params)
    verified = None
    if args.brute_force:
        graph = build_inclusion_graph(args.params)
        # the search runs only where the two bounds do not meet, such as n < 5
        oracle_order = certified_aut_order(graph) or brute_force_aut_order(graph)
        verified = oracle_order == group.order
    if args.format == "json":
        print(json.dumps(group.to_json_dict(verified_brute_force=verified)))
    else:
        print(f"kind:  {group.kind}")
        print(f"order: {group.order}")
        print(f"generators: {group.generator_count}")
        if args.brute_force:
            print(f"brute-force order: {oracle_order} ({'agree' if verified else 'DISAGREE'})")
    if verified is False:
        return EX_VERIFY_FAIL
    return EX_OK


def _cmd_orbits(args) -> int:
    graph = build_inclusion_graph(args.params)
    group = aut_group(args.params)
    count = orbit_count(graph, group.generators, on=args.on)
    print(f"orbits on {args.on}: {count}")
    return EX_OK


def _cmd_export(args) -> int:
    graph = build_inclusion_graph(args.params)
    data = export_graph(graph, args.format)
    if args.out is not None:
        with open(args.out, "wb") as fh:
            fh.write(data)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:  # a text-only stream, such as an io.StringIO
        sys.stdout.write(data.decode("ascii"))
    return EX_OK


def _cmd_scheme(args) -> int:
    n, k = args.n, args.k
    if args.check:
        ok = johnson_scheme_holds(n, k)
        print(f"scheme ({n},{k}) identities: {'PASS' if ok else 'FAIL'}")
        return EX_OK if ok else EX_VERIFY_FAIL
    from .combinatorics import intersection_number

    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            values = [intersection_number(n, k, i, j, s) for s in range(k + 1)]
            print(f"p^s_({i},{j}) for s=0..{k}: {values}")
    return EX_OK


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
    "aut": _cmd_aut,
    "orbits": _cmd_orbits,
    "export": _cmd_export,
    "scheme": _cmd_scheme,
}


def main(argv=None) -> int:
    limit = sys.get_int_max_str_digits() if _DIGIT_LIMIT else 0
    try:
        args = _preflight(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EX_USAGE
    except CapExceededError as exc:
        sys.stderr.write(f"setincl: cap exceeded: {exc}\n")
        return EX_CAP
    except MemoryError as exc:  # last resort, for a command without a cap
        detail = " ".join(str(exc).split()) or "allocation failed"
        sys.stderr.write(f"setincl: out of memory: {detail}\n")
        return EX_CAP
    except (OSError, ValueError) as exc:  # OSError: an --out path that cannot be written
        sys.stderr.write(f"setincl: error: {exc}\n")
        return EX_USAGE
    finally:
        if _DIGIT_LIMIT:
            sys.set_int_max_str_digits(limit)  # _preflight lifted it


if __name__ == "__main__":
    sys.exit(main())
