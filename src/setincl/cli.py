"""Command-line front end: exact spectra, oracle verification, automorphism
reports, orbit counts, graph export and scheme checking.

Exit codes: 0 success, 1 verification failure, 2 resource cap exceeded or
out of memory, 64 usage error.  Machine output goes to stdout, diagnostics
to stderr.

Caps are checked here only, before anything is built, by one rule on the
rows of _bounds: one cap, SETINCL_MAX_VERTICES (a positive integer, default
2000, read on every call), for verify, aut --brute-force and scheme --check,
then numpy's array limit for all, then the int64 edge keys' vertex limit.
A size whose lower bound 2^N is far past its limit is refused on N alone,
with no exact binomial; any other is computed exactly.  A bad cap, or a
--tol that is not finite and nonnegative, is a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

# brute_force_aut_order and build_line_graph are not called here; the names
# stay bound because perfbench/spans.py looks them up in this module to trace them
from .automorphisms import (  # noqa: F401
    aut_group,
    brute_force_aut_order,
    certified_aut_order,
    group_shape,
    orbit_count,
)
from .combinatorics import _checked_nk
from .errors import CapExceededError
from .graphs import (  # noqa: F401
    _ARRAY_MAX,
    _VERTEX_MAX,
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

MAX_VERTICES = 2000  # default cap of verify's solve, aut's certificate and scheme's count
# Gram products of GRAM_WORK*cap^3 multiply-adds take about as long as the
# dense solve at dimension cap: about 1.1 s each at cap 2000 on one thread of
# a 2-vCPU Xeon (BLAS symmetric rank-k update and eigvalsh)
GRAM_WORK = 6
# aut's certificate visits at most n*2m arcs; CERT_WORK*cap^2 visits take about
# 1 s at cap 2000 (1.7-2.5e-8 s each from 3e6 visits up, one 2-vCPU Xeon thread)
CERT_WORK = 10
# scheme --check's count of SCHEME_WORK*cap^2 entries takes 0.5-1.3 s at cap 2000 (2-vCPU Xeon)
SCHEME_WORK = 10
# Python 3.10.7 and later limit int <-> str conversion to 4300 digits
_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")


def _env_cap(name: str, default: int) -> int:
    """The positive integer in the environment variable name, of any length,
    or default when it is unset or empty; a message echoes a value of more
    than 30 characters by its length, so it stays one short line."""
    value = os.environ.get(name)
    if not value:
        return default
    shown = repr(value) if len(value) <= 30 else f"a value of {len(value)} characters"
    limit = sys.get_int_max_str_digits() if _DIGIT_LIMIT else 0
    try:
        if limit:  # the limit is for argv; a cap past it is still an integer
            sys.set_int_max_str_digits(0)
        cap = int(value)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {shown}") from None
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    if cap < 1:
        raise ValueError(f"{name} must be positive, got {shown}")
    return cap


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
    capped = f"The cap SETINCL_MAX_VERTICES (default {MAX_VERTICES}) bounds"

    def add_params(p):
        p.add_argument("n", type=int)
        p.add_argument("k", type=int)
        p.add_argument("l", type=int)

    p = sub.add_parser("spectrum", help="print the exact spectrum")
    add_params(p)
    p.add_argument("--line", action="store_true", help="spectrum of the line graph")
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.add_argument("--out", help="write to this path instead of stdout")

    p = sub.add_parser("verify", help="compare the exact spectrum with the numeric solver",
                       description=f"{capped} the solved dimension, n1 (n1+n2 with --line), rank "
                       f"array n2*r2 <= cap^2 and Gram products n1^2*n2 <= {GRAM_WORK}*cap^3.")
    add_params(p)
    p.add_argument("--line", action="store_true")
    p.add_argument("--tol", type=_tolerance, default=1e-8)
    p.add_argument("--inject-perturbation", type=float, default=0.0, help=argparse.SUPPRESS)

    p = sub.add_parser("aut", help="automorphism group report", description=f"{capped} the "
                       f"--brute-force certificate: n*2m arc visits (m edges) <= {CERT_WORK}*cap^2.")
    add_params(p)
    p.add_argument("--brute-force", action="store_true", help="check the order on the built "
                   "graph by upper and lower bounds that must meet")
    p.add_argument("--format", choices=["table", "json"], default="table")

    p = sub.add_parser("orbits", help="orbit counts under the automorphism group")
    add_params(p)
    p.add_argument("--on", choices=["vertices", "edges", "arcs"], required=True)

    p = sub.add_parser("export", help="write the graph in an interchange format")
    add_params(p)
    p.add_argument("--format", choices=["edgelist", "graph6", "dot"], default="edgelist")
    p.add_argument("--out", help="write to this path instead of stdout")

    p = sub.add_parser("scheme", help="intersection numbers of the scheme on k-subsets",
                       description=f"{capped} the count of --check: (k+1)*C(n,k) entries <= "
                       f"{SCHEME_WORK}*cap^2.")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--check", action="store_true", help="verify the identities by counting")
    return parser


_PARSER = _build_parser()


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


def _array_row(what: str) -> str:
    """The message of numpy's array limit on what, with {} for its bytes."""
    return f"byte count of the {what} is {{}}, numpy's array limit is {_ARRAY_MAX}"


def _bounds(args, cap: int):
    """Yield the (bits, size, limit, message) rows of the command in args, in
    order: the command's rows under the cap, numpy's array limit on what it
    builds, then the vertex limit of a built graph's int64 edge keys.  Each
    is from (n,k,l), the flags and the cap.  bits is an N with 2^N <= size(),
    the sum of a lower bound on each binomial factor and on the small exact
    ones; size() is the exact size; the message has {} for the size."""
    cmd, c = args.command, _size(cap)
    if cmd == "scheme" and args.check:
        n, k = args.n, args.k
        n1, bits, work = (lambda: math.comb(n, k)), _binom_bits(n, k), SCHEME_WORK * cap**2
        yield (k + 1).bit_length() - 1 + bits, lambda: (k + 1) * n1(), work, (
            f"scheme count has {{}} entries, cap is {SCHEME_WORK}*{c}^2 = {_size(work)}")
        if k:  # int64 element rows
            yield (8 * k).bit_length() - 1 + bits, lambda: 8 * k * n1(), _ARRAY_MAX, (
                _array_row("k-subset rows"))
    elif cmd in ("verify", "orbits", "export") or cmd == "aut" and args.brute_force:
        p = args.params
        b1, b2, br = _binom_bits(p.n, p.k), _binom_bits(p.n, p.l), _binom_bits(p.l, p.k)
        if cmd == "verify":
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
            visit_bits = (2 * p.n).bit_length() - 1 + br + b2
            yield visit_bits, lambda: p.n * 2 * p.r2 * p.n2, CERT_WORK * cap**2, (
                f"certificate takes {{}} arc visits, "
                f"cap is {CERT_WORK}*{c}^2 = {_size(CERT_WORK * cap**2)}")
        # int64 l-subset rows and arcs; verify's rank array is half the arcs
        rows_bits = (8 * p.l).bit_length() - 1 + b2
        yield rows_bits, lambda: 8 * p.l * p.n2, _ARRAY_MAX, _array_row("l-subset rows")
        yield 4 + br + b2, lambda: 16 * p.r2 * p.n2, _ARRAY_MAX, _array_row("arcs")
        if cmd == "verify":  # float64
            yield 3 + 2 * dim_bits, lambda: 8 * dim() ** 2, _ARRAY_MAX, _array_row("dense matrix")
        else:  # the CLI's copy of Graph's vertex limit, for exit 2; n2 <= n1 + n2
            yield b2, lambda: p.n1 + p.n2, _VERTEX_MAX, (
                f"graph has {{}} vertices, its int64 edge keys allow {_VERTEX_MAX}")


def _preflight(argv):
    """Parse argv and validate the parameters (canonicalizing any (n,k,l),
    with a note), then refuse the command at the first row of _bounds past
    its cap, on the row's bound N when that is 64 bits past the cap: then
    2^N > cap, and the exact size, such as C(10^6, 4*10^5) of 1.0e6 bits
    that takes seconds, is never computed.  The environment cap is read, and
    so validated, first."""
    cap = _env_cap("SETINCL_MAX_VERTICES", MAX_VERTICES)
    args = _PARSER.parse_args(argv)
    # argv is read under the digit limit; what follows from it, such as
    # C(n,k) in a cap message or n! in a report, may be longer
    if _DIGIT_LIMIT:
        sys.set_int_max_str_digits(0)
    if args.command == "scheme":
        _checked_nk(args.n, args.k)
    else:
        p, complemented = canonicalize(GraphParams(args.n, args.k, args.l))
        if complemented:
            sys.stderr.write(
                f"note: ({args.n},{args.k},{args.l}) canonicalized to "
                f"({p.n},{p.k},{p.l}) via complementation\n"
            )
        args.params = p
    for bits, size, limit, message in _bounds(args, cap):
        if bits >= limit.bit_length() + 64:
            raise CapExceededError(message.format(f"more than 2^{_size(bits)}"))
        exact = size()
        if exact > limit:
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
        text = spec.to_table_text()
    _write(text.encode("utf-8"), args.out)
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
        # None: the bounds do not meet, so no order is certified
        oracle_order = certified_aut_order(build_inclusion_graph(args.params))
        verified = oracle_order == group.order
    if args.format == "json":
        print(json.dumps(group.to_json_dict(verified_brute_force=verified)))
    else:
        print(f"kind:  {group.kind}")
        print(f"order: {group.order}")
        print(f"generators: {group.generator_count}")
        if args.brute_force:
            found = "not certified" if oracle_order is None else oracle_order
            print(f"brute-force order: {found} ({'agree' if verified else 'DISAGREE'})")
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
    _write(export_graph(build_inclusion_graph(args.params), args.format), args.out)
    return EX_OK


def _write(data: bytes, out) -> None:
    """Write the UTF-8 bytes data to the path out, or else to stdout's byte
    stream, whatever stdout's text encoding is.  A byte stream may take only
    part of a write (a raw one, as under python -u, does at a full pipe), so
    the rest is written until every byte is taken or an OSError is raised."""
    if out is None and not hasattr(sys.stdout, "buffer"):  # such as an io.StringIO
        sys.stdout.write(data.decode("utf-8"))
        return
    with open(out, "wb") if out is not None else contextlib.nullcontext(sys.stdout.buffer) as fh:
        view = memoryview(data)
        while view:
            view = view[fh.write(view) :]
        fh.flush()


def _cmd_scheme(args) -> int:
    n, k = args.n, args.k
    if args.check:
        ok = johnson_scheme_holds(n, k)
        print(f"scheme ({n},{k}) identities: {'PASS' if ok else 'FAIL'}")
        return EX_OK if ok else EX_VERIFY_FAIL
    from .combinatorics import intersection_number  # per call: perfbench/spans.py patches it
    lines = []
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            values = [intersection_number(n, k, i, j, s) for s in range(k + 1)]
            lines.append(f"p^s_({i},{j}) for s=0..{k}: {values}\n")
    _write("".join(lines).encode("utf-8"), None)
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
