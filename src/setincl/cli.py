"""Command-line front end: exact spectra, oracle verification, automorphism
reports, orbit counts, graph export and scheme checking.

Exit codes: 0 success, 1 verification failure, 2 resource cap exceeded or
out of memory, 64 usage error.  Machine output goes to stdout, diagnostics
to stderr.

Before anything is built, the sizes of the command line are checked against
the limits of setincl.limits: one cap, SETINCL_MAX_VERTICES (a positive
integer, default 2000, read on every call), for verify, aut --brute-force and
scheme --check, then numpy's array limit, then the int64 edge keys' vertex
limit.  A bad cap, or a --tol that is not finite and nonnegative, is a usage
error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from . import limits

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

# Python 3.10.7 and later limit int <-> str conversion to 4300 digits
_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")


def _env_cap(name: str, default: int) -> int:
    """The positive integer in the environment variable name, or default
    when it is unset or empty; a message echoes a value of more than 30
    characters by its length, so it stays one short line.  A value past the
    int <-> str digit limit is read only where the caller has lifted it."""
    value = os.environ.get(name)
    if not value:
        return default
    shown = repr(value) if len(value) <= 30 else f"a value of {len(value)} characters"
    try:
        cap = int(value)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {shown}") from None
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


def _build_parser() -> tuple[_Parser, dict]:
    """The argparse parser, and for each command the (positionals in order,
    options by option string) of the actions that add_argument returned."""
    parser = _Parser(prog="setincl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    grammar = {}

    def command(name, positionals="nkl", **kwargs):
        """Add the command name with its int positionals; return its add_argument."""
        p = sub.add_parser(name, description=limits.help_text(name), **kwargs)
        positional_actions = [p.add_argument(x, type=int) for x in positionals]
        options = {}
        grammar[name] = positional_actions, options

        def add(*args, **kwargs):
            action = p.add_argument(*args, **kwargs)
            options.update(dict.fromkeys(action.option_strings, action))

        return add

    add = command("spectrum", help="print the exact spectrum")
    add("--line", action="store_true", help="spectrum of the line graph")
    add("--format", choices=["table", "json", "csv"], default="table")
    add("--out", help="write to this path instead of stdout")

    add = command("verify", help="compare the exact spectrum with the numeric solver")
    add("--line", action="store_true")
    add("--tol", type=_tolerance, default=1e-8)
    add("--inject-perturbation", type=float, default=0.0, help=argparse.SUPPRESS)

    add = command("aut", help="automorphism group report")
    add("--brute-force", action="store_true", help="check the order on the built "
        "graph by upper and lower bounds that must meet")
    add("--format", choices=["table", "json"], default="table")

    add = command("orbits", help="orbit counts under the automorphism group")
    add("--on", choices=["vertices", "edges", "arcs"], required=True)

    add = command("export", help="write the graph in an interchange format")
    add("--format", choices=["edgelist", "graph6", "dot"], default="edgelist")
    add("--out", help="write to this path instead of stdout")

    add = command("scheme", "nk", help="intersection numbers of the scheme on k-subsets")
    add("--check", action="store_true", help="verify the identities by counting")
    return parser, grammar


_PARSER, _GRAMMAR = _build_parser()
# each command's switches, the options that take no value: (option string, dest)
_SWITCHES = {name: [(option, action.dest) for option, action in options.items() if action.nargs == 0]
             for name, (_, options) in _GRAMMAR.items()}


def _read_argv(argv):
    """The Namespace of argv (sys.argv[1:] when None) when it is a command
    followed only by exact option strings, each option's value, and exactly
    the command's positionals, every value one that converts and is among
    the choices, and every required option given; None for any other argv,
    which argparse then reads, for its help, abbreviations and errors.  Only
    the public attributes of the command's argparse actions are read."""
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in _GRAMMAR:
        return None
    positionals, options = _GRAMMAR[argv[0]]
    args = argparse.Namespace(command=argv[0])
    for action in options.values():
        setattr(args, action.dest, action.default)
    tokens, todo, seen = iter(argv[1:]), iter(positionals), set()
    for token in tokens:
        action = options.get(token)
        if action is None:  # the next positional
            action = next(todo, None)
            if action is None or token.startswith("-"):
                return None
        elif action.nargs == 0:
            setattr(args, action.dest, action.const)
            seen.add(action)
            continue
        else:
            token = next(tokens, "-")
            if token.startswith("-"):
                return None
        try:
            value = token if action.type is None else action.type(token)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        setattr(args, action.dest, value)
        seen.add(action)
    if next(todo, None) is not None or any(
            a.required and a not in seen for a in options.values()):
        return None
    return args


def _preflight(argv):
    """Parse argv (by _read_argv, else by argparse) and validate the
    parameters (canonicalizing any (n,k,l), with a note), then check the
    rows of the command line in limits.ROWS.  argv is read, and so validated,
    first, under the int <-> str digit limit, so an argv error or -h comes
    before a bad cap; the cap is read after it with the limit lifted, so it
    may have any length.  main restores the limit."""
    if argv is not None:
        argv = list(argv)  # read twice: by _read_argv, then maybe by argparse
        for token in argv:  # neither reader handles a token that is no str
            if not isinstance(token, str):
                raise ValueError(f"each argument must be a str, got a {type(token).__name__}")
    args = _read_argv(argv)
    if args is None:
        args = _PARSER.parse_args(argv)
    # argv is read under the digit limit; what follows from it, such as
    # C(n,k) in a cap message or n! in a report, may be longer
    if _DIGIT_LIMIT:
        sys.set_int_max_str_digits(0)
    cap = _env_cap("SETINCL_MAX_VERTICES", limits.MAX_VERTICES)
    call = args.command  # then each switch given: a command line, as limits.ROWS names it
    for option, dest in _SWITCHES[call]:
        if getattr(args, dest):
            call += " " + option
    if args.command == "scheme":
        n, k = _checked_nk(args.n, args.k)
        q = limits.Sizes(n=n, k=k)
    else:
        p, complemented = canonicalize(GraphParams(args.n, args.k, args.l))
        if complemented:
            sys.stderr.write(
                f"note: ({args.n},{args.k},{args.l}) canonicalized to "
                f"({p.n},{p.k},{p.l}) via complementation\n"
            )
        q = args.params = p
    rows = limits.ROWS.get(call)
    if rows:
        limits.check(rows, q, cap)
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
