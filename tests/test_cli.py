"""End-to-end tests of the command-line interface, including exit codes."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
import types
from itertools import combinations, takewhile
from math import comb, factorial, log2
from pathlib import Path

import numpy as np
import pytest

import setincl
import setincl.cli as cli
import setincl.limits as limits
from setincl import Graph, automorphisms, group_shape
from setincl.cli import main

from reference_export import reference_export
from reference_helpers import assert_bounds_are_lower_bounds, canonical_params_up_to
from reference_ranks import mask_of


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_table(capsys):
    code, out, _ = run(["spectrum", "4", "1", "2"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    assert lines[0].split() == ["√6", "1"]
    assert lines[-1].split() == ["-√6", "1"]


def test_spectrum_line_table(capsys):
    code, out, _ = run(["spectrum", "4", "1", "2", "--line"], capsys)
    assert code == 0
    values = [line.split()[0] for line in out.strip().split("\n")]
    assert values == ["3", "2", "0", "-1", "-2"]


def test_spectrum_surd_rendering(capsys):
    code, out, _ = run(["spectrum", "5", "1", "3", "--line"], capsys)
    assert code == 0
    assert "(5+√21)/2" in out and "(5-√21)/2" in out


def test_spectrum_json_schema(capsys):
    code, out, _ = run(["spectrum", "5", "2", "3", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert [entry["value"]["kind"] for entry in data] == ["int"] * 6
    assert sum(int(entry["multiplicity"]) for entry in data) == 20


def test_spectrum_csv(capsys):
    code, out, _ = run(["spectrum", "4", "1", "2", "--format", "csv"], capsys)
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[0] == "value,multiplicity"
    assert len(rows) == 6


def test_spectrum_usage_error(capsys):
    code, _, err = run(["spectrum", "4", "2", "2"], capsys)
    assert code == 64
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["spectrum", 6, 2, 3],
    ["spectrum", "6", "2", "3", "--out", 5],
    [b"spectrum", "6", "2", "3"],
])
def test_argument_that_is_no_str_is_a_usage_error(argv, capsys):
    # each once ended in a traceback from the argv reader or argparse
    code, out, err = run(argv, capsys)
    assert code == 64 and out == ""
    assert err.startswith("setincl: error: each argument must be a str") and err.count("\n") == 1


def test_spectrum_canonicalization_notice(capsys):
    code, out, err = run(["spectrum", "5", "3", "4"], capsys)
    assert code == 0
    assert "canonicalized to (5,1,2)" in err
    assert "2√2" in out  # largest eigenvalue sqrt(8) of the reduced graph


def test_spectrum_out_file(tmp_path, capsys):
    target = tmp_path / "spec.json"
    code, out, _ = run(
        ["spectrum", "4", "1", "2", "--format", "json", "--out", str(target)], capsys
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())


def test_verify_pass(capsys):
    code, out, _ = run(["verify", "5", "2", "3"], capsys)
    assert code == 0
    assert "PASS" in out


def test_verify_line_pass(capsys):
    code, out, _ = run(["verify", "5", "1", "3", "--line"], capsys)
    assert code == 0
    assert "PASS" in out


def test_verify_negative_control(capsys):
    code, out, err = run(
        ["verify", "4", "1", "2", "--inject-perturbation", "1e-4"], capsys
    )
    assert code == 1
    # the stdout line keeps its format; the worst pair goes to stderr
    assert re.fullmatch(
        r"verify \(4,1,2\) graph: max deviation 1\.000e-04 "
        r"\(tol 1e-08 \* scale 2\.44949\) -> FAIL\n",
        out,
    )
    assert err == (
        "setincl: worst pair at index 0: exact √6 (2.4494897427831779), "
        "numeric 2.4495897427831781\n"
    )


def test_verify_negative_control_names_a_lower_pair(capsys):
    # a negative shift larger than the gap below moves the perturbed value down
    # the sorted list, so the worst pair is not the top one
    # (exact: √6, √2 x3, 0 x2, ...; numeric: √2 x3, 0 x2, √6 - 3, ...)
    code, _, err = run(["verify", "4", "1", "2", "--inject-perturbation", "-3"], capsys)
    assert code == 1
    assert err == "setincl: worst pair at index 3: exact √2 (1.4142135623730951), numeric 0\n"


@pytest.mark.parametrize(
    "args,label",
    [(["verify", "16", "4", "8"], "graph"), (["verify", "12", "3", "6", "--line"], "line graph")],
)
def test_verify_beyond_the_old_vertex_cap(args, label, capsys):
    # 14,690 and 18,480 vertices: verify solves 1820 and 1144 dimensions
    code, out, _ = run(args, capsys)
    assert code == 0
    assert out.startswith(f"verify ({','.join(args[1:4])}) {label}: ") and out.endswith("-> PASS\n")


def test_verify_line_negative_control_at_scale(capsys):
    # tol * scale is 1e-8 * 102 here, so the shift must exceed 1.02e-6
    code, out, err = run(
        ["verify", "12", "3", "6", "--line", "--inject-perturbation", "1e-5"], capsys
    )
    assert code == 1 and out.endswith("-> FAIL\n")
    head, numeric = err.split(", numeric ")
    assert head == "setincl: worst pair at index 0: exact 102 (102)"
    assert abs(float(numeric) - 102.00001) < 1e-9


def test_verify_cap_exit(monkeypatch, capsys):
    # the cap is checked on (n,k,l) before any graph is built, so even
    # C(30,15)-vertex inputs are refused at once
    for cap, args in (
        ("50", ["verify", "8", "3", "4"]),
        ("10", ["verify", "14", "4", "7", "--line"]),
        ("", ["verify", "30", "10", "15"]),  # empty: the default
    ):
        monkeypatch.setenv("SETINCL_MAX_VERTICES", cap)
        start = time.perf_counter()
        code, _, err = run(args, capsys)
        assert code == 2 and time.perf_counter() - start < 1.0
        assert "cap" in err


def test_aut_report(capsys):
    code, out, _ = run(["aut", "4", "1", "3", "--brute-force"], capsys)
    assert code == 0
    assert "Sym(4)xZ2" in out and "order: 48" in out and "agree" in out


def test_aut_json(capsys):
    code, out, _ = run(["aut", "5", "2", "3", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data == {
        "kind": "Sym(5)xZ2",
        "order": "240",
        "generators": 3,
        "verified_brute_force": None,
    }


def test_aut_report_from_parameters_alone(capsys):
    # C(30,15) l-subsets: the report must not build a single vertex
    for args, kind, order in (
        (["aut", "30", "10", "15"], "Sym(30)", factorial(30)),
        (["aut", "30", "10", "20"], "Sym(30)xZ2", 2 * factorial(30)),
    ):
        start = time.perf_counter()
        code, out, _ = run(args, capsys)
        assert code == 0 and time.perf_counter() - start < 1.0
        assert f"kind:  {kind}" in out and f"order: {order}" in out


def test_aut_brute_force_cap(monkeypatch, capsys):
    # the certificate refines at most n colourings, one pass over the 2m arcs
    # each: 800-vertex (400,1,399) is more of that work than (16,4,8)
    _forbid_building(monkeypatch)
    for args, visits in (
        (["aut", "400", "1", "399", "--brute-force"], 400 * 2 * 400 * 399),
        (["aut", "20", "5", "8", "--brute-force"], 20 * 2 * comb(20, 8) * comb(8, 5)),
        (["aut", "30", "10", "15", "--brute-force"], 30 * 2 * comb(30, 15) * comb(15, 10)),
    ):
        start = time.perf_counter()
        code, out, err = run(args, capsys)
        assert code == 2 and time.perf_counter() - start < 1.0
        assert out == "" and err == (
            f"setincl: cap exceeded: certificate takes {visits} arc visits, "
            "cap is 10*2000^2 = 40000000\n"
        )


@pytest.mark.parametrize("args", [["7", "2", "3"], ["9", "3", "5"]])
def test_aut_brute_force_certifies_past_forty_vertices(args, capsys):
    # 56 and 210 vertices, a few thousand arc visits each
    code, out, _ = run(["aut", *args, "--brute-force"], capsys)
    assert code == 0 and out.endswith(" (agree)\n")


def test_aut_brute_force_cap_is_on_the_arc_visits(monkeypatch, capsys):
    # (65,1,64): n*2m = 540,800 arc visits, past 10*232^2 and within 10*233^2
    _forbid_building(monkeypatch)
    monkeypatch.setenv("SETINCL_MAX_VERTICES", "232")
    code, _, err = run(["aut", "65", "1", "64", "--brute-force"], capsys)
    assert code == 2 and "certificate takes 540800 arc visits, cap is 10*232^2 = 538240" in err
    monkeypatch.undo()
    monkeypatch.setenv("SETINCL_MAX_VERTICES", "233")
    code, out, _ = run(["aut", "65", "1", "64", "--brute-force"], capsys)
    assert code == 0 and out.endswith(" (agree)\n")


def _forbid_search(monkeypatch):
    """Make the orbit-stabiliser search raise in both modules that bind it."""

    def search(g):
        raise AssertionError("aut --brute-force ran the search")

    monkeypatch.setattr(cli, "brute_force_aut_order", search)
    monkeypatch.setattr(automorphisms, "brute_force_aut_order", search)


@pytest.mark.parametrize("args", [["3", "1", "2"], ["4", "1", "3"], ["5", "2", "3"], ["6", "1", "4"]])
def test_aut_brute_force_never_searches(args, monkeypatch, capsys):
    # below five points as above: the certificate decides and agrees
    _forbid_search(monkeypatch)
    code, out, _ = run(["aut", *args, "--brute-force"], capsys)
    assert code == 0 and out.endswith(" (agree)\n")


def test_aut_brute_force_certifies_every_canonical_n_to_12(monkeypatch, capsys):
    # the certificate alone decides every canonical n <= 12, n < 5 included
    _forbid_search(monkeypatch)
    for p in canonical_params_up_to(12):
        code, out, _ = run(["aut", str(p.n), str(p.k), str(p.l), "--brute-force"], capsys)
        order = group_shape(p).order
        assert code == 0 and out.endswith(f"brute-force order: {order} (agree)\n"), p


def test_aut_brute_force_refuses_when_the_bounds_differ(monkeypatch, capsys):
    # a tau that keeps the sides proves only Sym(5), below the chain's
    # bound of 2 * 5!, so no order is certified and nothing searches
    from setincl import induced_action

    monkeypatch.setattr(
        automorphisms, "tau_action", lambda params: induced_action((1, 0, 2, 3, 4), params)
    )
    _forbid_search(monkeypatch)
    code, out, _ = run(["aut", "5", "2", "3", "--brute-force"], capsys)
    assert code == 1
    assert out.endswith("brute-force order: not certified (DISAGREE)\n")


def test_aut_brute_force_disagreement_exits_1(monkeypatch, capsys):
    # the certificate returns one more than the order, or meets no order
    for certified in (2 * factorial(5) + 1, None):
        monkeypatch.setattr(cli, "certified_aut_order", lambda g: certified)
        found = "not certified" if certified is None else certified
        code, out, _ = run(["aut", "5", "2", "3", "--brute-force"], capsys)
        assert code == 1 and out.endswith(f"brute-force order: {found} (DISAGREE)\n")
        code, out, _ = run(["aut", "5", "2", "3", "--brute-force", "--format", "json"], capsys)
        assert code == 1 and json.loads(out)["verified_brute_force"] is False


def test_orbits(capsys):
    # Aut acts on arcs with two orbits when k+l < n, and one when tau swaps
    # the sides; on the 22,880 vertices of G(16,7,9) only tau joins the sides
    for n, k, l, on, count in (
        (4, 1, 2, "edges", 1),
        (4, 1, 2, "arcs", 2),
        (5, 2, 3, "arcs", 1),
        (15, 4, 6, "arcs", 2),
        (13, 5, 8, "arcs", 1),
        (16, 7, 9, "vertices", 1),
    ):
        assert run(["orbits", str(n), str(k), str(l), "--on", on], capsys)[:2] == (
            0,
            f"orbits on {on}: {count}\n",
        )


def test_export_edgelist(tmp_path, capsys):
    target = tmp_path / "g.edges"
    code, _, _ = run(["export", "3", "1", "2", "--out", str(target)], capsys)
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "p 6 6" and len(lines) == 7


def test_export_graph6_stdout(capsys):
    code, out, _ = run(["export", "4", "1", "2", "--format", "graph6"], capsys)
    assert code == 0
    assert out.strip()


@pytest.mark.parametrize("fmt", ["edgelist", "graph6", "dot"])
def test_export_to_text_only_stdout(fmt, tmp_path):
    target = tmp_path / "g.out"
    assert main(["export", "5", "2", "3", "--format", fmt, "--out", str(target)]) == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["export", "5", "2", "3", "--format", fmt]) == 0
    assert out.getvalue() == target.read_text()


class _TrickleBuffer:
    """A byte stream that takes at most three bytes of each write and
    returns the count, as a raw stream may."""

    def __init__(self):
        self.data = bytearray()

    def write(self, chunk):
        self.data += chunk[:3]
        return min(len(chunk), 3)

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [
    ["export", "5", "2", "3", "--format", "dot"],
    ["spectrum", "6", "2", "3", "--format", "json"],
])
def test_stdout_gets_every_byte_from_a_stream_that_takes_part_of_a_write(argv, tmp_path):
    target = tmp_path / "out"
    assert main([*argv, "--out", str(target)]) == 0
    stdout = types.SimpleNamespace(buffer=_TrickleBuffer())
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    assert bytes(stdout.buffer.data) == target.read_bytes()


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_a_pipe_closed_by_its_reader_is_an_error(unbuffered):
    # under PYTHONUNBUFFERED=1 stdout's byte stream is raw, and a write to a
    # pipe whose reader has gone takes only what fit: 1.2 MB never fits
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = "import sys; from setincl.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    with subprocess.Popen([sys.executable, "-c", script, "export", "14", "4", "7"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(5)) == 5
        proc.stdout.close()
        try:
            err = proc.communicate(timeout=60)[1]
        finally:
            proc.kill()  # a no-op once the process has exited
    assert proc.returncode == 64 and err.startswith(b"setincl: error: [Errno 32] Broken pipe"), err


def test_spectrum_writes_utf8_bytes_to_an_ascii_stdout(tmp_path):
    # the table's √ has no ASCII code; stdout gets the bytes --out gets
    target = tmp_path / "spectrum.txt"
    assert main(["spectrum", "4", "1", "2", "--out", str(target)]) == 0
    raw = io.BytesIO()
    stdout = io.TextIOWrapper(raw, encoding="ascii")  # closes raw when freed
    with contextlib.redirect_stdout(stdout):
        assert main(["spectrum", "4", "1", "2"]) == 0
    assert raw.getvalue() == target.read_bytes()
    assert "√".encode() in raw.getvalue()


@pytest.mark.parametrize("command", ["spectrum", "export"])
@pytest.mark.parametrize("target", ["missing-parent", "directory", "empty"])
def test_unwritable_out_is_a_usage_error(command, target, tmp_path, capsys):
    # an empty path is a path that cannot be opened, not a missing --out
    paths = {"missing-parent": tmp_path / "missing" / "x", "directory": tmp_path, "empty": ""}
    code, out, err = run([command, "4", "1", "2", "--out", str(paths[target])], capsys)
    assert code == 64 and out == ""
    assert err.startswith("setincl: error: ") and err.count("\n") == 1


def test_readme_api_table_lists_every_public_name():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("## Library overview\n", 1)[1].lstrip("\n").splitlines()
    table = "\n".join(takewhile(lambda line: line.startswith("|"), lines))
    # a name in backticks, alone or with its call signature
    named = set(re.findall(r"`(\w+)(?:\([^`]*\))?`", table))
    assert [name for name in setincl.__all__ if name not in named] == []
    # and each name is declared in one module's __all__ only
    assert len(set(setincl.__all__)) == len(setincl.__all__)


def test_scheme_check(capsys):
    # 3*C(63,2) = 5859 and 7*C(13,6) = 12012 counted entries were the
    # largest inputs of the dense check that counting replaced; 7*C(30,6) =
    # 4156425 is well under 10*2000^2.  k = 0: one k-subset, the empty one,
    # of any ground set
    for n, k in ((6, 2), (63, 2), (13, 6), (30, 6), (1000, 0), (10**20, 0)):
        code, out, _ = run(["scheme", str(n), str(k), "--check"], capsys)
        assert (code, out) == (0, f"scheme ({n},{k}) identities: PASS\n")


def test_scheme_table(capsys):
    code, out, _ = run(["scheme", "5", "2"], capsys)
    assert code == 0
    assert "p^s_(0,1)" in out


def test_scheme_precondition(capsys):
    code, _, err = run(["scheme", "5", "3", "--check"], capsys)
    assert code == 64
    assert "error" in err


def test_scheme_cap(monkeypatch, capsys):
    monkeypatch.setenv("SETINCL_MAX_VERTICES", "100")
    code, _, _ = run(["scheme", "16", "8", "--check"], capsys)
    assert code == 2


def test_env_var_cap(monkeypatch, capsys):
    monkeypatch.setenv("SETINCL_MAX_VERTICES", "1")
    code, _, err = run(["aut", "4", "1", "2", "--brute-force"], capsys)
    assert code == 2 and "cap" in err


def test_env_var_cap_not_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("SETINCL_MAX_VERTICES", "abc")
    code, out, err = run(["verify", "5", "2", "3"], capsys)
    assert code == 64 and out == ""
    assert err == "setincl: error: SETINCL_MAX_VERTICES must be an integer, got 'abc'\n"
    # argv is read first: its error wins, and -h prints help
    code, out, err = run(["verify", "5", "2"], capsys)
    assert code == 64 and out == "" and "the following arguments are required: l" in err
    code, out, err = run(["verify", "-h"], capsys)
    assert code == 0 and out.startswith("usage: setincl verify") and err == ""


def test_env_var_cap_past_the_int_digit_limit(monkeypatch, capsys):
    # argv is read, and so validated, first, under Python's 4300-digit
    # int <-> str limit; the cap after it, with the limit lifted.  So with a
    # bad argv and a bad cap the argv error wins, and -h prints help (both
    # checked in test_env_var_cap_not_an_integer)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    monkeypatch.setenv("SETINCL_MAX_VERTICES", "9" * 4301)
    code, out, err = run(["verify", "5", "2", "3"], capsys)
    assert code == 0 and out.endswith("-> PASS\n") and err == ""
    if limit:
        assert sys.get_int_max_str_digits() == limit
        assert run(["spectrum", "9" * (limit + 1), "1", "2"], capsys)[0] == 64


@pytest.mark.parametrize(
    "value", ["x" * 5000, "9" * 4000 + "x", "-" + "9" * 5000], ids=["letters", "digits-then-x", "negative"]
)
def test_env_var_cap_long_value_is_one_short_line(value, monkeypatch, capsys):
    monkeypatch.setenv("SETINCL_MAX_VERTICES", value)
    code, out, err = run(["verify", "5", "2", "3"], capsys)
    assert code == 64 and out == ""
    assert err.count("\n") == 1 and len(err) < 100
    assert f"got a value of {len(value)} characters" in err


@pytest.mark.parametrize("tol", ["nan", "-nan", "inf", "-inf", "-1", "-1e-12", "abc"])
def test_verify_tol_rejected(tol, capsys):
    code, out, err = run(["verify", "3", "1", "2", "--tol", tol], capsys)
    assert code == 64 and out == ""
    assert "--tol" in err


def test_verify_tol_zero_is_allowed(capsys):
    # a zero tolerance is valid input; float round-off then fails the check
    code, out, _ = run(["verify", "3", "1", "2", "--tol", "0"], capsys)
    assert code in (0, 1) and "verify (3,1,2)" in out


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "3", "1", "2", "--max-vertices", "0"],
        ["verify", "3", "1", "2", "--max-vertices", "-5"],
        ["aut", "4", "1", "2", "--brute-force", "--max-vertices", "-1"],
        ["aut", "4", "1", "2", "--brute-force", "--max-vertices", "1.5"],
        ["scheme", "6", "2", "--check", "--max-dim", "0"],
        ["scheme", "6", "2", "--check", "--max-dim", "x"],
        ["verify", "8", "3", "4", "--max-vertices", "50"],
        ["aut", "65", "1", "64", "--brute-force", "--max-vertices", "233"],
        ["scheme", "16", "8", "--check", "--max-dim", "100"],
    ],
)
def test_removed_cap_flag_is_a_usage_error(args, capsys):
    # SETINCL_MAX_VERTICES is the one cap setting: no command takes a cap flag
    code, out, err = run(args, capsys)
    assert code == 64 and out == ""
    assert err.endswith(f"error: unrecognized arguments: {' '.join(args[-2:])}\n")


@pytest.mark.parametrize("name", ["SETINCL_MAX_VERTICES"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_env_var_cap_must_be_positive(name, value, monkeypatch, capsys):
    monkeypatch.setenv(name, value)
    code, out, err = run(["aut", "4", "1", "2", "--brute-force"], capsys)
    assert code == 64 and out == ""
    assert err == f"setincl: error: {name} must be positive, got {value!r}\n"


@pytest.mark.parametrize("reader", [True, False])
def test_main_none_reads_sys_argv(reader, monkeypatch, capsys):
    """main(None) reads sys.argv[1:], as the console script calls it: on the
    reader's path (argparse is not called) and on argparse's (--form is an
    abbreviation, which the reader leaves to argparse)."""
    argv = ["spectrum", "6", "2", "3", "--format" if reader else "--form", "json"]
    expect = run(argv, capsys)
    assert expect[0] == 0 and (cli._read_argv(argv) is not None) == reader
    monkeypatch.setattr(sys, "argv", ["setincl", *argv])
    if reader:
        monkeypatch.setattr(cli._PARSER, "parse_args", lambda *args: pytest.fail("argparse called"))
    assert run(None, capsys) == expect


def test_unknown_subcommand(capsys):
    assert run(["bogus"], capsys)[0] == 64


def test_bad_integer_argument(capsys):
    assert run(["spectrum", "four", "1", "2"], capsys)[0] == 64


def test_numbers_past_the_int_digit_limit(capsys):
    # Python 3.10.7 and later refuse int <-> str beyond 4300 digits by
    # default.  1700! has 4756 digits, the top radicands of (15001,1,7501)
    # over 4500 and C(20000,10000) in the cap message 6019; argv is still
    # read under the limit.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    code, out, _ = run(["aut", "1700", "1", "2"], capsys)
    assert code == 0
    assert run(["spectrum", "15001", "1", "7501"], capsys)[0] == 0
    assert run(["spectrum", "15001", "1", "7501", "--format", "json"], capsys)[0] == 0
    assert run(["scheme", "20000", "10000", "--check"], capsys)[0] == 2
    if limit:
        assert run(["spectrum", "9" * (limit + 1), "1", "2"], capsys)[0] == 64
        assert sys.get_int_max_str_digits() == limit  # restored by main
        sys.set_int_max_str_digits(0)
    try:
        assert out.splitlines()[1] == f"order: {factorial(1700)}"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "n,value",
    [
        (10**15, "1.9999999999999982e-15"),
        (10**18, "2.0000000000000001e-18"),
        (10**24, "1.9999999999999998e-24"),
    ],
)
def test_csv_rounds_a_cancelling_line_value_correctly(n, value, capsys):
    # the fifth line holds the fourth value of the line spectrum of G(n,1,3),
    # (p - sqrt(d))/2 with p*p - d small, about 2/n; each pinned value is
    # float() of its 400-digit decimal evaluation
    code, out, _ = run(["spectrum", str(n), "1", "3", "--line", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[4] == f"{value},{n - 1}"


@pytest.mark.parametrize("line", [[], ["--line"]])
def test_csv_refuses_values_past_float64(line, capsys):
    # sqrt(C(3000,1500) * 1501) is about 10^452, past float64's 1.8e308
    code, out, err = run(["spectrum", "3001", "1", "1501", "--format", "csv", *line], capsys)
    assert (code, out) == (64, "")
    assert err.count("\n") == 1
    assert "csv format" in err and "table or json" in err


@pytest.mark.parametrize(
    "name,args",
    [
        # 300 arc visits, past 10*5^2
        ("SETINCL_MAX_VERTICES", ["aut", "5", "2", "3", "--brute-force"]),
        ("SETINCL_MAX_VERTICES", ["verify", "5", "2", "3"]),
        # 4*C(10,3) = 480 counted entries, past 10*5^2
        ("SETINCL_MAX_VERTICES", ["scheme", "10", "3", "--check"]),
    ],
)
def test_env_cap_read_on_every_call(name, args, monkeypatch, capsys):
    # the parser is built once per process, so a cap default frozen into it
    # would miss a change to the environment after the first call
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser,
        "__init__",
        lambda self, *a, **kw: built.append(self) or init(self, *a, **kw),
    )
    assert run(args, capsys)[0] == 0
    monkeypatch.setenv(name, "5")
    code, out, err = run(args, capsys)
    assert code == 2 and out == "" and "cap" in err
    assert built == []


_BUILDERS = (
    "build_inclusion_graph",
    "inclusion_ranks",
    "reduced_matrix",
    "johnson_scheme_holds",
    "eigensolver_oracle",
)


def _forbid_building(monkeypatch):
    def never(*_):
        raise AssertionError("built past the cap")

    for name in _BUILDERS:
        monkeypatch.setattr(cli, name, never)


@pytest.mark.parametrize(
    "cap,args",
    [
        ("50", ["verify", "8", "3", "4"]),
        ("100", ["verify", "8", "3", "4", "--line"]),
        # 100 vertices, but 245,000 arc visits past 10*100^2
        ("100", ["aut", "50", "1", "49", "--brute-force"]),
        # 5*C(8,4) = 350 counted entries, past 10*5^2 (10*6^2 admits them)
        ("5", ["scheme", "8", "4", "--check"]),
        # 7*C(43,6) = 42675178 entries, just past 10*2000^2 at the default
        # cap (empty); (42,6) fits
        ("", ["scheme", "43", "6", "--check"]),
    ],
    ids=[f"args{i}" for i in range(5)],  # stable test ids
)
def test_caps_refuse_before_anything_is_built(cap, args, monkeypatch, capsys):
    _forbid_building(monkeypatch)
    monkeypatch.setenv("SETINCL_MAX_VERTICES", cap)
    code, out, err = run(args, capsys)
    assert code == 2 and out == "" and "cap" in err


def test_scheme_count_row_boundary(monkeypatch, capsys):
    # at cap 100 the count may have 10*100^2 = 100000 entries, (k+1)*C(n,k):
    # for each k the largest n admitted passes, and n + 1 is refused unbuilt
    monkeypatch.setenv("SETINCL_MAX_VERTICES", "100")
    largest = ((50000, 1), (258, 2), (54, 3), (17, 6))
    for n, k in largest:
        assert (k + 1) * comb(n, k) <= 100000 < (k + 1) * comb(n + 1, k)
        assert run(["scheme", str(n), str(k), "--check"], capsys) == (0, f"scheme ({n},{k}) identities: PASS\n", "")
    _forbid_building(monkeypatch)
    for n, k in largest:
        entries = (k + 1) * comb(n + 1, k)
        assert run(["scheme", str(n + 1), str(k), "--check"], capsys) == (
            2, "", f"setincl: cap exceeded: scheme count has {entries} entries, cap is 10*100^2 = 100000\n")


@pytest.mark.parametrize(
    "args,bound",
    [
        # n1 = 2000 fits the cap, and the rank array's 3,998,000 entries fit
        # cap^2, but the Gram products take 8e12 multiply-adds
        (["verify", "2000", "1", "2"], "Gram matrix takes 7996000000000 multiply-adds"),
        (["verify", "50", "1", "6"], "rank array has 95344200 entries"),
        (["verify", "30", "1", "15"], "rank array has 2326762800 entries"),
        (["verify", "30", "1", "15", "--line"], "verify solves dimension 155117550"),
        # n1 = 10^6 is exact; a later row's C(10^6, 400000), about 290,000
        # digits and seconds to compute, would be refused on its lower bound
        (["verify", "1000000", "1", "400000"], "verify solves dimension 1000000"),
    ],
)
def test_verify_construction_bounds_refuse_from_parameters(args, bound, monkeypatch, capsys):
    _forbid_building(monkeypatch)
    start = time.perf_counter()
    code, out, err = run(args, capsys)
    assert code == 2 and time.perf_counter() - start < 1.0
    assert out == "" and err.startswith(f"setincl: cap exceeded: {bound}, cap is ")


@pytest.mark.parametrize(
    "args", [["scheme", "20000", "10000", "--check"], ["verify", "20000", "10000", "10001"]]
)
def test_cap_messages_stay_short_past_thirty_digits(args, capsys):
    # C(20000,10000) has 6019 digits; the message gives a lower bound on
    # the bits of the size instead, 64 bits past the cap's (scheme's is
    # 10001*C(20000,10000)'s, verify's C(20000,9999)'s, after complementation)
    start = time.perf_counter()
    code, out, err = run(args, capsys)
    assert code == 2 and time.perf_counter() - start < 1.0
    bound = {"scheme": "more than 2^10012", "verify": "more than 2^10000"}[args[0]]
    assert out == "" and bound in err
    assert max(len(line.encode()) for line in err.splitlines()) <= 200


@pytest.mark.parametrize(
    "args,message",
    [
        (["orbits", "1000000", "1", "400000", "--on", "edges"],
         "byte count of the l-subset rows is more than 2^528792, numpy's array limit is "),
        (["aut", "1000000", "1", "400000", "--brute-force"],
         "certificate takes more than 2^528809 arc visits, cap is 10*2000^2 = 40000000"),
        (["export", "1000000", "1", "400000"],
         "byte count of the l-subset rows is more than 2^528792, numpy's array limit is "),
        (["verify", "1000000", "1", "400000", "--line"],
         "verify solves dimension more than 2^528771, cap is 2000"),
        # a bound of 10^100 bits is given by its digit count too
        (["export", str(10**100), "1", str(5 * 10**99)],
         "byte count of the l-subset rows is more than 2^a 100-digit number, "),
        # huge k: C(n,k) and C(l,k) are refused on their bounds too
        (["verify", "1000000", "400000", "500000"], "verify solves dimension more than 2^528771, cap is 2000"),
        (["verify", "1000000", "400000", "500000", "--line"],
         "verify solves dimension more than 2^499999, cap is 2000"),
        (["aut", "1000000", "400000", "500000", "--brute-force"],
         "certificate takes more than 2^732211 arc visits, cap is 10*2000^2 = 40000000"),
        (["orbits", "1000000", "400000", "500000", "--on", "arcs"],
         "byte count of the l-subset rows is more than 2^500020, numpy's array limit is "),
        (["export", "1000000", "400000", "500000"],
         "byte count of the l-subset rows is more than 2^500020, numpy's array limit is "),
        # the scheme cases keep the ids of their old dimension messages
        pytest.param(["scheme", "1000000", "400000", "--check"],
                     "scheme count has more than 2^528789 entries, cap is 10*2000^2 = 40000000",
                     id="args10-matrix dimension more than 2^528771 exceeds cap 2000"),
        pytest.param(["scheme", "1000000000", "300000", "--check"],
                     "scheme count has more than 2^3510842 entries, cap is 10*2000^2 = 40000000",
                     id="args11-matrix dimension more than 2^3510824 exceeds cap 2000"),
        # near n/2 the bound m*log2(n/m) is about half of log2 C(n,l), and
        # still 64 bits past the cap's
        (["verify", "131000", "65498", "65500", "--line"], "verify solves dimension more than 2^65499, cap is 2000"),
        (["export", "131000", "65498", "65501"],
         "byte count of the l-subset rows is more than 2^65518, numpy's array limit is "),
        pytest.param(["scheme", "20000", "10000", "--check"],
                     "scheme count has more than 2^10012 entries, cap is 10*2000^2 = 40000000",
                     id="args14-matrix dimension more than 2^9999 exceeds cap 2000"),
    ],
)
def test_huge_l_is_refused_on_a_lower_bound(args, message, monkeypatch, capsys):
    # C(10^6, 400000) has about 10^6 bits and takes seconds to compute; the
    # bound (n/m)^m <= C(n,m), with m <= n/2, refuses without any binomial
    _forbid_building(monkeypatch)
    for name in ("n1", "n2", "r2"):
        monkeypatch.setattr(setincl.GraphParams, name, property(lambda _: pytest.fail("binomial computed")))
    monkeypatch.setattr(cli.math, "comb", lambda *_: pytest.fail("binomial computed"))
    start = time.perf_counter()
    code, out, err = run(args, capsys)
    assert code == 2 and time.perf_counter() - start < 1.0
    assert out == "" and err.startswith(f"setincl: cap exceeded: {message}")


def test_binom_bits_is_a_lower_bound():
    cases = [(n, l) for n in range(2, 120) for l in range(1, n)]
    cases += [(20000, 10000), (20000, 19999), (10**30, 3), (10**30, 10**30 - 2), (2**100, 2**99)]
    for n, l in cases:
        bits = limits._binom_bits(n, l)
        if n < 2**64:
            assert 1 << bits <= comb(n, l), (n, l)
        m = min(l, n - l)  # and it is m*log2(n/m) within the fixed point's 2^-32
        assert bits >= m * log2(n / m) * (1 - 2**-30) - 1, (n, l)
    assert limits._binom_bits(1000000, 400000) == 528771
    assert limits._binom_bits(10, 0) == limits._binom_bits(10, 10) == limits._binom_bits(0, 0) == 0


def test_every_bound_row_is_a_lower_bound():
    for p in canonical_params_up_to(40):
        assert_bounds_are_lower_bounds(p.n, p.k, p.l)
    for n in range(41):
        for k in range(n // 2 + 1):
            assert_bounds_are_lower_bounds(n, k)
    assert_bounds_are_lower_bounds(10**20, 0)


def test_verify_dense_gram_at_the_cap(capsys):
    # n1 = n2 = 1953 and r2 = 1830: the largest rank array under cap^2
    start = time.perf_counter()
    code, out, err = run(["verify", "63", "2", "61"], capsys)
    elapsed = time.perf_counter() - start
    assert (code == 2 and elapsed < 1.0 and "cap" in err) or (
        code == 0 and elapsed < 5.0 and out.endswith("-> PASS\n")
    )


@pytest.mark.parametrize(
    "cap,args",
    [
        ("100", ["scheme", "16", "9", "--check"]),
        ("1", ["verify", "4", "2", "2"]),
        ("1", ["aut", "4", "2", "2", "--brute-force"]),
    ],
    ids=[f"args{i}" for i in range(3)],  # stable test ids
)
def test_parameter_error_wins_over_cap(cap, args, monkeypatch, capsys):
    monkeypatch.setenv("SETINCL_MAX_VERTICES", cap)
    code, out, err = run(args, capsys)
    assert code == 64 and out == ""
    assert "error" in err and "cap" not in err


@pytest.mark.parametrize(
    "args", [["orbits", "4", "1", "2", "--on", "edges"], ["export", "4", "1", "2"]]
)
@pytest.mark.parametrize(
    "exc,detail",
    [
        (MemoryError("Unable to allocate 20.1 TiB for an array"),
         "Unable to allocate 20.1 TiB for an array"),
        (MemoryError(), "allocation failed"),
    ],
)
def test_memory_error_exits_2(args, exc, detail, monkeypatch, capsys):
    def exhausted(params):
        raise exc

    monkeypatch.setattr(cli, "build_inclusion_graph", exhausted)
    code, out, err = run(args, capsys)
    assert code == 2 and out == ""
    assert err == f"setincl: out of memory: {detail}\n"


# Past 64 elements: the ground set has no limit of its own


@pytest.mark.parametrize(
    "args,expect",
    [
        (["orbits", "65", "1", "2", "--on", "edges"], "orbits on edges: 1\n"),
        (["orbits", "65", "1", "2", "--on", "arcs"], "orbits on arcs: 2\n"),
        (["orbits", "70", "1", "69", "--on", "vertices"], "orbits on vertices: 1\n"),
    ],
)
def test_orbits_past_64_elements(args, expect, capsys):
    assert run(args, capsys) == (0, expect, "")


def test_export_past_64_elements_matches_reference(tmp_path, capsys):
    # G(65,1,2) built from the subsets as sets, numbered by the numeric
    # order of their masks (colex), through the per-edge text reference
    n = 65
    pairs = sorted(map(frozenset, combinations(range(n), 2)), key=mask_of)
    edges = [(e, n + j) for j, pair in enumerate(pairs) for e in sorted(pair)]
    expect = reference_export(Graph(n + len(pairs), edges), "edgelist")
    target = tmp_path / "g.edges"
    assert run(["export", "65", "1", "2", "--out", str(target)], capsys) == (0, "", "")
    assert target.read_bytes() == expect


@pytest.mark.parametrize("n", ["65", "300"])
def test_verify_past_64_elements(n, capsys):
    code, out, _ = run(["verify", n, "1", "2"], capsys)
    assert code == 0
    assert out.startswith(f"verify ({n},1,2) graph: ") and out.endswith("-> PASS\n")


def test_aut_brute_force_past_64_elements(capsys):
    code, out, _ = run(["aut", "65", "1", "64", "--brute-force"], capsys)
    assert code == 0
    assert f"brute-force order: {2 * factorial(65)} (agree)\n" in out


@pytest.mark.parametrize(
    "args,message,cap",
    [
        # C(64,32) l-subsets of 32 elements each: 8-byte entries past 2**63 - 1
        # bytes; the first four keep the ids of their old entry-count messages
        pytest.param(["orbits", "64", "3", "32", "--on", "vertices"],
                     "byte count of the l-subset rows is 469151780081303176704", "",
                     id="args0-58643972510162897088 l-subset row entries"),
        pytest.param(["export", "64", "2", "40"],
                     "byte count of the l-subset rows is 80207713750293158400", "",
                     id="args1-10025964218786644800 l-subset row entries"),
        pytest.param(["orbits", "72", "2", "36", "--on", "vertices"],
                     "byte count of the l-subset rows is 127443611599728992410752", "",
                     id="args2-15930451449966124051344 l-subset row entries"),
        # 3.9e17 row entries fit, but each l-subset holds C(20,10) k-subsets
        pytest.param(["export", "64", "10", "20"],
                     "byte count of the arcs is 57997792907191845227520", "",
                     id="args3-7249724113398980653440 arcs"),
        # the scheme cases keep the ids of their old k-subset matrix messages:
        # 2*10^20 counted entries fit a raised cap, but not the element row
        pytest.param(["scheme", "100000000000000000000", "1", "--check"],
                     "byte count of the k-subset rows is 800000000000000000000", str(10**20),
                     id="args4-byte count of the k-subset matrices is 400000000000000000000"),
        # 2e18 elements fit, but not at 8 bytes each
        pytest.param(["scheme", "2000000000000000000", "1", "--check"],
                     "byte count of the k-subset rows is 16000000000000000000", str(10**10),
                     id="args5-byte count of the k-subset matrices is 20000000000000000000"),
        # past caps raised this far, the l-subset rows are the first array too large
        pytest.param(["verify", "72", "2", "36"],
                     "byte count of the l-subset rows is 127443611599728992410752", str(10**29),
                     id="args6-byte count of the l-subset rows is 127443611599728992410752"),
        pytest.param(["verify", "72", "2", "36", "--line"],
                     "byte count of the l-subset rows is 127443611599728992410752", str(10**29),
                     id="args7-byte count of the l-subset rows is 127443611599728992410752"),
        pytest.param(["aut", "72", "2", "36", "--brute-force"],
                     "byte count of the l-subset rows is 127443611599728992410752", str(10**27),
                     id="args8-byte count of the l-subset rows is 127443611599728992410752"),
        # C(80,40) rows of 40 int64 elements
        pytest.param(["scheme", "80", "40", "--check"],
                     "byte count of the k-subset rows is 34402306794667576467718400", str(10**30),
                     id="args9-byte count of the k-subset matrices is a 47-digit number"),
        # the rank array fits, but not the dense (n1+n2)^2 float64 signless Laplacian
        pytest.param(["verify", "100000", "1", "2", "--line"],
                     "byte count of the dense matrix is 200004000020000000000", str(10**10),
                     id="args10-byte count of the dense matrix is 200004000020000000000"),
    ],
)
def test_builds_past_numpy_array_limit_are_refused(args, message, cap, monkeypatch, capsys):
    _forbid_building(monkeypatch)
    monkeypatch.setenv("SETINCL_MAX_VERTICES", cap)  # empty: the default
    start = time.perf_counter()
    code, out, err = run(args, capsys)
    assert code == 2 and time.perf_counter() - start < 1.0
    assert out == "" and err == (
        f"setincl: cap exceeded: {message}, numpy's array limit is {np.iinfo(np.intp).max}\n"
    )


class _Built(Exception):
    pass


@pytest.mark.parametrize(
    "args", [["orbits", "--on", "vertices"], ["export"], ["aut", "--brute-force"]]
)
def test_graph_builds_past_the_int64_edge_keys_are_refused(args, monkeypatch, capsys):
    # n + C(n,2) vertices: 3,036,971,080 at n = 77935 fit, 3,037,049,016 at
    # n = 77936 do not, whose keys hi*nv + lo pass 2^63 - 1; every array
    # row passes, and the certificate's arc visits too under this cap
    def built(params):
        raise _Built(params)

    monkeypatch.setattr(cli, "build_inclusion_graph", built)
    monkeypatch.setenv("SETINCL_MAX_VERTICES", str(10**8))
    command, *flags = args
    with pytest.raises(_Built):
        main([command, "77935", "1", "2", *flags])
    for n, vertices in (("77936", 3037049016), ("100000", 5000050000)):
        assert run([command, n, "1", "2", *flags], capsys) == (2, "", (
            f"setincl: cap exceeded: graph has {vertices} vertices, "
            "its int64 edge keys allow 3037000499\n"))
