"""The table of limits: its constants, its command lines, and the refusals
the library makes from the same rows as the command line."""

import contextlib
import io
import subprocess
import sys
import tracemalloc
from math import isqrt
from pathlib import Path

import numpy as np
import pytest

from setincl import (
    CapExceededError,
    GraphParams,
    build_inclusion_graph,
    cli,
    johnson_scheme_holds,
    limits,
    subset_positions,
)


def test_limits_are_numpy_limits():
    # written without numpy, they are the limits numpy has
    assert limits._ARRAY_MAX == np.iinfo(np.intp).max
    assert limits._VERTEX_MAX == isqrt(np.iinfo(np.int64).max)


def test_limits_import_no_numpy():
    # setincl/__init__ imports the modules that use numpy, so the package is
    # bound by hand to its directory, and limits and errors alone are imported
    package = Path(__file__).resolve().parents[1] / "src" / "setincl"
    code = (
        "import sys, types\n"
        "sys.modules['numpy'] = None  # an import of numpy now raises ImportError\n"
        "package = types.ModuleType('setincl')\n"
        f"package.__path__ = [{str(package)!r}]\n"
        "sys.modules['setincl'] = package\n"
        "import setincl.limits\n"
        "assert sys.modules['numpy'] is None and setincl.limits.ROWS\n"
        "print(sorted(name for name in sys.modules if name.startswith('setincl')))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['setincl', 'setincl.errors', 'setincl.limits']\n"


def test_every_command_line_of_the_table_is_one_the_cli_reads():
    # a command and some of its switches, so that a misspelt call cannot
    # leave a row unchecked; and every row is the row of some command line
    for call in limits.ROWS:
        command, *switches = call.split()
        assert set(switches) <= {option for option, _ in cli._SWITCHES[command]}, call
    assert {row for rows in limits.ROWS.values() for row in rows} == set(limits.TABLE)


def _cli_refusal(argv):
    """The text after "cap exceeded: " of the CLI's refusal of argv."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(argv) == cli.EX_CAP
    prefix = "setincl: cap exceeded: "
    assert err.getvalue().startswith(prefix) and err.getvalue().endswith("\n")
    return err.getvalue()[len(prefix) : -1]


@pytest.mark.parametrize(
    "build,argv,cap",
    [
        # 5,000,050,000 vertices, past the int64 edge keys' 3,037,000,499
        (lambda: build_inclusion_graph(GraphParams(100000, 1, 2)),
         ["orbits", "100000", "1", "2", "--on", "vertices"], limits.MAX_VERTICES),
        # C(64,32) rows of 32 int64 elements, past numpy's array limit
        (lambda: subset_positions(64, 32), ["orbits", "64", "2", "32", "--on", "vertices"],
         limits.MAX_VERTICES),
        # C(80,40) rows of 40 int64 elements; the CLI's cap is lifted past
        # its count of 41*C(80,40) entries, which the library does not cap
        (lambda: johnson_scheme_holds(80, 40), ["scheme", "80", "40", "--check"], 10**30),
    ],
    ids=["vertices", "l-subset rows", "k-subset rows"],
)
def test_library_refuses_as_the_cli_does_before_allocating(build, argv, cap, monkeypatch):
    monkeypatch.setenv("SETINCL_MAX_VERTICES", str(cap))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError) as refused:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert str(refused.value) == _cli_refusal(argv)
