"""Golden outputs: the command line's output, byte for byte.

Each row of GOLDEN names a set of runs, the sha256 they hash to and the
commit the digest was taken at. A run is an argv list, hashed as
repr((argv, exit code, stdout)) of main(argv), or a (form, n, k) tuple,
hashed as repr((form.__name__, n, k, form(n, k).entries)).  The README's
examples are run too, and each stdout must equal the text printed under it;
its `>>>` example runs as a doctest.

A digest is re-taken only in a change whose CHANGES.md entry says which
output changed and why, and the row's commit is updated with it.
"""

import contextlib
import doctest
import hashlib
import io
import shlex
from pathlib import Path

import pytest

from setincl import spectrum_line_middle, spectrum_middle
from setincl.cli import main

from reference_helpers import canonical_params_up_to

README = Path(__file__).parents[1] / "README.md"


def _triples(max_n):
    return [(str(p.n), str(p.k), str(p.l)) for p in canonical_params_up_to(max_n)]


_FORMATS = ("table", "json", "csv")
_LINE = ([], ["--line"])

GOLDEN = [
    (
        # spectrum in every format, with and without --line, on every
        # canonical n <= 12, and scheme n k for n <= 20: 870 runs
        "spectrum-scheme",
        [["spectrum", *t, "--format", fmt, *line] for t in _triples(12) for fmt in _FORMATS for line in _LINE]
        + [["scheme", str(n), str(k)] for n in range(1, 21) for k in range(n // 2 + 1)],
        "d9dd54e9a460721017178508f50483fc1a89d80c8cac79cd40699426852953fc",
        "e261daf3834e195be53c1b76f9e43a3da2bf337c",
    ),
    (
        # the closed forms at the scale of the closed-form benchmark: the
        # layer-graph spectra for k = 300, 600 and 900 (multiplicities of
        # about 2700 bits), then spectrum on four of its (n,k,l) shapes
        "closed-forms-large-k",
        [(form, n, k) for n, k in ((3001, 300), (3050, 600), (3098, 900))
         for form in (spectrum_middle, spectrum_line_middle)]
        + [["spectrum", str(n), str(k), str(l), "--format", fmt, *line]
           for n, k, l in ((420, 12, 13), (700, 34, 666), (950, 58, 117), (999, 60, 122))
           for fmt in _FORMATS for line in _LINE],
        "e7401856615b784617e5121e030f37966bf66e7c63c40349f00a21e7792749f8",
        "7c4f4b7ce054b8030eb37991d662f47beebcac57",
    ),
    (
        # export in every format on every canonical n <= 10: 210 runs
        "export",
        [["export", *t, "--format", fmt] for t in _triples(10) for fmt in ("edgelist", "dot", "graph6")],
        "19d46917616d9140677509c0d588930c913b429fc29183fbab12dd66e8a5eb90",
        "f3d051464d1e83017739b95412256f9ba73d92a0",
    ),
    (
        # aut as table and json, with and without --brute-force, and orbits
        # on vertices, edges and arcs, on every canonical n <= 9, and
        # scheme n k --check for n <= 12: 398 runs
        "aut-orbits-scheme-check",
        [["aut", *t, "--format", fmt, *brute] for t in _triples(9)
         for fmt in ("table", "json") for brute in ([], ["--brute-force"])]
        + [["orbits", *t, "--on", on] for t in _triples(9) for on in ("vertices", "edges", "arcs")]
        + [["scheme", str(n), str(k), "--check"] for n in range(1, 13) for k in range(n // 2 + 1)],
        "09ce7c2f62500c91a740f396a5f37204b9567888c159eb9d2e03d62e16309038",
        "806fdfa001ed8533969e9f963fb3bcbf0e5fc7ff",
    ),
    (
        # the help pages, setincl -h and each command's -h, at 80 columns
        "help",
        [["-h"]] + [[command, "-h"] for command in ("spectrum", "verify", "aut", "orbits", "export", "scheme")],
        "296cf41ff2c57ed7bdb456f5adb81e1534c65f34347452f66e759a8944a13567",
        "2d5ae6a8e5cb7ff0f07cf397f45ab2aa7b103695",
    ),
]


def run(argv):
    """(exit code, stdout) of main(argv)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def digest(runs):
    """The sha256 of the runs' records, in order, as the module docstring says."""
    h = hashlib.sha256()
    for item in runs:
        if isinstance(item, tuple):
            form, n, k = item
            record = (form.__name__, n, k, form(n, k).entries)
        else:
            record = (item, *run(item))
        h.update(repr(record).encode("utf-8"))
    return h.hexdigest()


@pytest.fixture(autouse=True)
def _default_cap(monkeypatch):
    # the digests were taken at the default cap, and argparse wraps help
    # to the width that COLUMNS gives
    monkeypatch.delenv("SETINCL_MAX_VERTICES", raising=False)
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("runs,expected,commit", [row[1:] for row in GOLDEN], ids=[row[0] for row in GOLDEN])
def test_golden_digest(runs, expected, commit):
    assert digest(runs) == expected, f"output differs from the digest taken at {commit}"


def readme_examples():
    """(argv, stdout) of each `$ setincl ...` line in README.md's Examples block."""
    readme = README.read_text(encoding="utf-8")
    block = readme.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for text in block.split("\n\n"):
        command, *lines = text.rstrip("\n").split("\n")
        assert command.startswith("$ setincl "), command
        examples.append((shlex.split(command)[2:], "".join(line + "\n" for line in lines)))
    return examples


# verify prints the eigensolver's deviation, whose digits come from LAPACK
# and the machine, so its examples are shown but not compared
_EXAMPLES = [(argv, out) for argv, out in readme_examples() if argv[0] != "verify"]


@pytest.mark.parametrize("argv,expected", _EXAMPLES, ids=[" ".join(argv) for argv, _ in _EXAMPLES])
def test_readme_example(argv, expected):
    assert run(argv) == (0, expected)


def test_readme_python_example():
    head, block = README.read_text(encoding="utf-8").split("```python\n", 1)
    block = block.split("```", 1)[0]
    # a failure is reported at its line of README.md
    example = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), head.count("\n") + 1)
    result = doctest.DocTestRunner(optionflags=doctest.REPORT_NDIFF).run(example)
    assert result.attempted and not result.failed
