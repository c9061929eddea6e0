"""Job pools of the three benchmark workloads.

A workload is a function of ``--seed`` and a pass count that returns the
job list of each pass, picked and ordered by a ``random.Random`` seeded from
the workload name and the seed, so a seed and a pass count always give the
same jobs.  A job runs either through ``setincl.cli.main(argv)`` or through
one named public library function, and carries the check that decides
whether its output is right.

* oracle -- the acceptance sweep: ``verify`` on every canonical triple with
  n <= 8, ``verify --line`` for n <= 7 up to 140 line-graph vertices,
  ``scheme --check`` for n <= 10, and one negative control (an injected
  perturbation that must fail).  Time is in the numeric eigensolver and in
  many small graph builds.
* structure -- orbits, exports and graph6 reads on graphs with 10^3-10^4
  vertices (both k+l<n and k+l=n), plus ``aut --brute-force`` on the
  canonical instances with n <= 8 inside the default 40-vertex cap.  No
  eigensolver; the same (n,k,l) recurs within a pass.
* closed-form -- exact spectra for n in the hundreds with k up to 60,
  intersection numbers, and the layer-graph closed forms for n in the
  thousands.  No graph is built, and no (n,k,l) ever repeats in a process.

Every slot needs several repetitions within one run (see worker.py), so no
single job may take seconds: the two 210-vertex line graphs, (7,2,4) and
(7,2,5), and the brute-force search of (8,1,6) are left out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable

import checks


@dataclass(frozen=True)
class Job:
    """One timed call.  ``argv`` names a CLI job; otherwise ``call`` is
    "<module>.<function>" in setincl, applied to ``args``, or, when ``feed``
    is set, to the stdout bytes of the job just before it.  ``slot`` names
    the job's place in the pool, which recurs in every pass (the label
    unless the inputs change from pass to pass)."""

    label: str
    key: tuple
    check: Callable[[object], bool]
    argv: tuple = ()
    call: str = ""
    args: tuple = ()
    feed: bool = False
    negative: bool = False
    slot: str = ""

    @property
    def place(self) -> str:
        return self.slot or self.label


def _on_text(check, *args):
    """Adapt check(rc, text, *args) to a check of a CLI job's (rc, stdout)."""

    def run(out):
        rc, data = out
        return check(rc, data.decode("utf-8"), *args)

    return run


def _cli(argv, key, check, negative=False) -> Job:
    argv = tuple(str(a) for a in argv)
    return Job(" ".join(argv), key, check, argv=argv, negative=negative)


def canonical_triples(max_n: int):
    """Every (n,k,l) with n <= max_n, 1 <= k < l <= n-1 and k+l <= n."""
    return [
        (n, k, l)
        for n in range(3, max_n + 1)
        for k in range(1, n // 2 + 1)
        for l in range(k + 1, n - k + 1)
    ]


def _shuffled(rng: random.Random, units) -> list[Job]:
    """Shuffle units (tuples of jobs that must run back to back) and flatten."""
    units = list(units)
    rng.shuffle(units)
    return [job for unit in units for job in unit]


# ---------------------------------------------------------------------------
# oracle


def _verify(t, line=False, perturb=0.0) -> Job:
    argv = ["verify", *t] + (["--line"] if line else [])
    if perturb:
        argv += ["--inject-perturbation", perturb]
    return _cli(argv, t, _on_text(checks.verify_ok, not perturb), negative=bool(perturb))


def _scheme_check(n, k) -> Job:
    return _cli(["scheme", n, k, "--check"], (n, k, None), _on_text(checks.scheme_check_ok))


# left out: 2-4 s each (verify --line on the first two, brute force on the
# third), which would leave too few repetitions of every slot in one run
HEAVY = {(7, 2, 4), (7, 2, 5), (8, 1, 6)}


def oracle(seed: int, passes: int) -> list[list[Job]]:
    rng = random.Random(f"oracle:{seed}")
    units = (
        [(_verify(t),) for t in canonical_triples(8)]
        + [(_verify(t, line=True),) for t in canonical_triples(7) if t not in HEAVY]
        + [(_scheme_check(n, k),) for n in range(2, 11) for k in range(1, n // 2 + 1)]
    )
    controls = canonical_triples(6)
    out = []
    for _ in range(passes):
        # the negative control: a perturbed oracle eigenvalue must make
        # verify exit 1
        control = _verify(rng.choice(controls), perturb=round(rng.uniform(0.1, 1.0), 3))
        control = replace(control, slot="negative control")
        out.append(_shuffled(rng, units + [(control,)]))
    return out


# ---------------------------------------------------------------------------
# structure

# (n,k,l): vertices, edges.  k+l<n: (12,3,6) 1144, 18480; (14,3,5) 2366, 20020;
# (15,4,6) 6370, 75075.  k+l=n: (12,5,7) 1584, 16632; (13,5,8) 2574, 72072.
STRUCTURE_TRIPLES = ((12, 3, 6), (12, 5, 7), (14, 3, 5), (13, 5, 8), (15, 4, 6))
# graph6 is quadratic in the vertex count, so it is written and read back
# only on the two smallest graphs.
GRAPH6_TRIPLES = ((12, 3, 6), (12, 5, 7))
BRUTE_FORCE_CAP = 40  # the CLI's default search cap


@lru_cache(maxsize=None)
def _edge_digest(t) -> str:
    return checks.inclusion_edge_digest(*t)


def _export_check(t, fmt, out) -> bool:
    rc, data = out
    return rc == 0 and checks.export_ok(data, fmt, *t, _edge_digest(t))


def _export(t, fmt) -> tuple[Job, ...]:
    job = _cli(["export", *t, "--format", fmt], t, partial(_export_check, t, fmt))
    if fmt != "graph6":
        return (job,)
    read = Job(
        f"parse_graph6({'%d,%d,%d' % t})",
        t,
        lambda g: checks.graph_ok(g, *t, _edge_digest(t)),
        call="graphs.parse_graph6",
        feed=True,
    )
    return (job, read)


def structure(seed: int, passes: int) -> list[list[Job]]:
    rng = random.Random(f"structure:{seed}")
    units = [
        (_cli(["orbits", *t, "--on", on], t, _on_text(checks.orbits_ok, *t, on)),)
        for t in STRUCTURE_TRIPLES
        for on in ("vertices", "edges", "arcs")
    ]
    units += [_export(t, fmt) for t in STRUCTURE_TRIPLES for fmt in ("edgelist", "dot")]
    units += [_export(t, "graph6") for t in GRAPH6_TRIPLES]
    units += [
        (_cli(["aut", *t, "--brute-force"], t, _on_text(checks.brute_force_ok, *t)),)
        for t in canonical_triples(8)
        if checks.sizes(*t)[0] + checks.sizes(*t)[1] <= BRUTE_FORCE_CAP and t not in HEAVY
    ]
    return [_shuffled(rng, units) for _ in range(passes)]


# ---------------------------------------------------------------------------
# closed-form

FORMATS = ("table", "json", "csv")
SPECTRUM_KS = tuple(range(4, 62, 2))
SCHEME_KS = (6, 10, 14, 18, 22)
LIBRARY_KS = (300, 600, 900)
WINDOW = 100  # n values a template draws from, wider only past 50 passes


def _spectrum(t, line, fmt) -> Job:
    argv = ["spectrum", *t, "--format", fmt] + (["--line"] if line else [])
    return _cli(argv, t, _on_text(checks.spectrum_text_ok, fmt, *t, line))


def _library_spectrum(func, n, k) -> Job:
    line = func == "spectrum_line_middle"
    t = (n, k, k + 1)
    return Job(
        f"{func}({n},{k})",
        t,
        lambda spec: checks.spectrum_ok(spec, *t, line),
        call=f"spectra.{func}",
        args=(n, k),
    )


def closed_form(seed: int, passes: int) -> list[list[Job]]:
    """Each template fixes k, the shape of l, --line and the format, and
    takes one n per pass from a seeded sample of its window, so no (n,k,l)
    repeats in a process and a seed and a pass count fix every input."""
    rng = random.Random(f"closed-form:{seed}")
    width = max(WINDOW, 2 * passes)

    def draw(lo: int, count: int = passes) -> list[int]:
        return rng.sample(range(lo, lo + width), count)

    templates = []  # (slot, one job per pass)
    for i, k in enumerate(SPECTRUM_KS):
        for line in (False, True):
            # l = k+1 (layer graph), l = n-k (k+l=n) or l just above 2k;
            # the beta sums have 2 terms for the first shape, k+1 otherwise
            shape = (i + line) % 3
            fmt = FORMATS[(i + 2 * line) % 3]
            jobs = [
                _spectrum((n, k, (k + 1, n - k, 2 * k + 1 + line)[shape]), line, fmt)
                for n in draw(300 + 10 * k)
            ]
            templates.append((f"spectrum k={k} line={line}", jobs))
    for k in SCHEME_KS:
        jobs = [
            _cli(["scheme", n, k], (n, k, None), _on_text(checks.scheme_numbers_ok, n, k))
            for n in draw(300)
        ]
        templates.append((f"scheme k={k}", jobs))
    for k in LIBRARY_KS:
        # both functions share (n,k,k+1), so they split one sample
        ns = draw(3000, 2 * passes)
        for func, part in (("spectrum_middle", ns[:passes]), ("spectrum_line_middle", ns[passes:])):
            templates.append((f"{func} k={k}", [_library_spectrum(func, n, k) for n in part]))
    return [
        _shuffled(rng, [(replace(jobs[p], slot=slot),) for slot, jobs in templates])
        for p in range(passes)
    ]


WORKLOADS = {"oracle": oracle, "structure": structure, "closed-form": closed_form}

# First job of every fresh process, outside every pool; it ends set-up.
WARMUP = {
    "oracle": _verify((9, 1, 2)),
    "structure": _cli(["orbits", 10, 2, 4, "--on", "edges"], (10, 2, 4),
                      _on_text(checks.orbits_ok, 10, 2, 4, "edges")),
    "closed-form": _spectrum((100, 5, 20), line=True, fmt="json"),
}
