"""In-memory spans around setincl's public functions, for per-layer numbers.

The benchmark replaces each traced function where its callers look it up
(the names bound in ``setincl.cli``, ``setincl.spectra``,
``setincl.automorphisms`` and ``setincl.graphs``, or the method on its
class) with a wrapper that records a span, and puts the originals back
afterwards.  A layer's self time is the sum of its spans' durations minus
the time covered by their direct child spans.
"""

from __future__ import annotations

from math import comb
from time import perf_counter

import setincl.automorphisms as automorphisms
import setincl.cli as cli
import setincl.combinatorics as combinatorics
import setincl.graphs as graphs
import setincl.spectra as spectra


def _orbit_objects(args, kwargs, result) -> int:
    g = args[0]
    on = kwargs.get("on", args[2] if len(args) > 2 else "vertices")
    return {"vertices": g.num_vertices, "edges": g.num_edges, "arcs": 2 * g.num_edges}[on]


# (owner, attribute, layer metric prefix, work counter, work(args, kwargs, result))
TRACE_POINTS = (
    (cli, "main", "cli.main", "errors", lambda a, kw, r: int(r != 0)),
    (cli, "build_inclusion_graph", "graphs.build_inclusion_graph", "edges", lambda a, kw, r: r.num_edges),
    (cli, "build_line_graph", "graphs.build_line_graph", "vertices", lambda a, kw, r: r.num_vertices),
    (graphs.Graph, "adjacency_matrix", "graphs.adjacency_matrix", "entries", lambda a, kw, r: r.size),
    (cli, "johnson_scheme_holds", "graphs.johnson_scheme_holds", "entries",
     lambda a, kw, r: (a[1] + 1) * comb(a[0], a[1]) ** 2),
    (cli, "export_graph", "graphs.export_graph", "bytes", lambda a, kw, r: len(r)),
    (graphs, "parse_graph6", "graphs.parse_graph6", None, None),
    (cli, "eigensolver_oracle", "spectra.eigensolver_oracle", "dim3", lambda a, kw, r: len(r) ** 3),
    (cli, "spectrum_inclusion", "spectra.closed_form", None, None),
    (cli, "spectrum_line_inclusion", "spectra.closed_form", None, None),
    (spectra, "spectrum_middle", "spectra.closed_form", None, None),
    (spectra, "spectrum_line_middle", "spectra.closed_form", None, None),
    (spectra.Spectrum, "__init__", "spectra.Spectrum", "distinct", lambda a, kw, r: len(a[0].entries)),
    (cli, "compare_spectra", "spectra.compare_spectra", "floats", lambda a, kw, r: len(a[1])),
    (cli, "format_eigenvalue", "spectra.format", None, None),
    (spectra.Spectrum, "to_json_obj", "spectra.format", None, None),
    (spectra.Spectrum, "to_csv_text", "spectra.format", None, None),
    (spectra, "beta", "combinatorics.beta", None, None),
    (spectra, "binom", "combinatorics.binom", None, None),
    (combinatorics, "intersection_number", "combinatorics.intersection_number", None, None),
    (graphs, "intersection_number", "combinatorics.intersection_number", None, None),
    (cli, "aut_group", "automorphisms.aut_group", "images",
     lambda a, kw, r: sum(len(g.images) for g in r.generators)),
    (automorphisms, "is_automorphism", "automorphisms.is_automorphism", "edges", lambda a, kw, r: a[0].num_edges),
    (cli, "orbit_count", "automorphisms.orbit_count", "objects", _orbit_objects),
    (cli, "brute_force_aut_order", "automorphisms.brute_force_aut_order", "leaves", lambda a, kw, r: r),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in a fixed order."""
    out: list[tuple[str, str]] = []
    for _, _, layer, work, _ in TRACE_POINTS:
        for name, unit in ((f"{layer}.self_s", "s"), (f"{layer}.calls", "count")):
            if (name, unit) not in out:
                out.append((name, unit))
        if work and (f"{layer}.{work}", "count") not in out:
            out.append((f"{layer}.{work}", "count"))
    return out + [("trace.overhead_s", "s"), ("trace.spans", "count")]


class Tracer:
    """Records spans ``(request, layer, start, end, parent, work)`` while
    installed; ``request`` is the job index and spans are taken only while
    it is set, so the benchmark's own checks are never traced."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, layer, work):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            request = self.request
            if request is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result, done = None, False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                amount = work(args, kwargs, result) if done and work else 0
                spans[index] = (request, layer, start, end, parent, amount)

        return traced

    def install(self) -> None:
        for owner, attr, layer, _, work in TRACE_POINTS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, work))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, float]:
        """Sums over all recorded spans, keyed like metric_names()."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        works = {layer: work for _, _, layer, work, _ in TRACE_POINTS}
        totals = {name: 0 for name, _ in metric_names()}
        for i, (_, layer, start, end, _, amount) in enumerate(self.spans):
            totals[f"{layer}.self_s"] += end - start - child[i]
            totals[f"{layer}.calls"] += 1
            if works[layer]:
                totals[f"{layer}.{works[layer]}"] += amount
        totals["trace.spans"] = len(self.spans)
        return totals
