"""Tests of the benchmark itself: every checker accepts right outputs and
rejects wrong ones, spans give self times, and the metric names match
BENCHMARK.json.  Run with ``python3 perfbench/selftest.py``; stdlib only,
a few seconds."""

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from worker import run_job, run_pass  # noqa: E402

from setincl.spectra import spectrum_inclusion, spectrum_line_inclusion  # noqa: E402
from setincl.graphs import GraphParams  # noqa: E402


def cli(*argv):
    _, (rc, data) = run_job(workloads.Job("", (), None, argv=tuple(map(str, argv))), None)
    return rc, data


class NegativeControls(unittest.TestCase):
    """Each checker must be able to fail."""

    def test_spectrum_with_one_multiplicity_changed_fails(self):
        spec = spectrum_inclusion(GraphParams(6, 2, 3))
        self.assertTrue(checks.spectrum_ok(spec, 6, 2, 3, False))
        pairs = list(spec.entries)
        ev, mult = pairs[1]
        pairs[1] = (ev, mult + 1)
        self.assertFalse(checks.spectrum_ok(type(spec)(pairs), 6, 2, 3, False))

    def test_printed_spectrum_with_one_multiplicity_changed_fails(self):
        for fmt in ("table", "json", "csv"):
            rc, data = cli("spectrum", 7, 2, 4, "--line", "--format", fmt)
            text = data.decode()
            self.assertTrue(checks.spectrum_text_ok(rc, text, fmt, 7, 2, 4, True), fmt)
            if fmt == "json":
                entries = json.loads(text)
                entries[2]["multiplicity"] = str(int(entries[2]["multiplicity"]) + 1)
                bad = json.dumps(entries)
            else:
                lines = text.splitlines()
                sep = "," if fmt == "csv" else "  "
                value, mult = lines[2].rsplit(sep, 1)
                lines[2] = f"{value}{sep}{int(mult) - 1}"
                bad = "\n".join(lines) + "\n"
            self.assertFalse(checks.spectrum_text_ok(rc, bad, fmt, 7, 2, 4, True), fmt)

    def test_orbit_count_off_by_one_fails(self):
        for t, on in (((6, 1, 3), "vertices"), ((6, 2, 4), "arcs")):
            rc, data = cli("orbits", *t, "--on", on)
            text = data.decode()
            self.assertTrue(checks.orbits_ok(rc, text, *t, on))
            count = int(text.split(":")[1])
            self.assertFalse(checks.orbits_ok(rc, f"orbits on {on}: {count + 1}\n", *t, on))

    def test_wrong_intersection_number_fails(self):
        rc, data = cli("scheme", 30, 4)
        text = data.decode()
        self.assertTrue(checks.scheme_numbers_ok(rc, text, 30, 4))
        lines = text.splitlines()
        for row in range(len(lines)):
            for col in range(5):
                bad = lines[:]
                head, values = bad[row].split("[")
                values = [int(v) for v in values.rstrip("]").split(",")]
                values[col] += 1
                bad[row] = f"{head}[{', '.join(map(str, values))}]"
                self.assertFalse(checks.scheme_numbers_ok(rc, "\n".join(bad), 30, 4), (row, col))

    def test_export_with_an_edge_moved_fails(self):
        t = (6, 2, 3)
        digest = checks.inclusion_edge_digest(*t)
        for fmt in ("edgelist", "dot", "graph6"):
            rc, data = cli("export", *t, "--format", fmt)
            self.assertTrue(checks.export_ok(data, fmt, *t, digest), fmt)
        rc, data = cli("export", *t, "--format", "edgelist")
        lines = data.decode().splitlines()
        u, v = lines[1].split()
        lines[1] = f"{u} {int(v) + 1}"
        self.assertFalse(checks.export_ok(("\n".join(lines) + "\n").encode(), "edgelist", *t, digest))

    def test_negative_control_job_counts_as_detected_only_on_exit_1(self):
        control = workloads._verify((5, 2, 3), perturb=0.5)
        result = run_pass([control])
        self.assertEqual((result["failed"], result["detected"]), (0, 1))
        self.assertFalse(checks.verify_ok(0, "verify ... -> PASS", expect_pass=False))

    def test_wrong_brute_force_order_fails(self):
        rc, data = cli("aut", 5, 2, 3, "--brute-force")
        self.assertTrue(checks.brute_force_ok(rc, data.decode(), 5, 2, 3))
        self.assertFalse(checks.brute_force_ok(rc, data.decode(), 5, 1, 3))


class Parsers(unittest.TestCase):
    def test_table_tokens_round_trip(self):
        spec = spectrum_line_inclusion(GraphParams(9, 2, 4))
        rc, data = cli("spectrum", 9, 2, 4, "--line")
        parsed = [checks.parse_eigenvalue(row.split()[0]) for row in data.decode().splitlines()]
        self.assertEqual(type(spec)((ev, 1) for ev in parsed), type(spec)((ev, 1) for ev, _ in spec))


class Spans(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = spans.Tracer()
        tracer.spans[:] = [
            (0, "spectra.closed_form", 0.0, 10.0, -1, 0),
            (0, "combinatorics.beta", 1.0, 4.0, 0, 0),
            (0, "combinatorics.binom", 2.0, 3.0, 1, 0),
            (0, "combinatorics.beta", 5.0, 6.0, 0, 0),
        ]
        totals = tracer.layer_totals()
        self.assertEqual(totals["spectra.closed_form.self_s"], 6.0)
        self.assertEqual(totals["combinatorics.beta.self_s"], 3.0)
        self.assertEqual(totals["combinatorics.beta.calls"], 2)
        self.assertEqual(totals["combinatorics.binom.self_s"], 1.0)

    def test_install_records_nested_calls_and_uninstall_restores(self):
        import setincl.cli as cli_module

        before = cli_module.main
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.request = 0
            with contextlib.redirect_stdout(io.StringIO()):
                cli_module.main(["scheme", "20", "3"])
        finally:
            tracer.request = None
            tracer.uninstall()
        self.assertIs(cli_module.main, before)
        totals = tracer.layer_totals()
        self.assertEqual(totals["cli.main.calls"], 1)
        self.assertEqual(totals["combinatorics.intersection_number.calls"], 3 * 4 // 2 * 4)
        self.assertEqual(totals["cli.main.errors"], 0)


class Contract(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in declared["end_to_end"]], [k for k, _ in run.END_TO_END])
        self.assertEqual([m["name"] for m in declared["per_layer"]], [k for k, _ in spans.metric_names()])
        self.assertEqual([w["name"] for w in declared["workloads"]], list(run.WORKLOADS))

    def test_run_length_is_the_declared_run_seconds(self):
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(run.run_seconds(), declared["run_seconds"])
        for name in run.WORKLOADS:
            self.assertGreaterEqual(run.pass_count(name, declared["run_seconds"], 0), 2, name)

    def test_same_seed_same_jobs(self):
        for name, gen in workloads.WORKLOADS.items():
            first = [[j.label for j in jobs] for jobs in gen(7, 3)]
            self.assertEqual(first, [[j.label for j in jobs] for jobs in gen(7, 3)], name)
            self.assertNotEqual(first, [[j.label for j in jobs] for jobs in gen(8, 3)], name)

    def test_closed_form_never_repeats_even_past_its_window(self):
        for passes in (20, 150):
            jobs = [j for p in workloads.closed_form(3, passes) for j in p]
            keys = [j.key for j in jobs]
            self.assertEqual(len(keys), len(set(keys)), passes)
            slots = {j.place for j in jobs}
            self.assertEqual(len(jobs), passes * len(slots), passes)

if __name__ == "__main__":
    unittest.main()
