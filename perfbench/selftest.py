"""Self-test of the benchmark's own code at smoke size.

    python3 perfbench/selftest.py

Checks that each correctness gate rejects a planted bad result and passes a
good one, that the tracer nests, restores and derives self time correctly on
a hand-built span tree, that the closed loop stops near its budget and
runs the whole input pool, and that a pool input gets one verdict.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
import time
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gates  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from eprsim import fitting, fock, gaussian, homodyne, tomography  # noqa: E402


class FitGateTest(unittest.TestCase):
    def test_true_parameters_pass(self):
        self.assertEqual(gates.fit_failures(0.44, 0.52, 0.44, 0.52, "fit_single"), [])

    def test_eta_on_bound_is_rejected(self):
        # the wrong-basin fit of the seed-23 sweep: (0.844, 0.783) fitted as (0.752, 1.000)
        planted = fitting.FitResult(zeta=0.752, eta=1.0 - 1e-9, theta0=0.0, rate=1e-4, rss=0.1, converged=True)
        failures = gates.fit_failures(planted.zeta, planted.eta, 0.844, 0.783, "fit_single")
        self.assertTrue(any("on its bound" in f for f in failures), failures)

    def test_eta_on_bound_allowed_when_true_eta_is_near_one(self):
        self.assertEqual(gates.fit_failures(0.5, 1.0, 0.5, 0.995, "fit_single"), [])

    def test_extrema_off_by_more_than_five_percent_is_rejected(self):
        v_min, _ = gates.variance_extrema(0.44, 0.52)
        # same eta, zeta raised until the minimum drops by 6 %
        zeta = 0.5 * math.log(0.52 / (2 * 0.94 * v_min - 0.48))
        failures = gates.fit_failures(zeta, 0.52, 0.44, 0.52, "fit_single")
        self.assertTrue(any("min variance" in f for f in failures), failures)

    def test_extrema_match_the_package_variance_curves(self):
        v_min, v_max = gates.variance_extrema(0.44, 0.52)
        self.assertAlmostEqual(v_min, float(gaussian.single_mode_variance(0.44, 0.52, 0.0)), places=12)
        self.assertAlmostEqual(v_max, float(gaussian.single_mode_variance(0.44, 0.52, math.pi / 2)), places=12)


class TomographyGateTest(unittest.TestCase):
    def test_planted_numbers(self):
        self.assertEqual(gates.tomography_failures(0.99, [0.10, 0.11], [0.103, 0.103]), [])
        self.assertEqual(len(gates.tomography_failures(0.97, [0.10, 0.11], [0.103, 0.103])), 1)
        self.assertEqual(len(gates.tomography_failures(0.99, [0.10, 0.13], [0.103, 0.103])), 1)

    def test_reconstruction_against_wrong_reference_is_rejected(self):
        state = gaussian.epr_pipeline(gaussian.PipelineConfig(zeta=0.44, eta=0.5))
        config = workloads.TomoComplete._sweep(4000, 7)
        rho, _ = tomography.reconstruct(
            homodyne.sample(state, config), tomography.TomographyConfig(cutoff=3, max_iterations=50)
        )
        wrong, _ = fock.gaussian_to_fock(gaussian.epr_pipeline(gaussian.PipelineConfig(zeta=0.9, eta=0.9)), 3, tail_tol=1.0)
        failures = gates.tomography_failures(
            fock.fidelity(rho, wrong),
            [fock.mean_photon(rho, m) for m in range(2)],
            [fock.mean_photon(wrong, m) for m in range(2)],
        )
        self.assertGreaterEqual(len(failures), 2, failures)


class CliCheckTest(unittest.TestCase):
    """The cli_workflow output check on a hand-built output directory."""

    def setUp(self):
        run.RUNS.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.RUNS))
        self.workflow = workloads.CliWorkflow(1, self.root)
        self.workflow.setup()
        self.op = self.root / "op0"
        outputs = {
            "single": ("single", ["single_data.csv", "single_trace.csv", "single_fit.json"]),
            "epr": ("epr", ["epr_data.csv", "epr_fit.json"]),
            "tomo": ("tomo", ["tomo_state.json", "tomo_summary.json"]),
            "refit": ("fit", ["fit_fit.json"]),
        }
        for sub, (prefix, names) in outputs.items():
            (self.op / sub).mkdir(parents=True)
            for name in names:
                (self.op / sub / name).write_text("{}")
            (self.op / sub / f"{prefix}_manifest.json").write_text(json.dumps({"outputs": names}))
        self._write("single/single_fit.json", {"zeta": 0.44, "eta": 0.52})
        self._write("refit/fit_fit.json", {"zeta": 0.44, "eta": 0.50})
        self._write("tomo/tomo_summary.json", {"mean_photon": [self.workflow.reference_mean_photon]})
        self.design = json.dumps([{"quantity": "walkoff_path", "value": self.workflow.design_value, "unit": "m"}])

    def tearDown(self):
        shutil.rmtree(self.root)

    def _write(self, name, payload):
        (self.op / name).write_text(json.dumps(payload))

    def test_good_outputs_pass(self):
        self.assertEqual(self.workflow._check(self.op, self.design), [])

    def test_missing_output_is_rejected(self):
        (self.op / "epr" / "epr_data.csv").unlink()
        self.assertEqual(len(self.workflow._check(self.op, self.design)), 1)

    def test_on_bound_refit_is_rejected(self):
        self._write("refit/fit_fit.json", {"zeta": 0.40, "eta": 1.0})
        failures = self.workflow._check(self.op, self.design)
        self.assertTrue(any("on its bound" in f for f in failures), failures)

    def test_wrong_mean_photon_is_rejected(self):
        self._write("tomo/tomo_summary.json", {"mean_photon": [self.workflow.reference_mean_photon + 0.03]})
        self.assertEqual(len(self.workflow._check(self.op, self.design)), 1)

    def test_wrong_design_value_is_rejected(self):
        bad = json.dumps([{"quantity": "walkoff_path", "value": self.workflow.design_value * 1.001}])
        self.assertEqual(len(self.workflow._check(self.op, bad)), 1)


def _span(name, start, end, parent=None):
    return tracing.Span(name, float(start), float(end), parent)


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            _span("op", 0, 10),
            _span("a", 1, 4, 0),
            _span("a.child", 2, 3, 1),
            _span("b", 5, 7, 0),
            _span("c", 6, 8, 0),  # overlaps b: the union [5, 8] is covered once
        ]
        self.assertEqual(tracing.self_times(spans), [4.0, 2.0, 1.0, 2.0, 2.0])

    def test_same_name_nesting_counts_one_call(self):
        spans = [_span("g", 0, 4), _span("h", 0.5, 1, 0), _span("g", 1, 2, 0), _span("g", 1.5, 1.75, 2)]
        totals = tracing.layer_totals(spans)
        self.assertEqual(totals["g"]["calls"], 1)
        self.assertEqual(totals["g"]["busy_s"], 4.0)
        self.assertEqual(totals["g"]["self_s"], 3.5)  # 4 minus h's 0.5
        self.assertEqual(totals["h"], {"calls": 1, "busy_s": 0.5, "self_s": 0.5})


class TracerTest(unittest.TestCase):
    def test_wrapping_nests_records_and_restores(self):
        lib = types.SimpleNamespace()
        lib.inner = lambda x: x + 1
        lib.outer = lambda x: lib.inner(x) * 2

        def fail():
            raise ValueError("planted")

        lib.fail = fail
        originals = dict(vars(lib))
        tracer = tracing.Tracer()
        tracer.patch(lib, "inner", "layer.inner", lambda a, k, r: {"seen": a[0]})
        tracer.patch(lib, "outer", "layer.outer")
        tracer.patch(lib, "fail", "layer.fail")
        tracer.op = 7
        self.assertEqual(lib.outer(3), 8)
        with self.assertRaises(ValueError):
            lib.fail()
        tracer.uninstall()
        self.assertEqual(vars(lib), originals)
        outer, inner, failed = tracer.spans
        self.assertEqual((outer.name, outer.parent, inner.parent), ("layer.outer", None, 0))
        self.assertEqual((inner.attrs, inner.op), ({"seen": 3}, 7))
        self.assertEqual((failed.parent, failed.attrs), (None, {"raised": "ValueError"}))

    def test_classmethod_patch(self):
        class Box:
            @classmethod
            def make(cls, value):
                return cls, value

        tracer = tracing.Tracer()
        tracer.patch(Box, "make", "box.make")
        self.assertEqual(Box.make(5), (Box, 5))
        tracer.uninstall()
        self.assertIsInstance(Box.__dict__["make"], classmethod)
        self.assertEqual([s.name for s in tracer.spans], ["box.make"])


class ClosedLoopTest(unittest.TestCase):
    def test_stops_near_budget(self):
        def unit(index):
            time.sleep(0.01)
            return 0.01

        durations, window = run.closed_loop(0.05, unit)
        self.assertTrue(4 <= len(durations) <= 6, len(durations))
        self.assertLess(window, 0.08)

    def test_runs_the_whole_pool(self):
        durations, _ = run.closed_loop(0.0, lambda index: 0.0, minimum=5)
        self.assertEqual(len(durations), 5)


class VerdictsTest(unittest.TestCase):
    def test_one_verdict_per_pool_input(self):
        verdicts = run.Verdicts(3)
        for index in range(7):  # three passes over the pool, the last one partial
            item = index % 3
            verdicts.add(item, ["fit_single: eta on its bound"] if item == 1 else [])
        self.assertEqual(verdicts.failures(), [[], ["fit_single: eta on its bound"], []])

    def test_changed_gate_result_on_repeat_is_a_failure(self):
        verdicts = run.Verdicts(2)
        for failures in ([], ["tomography: fidelity 0.9700 < 0.98"], []):
            verdicts.add(0, failures)
        verdicts.add(1, [])
        first, second = verdicts.failures()
        self.assertEqual(len(first), 1, first)
        self.assertTrue(first[0].startswith("repeat:"), first)
        self.assertEqual(second, [])


if __name__ == "__main__":
    unittest.main()
