"""Checks that the benchmark's own checks can fail.

    python3 perfbench/selftest.py      (from the root of a source checkout)

The same seed must give the same inputs, and a corrupted answer -- a wrong
witness table, a flipped membership, a changed sweep counter -- must make
its operation count as failed.  Span self times must add up to the traced
time, and the speed samples must be left out of the measured work.
"""

from __future__ import annotations

import dataclasses
import time
import unittest
from pathlib import Path

import gen
import run
import spans
import speed

run.import_crslab(Path.cwd())

import work  # noqa: E402  (needs crslab on the path)
from crslab import sweeps  # noqa: E402


def _first(kind: str, cls: str, seed: int = 3) -> gen.Request:
    return next(r for r in gen.stream(seed, kind, 400) if r.cls == cls)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for kind in gen.MAKERS:
            a = list(gen.stream(11, kind, 200))
            self.assertEqual(a, list(gen.stream(11, kind, 200)))
            self.assertNotEqual(a, list(gen.stream(12, kind, 200)))

    def test_slice_rebuilds_without_prefix(self):
        for kind in gen.MAKERS:
            whole = list(gen.stream(5, kind, 200))
            self.assertEqual(whole[170:180], list(gen.stream(5, kind, 10, start=170)))

    def test_every_class_occurs_in_every_cycle(self):
        classes = {
            "classify": len(set(gen.CLASSIFY_SCHEDULE)),
            "membership": len(set(gen.MEMBERSHIP_SCHEDULE)),
        }
        for kind, count in classes.items():
            seen = {r.cls for r in gen.stream(1, kind, gen.CYCLE[kind])}
            self.assertEqual(len(seen), count, kind)


class Speed(unittest.TestCase):
    def test_samples_are_left_out_of_the_work(self):
        clock = time.perf_counter
        with speed.Speedometer() as meter:
            t0 = clock()
            while clock() - t0 < 0.2:
                speed.kernel()
            t1 = clock()
        raw, norm = meter.work(t0, t1)
        inside = sum(
            min(end, t1) - max(start, t0)
            for start, end in zip(meter.starts, meter.ends) if end > t0 and start < t1
        )
        self.assertGreater(meter.samples(), 10)
        self.assertGreater(inside, 0.0)
        self.assertAlmostEqual(raw + inside, t1 - t0, places=9)
        self.assertGreater(norm, 0.0)
        half = (t0 + t1) / 2
        self.assertAlmostEqual(sum(meter.work(t0, half)) + sum(meter.work(half, t1)),
                               raw + norm, places=9)


class SelfTimes(unittest.TestCase):
    def test_self_times_sum_to_root_time(self):
        tracer = spans.Tracer()
        inner = tracer.wrap("inner", lambda: sum(range(20000)))
        outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
        for _ in range(4):
            outer()
        times = tracer.layer_times()
        self.assertEqual((times["outer"][0], times["inner"][0]), (4, 12))
        self.assertAlmostEqual(sum(s for _c, s in times.values()), tracer.root_seconds(), places=9)
        self.assertGreater(times["inner"][1], 0.0)


class CorruptedAnswersFail(unittest.TestCase):
    def setUp(self):
        self.api = work.layer_api()

    def test_correct_answers_pass(self):
        for kind, (pipeline, check, _record) in work.PIPELINES.items():
            for req in gen.stream(2, kind, gen.CYCLE[kind]):
                self.assertEqual(check(req, pipeline(self.api, req.text)), [], req)

    def test_wrong_witness_table(self):
        req = _first("classify", "planted-b-k3")
        out = work.classify(self.api, req.text)
        witness = out.verdict.witness
        (u, x), (v, y) = list(witness.table.items())[:2]
        table = {**witness.table, u: y, v: x}
        out.verdict = dataclasses.replace(
            out.verdict, witness=dataclasses.replace(witness, table=table))
        self.assertTrue(work.check_classify(req, out))

    def test_flipped_membership(self):
        for cls in ("B-k3-member", "C-k2-non-member"):
            req = _first("membership", cls)
            out = work.membership(self.api, req.text)
            self.assertEqual(work.check_membership(req, out), [])
            out.report = dataclasses.replace(out.report, member=not out.report.member)
            self.assertTrue(work.check_membership(req, out), cls)

    def test_flipped_membership_counts_as_failed(self):
        pipeline, check, record = work.PIPELINES["membership"]

        def flipped(api, text):
            out = pipeline(api, text)
            out.report = dataclasses.replace(out.report, member=not out.report.member)
            return out

        work.PIPELINES["membership"] = (flipped, check, record)
        try:
            result = run.run_requests("membership", 4, 40, None, speed.Speedometer())
        finally:
            work.PIPELINES["membership"] = (pipeline, check, record)
        self.assertEqual(len(result["problems"]), 40)

    @staticmethod
    def _pinned_suites():
        """Suite results and sweep counters as this commit produces them."""
        kinds = {
            "sweep_b_equivalence": sweeps.EquivalenceSweep,
            "sweep_c_equivalence": sweeps.EquivalenceSweep,
            "sweep_small_order": sweeps.SmallOrderSweep,
            "sweep_properties": sweeps.PropertySweep,
        }
        captured = {
            name: kinds[name](**pinned) for name, (_suite, pinned) in work.PINNED_SWEEPS.items()
        }
        results = [
            sweeps.SuiteResult(name, name not in work.EXPECTED_FAIL, "", 0.0)
            for name in sweeps.SUITE_ORDER
        ]
        return results, captured

    @staticmethod
    def _failed(results, captured) -> set[str]:
        return {name for name, found in work.check_suites(results, captured).items() if found}

    def test_changed_sweep_counter(self):
        results, captured = self._pinned_suites()
        self.assertEqual(self._failed(results, captured), set())
        captured["sweep_c_equivalence"] = dataclasses.replace(
            captured["sweep_c_equivalence"], out_of_range_inconsistent=1)
        self.assertEqual(self._failed(results, captured), {"c-equivalence"})

    def test_designed_failure_must_keep_failing(self):
        results, captured = self._pinned_suites()
        results = [dataclasses.replace(r, passed=True) for r in results]
        self.assertEqual(self._failed(results, captured), {"c-equivalence"})


if __name__ == "__main__":
    unittest.main()
