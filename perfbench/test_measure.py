"""Self-tests of the benchmark's own logic (no simulator needed).

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
import unittest
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
from measure import (  # noqa: E402
    METRIC_NAME,
    REFERENCE_CAL_S,
    SpanRecorder,
    SpeedSampler,
    digest,
    layer_totals,
    mismatches,
    percentile,
    result_digest,
    self_times,
    speed_factor,
    tail_percentile,
)


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 50), 50)
        self.assertEqual(percentile(values, 90), 90)
        # 56/100 has no exact binary form; the rank must still be 56.
        self.assertEqual(percentile(values, 56), 56)
        self.assertEqual(percentile([7.0], 99), 7.0)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(tail_percentile(100), 90)
        self.assertEqual(tail_percentile(256), 96)
        self.assertEqual(tail_percentile(20), 50)
        self.assertIsNone(tail_percentile(19))
        for count in range(20, 400):
            # Sample i of range(count) has count - 1 - i samples beyond it.
            pct = tail_percentile(count)
            self.assertGreaterEqual(count - 1 - percentile(range(count), pct), 10)
            if pct < 99:
                self.assertLess(count - 1 - percentile(range(count), pct + 1), 10)


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


class SpanSelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]
        recorder = SpanRecorder(clock=FakeClock([0, 1, 4, 5, 6, 7, 9, 10]))
        root = recorder.open("root")
        a = recorder.open("leaf")
        recorder.close(a)
        b = recorder.open("mid")
        c = recorder.open("leaf")
        recorder.close(c)
        recorder.close(b)
        recorder.close(root)
        self.assertEqual(self_times(recorder.spans), [3.0, 3.0, 3.0, 1.0])
        self.assertEqual(layer_totals(recorder.spans),
                         {"root": 3.0, "leaf": 4.0, "mid": 3.0})
        self.assertEqual(sum(self_times(recorder.spans)), 10.0)

    def test_wrap_records_tag_and_note(self):
        recorder = SpanRecorder(clock=FakeClock([0, 2]))
        double = recorder.wrap("double", lambda x: 2 * x,
                               tag_of=lambda x: f"id{x}",
                               note_of=lambda out, x: {"out": out})
        self.assertEqual(double(4), 8)
        self.assertEqual(recorder.spans, [["double", 0, 2, -1, "id4", {"out": 8}]])

    def test_tags_take_the_calls_the_runner_makes(self):
        # runner.run_points calls get_packed_trace(*trace_key, root=, disk_enabled=)
        # and run_trace(config, trace, engine=).
        self.assertEqual(
            worker._trace_tag("mix", 16, 300, 2, 64, root="spool", disk_enabled=False),
            "mix/16x300/seed2",
        )
        directory = SimpleNamespace(kind=SimpleNamespace(value="stash"), coverage_ratio=0.125)
        config = SimpleNamespace(directory=directory)
        self.assertEqual(worker._point_tag(config, None, engine="interp"), "stash/0.125")

    def test_open_and_misordered_spans_are_refused(self):
        recorder = SpanRecorder(clock=FakeClock([0, 1, 2]))
        outer = recorder.open("outer")
        recorder.open("inner")
        with self.assertRaises(RuntimeError):
            recorder.close(outer)
        with self.assertRaises(ValueError):
            self_times(recorder.spans)
        with self.assertRaises(RuntimeError):
            recorder.dump(os.devnull)


class ReferenceCheck(unittest.TestCase):
    def result(self, latency):
        return SimpleNamespace(
            cycles_per_core=[100, 120],
            stats={"system.protocol.accesses": 64.0,
                   "system.protocol.latency_total": latency},
            effective_tracking_samples=[3, 4],
        )

    def test_perturbed_result_fails(self):
        reference = {"mix/stash/0.125": result_digest(self.result(811.5))}
        same = {"mix/stash/0.125": result_digest(self.result(811.5))}
        nudged = {"mix/stash/0.125": result_digest(
            self.result(811.5 + 811.5 * 2 ** -52))}
        self.assertEqual(mismatches(reference, same), [])
        self.assertEqual(mismatches(reference, nudged), ["mix/stash/0.125"])
        self.assertEqual(mismatches(reference, {"mix/ideal/1": same["mix/stash/0.125"]}),
                         ["mix/ideal/1"])

    def test_perturbed_summary_fails_committed_reference(self):
        with open(os.path.join(HERE, "reference", "campaign-serve.json")) as handle:
            table = json.load(handle)["0"]["summaries"]
        key = sorted(table)[0]
        summary = {"execution_time": 1.0, "l1_miss_rate": 0.25}
        observed = {key: digest(summary, 16)}
        self.assertEqual(mismatches(table, observed), [key])
        self.assertEqual(mismatches(table, {key: table[key]}), [])


class HostSpeed(unittest.TestCase):
    def test_factor_is_mean_of_reference_over_sample(self):
        ref = REFERENCE_CAL_S
        samples = [(0.0, ref), (0.5, 2 * ref), (9.0, 4 * ref)]
        self.assertEqual(speed_factor(samples, 0.0, 1.0), 0.75)
        # No sample inside: the nearest one stands in.
        self.assertEqual(speed_factor(samples, 7.0, 8.0), 0.25)
        with self.assertRaises(ValueError):
            speed_factor([], 0.0, 1.0)

    def test_sampler_samples_while_busy(self):
        sampler = SpeedSampler().start()
        try:
            deadline = time.monotonic() + 0.3
            while time.monotonic() < deadline:
                pass
        finally:
            sampler.stop()
        self.assertGreaterEqual(len(sampler.samples), 3)
        stamps = [stamp for stamp, _ in sampler.samples]
        self.assertEqual(stamps, sorted(stamps))
        self.assertTrue(all(seconds > 0 for _, seconds in sampler.samples))
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)


class MetricNames(unittest.TestCase):
    def test_names_match_contract(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
            bench = json.load(handle)
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += [w["name"] for w in bench["workloads"]]
        for name in names + list(run.END_TO_END) + list(run.PER_LAYER):
            self.assertRegex(name, METRIC_NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual([m["name"] for m in bench["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["name"] for m in bench["per_layer"]], list(run.PER_LAYER))
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]),
                         sorted(run.WORKLOADS))
        for metric in bench["end_to_end"] + bench["per_layer"]:
            expected = {**run.END_TO_END, **run.PER_LAYER}[metric["name"]]
            self.assertEqual(metric["unit"], expected, metric["name"])


if __name__ == "__main__":
    unittest.main()
