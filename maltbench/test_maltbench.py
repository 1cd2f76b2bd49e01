#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the runtime).

  python3 maltbench/test_maltbench.py

Builds the maltbench binary like run.py does (.bench_build/), then checks input
generation, span self time, the share check, and that verification rejects
planted bad outputs.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import summarize  # noqa: E402


def maltbench(*args):
    return subprocess.run([run.BINARY, *args], capture_output=True, text=True, timeout=300)


class InputsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def digest(self, workload, seed):
        out = maltbench("digest", f"--workload={workload}", f"--seed={seed}")
        self.assertEqual(out.returncode, 0, out.stderr)
        return out.stdout.strip()

    def test_same_seed_same_input_other_seed_differs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.digest(workload, 3)
                self.assertEqual(first, self.digest(workload, 3))
                self.assertNotEqual(first, self.digest(workload, 4))


class VerificationTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_planted_bad_outputs_are_rejected(self):
        for workload in ("svm-shmem-bsp-delta", "mf-shmem-asp"):
            with self.subTest(workload=workload):
                out = maltbench("selftest", f"--workload={workload}", "--seed=5")
                self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
                self.assertRegex(out.stdout, r"clean\s+accepted")
                self.assertRegex(out.stdout, r"dropped-message\s+rejected: messages")
        out = maltbench("selftest", "--workload=mf-shmem-asp", "--seed=5")
        self.assertRegex(out.stdout, r"doubled-weights\s+rejected: test_error")
        out = maltbench("selftest", "--workload=svm-shmem-bsp-delta", "--seed=5")
        self.assertRegex(out.stdout, r"negated-weights\s+rejected: test_error")

    def test_peak_rss_is_the_training_process_own(self):
        ballast = bytearray(200 << 20)  # the launcher's memory must not count
        ballast[::4096] = b"x" * len(ballast[::4096])
        out = maltbench("run", "--workload=mf-sim-bsp", "--seed=3")
        self.assertEqual(out.returncode, 0, out.stderr)
        self.assertLess(json.loads(out.stdout)["peak_rss_mb"], 100)

    def test_failed_run_counts_against_attempted(self):
        good = {"counters": {"fabric.writes_posted": 10, "dstorm.barriers": 2},
                "checks_failed": []}
        bad = dict(good, checks_failed=["messages 9 != expected 10"])
        self.assertEqual(run.account([good, good], 0), (26, 0, 0))
        self.assertEqual(run.account([good, bad], 1), (27, 2, 2))

    def test_benchmark_workloads_are_built_in(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        self.assertTrue(set(names) <= set(run.WORKLOADS), names)
        # The hinge-loss defect probe fails in a load-dependent share of its
        # runs, so it is runnable but not a benchmark workload.
        self.assertNotIn("svm-shmem-bsp", names)

    def test_sim_runs_must_repeat_exactly(self):
        a = {"transport": "sim", "run_clock_s": 1.5, "test_error": 0.4, "messages": 7,
             "bytes": 70}
        self.assertTrue(run.deterministic([a, dict(a)]))
        self.assertFalse(run.deterministic([a, dict(a, run_clock_s=1.5000001)]))
        self.assertTrue(run.deterministic([dict(a, transport="shmem"),
                                           dict(a, transport="shmem", messages=8)]))


class SpanTest(unittest.TestCase):
    @staticmethod
    def span(id_, start, end, parent=0):
        return {"id": id_, "parent": parent, "start_ns": start, "end_ns": end}

    def test_self_time_of_nested_spans(self):
        spans = [
            self.span(1, 0, 100),
            self.span(2, 10, 30, parent=1),
            self.span(3, 20, 50, parent=1),   # overlaps its sibling
            self.span(4, 90, 120, parent=1),  # runs past its parent's end
            self.span(5, 12, 15, parent=2),
            self.span(6, 200, 210),
        ]
        got = summarize.self_times(spans)
        # Root: 100 minus the union [10,50] + [90,100] its children cover.
        self.assertEqual(got[1], 50)
        self.assertEqual(got[2], 17)
        self.assertEqual(got[3], 30)
        self.assertEqual(got[5], 3)
        self.assertEqual(got[6], 10)

    def test_shares_must_sum_to_one(self):
        m = {f"{layer}.wall_share": 0.1 for layer in summarize.WALL_SHARES}
        m["trace.unattributed_share"] = 1.0 - 0.1 * len(summarize.WALL_SHARES)
        self.assertTrue(summarize.check_shares(m))
        m["ml.wall_share"] += 0.01
        self.assertFalse(summarize.check_shares(m))

    def test_percentile(self):
        self.assertEqual(summarize.percentile([], 50), 0.0)
        self.assertEqual(summarize.percentile([3, 1, 2], 50), 2)
        self.assertAlmostEqual(summarize.percentile([0, 10], 99), 9.9)


if __name__ == "__main__":
    unittest.main()
