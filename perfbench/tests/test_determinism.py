#!/usr/bin/env python3
"""Seed and determinism self-test of the repo benchmark.

    python3 perfbench/tests/test_determinism.py

Run from the repository root; it builds the benchmark like run.py does and
takes about two minutes (three archive set-ups train two autoencoders).

Checks, per workload:
  * the same seed gives byte-identical inputs, another seed other inputs;
  * figures that depend only on the seed repeat exactly across runs: the
    compression ratios and the failed operations per pass (the
    "determinism" detail row), and stored_ratio, attempted and failed in
    the result line;
  * the result line carries exactly the end-to-end metrics BENCHMARK.json
    names, and a traced run exactly the per-layer ones.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("archive", "service", "timeseries")
SEED = 7


def bench(*args):
    out = subprocess.run(
        [sys.executable, RUN, *args], cwd=ROOT, capture_output=True, text=True,
        timeout=900,
    )
    if out.returncode != 0:
        raise AssertionError("run.py %s failed:\n%s" % (" ".join(args), out.stderr[-4000:]))
    return [json.loads(line) for line in out.stdout.strip().splitlines()]


def rows(lines, name):
    return [r for r in lines if r.get("row") == name]


class Determinism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_inputs_follow_the_seed(self):
        for w in WORKLOADS:
            a = bench("--workload", w, "--seed", str(SEED), "--inputs-only")[-1]
            b = bench("--workload", w, "--seed", str(SEED), "--inputs-only")[-1]
            c = bench("--workload", w, "--seed", str(SEED + 1), "--inputs-only")[-1]
            self.assertEqual(a["inputs_crc32c"], b["inputs_crc32c"], w)
            self.assertNotEqual(a["inputs_crc32c"], c["inputs_crc32c"], w)

    def test_seeded_figures_repeat_exactly(self):
        e2e = [m["name"] for m in self.spec["end_to_end"]]
        for w in WORKLOADS:
            runs = [bench("--workload", w, "--seed", str(SEED), "--seconds", "1",
                          "--trace", "0") for _ in range(2)]
            det = [rows(r, "determinism") for r in runs]
            self.assertEqual(len(det[0]), 1, w)
            self.assertEqual(det[0], det[1], w)
            results = [r[-1] for r in runs]
            for res in results:
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertEqual(list(res["metrics"]), e2e, w)
                self.assertTrue(res["correct"], w)
                self.assertGreaterEqual(res["attempted"], 1, w)
                for m in res["metrics"].values():
                    self.assertGreater(m["value"], 0, w)
            for key in ("attempted", "failed"):
                self.assertEqual(results[0][key], results[1][key], w)
            self.assertEqual(results[0]["metrics"]["stored_ratio"],
                             results[1]["metrics"]["stored_ratio"], w)
            self.assertEqual(results[0]["metrics"]["stored_ratio"]["value"],
                             det[0][0]["stored_ratio"], w)

    def test_traced_run_reports_every_layer_metric(self):
        per_layer = [m["name"] for m in self.spec["per_layer"]]
        res = bench("--workload", "service", "--seed", str(SEED), "--seconds", "1",
                    "--trace", "1")[-1]
        self.assertEqual(list(res["metrics"]), per_layer)
        self.assertGreater(res["metrics"]["service.client_ms_p50"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
