#!/usr/bin/env python3
"""The benchmark's own tests: output schema, metric names, layer sanity, and
negative checks proving that a corrupted payload, a failed settle, a wrong
CRI binding and a hang (on a receiver and on a sender) are each caught and
counted.

Run from anywhere: python3 bench_e2e/test_bench.py  (about two minutes once the
driver is built; the first run builds it).
"""
import json
import os
import re
import shutil
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

SMOKE_SECONDS = "1"


def bench(*args, timeout=170):
    """Run the benchmark command; returns (exit code, stdout lines, result or None)."""
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + list(args),
                       cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                       timeout=timeout)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return p.returncode, lines, result


class Spec(unittest.TestCase):
    def test_setup_metric_and_bounds(self):
        e2e = {m["name"]: m for m in SPEC["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(e2e["setup_s"]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))
        self.assertTrue(all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"]))


class Smoke(unittest.TestCase):
    """Every workload, untraced and traced: schema, names, units, correctness."""

    def check_result(self, res):
        self.assertIsNotNone(res)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)

    def test_untraced(self):
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines, res = bench("--workload", w, "--seed", "7", "--seconds", SMOKE_SECONDS)
                self.assertEqual(code, 0)
                self.check_result(res)
                self.assertEqual(set(res["metrics"]), set(units))
                for name, m in res["metrics"].items():
                    self.assertEqual(m["unit"], units[name])
                    self.assertGreater(m["value"], 0, name)
                # The report names the driver's own metrics with units.
                text = "\n".join(lines[:-1])
                for name in run.source_of(w).values():
                    self.assertIn(name, text)
                self.assertIn("op_fail_ratio", text)

    def test_traced(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        layers = {}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, _, res = bench("--workload", w, "--seed", "7", "--seconds", "2",
                                     "--trace", "1")
                self.assertEqual(code, 0)
                self.check_result(res)
                self.assertEqual(list(res["metrics"]), names)
                layers[w] = {n: m["value"] for n, m in res["metrics"].items()}
                trace = os.path.join(run.build_dir(), "traces", "%s-seed7.json" % w)
                with open(trace) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(any(e.get("cat") == "bench" and e["ph"] == "X" for e in events))
        # Each layer group does work where the table says and is idle where
        # it says the layer is bypassed.
        for w, lv in layers.items():
            with self.subTest(layers=w):
                rel = lv["rel.acks_per_msg"]
                coll = lv["coll.rounds_per_op"] + lv["fabric.bytes_per_op"]
                if w == "pairwise_reliable":
                    self.assertGreater(rel, 0.5)
                else:
                    self.assertEqual(rel + lv["rel.retransmits_per_msg"], 0)
                if w.startswith("allreduce"):
                    self.assertGreater(coll, 0)
                    self.assertGreater(lv["allreduce.self_p50_ns"], 0)
                else:
                    self.assertEqual(coll, 0)
                    self.assertGreater(lv["isend.p50_ns"], 0)
                    self.assertGreater(lv["wait_all.self_p50_ns"], 0)
                self.assertGreater(lv["setup.universe_ns"], 0)
                self.assertGreater(lv["lock.match.engine.acq_per_msg"], 0)
        self.assertGreater(layers["incast"]["match.oos_per_msg"],
                           5 * layers["pairwise"]["match.oos_per_msg"])
        # Crossed: each receiver drains the other pair's traffic and matches
        # it into a communicator its partner is posting on.
        self.assertGreater(layers["pairwise_crossed"]["lock.match.engine.wait_ns_per_msg"],
                           3 * layers["pairwise"]["lock.match.engine.wait_ns_per_msg"])
        self.assertGreater(layers["pairwise_crossed"]["cri.trylock_fail_per_msg"],
                           1.5 * layers["pairwise"]["cri.trylock_fail_per_msg"])
        self.assertGreater(layers["allreduce_1MiB"]["payload_pool.peak_bytes"], 0)
        self.assertEqual(layers["incast"]["cri.orphan_sweeps_per_msg"], 0)


class Negative(unittest.TestCase):
    def expect_caught(self, workload, inject, *extra):
        code, lines, res = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--inject", inject, *extra)
        self.assertNotEqual(code, 0, "a failed check must fail the run")
        text = "\n".join(lines)
        self.assertIn("correct False", text)
        counted = re.search(r"correct False\s+attempted (\d+)\s+failed (\d+)", text)
        self.assertIsNotNone(counted)
        self.assertGreaterEqual(int(counted.group(2)), 1, "the failure must be counted")
        return code, text, res

    def test_corrupt_payload(self):
        for w in ("pairwise", "incast", "allreduce_8B"):
            with self.subTest(workload=w):
                _, _, res = self.expect_caught(w, "corrupt")
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)
                # One corrupted message is one failure, not a cascade.
                self.assertLessEqual(res["failed"], 2)

    def test_failed_settle(self):
        _, _, res = self.expect_caught("pairwise", "fail_settle")
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)

    def test_wrong_binding(self):
        _, text, res = self.expect_caught("pairwise", "wrong_binding")
        self.assertIsNone(res)  # refused before timing: no metrics
        self.assertIn("expected 1", text)

    def test_hang_guard(self):
        # A receive no one sends, on a receiver and on a sender: the driver's
        # limit (2 * 1 s + 30 s) ends the run and the stuck ops count as failed.
        for inject in ("hang", "hang_sender"):
            with self.subTest(inject=inject):
                t = time.monotonic()
                _, text, res = self.expect_caught("pairwise", inject)
                self.assertIsNone(res)
                self.assertIn("time limit", text)
                self.assertLess(time.monotonic() - t, 60)

    def test_without_engine_sources(self):
        # A directory holding only BENCHMARK.json and bench_e2e/ must fail
        # fast without printing a result.
        iso = os.path.join(run.build_dir(), "isolated")
        shutil.rmtree(iso, ignore_errors=True)
        os.makedirs(iso)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
        shutil.copytree(HERE, os.path.join(iso, "bench_e2e"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        p = subprocess.run([sys.executable, "bench_e2e/run.py", "--workload", "pairwise",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=iso, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=170)
        shutil.rmtree(iso, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
