"""Self-tests of the benchmark (not part of the engine's test suite).

    python3 perfbench/selftest.py

Checks that the corpus and the plans are deterministic per seed, that the
oracle rejects wrong answers, that every sample must exit like the checked
output of its item, that traced and untraced reports are
byte-identical, that every per-layer and end-to-end name in BENCHMARK.json is
emitted, and that a directory without the engine makes the benchmark fail.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import gen_corpus  # noqa: E402
import oracle  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def final_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class CorpusTest(unittest.TestCase):
    def test_pool_texts_come_from_the_seed(self):
        pool = corpus.load_pool()
        first = gen_corpus.generate(pool["seed"])
        self.assertEqual(first, gen_corpus.generate(pool["seed"]))
        self.assertEqual([(e["id"], e["text"]) for e in first],
                         [(e["id"], e["text"]) for e in pool["sections"]])
        self.assertNotEqual([e["text"] for e in first],
                            [e["text"] for e in gen_corpus.generate(pool["seed"] + 1)])

    def test_plans_are_deterministic_per_seed(self):
        pool = corpus.load_pool()
        for workload in corpus.WORKLOADS:
            with self.subTest(workload=workload):
                a = corpus.plan(workload, 5, pool)
                self.assertEqual(a, corpus.plan(workload, 5, pool))
                self.assertNotEqual(a, corpus.plan(workload, 6, pool))

    def test_every_plannable_item_has_a_digest(self):
        pool, digests = corpus.load_pool(), corpus.load_digests()
        for workload in corpus.WORKLOADS:
            for item in corpus.all_items(workload, pool):
                self.assertIn(item["key"], digests)


class OracleTest(unittest.TestCase):
    def test_evaluator(self):
        names = oracle.point_names((Fraction(1, 2), Fraction(3)))
        self.assertEqual(oracle.evaluate("(x1^2 - 1)/(x2 + 3)", names), Fraction(-1, 8))
        self.assertEqual(oracle.evaluate("-2*x1^3 + 3/2*x2", names), Fraction(17, 4))

    def test_wrong_answers_are_rejected(self):
        pool = corpus.load_pool()
        check = oracle.Oracle(pool)
        entry = next(e for e in pool["sections"] if e["family"] == "product_projective")
        item = {"op": "compute", "sections": [entry["id"]]}
        report = {"kind": "PRODUCT_TRIPLE_2D", "constants": {"c": entry["expect"]["c"]},
                  "jacobi_residuals": ["0"], "integrable": True, "residual": None}
        check.check(item, 0, json.dumps({"result": report, "residuals": ["0"]}))
        report["constants"]["c"] = str(Fraction(entry["expect"]["c"]) + 1)
        with self.assertRaises(oracle.Mismatch):
            check.check(item, 0, json.dumps({"result": report, "residuals": ["0"]}))
        with self.assertRaises(oracle.Mismatch):
            oracle.check_cli({"expect": {"exit": 2}}, 1, "", "Traceback (most recent call)")


class CheckSamplesTest(unittest.TestCase):
    def setUp(self):
        import run

        self.check_samples = run.check_samples
        self.empty = hashlib.sha256(b"").hexdigest()
        self.items = [{"op": "cli", "key": "usage", "expect": {"exit": 2}}]

    def test_a_later_sample_with_another_exit_code_fails(self):
        outputs = {0: {"code": 2, "stdout": "", "stderr": "usage: vessiot", "error": None}}
        samples = [[0, 1, 2, self.empty, 0], [0, 1, 1, self.empty, 0],
                   [0, 1, 2, self.empty, 0]]
        failures = {}
        self.assertEqual(self.check_samples(self.items, samples, outputs,
                                            {"usage": self.empty}, None, failures), 1)
        self.assertIn("exit 1", failures["usage"])

    def test_an_arithmetic_error_in_the_oracle_fails_the_item(self):
        class Pole:
            def check(self, item, code, stdout):
                raise ZeroDivisionError("pole at a probe point")

        items = [{"op": "compute", "key": "k"}]
        outputs = {"0": {"code": 0, "stdout": "{}", "stderr": "", "error": None}}
        failures = {}
        self.assertEqual(self.check_samples(items, [[0, 1, 0, self.empty, 2]], outputs,
                                            {"k": self.empty}, Pole(), failures), 1)
        self.assertIn("ZeroDivisionError", failures["k"])


class TraceParityTest(unittest.TestCase):
    def test_traced_reports_are_byte_identical(self):
        import worker
        from tracer import Tracer

        vessiot = worker.import_engine()
        pool, digests = corpus.load_pool(), corpus.load_digests()
        corpus.write_sections(pool)
        os.chdir(ROOT)
        items = (corpus.plan("catalog_batch", 3, pool)[:6]
                 + corpus.plan("metric_ladder", 3, pool)[:2]
                 + corpus.plan("jet_systems", 3, pool)[:3])
        plain = [worker.run_item(vessiot, item) for item in items]
        original = vessiot.structure.solve_square
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(vessiot.structure.solve_square, original)
            traced = [worker.run_item(vessiot, item) for item in items]
        finally:
            tracer.uninstall()
        self.assertIs(vessiot.structure.solve_square, original)
        self.assertEqual(plain, traced)
        for item, (_, out, _) in zip(items, traced):
            self.assertEqual(hashlib.sha256(out.encode()).hexdigest(), digests[item["key"]])
        self.assertGreater(tracer.stats["linalg.solve_square"][0], 0)


class EmittedNamesTest(unittest.TestCase):
    def test_traced_runs_emit_every_per_layer_name(self):
        names = [m["name"] for m in BENCHMARK["per_layer"]]
        moved = {"cli_corpus": "process.import_ms", "metric_ladder": "curvature.riemann.ms",
                 "catalog_batch": "linalg.solve_square.ms",
                 "jet_systems": "jetcalc.prolong.ms"}
        for workload in corpus.WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "2",
                                 "--trace", "1")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = final_line(proc)
                self.assertTrue(result["correct"])
                self.assertEqual(sorted(result["metrics"]), sorted(names))
                self.assertGreater(result["metrics"][moved[workload]]["value"], 0)

    def test_untraced_run_emits_every_end_to_end_name(self):
        # three seconds of work, extended until p90 has ten samples beyond it
        proc = run_bench("--workload", "jet_systems", "--seed", "1", "--seconds", "3",
                         "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = final_line(proc)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in BENCHMARK["end_to_end"]))
        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))
        self.assertGreaterEqual(result["attempted"], 100)

    def test_directory_without_the_engine_fails(self):
        bare = os.path.join(corpus.WORK, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = run_bench("--workload", "cli_corpus", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
