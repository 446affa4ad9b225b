"""Self-test of the benchmark at tiny scale (under a minute).

    python3 bench/test_bench.py        (or: python3 -m pytest bench/test_bench.py)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpora  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
TINY_SECONDS = 0.5
SPEC = json.loads(run.SPEC_FILE.read_text())


def tiny(workload: str, trace: bool, seed: int = 7) -> dict:
    return run.run(workload, seed, TINY_SECONDS, trace)


class MetricsTest(unittest.TestCase):
    def test_every_metric_with_its_unit_on_every_workload(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = tiny(workload, trace)
                    self.assertTrue(result["correct"], result["record"]["failures"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, value in result["metrics"].items():
                        self.assertIsInstance(value["value"], (int, float), name)
                    if workload == "build-sparse" and trace:
                        injected = sum(result["record"]["bad_lines"].values())
                        self.assertEqual(result["metrics"]["corpus.skipped"]["value"], injected)
                        self.assertGreater(injected, 0)


class CorpusTest(unittest.TestCase):
    def test_same_seed_same_corpus(self):
        terms = _terms()
        for make in (lambda s: corpora.dense(s, 300, terms),
                     lambda s: corpora.sparse(s, 300, terms)):
            self.assertEqual(make(5).sha256, make(5).sha256)
            self.assertNotEqual(make(5).sha256, make(6).sha256)

    def test_planted_entries_are_exactly_the_lexicon_words(self):
        """The tokens of a record that are lexicon words are exactly the
        words of the entries planted in it, and each planted phrase occurs
        as a contiguous token run."""
        from lexdrift import tokenize
        terms = _terms()
        forbidden = corpora.lexicon_tokens(terms)
        # With every sparse record marked, a phrase split by a later
        # insertion shows up within a few thousand records.
        for corpus in (corpora.dense(3, 200, terms), corpora.sparse(3, 400, terms),
                       corpora.sparse(3, 3000, terms, marked_share=1.0)):
            texts: dict[str, str] = {}
            for line in corpus.data.splitlines():
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                texts.setdefault(record["id"], record.get("text"))
            for doc_id, _, _, planted in corpus.docs:
                tokens = tokenize(texts[doc_id])
                self.assertEqual(set(tokens) & forbidden,
                                 {w for t in planted for w in t.split()})
                joined = f" {' '.join(tokens)} "
                for entry in planted:
                    self.assertIn(f" {entry} ", joined, doc_id)


class OracleTest(unittest.TestCase):
    def test_corrupted_expectation_is_reported_as_failure(self):
        real = oracle.Oracle.query_counts

        def off_by_one(self, node):
            counts = real(self, node)
            first = min(counts)
            counts[first] += 1
            return counts

        with mock.patch.object(oracle.Oracle, "query_counts", off_by_one):
            result = tiny("build-sparse", False)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["record"]["failed_ratio"], 0)


class ContractTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        """Only BENCHMARK.json and bench/: nonzero exit and no result line."""
        run.OUT.mkdir(exist_ok=True)
        bare = run.OUT / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.SPEC_FILE, bare / run.SPEC_FILE.name)
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "build-sparse",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


def _terms():
    from lexdrift import builtin_lexicon
    return builtin_lexicon().terms()


if __name__ == "__main__":
    unittest.main()
