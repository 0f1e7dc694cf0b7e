#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m unittest discover -s nsbench/tests -v

The first test run builds the program through run.py.  The digest test
runs every workload three times; million_node and analytic_optimize take
30-60 s a run, so the whole file takes several minutes.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(*args):
    """Runs run.py with `args` from the checkout root."""
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py")] +
                          list(args), cwd=ROOT, capture_output=True,
                          text=True, timeout=600)


def result(workload, seed, trace="0"):
    """The parsed result line and the digest line of one 1-second run."""
    done = bench("--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    digest = [line for line in lines if line.startswith("nsbench digest ")]
    assert len(digest) == 1, lines
    return json.loads(lines[-1]), digest[0].split()[-1]


class MetricNames(unittest.TestCase):
    def test_declared_names_are_well_formed(self):
        spec = load_spec()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_printed_metrics_match_the_declaration(self):
        spec = load_spec()
        for trace, declared in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            out, _ = result("paper_sweep", 7, trace)
            self.assertTrue(out["correct"])
            self.assertEqual(out["failed"], 0)
            self.assertGreaterEqual(out["attempted"], 1)
            printed = out["metrics"]
            self.assertEqual(list(printed), [m["name"] for m in declared])
            for metric in declared:
                self.assertTrue(NAME.fullmatch(metric["name"]))
                self.assertEqual(printed[metric["name"]]["unit"],
                                 metric["unit"])


class Digests(unittest.TestCase):
    def test_seed_decides_the_digest_traced_or_not(self):
        """Same seed, same digest, also from a traced run; other seed,
        other digest."""
        for workload in [w["name"] for w in load_spec()["workloads"]]:
            with self.subTest(workload=workload):
                untraced, a = result(workload, 11, "0")
                traced, b = result(workload, 11, "1")
                other, c = result(workload, 12, "0")
                for out in (untraced, traced, other):
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)


class Arguments(unittest.TestCase):
    MALFORMED = [
        [],
        ["--workload", "paper_sweep", "--seed", "1", "--seconds", "1"],
        ["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace",
         "0"],
        ["--workload", "paper_sweep", "--seed", "-1", "--seconds", "1",
         "--trace", "0"],
        ["--workload", "paper_sweep", "--seed", "1x", "--seconds", "1",
         "--trace", "0"],
        ["--workload", "paper_sweep", "--seed", str(2 ** 64), "--seconds",
         "1", "--trace", "0"],
        ["--workload", "paper_sweep", "--seed", "1", "--seconds", "0",
         "--trace", "0"],
        ["--workload", "paper_sweep", "--seed", "1", "--seconds", "1.5",
         "--trace", "0"],
        ["--workload", "paper_sweep", "--seed", "1", "--seconds", "1",
         "--trace", "2"],
        ["--workload", "paper_sweep", "--seed", "1", "--seconds", "1",
         "--trace", "0", "--extra", "1"],
        ["--workload", "paper_sweep", "--workload", "paper_sweep", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        ["--workload", "paper_sweep", "--seed", "1", "--seconds", "1",
         "--trace"],
    ]

    def test_malformed_arguments_exit_2_without_a_result(self):
        for args in self.MALFORMED:
            with self.subTest(args=args):
                done = bench(*args)
                self.assertEqual(done.returncode, 2, done.stderr)
                self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
