"""Tests of the benchmark itself (not of pcgl).

Run from the repository root:  python3 perfbench/selftest.py

The file name keeps it out of the repository's pytest collection: the traced
replays take several seconds, and the counts they compare belong to whatever
pcgl version is checked out, so only their repeatability is asserted here.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from check import check  # noqa: E402
from inputs import make_workload  # noqa: E402
from run import ROOT, WORKLOADS, Runner  # noqa: E402


def _workdir() -> str:
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=base)


def tearDownModule():
    try:
        os.rmdir(os.path.join(ROOT, ".perfbench_work"))
    except OSError:
        pass


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        dirs = [_workdir() for _ in range(3)]
        try:
            for name in WORKLOADS:
                a = make_workload(name, 7, dirs[0])
                b = make_workload(name, 7, dirs[1])
                c = make_workload(name, 8, dirs[2])
                self.assertEqual(a, b, name)
                self.assertNotEqual(a["sha256"], c["sha256"], name)
        finally:
            for d in dirs:
                shutil.rmtree(d)


class TracedChainTest(unittest.TestCase):
    """Two traced replays of one chain input, shared by the checks below."""

    @classmethod
    def setUpClass(cls):
        cls.workdir = _workdir()
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        cls.runner = Runner(make_workload("chain", 1, cls.workdir), cls.workdir, env)
        cls.layers = [cls.runner.traced_pass()[1] for _ in range(2)]
        with open(os.path.join(cls.workdir, "traced-0.out"), "rb") as fh:
            cls.report = fh.read()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir)

    def test_reports_pass_the_checker(self):
        self.assertEqual((self.runner.attempted, self.runner.failed), (2, 0))

    def test_checker_rejects_a_flipped_link(self):
        op = self.runner.ops[0]
        doc = json.loads(self.report)
        doc["links"][5]["verified"] = False
        tampered = json.dumps(doc, indent=2, sort_keys=True).encode() + b"\n"
        self.assertIsNone(check(op, 0, self.report))
        self.assertIsNotNone(check(op, 0, tampered))

    def test_traced_counts_repeat(self):
        first, second = ({name: rec["calls"] for name, rec in layers.items()} for layers in self.layers)
        self.assertEqual(first, second)
        self.assertGreater(first["linalg.solve"], 0)
        self.assertEqual(self.layers[0]["cluster.seed_for_tau"]["distinct"],
                         self.layers[1]["cluster.seed_for_tau"]["distinct"])
        print(f"\nchain: linalg.solve.calls = {first['linalg.solve']}, "
              f"cluster.seed_for_tau.calls = {first['cluster.seed_for_tau']} over "
              f"{self.layers[0]['cluster.seed_for_tau']['distinct']} distinct tau", file=sys.stderr)


if __name__ == "__main__":
    unittest.main()
