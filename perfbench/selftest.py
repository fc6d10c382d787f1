#!/usr/bin/env python3
"""Self-test of the host-time benchmark's correctness checks.

    python3 perfbench/selftest.py

Builds the benchmark if needed (through run.py) and checks that
- a perturbed run (loop threshold changed from the golden's 120) is
  counted as a failure, not silently timed;
- two different seeds give the same modeled instruction count per pass
  and no failed run.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(*args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--seconds", "1"] + list(args)
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class PerfbenchSelfTest(unittest.TestCase):
    def test_perturbed_runs_fail(self):
        res = bench("--workload", "jit_steady", "--seed", "1", "--trace",
                    "0", "--perturb-loop-threshold", "30")
        self.assertFalse(res["correct"])
        self.assertGreater(res["attempted"], 0)
        self.assertEqual(res["failed"], res["attempted"])

    def test_seeds_agree_on_modeled_work(self):
        a = bench("--workload", "jit_deopt", "--seed", "1", "--trace", "1")
        b = bench("--workload", "jit_deopt", "--seed", "2", "--trace", "1")
        for res in (a, b):
            self.assertTrue(res["correct"])
            self.assertEqual(res["failed"], 0)
            self.assertEqual(res["metrics"]["fail_share"]["value"], 0)
        self.assertEqual(a["metrics"]["sim.insts"]["value"],
                         b["metrics"]["sim.insts"]["value"])


if __name__ == "__main__":
    unittest.main()
