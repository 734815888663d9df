#!/usr/bin/env python3
"""Self-checks of the benchmark, run from the repository root:

    python3 specbench/test_specbench.py

For every workload: two runs of one seed give bit-identical simulated
metrics, a traced run gives the same simulated metrics as an untraced
one (tracing must not perturb the model), and a held-out seed passes
the correctness check.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["suites_medium", "mispredict_storm", "fleet_bursty"]
SEED = 5
HELD_OUT_SEED = 918273645


def run(workload, seed, trace):
    """Run once with the minimum repetitions; return (sim, result)."""
    out = subprocess.run(
        [sys.executable, "specbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.splitlines()
    sim = next(l for l in lines if l.startswith("sim "))[len("sim "):]
    return json.loads(sim), json.loads(lines[-1])


class SpecbenchTest(unittest.TestCase):
    def test_seed_determinism_and_tracing(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, result = run(workload, SEED, 0)
                second, _ = run(workload, SEED, 0)
                traced, _ = run(workload, SEED, 1)
                self.assertTrue(result["correct"])
                self.assertEqual(first, second)
                self.assertEqual(first, traced)

    def test_held_out_seed_is_correct(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, result = run(workload, HELD_OUT_SEED, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
