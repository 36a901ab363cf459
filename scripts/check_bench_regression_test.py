#!/usr/bin/env python3
"""Self-test for check_bench_regression.py.

Usage:
    python3 scripts/check_bench_regression_test.py

Runs the checker over small hand-written hotpath documents and reads
the flags it prints in its summary table.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPTS_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKER = os.path.join(SCRIPTS_DIR, "check_bench_regression.py")


def hotpath(cores, fit_ms, observe_ms, observe_cores=None):
    row = {"d": 16, "observe_ms": observe_ms}
    if observe_cores is not None:
        row["hardware_cores"] = observe_cores
    return {
        "bench": "hotpath",
        "hardware_cores": cores,
        "forest_fit": [{"d": 16, "n": 50, "fit_ms": fit_ms}],
        "ddpg_observe": [row],
    }


def flags(current, baseline):
    """Runs the checker; returns {metric: flag} from its table."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, doc in (("current", current), ("baseline", baseline)):
            path = os.path.join(tmp, name + ".json")
            with open(path, "w") as f:
                json.dump(doc, f)
            paths.append(path)
        env = dict(os.environ)
        env.pop("GITHUB_STEP_SUMMARY", None)
        proc = subprocess.run([sys.executable, CHECKER, *paths], env=env,
                              capture_output=True, text=True, check=True)
    out = {}
    for line in proc.stdout.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) == 7 and cells[1].startswith("`"):
            out[cells[1].strip("`")] = cells[5]
    return out


FIT = "forest_fit.fit_ms[d=16,n=50]"
OBSERVE = "ddpg_observe.observe_ms[d=16]"


class CoreCountTest(unittest.TestCase):
    def test_same_cores_flags_regression(self):
        got = flags(hotpath(4, 3.0, 10.0), hotpath(4, 1.0, 5.0))
        self.assertEqual(got[FIT], "REGRESSION")
        self.assertEqual(got[OBSERVE], "REGRESSION")

    def test_other_core_count_is_not_comparable(self):
        got = flags(hotpath(4, 3.0, 5.0), hotpath(1, 1.0, 5.0))
        self.assertEqual(got[FIT],
                         "not comparable (baseline 1 cores, current 4)")

    def test_row_cores_override_the_file(self):
        got = flags(hotpath(4, 3.0, 10.0), hotpath(1, 1.0, 5.0,
                                                   observe_cores=4))
        self.assertTrue(got[FIT].startswith("not comparable"))
        self.assertEqual(got[OBSERVE], "REGRESSION")

    def test_deterministic_metrics_ignore_cores(self):
        racing = {"bench": "racing", "config": {},
                  "summary": {"work_ratio": 0.5}}
        current = dict(racing, hardware_cores=4,
                       summary={"work_ratio": 0.6})
        got = flags(current, dict(racing, hardware_cores=1))
        self.assertEqual(len(got), 1)
        self.assertEqual(next(iter(got.values())),
                         "REGRESSION (deterministic)")


if __name__ == "__main__":
    unittest.main(verbosity=2)
