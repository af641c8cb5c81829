#!/usr/bin/env python3
"""fairbfl_sim fails loudly on bad input, and its trace carries what CI reads.

Every unknown name exits 1 and lists the known ones; a non-finite or
out-of-range number exits 1 like a malformed one; a setting the library
rejects with an exception (zero clients) exits 1 with one line naming the
reason instead of aborting.  A valid small run is the control.

CI's perf steps run fairbfl_sim with --trace-format=json and read per-round
`seconds.*` keys and `index_peak_bytes` from the trace, and `wall_s=` from
the summary line; a traced run must provide all of them.

Usage: test_fairbfl_sim_cli.py PATH/TO/fairbfl_sim
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

SIM = None
SMALL = ["--rounds=1", "--samples=200"]
# The per-round stage keys the CI perf steps read from a JSON trace.
CI_STAGE_KEYS = ("local", "cluster", "index_build", "shard_cluster",
                 "root_cluster", "aggregate", "mine", "wait_quorum", "total")


def run_sim(*flags):
    return subprocess.run([SIM, *SMALL, *flags], capture_output=True,
                          text=True, timeout=60, check=False)


class BadInput(unittest.TestCase):
    def assert_rejected(self, flags, *needles):
        result = run_sim(*flags)
        self.assertEqual(result.returncode, 1, result.stderr)
        for needle in needles:
            self.assertIn(needle, result.stderr)

    def test_unknown_attack(self):
        self.assert_rejected(["--clients=4", "--attack=bogus"],
                             "--attack: unknown attack 'bogus'",
                             "known: none signflip gaussian scale")

    def test_unknown_partition(self):
        self.assert_rejected(["--clients=4", "--partition=bogus"],
                             "--partition: unknown scheme 'bogus'",
                             "known: iid shards dirichlet")

    def test_unknown_model(self):
        self.assert_rejected(["--clients=4", "--model=bogus"],
                             "--model: unknown model 'bogus'",
                             "known: logistic mlp")

    def test_unknown_index(self):
        self.assert_rejected(["--clients=4", "--index=sampled"],
                             "--index: unknown backend 'sampled'",
                             "known: exact, lazy, random_projection)")

    def test_non_finite_number(self):
        self.assert_rejected(["--clients=4", "--eta=nan"],
                             "--eta: 'nan' is not a finite number")

    def test_out_of_range_integer(self):
        self.assert_rejected(["--clients=4", "--seed=99999999999999999999"],
                             "--seed: '99999999999999999999' is not an "
                             "integer")

    def test_zero_clients(self):
        self.assert_rejected(["--clients=0"],
                             "fairbfl_sim: partition: zero clients")

    def test_valid_run_succeeds(self):
        result = run_sim("--clients=4", "--attack=signflip",
                         "--partition=iid", "--model=mlp")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("# FAIR:", result.stdout)


class TracedRun(unittest.TestCase):
    def test_json_trace_carries_ci_keys_and_wall_time(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.json")
            result = run_sim("--clients=8", "--ratio=1", "--index=exact",
                             f"--trace={path}", "--trace-format=json")
            self.assertEqual(result.returncode, 0, result.stderr)
            with open(path, encoding="utf-8") as handle:
                rounds = json.load(handle)["rounds"]
        self.assertTrue(rounds)
        for entry in rounds:
            for key in CI_STAGE_KEYS:
                self.assertIn(key, entry["seconds"])
        self.assertGreater(max(entry["index_peak_bytes"] for entry in rounds),
                           0)
        summary = re.search(r"^# FAIR: .* wall_s=([0-9.]+)$", result.stdout,
                            re.MULTILINE)
        self.assertIsNotNone(summary, result.stdout)
        self.assertGreater(float(summary.group(1)), 0.0)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    SIM = sys.argv.pop(1)
    unittest.main()
