#!/usr/bin/env python3
"""fairbfl_sim fails loudly on bad input.

Every unknown name exits 1 and lists the known ones; a non-finite or
out-of-range number exits 1 like a malformed one; a setting the library
rejects with an exception (zero clients) exits 1 with one line naming the
reason instead of aborting.  A valid small run is the control.

Usage: test_fairbfl_sim_cli.py PATH/TO/fairbfl_sim
"""

import subprocess
import sys
import unittest

SIM = None
SMALL = ["--rounds=1", "--samples=200"]


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


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    SIM = sys.argv.pop(1)
    unittest.main()
