"""Offline unit tests of perfbench/suite.py: the statistics, how passes
become metrics, the correctness gate, and the compare verdicts.

    python3 perfbench/suite.py --self-test
"""

import json
import unittest

import suite

PROBES = ("fl.train_one", "cluster.index_build", "incentive.identify",
          "chain.tx_encode", "chain.seal", "chain.submit", "crypto.keygen",
          "crypto.sign", "crypto.verify", "crypto.encrypt", "crypto.decrypt")


def fake_pass(round_s, setup_s=1.0, digest="d", failures=(), mode="pass",
              rss_kb=2048.0, layers=None, key_bits=0):
    n = len(round_s)
    return {
        "mode": mode, "round_s": list(round_s), "setup_s": setup_s,
        "digest": digest, "failures": list(failures),
        "participants": [4.0] * n, "selected": [4.0] * n,
        "useful_updates": [3.0] * n, "late_updates": [1.0] * n,
        "sim_delay_s": [2.0] * n, "detection_rate": [0.5] * n,
        "peak_rss_kb": rss_kb, "final_accuracy": 0.9, "clients": 4,
        "key_bits": key_bits, "layers": layers or [],
        "kernels": "scalar", "pool_threads": 4, "telemetry": False,
    }


def fake_layer_row(round_s=0.010):
    return {
        "round_s": round_s, "local_s": 0.004, "cluster_s": 0.002,
        "aggregate_s": 0.001, "aggregate_calls": 2.0, "mine_s": 0.001,
        "local_client_calls": 4.0, "local_client_sum_s": 0.012,
        "local_client_p50_s": 0.003, "identify_calls": 1.0, "scan_s": 0.0015,
        "index_build_s": 0.0005, "index_build_calls": 1.0, "index_reuse": 1.0,
        "index_bytes": 800.0, "engine_events": 4.0, "engine_event_s": 1e-5,
    }


def fake_probe(seconds=0.0025):
    return {"probes": {name: {"p50_s": seconds, "calls": 21}
                       for name in PROBES},
            "failures": []}


class StatisticsTest(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        self.assertEqual(suite.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertAlmostEqual(suite.percentile(range(1, 101), 90), 90.1)
        self.assertEqual(suite.percentile([7], 90), 7)

    def test_per_index_minimum_is_taken_across_passes(self):
        passes = [[1, 5, 9], [2, 4, 8], [3, 6, 70]]
        self.assertEqual(suite.per_index_minima(passes), [1, 4, 8])

    def test_quartile_spread_uses_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 10.0]
        q1, _, q3 = __import__("statistics").quantiles(values, n=4)
        self.assertEqual(suite.quartile_spread(values), q3 - q1)
        self.assertEqual(suite.quartile_spread([5.0]), 0.0)


class AggregationTest(unittest.TestCase):
    def test_warmup_is_dropped_and_bursts_are_filtered(self):
        rounds = [9.0] * suite.WARMUP + [1.0] * 100
        burst = list(rounds)
        burst[50:60] = [30.0] * 10  # host bursts in two of three passes
        passes = [fake_pass(rounds, setup_s=3.0),
                  fake_pass(burst, setup_s=1.0, rss_kb=4096.0),
                  fake_pass(burst, setup_s=2.0)]
        metrics = suite.e2e_metrics(passes)
        self.assertEqual(metrics["round_p50_s"], 1.0)
        self.assertEqual(metrics["round_p90_s"], 1.0)
        self.assertEqual(metrics["updates_per_s"], 4.0)
        self.assertEqual(metrics["peak_rss_mb"], 4.0)

    def test_setup_is_the_median_over_passes_and_setup_processes(self):
        rounds = [1.0] * 10
        passes = [fake_pass(rounds, setup_s=s) for s in (5.0, 1.0, 2.0)]
        self.assertEqual(suite.e2e_metrics(passes)["setup_s"], 2.0)
        self.assertEqual(suite.e2e_metrics(passes, [6.0, 7.0])["setup_s"],
                         5.0)

    def test_p90_reads_the_slow_tail(self):
        rounds = [0.0] * suite.WARMUP + [1.0] * 80 + [2.0] * 20
        metrics = suite.e2e_metrics([fake_pass(rounds)] * 3)
        self.assertEqual(metrics["round_p50_s"], 1.0)
        self.assertEqual(metrics["round_p90_s"], 2.0)

    def test_upload_prediction_and_residual(self):
        rows = [fake_layer_row()] * (suite.WARMUP + 20)
        traced = fake_pass([0.01] * len(rows), mode="traced", layers=rows,
                           key_bits=1024)
        untraced = [fake_pass([0.008] * len(rows), key_bits=1024),
                    fake_pass([0.001] * len(rows), key_bits=1024)]
        layers = suite.layer_metrics([traced], fake_probe(0.0025),
                                     {"effective_parallelism": 3.0}, untraced)
        self.assertAlmostEqual(layers["crypto.upload_predicted_s"], 0.04)
        self.assertAlmostEqual(layers["core.unattributed_s"], 0.002)
        self.assertAlmostEqual(layers["crypto.upload_residual_s"], -0.038)
        self.assertAlmostEqual(layers["fl.local_parallelism"], 3.0)
        self.assertAlmostEqual(layers["telemetry.overhead_ratio"], 0.25)
        self.assertAlmostEqual(layers["core.useful_update_ratio"], 0.75)
        self.assertEqual(layers["cluster.index_reuse_ratio"], 1.0)
        self.assertEqual(layers["fl.final_accuracy"], 0.9)

    def test_no_upload_prediction_without_crypto(self):
        rows = [fake_layer_row()] * (suite.WARMUP + 5)
        traced = fake_pass([0.01] * len(rows), mode="traced", layers=rows)
        layers = suite.layer_metrics([traced], fake_probe(),
                                     {"effective_parallelism": 1.0},
                                     [fake_pass([0.01] * len(rows))])
        self.assertEqual(layers["crypto.upload_predicted_s"], 0.0)


class CorrectnessGateTest(unittest.TestCase):
    def test_agreeing_passes_are_correct(self):
        passes = [fake_pass([1.0] * 5) for _ in range(3)]
        self.assertEqual(suite.check_passes(passes), (True, 15, 0, []))

    def test_disagreeing_digests_fail(self):
        passes = [fake_pass([1.0] * 5), fake_pass([1.0] * 5, digest="x")]
        correct, _, failed, problems = suite.check_passes(passes)
        self.assertFalse(correct)
        self.assertEqual(failed, 0)
        self.assertIn("disagree", problems[0])

    def test_failed_rounds_and_crashes_count(self):
        passes = [fake_pass([1.0] * 5, failures=["round 2: membership"])]
        correct, attempted, failed, _ = suite.check_passes(passes, crashed=1,
                                                           rounds=5)
        self.assertFalse(correct)
        self.assertEqual((attempted, failed), (10, 6))

    def test_traced_and_untraced_digests_are_compared_separately(self):
        passes = [fake_pass([1.0] * 5),
                  fake_pass([1.0] * 3, mode="traced", digest="t")]
        self.assertTrue(suite.check_passes(passes)[0])


class VerdictTest(unittest.TestCase):
    def test_regression_when_median_worse_than_bound(self):
        self.assertEqual(suite.verdict([1.0] * 5, [1.2] * 5, 0.1, "lower"),
                         "regression")

    def test_unresolved_when_spread_exceeds_bound(self):
        base = [1.0, 1.5, 0.6, 1.4, 0.7]
        new = [1.05, 1.45, 0.65, 1.3, 0.8]
        self.assertEqual(suite.verdict(base, new, 0.1, "lower"),
                         "unresolved")

    def test_every_new_run_better_resolves_a_wide_spread(self):
        base = [2.0, 2.5, 3.0, 3.5, 4.0]
        new = [1.0, 1.1, 1.2, 1.3, 1.4]
        self.assertEqual(suite.verdict(base, new, 0.1, "lower"), "improved")

    def test_improved_needs_pair_wins_beyond_base_spread(self):
        base = [1.0, 1.01, 0.99, 1.0, 1.0]
        self.assertEqual(suite.verdict(base, [0.8] * 5, 0.1, "lower"),
                         "improved")
        # Better median, but one pair in five lost: 4/5 < 9/10.
        new = [0.8, 0.8, 1.2, 0.8, 0.8]
        self.assertEqual(suite.verdict(base, new, 0.5, "lower"), "unchanged")

    def test_unchanged_within_noise(self):
        base = [1.0, 1.01, 0.99, 1.0, 1.0]
        new = [1.005, 0.995, 1.0, 1.002, 0.998]
        self.assertEqual(suite.verdict(base, new, 0.1, "lower"), "unchanged")

    def test_higher_is_better_direction(self):
        base = [100.0] * 5
        self.assertEqual(suite.verdict(base, [85.0] * 5, 0.1, "higher"),
                         "regression")
        self.assertEqual(suite.verdict(base, [115.0] * 5, 0.1, "higher"),
                         "improved")

    def test_bounds_are_relative_to_the_base_median(self):
        # The same absolute change of +0.05 is 50% of 0.1 but 0.5% of 10.
        self.assertEqual(suite.verdict([0.1] * 5, [0.15] * 5, 0.1, "lower"),
                         "regression")
        self.assertEqual(suite.verdict([10.0] * 5, [10.05] * 5, 0.1,
                                       "lower"), "unchanged")


class ContractTest(unittest.TestCase):
    def setUp(self):
        self.spec = suite.load_benchmark()

    def test_benchmark_file_shape(self):
        e2e = self.spec["end_to_end"]
        names = [m["name"] for m in e2e + self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(0 < m["bound"] <= 0.25 for m in e2e))
        setup = next(m for m in e2e if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e))
        self.assertEqual(self.spec["paths"], ["perfbench"])

    def test_emitted_metrics_match_the_benchmark_file(self):
        rows = [fake_layer_row()] * (suite.WARMUP + 5)
        passes = [fake_pass([0.01] * len(rows))] * 3
        traced = fake_pass([0.01] * len(rows), mode="traced", layers=rows)
        e2e = suite.e2e_metrics(passes)
        layers = suite.layer_metrics([traced], fake_probe(),
                                     {"effective_parallelism": 1.0}, passes)
        self.assertEqual(sorted(e2e),
                         sorted(m["name"] for m in self.spec["end_to_end"]))
        self.assertEqual(sorted(layers),
                         sorted(m["name"] for m in self.spec["per_layer"]))

    def test_compare_rows_cover_every_workload_and_metric(self):
        names = [w["name"] for w in self.spec["workloads"]]
        metrics = suite.e2e_metrics([fake_pass([1.0] * 10)] * 3)

        def result(failed):
            entry = {"correct": failed == 0, "attempted": 10,
                     "failed": failed, "metrics": metrics}
            return {"runs": [{name: dict(entry) for name in names}] * 3}

        rows = suite.compare(result(0), result(0), self.spec)
        self.assertEqual(len(rows), len(names) * len(self.spec["end_to_end"]))
        self.assertTrue(all(r[4] == "unchanged" for r in rows))
        failing = suite.compare(result(0), result(1), self.spec)
        self.assertIn((names[0], "failed", 0, 3, "regression"), failing)
        json.dumps(rows)  # rows are plain data


if __name__ == "__main__":
    unittest.main()
