"""Tests for the benchmark's own arithmetic (rexbench/ledger.py).

    python3 -m unittest discover -s rexbench
"""

import json
import unittest
from pathlib import Path

import ledger


def det(**overrides):
    """Deterministic outputs of one repetition: 2 nodes, 2 epoch records."""
    base = {
        "nodes": 2, "node_epochs": 6, "events": 40, "batches": 20,
        "queue_peak": 8, "queue_resizes": 1, "queue_direct_searches": 0,
        "final_rmse": 0.8, "time_to_target_s": 2.0,
        "net_bytes_in_out": 1200, "net_messages": 10, "net_bytes": 680,
        "attest_rounds": 0, "sessions_opened": 0, "sessions_attested": 0,
        "ecalls_last_epoch": 0, "sealed_bytes_last_epoch": 0,
        "peak_resident_bytes_max": 0.0, "duplicates_dropped": 1, "store_end": 13,
        "store_after_init": 10, "discarded": 0, "plaintext_shares_sent": 0,
        "deliveries_dropped": 0, "deliveries_elided": 0, "rejoins": 0,
        "rejoins_completed": 0, "rejoin_timeouts": 0, "rejoin_latency_sum_s": 0.0,
        "resync_tx_bytes": 0, "link_delay_sum_s": 0.0, "link_deliveries": 0,
        "queries_issued": 0, "queries_served": 0, "queries_stale": 0,
        "queries_dropped_offline": 0, "query_latency_count": 0,
        "query_latency_p50_s": 0.0, "query_latency_p99_s": 0.0,
        "query_staleness_p99_s": 0.0,
    }
    base.update(overrides)
    return base


def rep(setup_s=1.0, run_s=2.0, peak_rss_kib=300.0, **det_overrides):
    return {
        "threads": 4, "setup_s": setup_s, "make_s": 0.5, "attest_s": 0.1,
        "init_s": 0.4, "run_s": run_s, "peak_rss_kib": peak_rss_kib,
        "rss_after_setup_kib": 200.0, "det": det(**det_overrides),
    }


def ok_check():
    return [{"name": "epoch_target", "ok": True, "detail": ""}]


class TimeToTarget(unittest.TestCase):
    def test_never_reached_is_missing_not_zero(self):
        doc = {"reps": [rep(time_to_target_s=None)], "checks": ok_check()}
        metrics = ledger.end_to_end([doc])
        self.assertNotIn("sim_time_to_target_s", metrics)
        self.assertIn("final_rmse", metrics)

    def test_reached_target_is_reported(self):
        doc = {"reps": [rep(time_to_target_s=2.0)], "checks": ok_check()}
        self.assertEqual(ledger.end_to_end([doc])["sim_time_to_target_s"],
                         {"value": 2.0, "unit": "sim_s"})


class FailedRuns(unittest.TestCase):
    def test_exception_counts_every_attempted_operation_as_failed(self):
        doc = {"reps": [rep()], "checks": ok_check(), "error": "runaway guard"}
        correct, attempted, failed, _lost = ledger.ledger([doc])
        self.assertFalse(correct)
        self.assertEqual(attempted, 10)
        self.assertEqual(failed, attempted)

    def test_run_that_threw_before_any_repetition_still_attempted_one(self):
        correct, attempted, failed, _lost = ledger.ledger([{"error": "bad_alloc"}])
        self.assertFalse(correct)
        self.assertEqual((attempted, failed), (1, 1))

    def test_failed_check_fails_the_run(self):
        checks = [{"name": "query_conservation", "ok": False, "detail": "issued 3"}]
        correct, attempted, failed, _lost = ledger.ledger([{"reps": [rep()], "checks": checks}])
        self.assertFalse(correct)
        self.assertEqual(failed, attempted)
        self.assertEqual(
            ledger.check_failures([{"reps": [rep()], "checks": checks}]),
            ["query_conservation: issued 3"],
        )

    def test_network_losses_are_not_program_failures(self):
        doc = {
            "reps": [rep(queries_issued=100, queries_served=90, queries_dropped_offline=10)],
            "checks": ok_check(),
        }
        correct, attempted, failed, lost = ledger.ledger([doc])
        self.assertTrue(correct)
        self.assertEqual((attempted, failed, lost), (110, 0, 10))
        self.assertAlmostEqual(ledger.end_to_end([doc])["success_frac"]["value"], 100 / 110)

    def test_operation_ledger_counts_every_class(self):
        attempted, failed = ledger.operations(det(
            net_messages=50, deliveries_elided=5, queries_issued=20, sessions_opened=8,
            deliveries_dropped=3, queries_dropped_offline=2, rejoin_timeouts=1,
            discarded=4, sessions_attested=6))
        self.assertEqual(attempted, 50 + 5 + 20 + 8)
        self.assertEqual(failed, 3 + 5 + 2 + 1 + 4 + 2)


class PerNode(unittest.TestCase):
    def test_rss_per_node(self):
        self.assertEqual(ledger.rss_kib_per_node(1460000.0, 100000), 14.6)
        doc = {"reps": [rep(peak_rss_kib=300.0), rep(peak_rss_kib=900.0)], "checks": ok_check()}
        # The first repetition's peak: later ones only see the process high-water mark.
        self.assertEqual(ledger.end_to_end([doc])["peak_rss_kib_per_node"]["value"], 150.0)
        with self.assertRaises(ValueError):
            ledger.rss_kib_per_node(1.0, 0)

    def test_single_repetition_is_timed(self):
        doc = {"reps": [rep(run_s=3.0)], "checks": ok_check()}
        self.assertEqual(ledger.end_to_end([doc])["epochs_per_s"]["value"], 2.0)

    def test_wire_bytes_per_node_epoch(self):
        doc = {"reps": [rep()], "checks": ok_check()}
        # 1200 bytes in + out over 6 node-epochs.
        self.assertEqual(ledger.end_to_end([doc])["wire_bytes_per_node_epoch"]["value"], 200.0)

    def test_setup_median_and_pooled_epoch_rate(self):
        doc = {"reps": [rep(setup_s=1.0, run_s=2.0), rep(setup_s=3.0, run_s=3.0),
                        rep(setup_s=2.0, run_s=6.0)], "checks": ok_check()}
        metrics = ledger.end_to_end([doc])
        self.assertEqual(metrics["setup_s"]["value"], 2.0)
        # The cold first repetition is left out; the rest pool their
        # node-epochs and run time: (6 + 6) / (3 + 6), not the median 1.5.
        self.assertEqual(metrics["epochs_per_s"]["value"], 12 / 9)
        # Set-up-only probes join the set-up median.
        doc["setup_probes_s"] = [5.0, 6.0]
        self.assertEqual(ledger.end_to_end([doc])["setup_s"]["value"], 3.0)


class Copies(unittest.TestCase):
    def test_at_most_one_copy_per_cpu(self):
        self.assertEqual(ledger.copies("serve-churn", 64), 4)
        self.assertEqual(ledger.copies("serve-churn", 3), 3)
        self.assertEqual(ledger.copies("learn-10k", 4), 2)
        self.assertEqual(ledger.copies("learn-10k", 1), 1)
        self.assertEqual(ledger.copies("paper-sgx", 4), 1)

    def test_rates_average_over_copies_and_setups_pool(self):
        a = {"reps": [rep(setup_s=1.0, run_s=2.0), rep(setup_s=2.0, run_s=3.0)],
             "checks": ok_check(), "setup_probes_s": [9.0]}
        b = {"reps": [rep(setup_s=4.0, run_s=6.0, peak_rss_kib=500.0)], "checks": ok_check()}
        metrics = ledger.end_to_end([a, b])
        # Copy a times its second repetition (6/3), copy b its only one (6/6).
        self.assertEqual(metrics["epochs_per_s"]["value"], 1.5)
        self.assertEqual(metrics["setup_s"]["value"], 3.0)  # of 1, 2, 4, 9
        self.assertEqual(metrics["peak_rss_kib_per_node"]["value"], 200.0)  # of 150, 250
        correct, attempted, failed, _lost = ledger.ledger([a, b])
        self.assertTrue(correct)
        self.assertEqual((attempted, failed), (30, 0))

    def test_copies_must_agree_on_deterministic_outputs(self):
        a = {"reps": [rep(final_rmse=0.8)], "checks": ok_check()}
        b = {"reps": [rep(final_rmse=0.81)], "checks": ok_check()}
        self.assertEqual(ledger.check_failures([a, b]),
                         ["deterministic: copy 1 differs from copy 0"])
        correct, attempted, failed, _lost = ledger.ledger([a, b])
        self.assertFalse(correct)
        self.assertEqual(failed, attempted)

    def test_a_failed_copy_is_named(self):
        a = {"reps": [rep()], "checks": ok_check()}
        b = {"error": "runner exceeded 170 s"}
        self.assertEqual(ledger.check_failures([a, b]), [
            "copy 1: exception: runner exceeded 170 s", "copy 1: no repetition completed"])


class PoolSpeedup(unittest.TestCase):
    @staticmethod
    def traced_rep(threads, run_s):
        r = rep(run_s=run_s)
        r.update(threads=threads, prepare_s=0.1, report_s=0.1, micro={
            name: {"samples": [1.0, 2.0]} for name, _unit in ledger.MICROTIMINGS})
        return r

    def test_one_worker_over_pool_width_whichever_is_measured(self):
        pool_measured = {"reps": [self.traced_rep(4, 2.0), self.traced_rep(1, 6.0)]}
        one_measured = {"reps": [self.traced_rep(1, 6.0), self.traced_rep(4, 2.0)]}
        for doc in (pool_measured, one_measured):
            self.assertEqual(ledger.per_layer(doc)["support.pool_speedup"]["value"], 3.0)
        self.assertEqual(ledger.per_layer(one_measured)["sim.run_s"]["value"], 6.0)

    def test_no_comparison_pass_reports_one(self):
        doc = {"reps": [self.traced_rep(1, 6.0)]}
        self.assertEqual(ledger.per_layer(doc)["support.pool_speedup"]["value"], 1.0)


class TailPercentile(unittest.TestCase):
    def test_keeps_at_least_ten_samples_beyond(self):
        self.assertEqual(ledger.tail_percentile(list(range(1000)))[0], 99.0)
        self.assertEqual(ledger.tail_percentile(list(range(1000)))[2], 10)
        # 999 samples leave only 9 beyond p99, so p90 is the tail.
        self.assertEqual(ledger.tail_percentile(list(range(999)))[0], 90.0)
        self.assertEqual(ledger.tail_percentile(list(range(10000)))[0], 99.9)

    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(ledger.tail_percentile(list(range(19))))
        p, value, beyond = ledger.tail_percentile(list(range(20)))
        self.assertEqual((p, value, beyond), (50.0, 9, 10))

    def test_value_is_the_nearest_rank_sample(self):
        samples = [float(x) for x in range(1, 101)]  # 1..100
        p, value, beyond = ledger.tail_percentile(samples)
        self.assertEqual((p, value, beyond), (90.0, 90.0, 10))
        summary = ledger.summarize_timing(samples)
        self.assertEqual(summary["median"], 50.5)
        self.assertEqual(summary["count"], 100)


class Declarations(unittest.TestCase):
    def test_benchmark_json_declares_what_the_ledger_prints(self):
        declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]],
            list(ledger.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]],
            list(ledger.PER_LAYER))
        self.assertEqual(tuple(w["name"] for w in declared["workloads"]), ledger.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
