"""Tests for the benchmark's own logic: tail-percentile selection, setup_s
derivation, the golden check, and the self-time table, plus tiny-config runs
of the driver in both modes.

    python3 -m unittest discover -s fedbench/tests
"""

import contextlib
import io
import json
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

TINY_ROUNDS = 12
# Enough tiny episodes for the round_ms_tail sample.
TINY_EPISODES = -(-run.TAIL_BLOCKS * run.TAIL_BLOCK_ROUNDS // TINY_ROUNDS)
TINY = ["--method=FedClust", "--clients=8", "--train=5", "--test=5",
        "--sample=0.5", "--epochs=1", f"--rounds={TINY_ROUNDS}", "--seed=1"]


class TailPercentile(unittest.TestCase):
    def test_hundred_samples_is_p90(self):
        self.assertEqual(run.tail_percentile(list(range(1, 101))),
                         (90, 90, 100))

    def test_eighty_samples_is_p87(self):
        self.assertEqual(run.tail_percentile(list(range(1, 81))), (87, 70, 80))

    def test_highest_percentile_with_ten_beyond(self):
        for n in range(11, 400):
            values = list(range(n))
            p, v, count = run.tail_percentile(values)
            self.assertEqual(count, n)
            self.assertGreaterEqual(sum(x > v for x in values), 10, n)
            if p < 99:
                rank = -(-(p + 1) * n // 100)
                self.assertLess(n - rank, 10, n)

    def test_needs_more_than_ten_samples(self):
        with self.assertRaises(ValueError):
            run.tail_percentile([1.0] * 10)


class TailSample(unittest.TestCase):
    def test_every_workload_runs_enough_rounds_for_the_tail(self):
        for name, w in run.WORKLOADS.items():
            episodes = run.min_episodes(name)
            self.assertGreaterEqual(episodes, run.MIN_EPISODES)
            self.assertGreaterEqual(episodes * w["rounds"],
                                    run.TAIL_BLOCKS * run.TAIL_BLOCK_ROUNDS)

    def test_tail_percentile_is_fixed_by_the_sample_count(self):
        slow = {"episodes": [self.episode([1.0] * 100)] * 2}
        fast = dict(slow, episodes=slow["episodes"] * 2)
        for result in (slow, fast):
            _, extra = run.e2e_metrics(result, 2)
            self.assertEqual(extra["round_samples"], run.TAIL_BLOCK_ROUNDS)
            self.assertEqual(extra["round_tail_blocks"], run.TAIL_BLOCKS)
            self.assertEqual(extra["round_ms_tail_percentile"], 83)

    def test_one_slow_burst_does_not_set_the_tail(self):
        rounds = [1.0] * (run.TAIL_BLOCKS * run.TAIL_BLOCK_ROUNDS)
        rounds[70:85] = [5.0] * 15
        metrics, _ = run.e2e_metrics({"episodes": [self.episode(rounds)]}, 2)
        self.assertEqual(metrics["round_ms_tail"], 1e3)

    @staticmethod
    def episode(round_s):
        return {"round_s": round_s, "ctor_s": 0.0, "run_s": sum(round_s),
                "peak_rss_kb": 1024, "wire_cum": [0.0, 1e6], "acc": 0.5}

    def test_too_few_rounds_for_the_tail_is_an_error(self):
        short = {"episodes": [{"round_s": [1.0] * 20}]}
        with self.assertRaises(ValueError):
            run.e2e_metrics(short, 20)


class SetupSeconds(unittest.TestCase):
    def test_constructor_plus_unobserved_run_time(self):
        episode = {"ctor_s": 0.5, "run_s": 3.0, "round_s": [1.0, 1.25]}
        self.assertAlmostEqual(run.setup_seconds(episode), 1.25)


class GoldenCheck(unittest.TestCase):
    EPISODES = [{"crc": "0000ABCD", "acc": 0.5, "sampled": 40,
                 "undelivered": 1},
                {"crc": "0000ABCD", "acc": 0.5, "sampled": 40,
                 "undelivered": 0}]

    def test_match_counts_only_undelivered(self):
        golden = {"crc": "0000ABCD", "acc": 0.5}
        self.assertEqual(run.check_episodes(self.EPISODES, golden),
                         (True, 80, 1))

    def test_mismatch_fails_every_update(self):
        for golden in ({"crc": "0000ABCE", "acc": 0.5},
                       {"crc": "0000ABCD", "acc": 0.5000001}, None):
            self.assertEqual(run.check_episodes(self.EPISODES, golden),
                             (False, 80, 80))


class DriverCrash(unittest.TestCase):
    def test_planned_updates_follow_the_cohort_size(self):
        self.assertEqual(run.planned_updates("fedclust_c10", 7), 20 * 20 * 7)
        self.assertEqual(run.planned_updates("fedclust_setup_2k", 3),
                         60 * 100 * 3)
        self.assertEqual(run.planned_updates("fedavg_1m_qint8", 1),
                         10 * 1000)

    def test_crash_prints_a_result_failing_every_planned_update(self):
        def crash(*args, **kwargs):
            raise subprocess.CalledProcessError(1, "fedbench_driver")

        argv = ["run.py", "--workload", "fedclust_c10", "--seed", "3"]
        with mock.patch.object(run, "build"), \
                mock.patch.object(run, "run_driver", crash), \
                mock.patch.object(run, "append_record") as record, \
                mock.patch.object(sys, "argv", argv), \
                contextlib.redirect_stderr(io.StringIO()), \
                contextlib.redirect_stdout(io.StringIO()) as out:
            code = run.main()
        self.assertNotEqual(code, 0)
        planned = run.planned_updates("fedclust_c10",
                                      run.min_episodes("fedclust_c10"))
        self.assertEqual(json.loads(out.getvalue().splitlines()[-1]),
                         {"correct": False, "attempted": planned,
                          "failed": planned, "metrics": {}})
        self.assertFalse(record.call_args.args[0]["correct"])


class SelfTimeTable(unittest.TestCase):
    def test_wall_column_sums_to_root_and_splits_overlap(self):
        spans = run.load_spans([["round", 0, 100, -1],
                                ["nn.train", 10, 50, 0],
                                ["wire.deliver", 30, 70, 0]])
        table = run.layer_table(spans, run.tree_of(spans, ("round",)))
        self.assertAlmostEqual(table[run.UNATTRIBUTED]["self_us"], 40)
        self.assertAlmostEqual(table[run.UNATTRIBUTED]["wall_us"], 40)
        self.assertAlmostEqual(table["nn"]["wall_us"], 30)
        self.assertAlmostEqual(table["fl.wire"]["wall_us"], 30)
        self.assertAlmostEqual(table["nn"]["self_us"], 40)
        self.assertAlmostEqual(
            sum(r["wall_us"] for r in table.values()), 100)


class TinyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.e2e = run.run_driver(TINY, "e2e", seconds=0.0,
                                 episodes=TINY_EPISODES)
        cls.trace = run.run_driver(TINY, "trace")

    def test_episodes_reproduce_their_digest(self):
        first, *rest = self.e2e["episodes"]
        self.assertEqual(len(rest), TINY_EPISODES - 1)
        for ep in rest:
            self.assertEqual(ep["crc"], first["crc"])
            self.assertEqual(ep["acc"], first["acc"])

    def test_setup_seconds_derivation_on_a_run(self):
        for ep in self.e2e["episodes"]:
            self.assertEqual(len(ep["round_s"]), TINY_ROUNDS)
            self.assertLessEqual(sum(ep["round_s"]), ep["run_s"])
            setup = run.setup_seconds(ep)
            self.assertGreater(setup, ep["ctor_s"])
            self.assertLess(setup, ep["ctor_s"] + ep["run_s"])

    def test_golden_match_and_mismatch_on_a_run(self):
        episodes = self.e2e["episodes"]
        ep = episodes[0]
        sampled = sum(int(e["sampled"]) for e in episodes)
        self.assertEqual(sampled, TINY_EPISODES * TINY_ROUNDS * 4)
        golden = {"crc": ep["crc"], "acc": ep["acc"]}
        self.assertEqual(run.check_episodes(episodes, golden),
                         (True, sampled, 0))
        wrong = dict(golden, crc=f"{int(ep['crc'], 16) ^ 1:08X}")
        self.assertEqual(run.check_episodes(episodes, wrong),
                         (False, sampled, sampled))

    def test_e2e_metrics_state_tail_percentile_and_count(self):
        metrics, extra = run.e2e_metrics(self.e2e, TINY_ROUNDS)
        self.assertEqual(extra["round_samples"], run.TAIL_BLOCK_ROUNDS)
        self.assertEqual(extra["round_ms_tail_percentile"], 83)
        self.assertGreaterEqual(metrics["round_ms_tail"],
                                metrics["round_ms_p50"])
        spec = json.loads(run.BENCHMARK.read_text())
        self.assertEqual(set(metrics), {m["name"] for m in spec["end_to_end"]})
        for value in metrics.values():
            self.assertGreater(value, 0)

    def test_a_failing_driver_raises(self):
        with self.assertRaises(subprocess.CalledProcessError):
            run.run_driver(TINY, "bogus")

    def test_trace_replay_reconciles_and_reports_every_layer(self):
        with contextlib.redirect_stdout(io.StringIO()) as table:
            metrics, replay_ok, summary = run.report_trace(self.trace)
        self.assertIn("reconciliation:", table.getvalue())
        self.assertTrue(replay_ok, summary["checks"])
        self.assertEqual(self.trace["replay_wire_bytes"],
                         self.trace["program_wire_bytes_per_round"])
        spec = json.loads(run.BENCHMARK.read_text())
        self.assertEqual(set(metrics), {m["name"] for m in spec["per_layer"]})


if __name__ == "__main__":
    unittest.main()
