"""Self-tests of the benchmark's own logic (run by run.py --self-test).

    cd perfbench && python3 -m unittest -q test_run
"""

import sys
import unittest

import run

PY = sys.executable
OK_CHILD = [PY, "-c", "print('noise'); print('{\"x\": 1}')"]


def child(code):
    return [PY, "-c", code]


def no_problems(_record):
    return [], False


class FailureAccountingTest(unittest.TestCase):
    def test_abort_is_counted_and_the_benchmark_carries_on(self):
        tally = run.Tally()
        self.assertIsNone(tally.run("untraced", child("import os; os.abort()"),
                                    30, no_problems))
        self.assertEqual(tally.run("untraced", OK_CHILD, 30, no_problems),
                         {"x": 1})
        self.assertEqual((tally.attempted, tally.failed, tally.incorrect),
                         (2, 1, 0))
        self.assertEqual(tally.records["untraced"], [{"x": 1}])

    def test_abort_reason_names_the_signal(self):
        record, why = run.run_child(child("import os; os.abort()"), 30)
        self.assertIsNone(record)
        self.assertIn("SIGABRT", why)

    def test_nonzero_exit_timeout_and_missing_result_fail(self):
        tally = run.Tally()
        tally.run("untraced", child("import sys; sys.exit(3)"), 30,
                  no_problems)
        tally.run("untraced", child("import time; time.sleep(30)"), 0.5,
                  no_problems)
        tally.run("untraced", child("print('not json')"), 30, no_problems)
        self.assertEqual((tally.attempted, tally.failed, tally.incorrect),
                         (3, 3, 0))
        self.assertEqual(tally.records, {})

    def test_failed_output_check_is_failed_and_incorrect(self):
        tally = run.Tally()
        tally.run("traced", OK_CHILD, 30, lambda r: (["loss diverged"], True))
        tally.run("traced", OK_CHILD, 30, lambda r: (["plan flip"], False))
        self.assertEqual((tally.attempted, tally.failed, tally.incorrect),
                         (2, 2, 1))


class SummaryTest(unittest.TestCase):
    def test_best_run_per_metric_and_median_setup(self):
        rows = [{"finetune_s": 2.0, "eval_metric": 0.7, "setup_s": 0.003},
                {"finetune_s": 1.5, "eval_metric": 0.8, "setup_s": 0.001},
                {"finetune_s": 6.0, "eval_metric": 0.6, "setup_s": 0.002}]
        better = {"finetune_s": "lower", "eval_metric": "higher",
                  "setup_s": "lower"}
        self.assertEqual(run.summarise(rows, better),
                         {"finetune_s": 1.5, "eval_metric": 0.8,
                          "setup_s": 0.002})


class OutputCheckTest(unittest.TestCase):
    WORKLOAD = {"expected_plan": "S0[blocks 0..7; devs 0 1 2 3] micro=4",
                "phases": [1, 3], "reference": "fp32", "gate": "exact"}
    GOLDENS = {"fp32": {"64": {"1001": {"epoch_losses": [0.6, 0.4, 0.3, 0.2],
                                        "eval_metric": 0.8}}}}

    def record(self, **changes):
        r = {"epoch_losses": [0.6, 0.4, 0.3, 0.2], "eval_metric": 0.8,
             "plan": self.WORKLOAD["expected_plan"], "train_samples": 64,
             "effective_batch": 16, "rank_deaths": 0, "phase1_epochs": 1,
             "phase2_epochs": 3}
        r.update(changes)
        return r

    def check(self, record, **workload):
        w = dict(self.WORKLOAD, **workload)
        problems, wrong = run.check_record(w, self.GOLDENS, record, 64, 1001)
        return bool(problems), wrong

    def test_golden_run_passes(self):
        self.assertEqual(self.check(self.record()), (False, False))

    def test_plan_flip_fails_without_calling_the_output_wrong(self):
        self.assertEqual(self.check(self.record(
            plan="S0[blocks 0..3; devs 0 1] | S1[blocks 4..7; devs 2 3]")),
            (True, False))

    def test_oom_retry_fails_without_calling_the_output_wrong(self):
        self.assertEqual(self.check(self.record(effective_batch=8)),
                         (True, False))

    def test_skipped_cache_phase_fails_without_calling_the_output_wrong(self):
        # All four epochs live: same fp32 trajectory, different workload.
        self.assertEqual(self.check(self.record(phase1_epochs=4,
                                                phase2_epochs=0)),
                         (True, False))

    def test_non_finite_loss_is_wrong(self):
        self.assertEqual(self.check(self.record(
            epoch_losses=[0.6, float("nan"), 0.3, 0.2])), (True, True))

    def test_exact_gate_rejects_a_different_trajectory(self):
        self.assertEqual(self.check(self.record(
            epoch_losses=[0.6, 0.4, 0.3, 0.21])), (True, True))

    def test_quality_gate_allows_int8_drift_but_not_more(self):
        drift = self.record(epoch_losses=[0.61, 0.41, 0.31, 0.24],
                            eval_metric=0.75)
        self.assertEqual(self.check(drift, gate="quality"), (False, False))
        far = self.record(epoch_losses=[0.6, 0.4, 0.3, 0.26])
        self.assertEqual(self.check(far, gate="quality"), (True, True))

    def test_missing_golden_fails(self):
        problems, _ = run.check_record(self.WORKLOAD, {}, self.record(),
                                       64, 1001)
        self.assertTrue(problems)


if __name__ == "__main__":
    unittest.main()
