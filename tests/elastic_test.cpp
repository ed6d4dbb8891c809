// Elastic runtime units: straggler detection, throttle fault injection,
// jittered backoff, weighted cache sharding, and the re-planning entry
// points (planner + analytic sim).  The end-to-end straggler schedules
// live in chaos_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "cache/redistribution.hpp"
#include "dist/communicator.hpp"
#include "dist/fault.hpp"
#include "elastic/health.hpp"
#include "planner/planner.hpp"
#include "sim/scenarios.hpp"

namespace pac {
namespace {

// ---- HealthMonitor ------------------------------------------------------

elastic::ElasticPolicy test_policy() {
  elastic::ElasticPolicy p;
  p.enabled = true;
  p.straggler_ratio = 0.5;
  p.self_ratio = 0.3;
  p.straggler_window = 2;
  p.max_replans = 1;
  p.ewma_alpha = 0.5;
  p.warmup_minibatches = 1;
  return p;
}

TEST(HealthMonitorTest, DisabledMonitorNeverIssuesVerdicts) {
  elastic::ElasticPolicy p = test_policy();
  p.enabled = false;
  elastic::HealthMonitor mon(p, 2, /*verdict_budget=*/1);
  mon.set_groups({{0, 1}});
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(mon.record_minibatch(0, 0.001, 8).has_value());
    EXPECT_FALSE(mon.record_minibatch(1, 1.0, 8).has_value());  // 1000x slower
  }
  EXPECT_EQ(mon.verdicts_issued(), 0);
}

TEST(HealthMonitorTest, FlagsGroupStragglerAfterWindow) {
  elastic::HealthMonitor mon(test_policy(), 3, /*verdict_budget=*/1);
  mon.set_groups({{0, 1, 2}});
  std::optional<elastic::StragglerVerdict> verdict;
  int verdict_sample = -1;
  for (int i = 0; i < 8 && !verdict; ++i) {
    // Ranks 0/1 run at 8000 rows/s, rank 2 at 1000 rows/s from the start.
    EXPECT_FALSE(mon.record_minibatch(0, 0.001, 8).has_value());
    EXPECT_FALSE(mon.record_minibatch(1, 0.001, 8).has_value());
    verdict = mon.record_minibatch(2, 0.008, 8);
    if (verdict) verdict_sample = i;
  }
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->rank, 2);
  EXPECT_LT(verdict->throughput_ratio, 0.5);
  // warmup(1) + window(2) consecutive below => sample index 2 at the
  // earliest (0-based), and a constant-rate straggler hits exactly that.
  EXPECT_EQ(verdict_sample, 2);
  // Observed scales are group-relative, in (0, 1], worst for the straggler.
  ASSERT_EQ(verdict->observed_scales.size(), 3U);
  EXPECT_DOUBLE_EQ(verdict->observed_scales.at(0), 1.0);
  EXPECT_DOUBLE_EQ(verdict->observed_scales.at(1), 1.0);
  EXPECT_NEAR(verdict->observed_scales.at(2), 1.0 / 8.0, 0.05);
  EXPECT_EQ(mon.verdicts_issued(), 1);
}

TEST(HealthMonitorTest, VerdictBudgetCapsDetections) {
  elastic::HealthMonitor mon(test_policy(), 2, /*verdict_budget=*/1);
  mon.set_groups({{0, 1}});
  int verdicts = 0;
  for (int i = 0; i < 32; ++i) {
    if (mon.record_minibatch(0, 0.001, 8)) ++verdicts;
    if (mon.record_minibatch(1, 0.016, 8)) ++verdicts;
  }
  EXPECT_EQ(verdicts, 1);  // the budget, not the window, is the cap
  EXPECT_EQ(mon.verdicts_issued(), 1);
}

TEST(HealthMonitorTest, WarmupAndRecoverySuppressVerdicts) {
  elastic::ElasticPolicy p = test_policy();
  p.warmup_minibatches = 3;
  elastic::HealthMonitor mon(p, 2, /*verdict_budget=*/1);
  mon.set_groups({{0, 1}});
  // Three slow warmup samples must not count toward the window.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(mon.record_minibatch(0, 0.001, 8).has_value());
    EXPECT_FALSE(mon.record_minibatch(1, 0.016, 8).has_value());
  }
  // One below-threshold sample, then recovery: the consecutive-below
  // counter must reset, so no verdict ever fires.
  EXPECT_FALSE(mon.record_minibatch(0, 0.001, 8).has_value());
  EXPECT_FALSE(mon.record_minibatch(1, 0.016, 8).has_value());
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(mon.record_minibatch(0, 0.001, 8).has_value());
    EXPECT_FALSE(mon.record_minibatch(1, 0.001, 8).has_value());
  }
  EXPECT_EQ(mon.verdicts_issued(), 0);
}

TEST(HealthMonitorTest, SingletonGroupUsesSelfRelativeCheck) {
  // A group of one has no peers to compare against; detection falls back
  // to the rank's own best EWMA with the stricter self_ratio.
  elastic::HealthMonitor mon(test_policy(), 1, /*verdict_budget=*/1);
  mon.set_groups({{0}});
  // Warm up fast, then degrade 10x.
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(mon.record_minibatch(0, 0.001, 8).has_value());
  }
  std::optional<elastic::StragglerVerdict> verdict;
  for (int i = 0; i < 8 && !verdict; ++i) {
    verdict = mon.record_minibatch(0, 0.010, 8);
  }
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->rank, 0);
}

TEST(HealthMonitorTest, UniformThroughputNeverFlags) {
  elastic::HealthMonitor mon(test_policy(), 4, /*verdict_budget=*/4);
  mon.set_groups({{0, 1}, {2, 3}});
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> jitter(0.9, 1.1);
  for (int i = 0; i < 64; ++i) {
    for (int r = 0; r < 4; ++r) {
      EXPECT_FALSE(
          mon.record_minibatch(r, 0.001 * jitter(rng), 8).has_value());
    }
  }
  EXPECT_EQ(mon.verdicts_issued(), 0);
}

TEST(HealthMonitorTest, ConcurrentRecordingIsThreadSafe) {
  // Four rank threads hammer one monitor, as the pipeline does for real.
  // Peers are warmed serially first so the verdict does not depend on
  // thread interleaving: once rank 3 degrades, its own EWMA decline
  // crosses the window against an already-established group median, so
  // exactly one verdict fires regardless of scheduling.  Run under TSan.
  elastic::HealthMonitor mon(test_policy(), 4, /*verdict_budget=*/1);
  mon.set_groups({{0, 1, 2, 3}});
  for (int i = 0; i < 3; ++i) {
    for (int r = 0; r < 4; ++r) {
      EXPECT_FALSE(mon.record_minibatch(r, 0.001, 8).has_value());
    }
  }
  constexpr int kPerRank = 200;
  std::atomic<int> verdicts{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&mon, &verdicts, r] {
      for (int i = 0; i < kPerRank; ++i) {
        const double seconds = r == 3 ? 0.008 : 0.001;  // rank 3 degrades 8x
        if (mon.record_minibatch(r, seconds, 8).has_value()) {
          verdicts.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(verdicts.load(), 1);
  EXPECT_EQ(mon.verdicts_issued(), 1);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(mon.samples_of(r), 3 + kPerRank);
  }
}

TEST(HealthMonitorTest, EwmaTracksThroughput) {
  elastic::HealthMonitor mon(test_policy(), 1, 1);
  EXPECT_EQ(mon.samples_of(0), 0);
  EXPECT_DOUBLE_EQ(mon.ewma_throughput(0), 0.0);
  mon.record_minibatch(0, 0.001, 8);  // 8000 rows/s, first sample = raw
  EXPECT_DOUBLE_EQ(mon.ewma_throughput(0), 8000.0);
  mon.record_minibatch(0, 0.002, 8);  // 4000 rows/s, alpha = 0.5
  EXPECT_DOUBLE_EQ(mon.ewma_throughput(0), 6000.0);
  EXPECT_EQ(mon.samples_of(0), 2);
}

TEST(HealthMonitorTest, ThrottleDilatesElapsedAndSleeps) {
  EXPECT_DOUBLE_EQ(elastic::apply_compute_throttle(0.5, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(elastic::apply_compute_throttle(-1.0, 4.0), -1.0);
  const auto begin = std::chrono::steady_clock::now();
  const double dilated = elastic::apply_compute_throttle(0.005, 3.0);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  EXPECT_DOUBLE_EQ(dilated, 0.015);
  EXPECT_GE(waited, 0.010);  // slept (factor - 1) x elapsed
}

// ---- throttle fault injection ------------------------------------------

TEST(ThrottleFaultTest, ThrottleActivatesAfterScheduledOps) {
  dist::FaultPlan plan;
  plan.throttle_after_ops = {{1, 3}};
  plan.throttle_factor = 4.0;
  dist::FaultInjector inj(plan, 2);
  EXPECT_TRUE(inj.active());
  EXPECT_DOUBLE_EQ(inj.throttle_of(0), 1.0);  // never scheduled
  EXPECT_DOUBLE_EQ(inj.throttle_of(1), 1.0);  // not yet triggered
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(inj.op_kills_rank(1));  // throttle never kills
    EXPECT_DOUBLE_EQ(inj.throttle_of(1), 1.0);
  }
  EXPECT_FALSE(inj.op_kills_rank(1));  // third op arms the throttle
  EXPECT_DOUBLE_EQ(inj.throttle_of(1), 4.0);
  EXPECT_DOUBLE_EQ(inj.throttle_of(0), 1.0);  // other ranks unaffected
}

TEST(ThrottleFaultTest, ThrottleCountingDoesNotPerturbDeathSchedules) {
  dist::FaultPlan plan;
  plan.death_after_ops = {{0, 2}};
  plan.throttle_after_ops = {{1, 2}};
  dist::FaultInjector inj(plan, 2);
  // Rank 1's ops feed only its own throttle, never rank 0's death count.
  EXPECT_FALSE(inj.op_kills_rank(1));
  EXPECT_FALSE(inj.op_kills_rank(1));
  EXPECT_DOUBLE_EQ(inj.throttle_of(1), 4.0);
  EXPECT_FALSE(inj.op_kills_rank(0));
  EXPECT_TRUE(inj.op_kills_rank(0));  // dies exactly at its own op 2
}

TEST(ThrottleFaultTest, InvalidThrottlePlansAreRejected) {
  dist::FaultPlan slow;
  slow.throttle_after_ops = {{0, 1}};
  slow.throttle_factor = 0.5;  // a speedup is not a fault
  EXPECT_THROW(dist::FaultInjector(slow, 2), Error);
  dist::FaultPlan out_of_world;
  out_of_world.throttle_after_ops = {{5, 1}};
  EXPECT_THROW(dist::FaultInjector(out_of_world, 2), Error);
}

// ---- jittered backoff ---------------------------------------------------

TEST(BackoffJitterTest, DeterministicBoundedAndSeedZeroDisables) {
  constexpr std::uint64_t kSeed = 0xBAC0FF5EEDULL;
  for (int rank = 0; rank < 4; ++rank) {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const double j = dist::backoff_jitter(kSeed, rank, attempt);
      EXPECT_GE(j, 0.5);
      EXPECT_LT(j, 1.5);
      EXPECT_DOUBLE_EQ(j, dist::backoff_jitter(kSeed, rank, attempt));
      EXPECT_DOUBLE_EQ(dist::backoff_jitter(0, rank, attempt), 1.0);
    }
  }
}

TEST(BackoffJitterTest, RanksGetDistinctRetrySchedules) {
  // The point of the jitter: ranks hitting the same transient-failure
  // window must not retry in lockstep.  Any two ranks' multiplier
  // sequences must differ somewhere (and in fact almost everywhere).
  constexpr std::uint64_t kSeed = 42;
  constexpr int kAttempts = 16;
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      int differing = 0;
      for (int attempt = 0; attempt < kAttempts; ++attempt) {
        if (dist::backoff_jitter(kSeed, a, attempt) !=
            dist::backoff_jitter(kSeed, b, attempt)) {
          ++differing;
        }
      }
      EXPECT_GT(differing, kAttempts / 2) << "ranks " << a << "," << b;
    }
  }
}

// ---- weighted cache sharding (property sweep) --------------------------

TEST(WeightedShardingTest, RangesPartitionEverySampleExactlyOnce) {
  std::mt19937 rng(0xE1A5);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 8);
    const std::int64_t samples = static_cast<std::int64_t>(rng() % 500);
    std::vector<double> weights;
    std::uniform_real_distribution<double> w(0.05, 2.0);
    for (int i = 0; i < n; ++i) weights.push_back(w(rng));

    const auto ranges = cache::weighted_sample_ranges(weights, samples);
    ASSERT_EQ(ranges.size(), static_cast<std::size_t>(n));
    // Contiguous, non-overlapping, covering [0, samples) exactly.
    std::int64_t cursor = 0;
    double weight_sum = 0.0;
    for (double x : weights) weight_sum += x;
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(ranges[static_cast<std::size_t>(i)].first, cursor);
      EXPECT_LE(cursor, ranges[static_cast<std::size_t>(i)].second);
      cursor = ranges[static_cast<std::size_t>(i)].second;
      // Largest remainder: within one sample of the exact quota.
      const double quota = static_cast<double>(samples) *
                           weights[static_cast<std::size_t>(i)] / weight_sum;
      const auto count = ranges[static_cast<std::size_t>(i)].second -
                         ranges[static_cast<std::size_t>(i)].first;
      EXPECT_LT(std::abs(static_cast<double>(count) - quota), 1.0 + 1e-9);
    }
    EXPECT_EQ(cursor, samples);
  }
}

TEST(WeightedShardingTest, CapsBoundEveryShardAndOverflowRelocates) {
  std::mt19937 rng(0xCA9);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 2 + static_cast<int>(rng() % 6);
    const std::int64_t samples = 50 + static_cast<std::int64_t>(rng() % 200);
    std::vector<double> weights;
    std::uniform_real_distribution<double> w(0.05, 2.0);
    for (int i = 0; i < n; ++i) weights.push_back(w(rng));
    // Caps that always fit in aggregate: ceil(samples/n) + slack each.
    std::vector<std::int64_t> caps;
    for (int i = 0; i < n; ++i) {
      caps.push_back((samples + n - 1) / n +
                     static_cast<std::int64_t>(rng() % 20));
    }
    const auto ranges =
        cache::weighted_sample_ranges(weights, samples, &caps);
    std::int64_t cursor = 0;
    for (int i = 0; i < n; ++i) {
      const auto count = ranges[static_cast<std::size_t>(i)].second -
                         ranges[static_cast<std::size_t>(i)].first;
      EXPECT_LE(count, caps[static_cast<std::size_t>(i)]);
      EXPECT_EQ(ranges[static_cast<std::size_t>(i)].first, cursor);
      cursor = ranges[static_cast<std::size_t>(i)].second;
    }
    EXPECT_EQ(cursor, samples);  // budgets respected AND nothing dropped
  }
}

TEST(WeightedShardingTest, InsufficientCapsThrow) {
  const std::vector<double> weights{1.0, 1.0};
  const std::vector<std::int64_t> caps{3, 3};
  EXPECT_THROW(cache::weighted_sample_ranges(weights, 10, &caps), Error);
  EXPECT_THROW(cache::weighted_sample_ranges({1.0, -1.0}, 10), Error);
}

TEST(WeightedShardingTest, TargetFunctionMatchesRanges) {
  const std::vector<int> ranks{1, 3, 5};       // survivors, sorted
  const std::vector<double> weights{1.0, 0.25, 1.0};  // rank 3 straggles
  const std::int64_t samples = 36;
  const auto ranges = cache::weighted_sample_ranges(weights, samples);
  auto target = cache::weighted_sharding_over(ranks, weights, samples);
  std::map<int, std::int64_t> counts;
  for (std::int64_t s = 0; s < samples; ++s) ++counts[target(s)];
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    EXPECT_EQ(counts[ranks[i]], ranges[i].second - ranges[i].first);
  }
  // The straggler holds the smallest shard.
  EXPECT_LT(counts[3], counts[1]);
  EXPECT_LT(counts[3], counts[5]);
  EXPECT_THROW(target(-1), Error);
  EXPECT_THROW(target(samples), Error);
}

// ---- planner re-entry ---------------------------------------------------

std::vector<planner::BlockProfile> replan_profiles(std::int64_t n) {
  std::vector<planner::BlockProfile> blocks;
  for (std::int64_t i = 0; i < n; ++i) {
    planner::BlockProfile b;
    b.name = "block" + std::to_string(i);
    b.t_fwd = 1e-3;
    b.t_bwd = 2e-3;
    b.param_bytes = 64 * 1024;
    b.trainable_bytes = 4 * 1024;
    b.activation_bytes = 8 * 1024;
    b.fwd_msg_bytes = 4 * 1024;
    b.bwd_msg_bytes = 512;
    blocks.push_back(b);
  }
  return blocks;
}

TEST(ReplanTest, UnitScalesReproduceTheOriginalPlan) {
  planner::PlannerInput input;
  input.blocks = replan_profiles(8);
  input.num_devices = 4;
  input.num_micro_batches = 4;
  const auto base = planner::plan_hybrid(input);
  const auto same = planner::replan_hybrid(input, {1.0, 1.0, 1.0, 1.0});
  ASSERT_TRUE(base.feasible);
  ASSERT_TRUE(same.feasible);
  EXPECT_DOUBLE_EQ(same.minibatch_seconds, base.minibatch_seconds);
  EXPECT_EQ(same.plan.stages.size(), base.plan.stages.size());
}

TEST(ReplanTest, ObservedSlowdownRaisesCostAndReweightsTheStraggler) {
  planner::PlannerInput input;
  input.blocks = replan_profiles(8);
  input.num_devices = 4;
  input.num_micro_batches = 4;
  const auto base = planner::plan_hybrid(input);
  const auto degraded = planner::replan_hybrid(input, {1.0, 1.0, 1.0, 0.25});
  ASSERT_TRUE(base.feasible);
  ASSERT_TRUE(degraded.feasible);
  // A 4x-slower device cannot make the optimum faster.
  EXPECT_GE(degraded.minibatch_seconds, base.minibatch_seconds);
  // If device 3 still participates in a replicated stage, its micro
  // ownership weight must reflect the observed slowdown.
  for (const auto& st : degraded.plan.stages) {
    for (std::size_t j = 0; j < st.devices.size(); ++j) {
      if (st.devices[j] == 3 && !st.device_weights.empty()) {
        EXPECT_DOUBLE_EQ(st.device_weights[j], 0.25);
      }
    }
  }
  EXPECT_THROW(planner::replan_hybrid(input, {1.0, 1.0}), Error);
  EXPECT_THROW(planner::replan_hybrid(input, {1.0, 1.0, 1.0, 0.0}), Error);
}

// ---- analytic scenario model -------------------------------------------

TEST(SimThrottleTest, ElasticReplanBeatsRidingOutTheStraggler) {
  sim::ScenarioConfig cfg;
  cfg.model = model::bart_large();
  cfg.num_devices = 4;
  cfg.global_batch = 16;
  cfg.per_device_batch = 4;
  cfg.epochs = 3;
  cfg.train_samples = 256;
  const auto clean = sim::simulate_system(sim::SystemKind::kPac, cfg);
  ASSERT_FALSE(clean.oom);

  sim::ScenarioConfig slow = cfg;
  slow.throttle_device = 1;
  slow.throttle_factor = 4.0;
  slow.throttle_at_epoch_fraction = 0.5;

  slow.elastic_replan = true;
  const auto elastic = sim::simulate_system(sim::SystemKind::kPac, slow);
  ASSERT_FALSE(elastic.oom);
  slow.elastic_replan = false;
  const auto rigid = sim::simulate_system(sim::SystemKind::kPac, slow);
  ASSERT_FALSE(rigid.oom);

  // A degraded device can only cost time, and absorbing it via re-plan +
  // weighted shards must beat letting it pace every remaining step.
  EXPECT_GT(rigid.total_hours, clean.total_hours);
  EXPECT_GT(elastic.total_hours, clean.total_hours);
  EXPECT_LT(elastic.total_hours, rigid.total_hours);
  // The elastic run pays the wasted epoch fraction explicitly.
  EXPECT_GT(elastic.recovery_seconds, 0.0);
  EXPECT_DOUBLE_EQ(rigid.recovery_seconds, 0.0);
  // Determinism: the model is a pure function of its config.
  const auto elastic2 = sim::simulate_system(sim::SystemKind::kPac, slow);
  (void)elastic2;
  const auto rigid2 = sim::simulate_system(sim::SystemKind::kPac, slow);
  EXPECT_DOUBLE_EQ(rigid2.total_hours, rigid.total_hours);
}

}  // namespace
}  // namespace pac
