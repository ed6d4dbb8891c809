#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "data/dataset.hpp"
#include "pipeline/plan.hpp"
#include "pipeline/runners.hpp"
#include "pipeline/schedule.hpp"
#include "tensor/ops.hpp"

namespace pac::pipeline {
namespace {

using model::Technique;

// ---------------------------------------------------------------------------
// Plan invariants
// ---------------------------------------------------------------------------

TEST(PlanTest, PureDataParallelShape) {
  auto plan = ParallelPlan::pure_data_parallel(6, 4, 4);
  plan.validate(6, 4);
  EXPECT_EQ(plan.num_stages(), 1);
  EXPECT_EQ(plan.stages[0].devices.size(), 4U);
  EXPECT_EQ(plan.stage_of_rank(3), 0);
  EXPECT_EQ(plan.index_in_group(2), 2);
}

TEST(PlanTest, PurePipelineShape) {
  auto plan = ParallelPlan::pure_pipeline(6, 3, 4);
  plan.validate(6, 3);
  EXPECT_EQ(plan.num_stages(), 3);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(plan.stages[static_cast<std::size_t>(s)].devices.size(), 1U);
  }
  EXPECT_EQ(plan.stages[0].block_end, 2);
  EXPECT_THROW(ParallelPlan::pure_pipeline(2, 3, 1), InvalidArgument);
}

TEST(PlanTest, ValidationCatchesBadPlans) {
  ParallelPlan plan;
  plan.stages.push_back({0, 3, {0}, {}});
  plan.stages.push_back({4, 6, {1}, {}});  // gap at block 3
  EXPECT_THROW(plan.validate(6, 2), InvalidArgument);

  plan.stages.clear();
  plan.stages.push_back({0, 3, {0}, {}});
  plan.stages.push_back({3, 6, {0}, {}});  // rank reuse
  EXPECT_THROW(plan.validate(6, 2), InvalidArgument);

  plan.stages.clear();
  plan.stages.push_back({0, 6, {0, 5}, {}});  // rank out of range
  EXPECT_THROW(plan.validate(6, 2), InvalidArgument);

  plan.stages.clear();
  plan.stages.push_back({0, 6, {0, 1}, {}});
  plan.num_micro_batches = 0;
  EXPECT_THROW(plan.validate(6, 2), InvalidArgument);

  // Weight validation: size mismatch and non-positive entries.
  plan.stages.clear();
  plan.stages.push_back({0, 6, {0, 1}, {1.0}});
  plan.num_micro_batches = 2;
  EXPECT_THROW(plan.validate(6, 2), InvalidArgument);
  plan.stages.clear();
  plan.stages.push_back({0, 6, {0, 1}, {1.0, 0.0}});
  EXPECT_THROW(plan.validate(6, 2), InvalidArgument);
}

TEST(PlanTest, MicroOwnerIndices) {
  // Uniform weights reduce to plain round-robin.
  StageAssignment st{0, 1, {0, 1, 2}, {}};
  EXPECT_EQ(micro_owner_indices(st, 7),
            (std::vector<int>{0, 1, 2, 0, 1, 2, 0}));
  // 2:1 weights: the fast member owns two thirds of the micros.
  StageAssignment weighted{0, 1, {0, 1}, {2.0, 1.0}};
  const auto owners = micro_owner_indices(weighted, 9);
  const auto fast =
      std::count(owners.begin(), owners.end(), 0);
  EXPECT_EQ(fast, 6);
  EXPECT_EQ(owners.size(), 9U);
}

TEST(PlanTest, UnusedRankReportsMinusOne) {
  ParallelPlan plan;
  plan.stages.push_back({0, 6, {0, 2}, {}});
  plan.num_micro_batches = 2;
  plan.validate(6, 3);
  EXPECT_EQ(plan.stage_of_rank(1), -1);
  EXPECT_EQ(plan.participating_ranks(), (std::vector<int>{0, 2}));
}

// ---------------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------------

// The warmup stage `stage` of a uniform `stages`-stage pipeline runs.
std::int64_t pipeline_warmup(std::int64_t stage, std::int64_t stages) {
  return stage_warmup(
      ParallelPlan::pure_pipeline(stages, static_cast<int>(stages), 1),
      stage);
}

TEST(ScheduleTest, OneFOneBKnownSequence) {
  // 2 stages, 4 micros, stage 0: F0 F1 B0 F2 B1 F3 B2 B3.
  auto ops = make_schedule(ScheduleKind::k1F1B, 4, pipeline_warmup(0, 2));
  ASSERT_EQ(ops.size(), 8U);
  using K = PipeOp::Kind;
  const std::vector<std::pair<K, std::int64_t>> expect{
      {K::kForward, 0}, {K::kForward, 1}, {K::kBackward, 0},
      {K::kForward, 2}, {K::kBackward, 1}, {K::kForward, 3},
      {K::kBackward, 2}, {K::kBackward, 3}};
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(ops[i].kind, expect[i].first) << i;
    EXPECT_EQ(ops[i].micro, expect[i].second) << i;
  }
}

class ScheduleSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ScheduleSweep, BothSchedulesAreCompleteAndOrdered) {
  const auto [micros, stage, stages] = GetParam();
  if (stage >= stages) GTEST_SKIP();
  for (ScheduleKind kind : {ScheduleKind::k1F1B, ScheduleKind::kGPipe}) {
    auto ops = make_schedule(kind, micros, pipeline_warmup(stage, stages));
    EXPECT_EQ(ops.size(), static_cast<std::size_t>(2 * micros));
    // Every micro appears exactly once per kind; backward never precedes
    // its own forward; backwards are issued in forward order (FIFO).
    std::vector<bool> fwd_done(static_cast<std::size_t>(micros), false);
    std::int64_t last_bwd = -1;
    std::int64_t last_fwd = -1;
    for (const PipeOp& op : ops) {
      if (op.kind == PipeOp::Kind::kForward) {
        EXPECT_EQ(op.micro, last_fwd + 1) << "forwards out of order";
        last_fwd = op.micro;
        fwd_done[static_cast<std::size_t>(op.micro)] = true;
      } else {
        EXPECT_TRUE(fwd_done[static_cast<std::size_t>(op.micro)]);
        EXPECT_EQ(op.micro, last_bwd + 1) << "backwards out of order";
        last_bwd = op.micro;
      }
    }
    EXPECT_EQ(last_fwd, micros - 1);
    EXPECT_EQ(last_bwd, micros - 1);
  }
}

TEST_P(ScheduleSweep, OneFOneBBoundsInFlightActivations) {
  const auto [micros, stage, stages] = GetParam();
  if (stage >= stages) GTEST_SKIP();
  const std::int64_t warmup = pipeline_warmup(stage, stages);
  auto ops_1f1b = make_schedule(ScheduleKind::k1F1B, micros, warmup);
  auto ops_gpipe = make_schedule(ScheduleKind::kGPipe, micros, warmup);
  const std::int64_t bound =
      std::min<std::int64_t>(micros, stages - stage);
  EXPECT_LE(max_in_flight(ops_1f1b), bound);
  EXPECT_EQ(max_in_flight(ops_gpipe), micros);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScheduleSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4, 7),
                                            ::testing::Values(0, 1, 3),
                                            ::testing::Values(1, 2, 4)));

// ---------------------------------------------------------------------------
// End-to-end parity: every parallelization must produce the gradients (and
// therefore final parameters) of single-device training.
// ---------------------------------------------------------------------------

struct ParityCase {
  std::string name;
  Technique technique;
  int world;
  std::function<ParallelPlan(std::int64_t blocks, int world)> plan_fn;
  ScheduleKind schedule = ScheduleKind::k1F1B;
};

// Print the case by name: gtest's default byte dump would embed the
// std::string's heap pointer in the listed test name, which then differs
// from one process to the next.
void PrintTo(const ParityCase& pc, std::ostream* os) { *os << pc.name; }

data::SyntheticGlueDataset parity_dataset() {
  data::DatasetConfig cfg;
  cfg.task = data::GlueTask::kSst2;
  cfg.train_samples = 24;
  cfg.eval_samples = 8;
  cfg.seq_len = 8;
  cfg.vocab = 32;
  return data::SyntheticGlueDataset(cfg);
}

ModelFactory parity_factory(Technique technique) {
  return [technique] {
    model::TechniqueConfig tc;
    tc.technique = technique;
    tc.adapter_reduction = 4;
    tc.pa_reduction = 4;
    return std::make_unique<model::Model>(
        model::tiny(4, 16, 2, 32, 8), tc,
        model::TaskSpec{model::TaskKind::kClassification, 2}, 4242);
  };
}

RunResult reference_run(Technique technique,
                        const data::SyntheticGlueDataset& ds) {
  dist::EdgeCluster cluster(1, std::numeric_limits<std::uint64_t>::max());
  RunConfig cfg;
  cfg.plan = ParallelPlan::standalone(6, 1);  // 4 layers + emb + head
  cfg.batch_size = 8;
  cfg.epochs = 2;
  cfg.lr = 5e-3F;
  return run_training(cluster, ds, parity_factory(technique), cfg);
}

class ParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(ParityTest, MatchesSingleDeviceTraining) {
  const ParityCase& pc = GetParam();
  auto ds = parity_dataset();
  RunResult ref = reference_run(pc.technique, ds);

  dist::EdgeCluster cluster(pc.world,
                            std::numeric_limits<std::uint64_t>::max());
  RunConfig cfg;
  cfg.plan = pc.plan_fn(6, pc.world);
  cfg.schedule = pc.schedule;
  cfg.batch_size = 8;
  cfg.epochs = 2;
  cfg.lr = 5e-3F;
  RunResult got = run_training(cluster, ds, parity_factory(pc.technique),
                               cfg);

  ASSERT_EQ(ref.trainable_values.size(), got.trainable_values.size());
  for (const auto& [name, value] : ref.trainable_values) {
    auto it = got.trainable_values.find(name);
    ASSERT_NE(it, got.trainable_values.end()) << name;
    EXPECT_LT(ops::max_abs_diff(value, it->second), 5e-3F) << name;
  }
  // Loss curves agree too.
  ASSERT_EQ(ref.epoch_losses.size(), got.epoch_losses.size());
  for (std::size_t e = 0; e < ref.epoch_losses.size(); ++e) {
    EXPECT_NEAR(ref.epoch_losses[e], got.epoch_losses[e], 5e-3) << e;
  }
}

std::vector<ParityCase> parity_cases() {
  auto dp = [](std::int64_t blocks, int world) {
    return ParallelPlan::pure_data_parallel(blocks, world, world);
  };
  auto pp = [](std::int64_t blocks, int world) {
    return ParallelPlan::pure_pipeline(blocks, world, 4);
  };
  auto hybrid = [](std::int64_t blocks, int world) {
    // 2 stages x (world/2) devices.
    ParallelPlan plan;
    const std::int64_t half = blocks / 2;
    StageAssignment s0{0, half, {}, {}};
    StageAssignment s1{half, blocks, {}, {}};
    for (int r = 0; r < world / 2; ++r) s0.devices.push_back(r);
    for (int r = world / 2; r < world; ++r) s1.devices.push_back(r);
    plan.stages = {s0, s1};
    plan.num_micro_batches = 4;
    return plan;
  };
  return {
      {"DataParallel_Full", Technique::kFull, 2, dp},
      {"DataParallel_PA", Technique::kParallelAdapters, 2, dp},
      {"Pipeline_Full", Technique::kFull, 3, pp},
      {"Pipeline_Lora", Technique::kLora, 3, pp},
      {"Pipeline_Adapters", Technique::kAdapters, 2, pp},
      {"Pipeline_PA", Technique::kParallelAdapters, 3, pp},
      {"Pipeline_PA_GPipe", Technique::kParallelAdapters, 3, pp,
       ScheduleKind::kGPipe},
      {"Hybrid_Full", Technique::kFull, 4, hybrid},
      {"Hybrid_PA", Technique::kParallelAdapters, 4, hybrid},
      {"Hybrid_Adapters", Technique::kAdapters, 4, hybrid},
  };
}

INSTANTIATE_TEST_SUITE_P(AllModes, ParityTest,
                         ::testing::ValuesIn(parity_cases()),
                         [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Behavioural properties of the distributed runs
// ---------------------------------------------------------------------------

TEST(HybridRunTest, ParallelAdaptersBackwardTrafficIsTiny) {
  // The gradient highway: backward inter-stage traffic under PA is r/H of
  // the hidden width.  Compare total traffic of PA vs Full on the same
  // pipeline plan.
  auto ds = parity_dataset();
  RunConfig cfg;
  cfg.plan = ParallelPlan::pure_pipeline(6, 2, 2);
  cfg.batch_size = 8;
  cfg.epochs = 1;
  cfg.run_eval = false;

  dist::EdgeCluster c1(2, std::numeric_limits<std::uint64_t>::max());
  run_training(c1, ds, parity_factory(Technique::kFull), cfg);
  const auto full_bwd_bytes =
      c1.last_transport()->stats(1, 0).bytes;  // stage1 -> stage0 = backward

  dist::EdgeCluster c2(2, std::numeric_limits<std::uint64_t>::max());
  run_training(c2, ds, parity_factory(Technique::kParallelAdapters), cfg);
  const auto pa_bwd_bytes = c2.last_transport()->stats(1, 0).bytes;

  // r = hidden/4 in the parity factory, so backward bytes should shrink by
  // roughly 4x (exactly r/H for the activation-gradient traffic).
  EXPECT_LT(pa_bwd_bytes, full_bwd_bytes / 2);
}

TEST(HybridRunTest, EvalMetricComputedOnLeader) {
  auto ds = parity_dataset();
  dist::EdgeCluster cluster(2, std::numeric_limits<std::uint64_t>::max());
  RunConfig cfg;
  cfg.plan = ParallelPlan::pure_pipeline(6, 2, 2);
  cfg.batch_size = 8;
  cfg.epochs = 1;
  RunResult r = run_training(cluster, ds,
                             parity_factory(Technique::kParallelAdapters),
                             cfg);
  EXPECT_GE(r.eval_metric, 0.0);
  EXPECT_LE(r.eval_metric, 1.0);
  EXPECT_FALSE(r.trainable_values.empty());
}

TEST(HybridRunTest, OomDevicePropagatesFromRun) {
  auto ds = parity_dataset();
  // A budget far below the model size: the stage worker's weight
  // registration must blow up as DeviceOomError.
  dist::EdgeCluster cluster(2, /*memory_budget_bytes=*/1024);
  RunConfig cfg;
  cfg.plan = ParallelPlan::pure_pipeline(6, 2, 2);
  cfg.batch_size = 8;
  cfg.epochs = 1;
  EXPECT_THROW(run_training(cluster, ds,
                            parity_factory(Technique::kFull), cfg),
               DeviceOomError);
}

TEST(HybridRunTest, PeakMemoryReportedPerDevice) {
  auto ds = parity_dataset();
  dist::EdgeCluster cluster(2, std::numeric_limits<std::uint64_t>::max());
  RunConfig cfg;
  cfg.plan = ParallelPlan::pure_pipeline(6, 2, 2);
  cfg.batch_size = 8;
  cfg.epochs = 1;
  cfg.run_eval = false;
  RunResult r = run_training(cluster, ds, parity_factory(Technique::kFull),
                             cfg);
  ASSERT_EQ(r.peak_memory_per_device.size(), 2U);
  EXPECT_GT(r.peak_memory_per_device[0], 0U);
  EXPECT_GT(r.peak_memory_per_device[1], 0U);
}

TEST(HybridRunTest, UnevenBatchSizesStillTrain) {
  data::DatasetConfig dcfg;
  dcfg.task = data::GlueTask::kSst2;
  dcfg.train_samples = 11;  // not divisible by batch or micro counts
  dcfg.eval_samples = 5;
  dcfg.seq_len = 8;
  dcfg.vocab = 32;
  data::SyntheticGlueDataset ds(dcfg);
  dist::EdgeCluster cluster(3, std::numeric_limits<std::uint64_t>::max());
  RunConfig cfg;
  cfg.plan = ParallelPlan::pure_pipeline(6, 3, 4);
  cfg.batch_size = 4;
  cfg.epochs = 1;
  RunResult r = run_training(cluster, ds,
                             parity_factory(Technique::kParallelAdapters),
                             cfg);
  EXPECT_EQ(r.epoch_losses.size(), 1U);
  EXPECT_GT(r.epoch_losses[0], 0.0);
}

TEST(WeightedPlanTest, ExecutedParityWithWeightedOwnership) {
  // Weighted micro ownership redistributes WORK, never results: training
  // under a skewed-weight plan must still match single-device training.
  auto ds = parity_dataset();
  RunResult ref = reference_run(Technique::kParallelAdapters, ds);

  ParallelPlan plan;
  StageAssignment s0{0, 3, {0, 1}, {3.0, 1.0}};
  StageAssignment s1{3, 6, {2, 3}, {1.0, 2.0}};
  plan.stages = {s0, s1};
  plan.num_micro_batches = 4;
  dist::EdgeCluster cluster(4, std::numeric_limits<std::uint64_t>::max());
  RunConfig cfg;
  cfg.plan = plan;
  cfg.batch_size = 8;
  cfg.epochs = 2;
  cfg.lr = 5e-3F;
  RunResult got = run_training(cluster, ds,
                               parity_factory(Technique::kParallelAdapters),
                               cfg);
  ASSERT_EQ(ref.trainable_values.size(), got.trainable_values.size());
  for (const auto& [name, value] : ref.trainable_values) {
    EXPECT_LT(ops::max_abs_diff(value, got.trainable_values.at(name)), 5e-3F)
        << name;
  }
}

}  // namespace
}  // namespace pac::pipeline
