#include <gtest/gtest.h>

#include <random>

#include "common/timer.hpp"
#include "nn/optimizer.hpp"
#include "pipeline/plan.hpp"
#include "pipeline/schedule.hpp"
#include "planner/planner.hpp"
#include "planner/profiler.hpp"

namespace pac::planner {
namespace {

using model::Technique;

// Synthetic profile: `n` uniform blocks.
PlannerInput uniform_input(std::int64_t n, int devices, double t_fwd,
                           double t_bwd, std::uint64_t param_bytes,
                           std::uint64_t act_bytes, std::int64_t micros,
                           std::uint64_t budget) {
  PlannerInput input;
  input.num_devices = devices;
  input.device_budget_bytes = budget;
  input.num_micro_batches = micros;
  for (std::int64_t i = 0; i < n; ++i) {
    BlockProfile p;
    p.name = "block_" + std::to_string(i);
    p.t_fwd = t_fwd;
    p.t_bwd = t_bwd;
    p.param_bytes = param_bytes;
    p.trainable_bytes = param_bytes / 100;
    p.activation_bytes = act_bytes;
    p.fwd_msg_bytes = 1 << 16;
    p.bwd_msg_bytes = 1 << 14;
    input.blocks.push_back(std::move(p));
  }
  return input;
}

TEST(EvaluatePlanTest, SingleStageMatchesClosedForm) {
  auto input = uniform_input(4, 1, 0.01, 0.02, 1 << 20, 1 << 18, 4,
                             std::numeric_limits<std::uint64_t>::max());
  auto plan = pipeline::ParallelPlan::standalone(4, 4);
  PlanEstimate est = evaluate_plan(input, plan);
  EXPECT_TRUE(est.feasible);
  // 4 micros x 4 blocks x (0.01 + 0.02), no comm, AR for group of 1 = 0.
  EXPECT_NEAR(est.minibatch_seconds, 4 * 4 * 0.03, 1e-9);
}

TEST(EvaluatePlanTest, DetectsOom) {
  auto input = uniform_input(4, 2, 0.01, 0.02, 1 << 20, 1 << 12, 4,
                             /*budget=*/3 << 20);
  auto plan = pipeline::ParallelPlan::standalone(4, 4);  // 4 MiB params
  PlanEstimate est = evaluate_plan(input, plan);
  EXPECT_FALSE(est.feasible);
  EXPECT_NE(est.note.find("budget"), std::string::npos);
  // Splitting into two stages halves the per-device weights.
  auto pp = pipeline::ParallelPlan::pure_pipeline(4, 2, 4);
  EXPECT_TRUE(evaluate_plan(input, pp).feasible);
}

TEST(EvaluatePlanTest, StageWeightBytesReported) {
  auto input = uniform_input(6, 3, 0.01, 0.01, 1 << 20, 0, 2,
                             std::numeric_limits<std::uint64_t>::max());
  auto plan = pipeline::ParallelPlan::pure_pipeline(6, 3, 2);
  PlanEstimate est = evaluate_plan(input, plan);
  ASSERT_EQ(est.stage_weight_bytes.size(), 3U);
  EXPECT_EQ(est.stage_weight_bytes[0], 2U << 20);
}

// Stage 0 = blocks [0, 3) on devices {0, 1} weighted 3:1, stage 1 =
// blocks [3, 6) on {2, 3}; 8 micros, 1000 activation bytes per block.
pipeline::ParallelPlan weighted_two_by_two() {
  pipeline::ParallelPlan plan;
  plan.stages = {pipeline::StageAssignment{0, 3, {0, 1}, {3.0, 1.0}},
                 pipeline::StageAssignment{3, 6, {2, 3}, {}}};
  plan.num_micro_batches = 8;
  return plan;
}

TEST(EvaluatePlanTest, WeightedPlanChargesEachDevicesExecutedInFlightPeak) {
  auto input = uniform_input(6, 4, 0.01, 0.01, 0, 1000, 8,
                             std::numeric_limits<std::uint64_t>::max());
  const pipeline::ParallelPlan plan = weighted_two_by_two();
  const PlanEstimate est = evaluate_plan(input, plan);
  // Device 0 owns 6 of the 8 micros and, under the weighted warmup of 2,
  // runs 3 of them in flight: 3 x 3 blocks x 1000 B.  Device 1 owns 2.
  ASSERT_EQ(est.stage_memory_bytes.size(), 2U);
  EXPECT_EQ(est.stage_memory_bytes[0], 9000U);
  ASSERT_EQ(est.device_memory_bytes.size(), 4U);
  EXPECT_EQ(est.device_memory_bytes[0], 9000U);
  EXPECT_EQ(est.device_memory_bytes[1], 6000U);
  for (int dev = 0; dev < 4; ++dev) {
    const int stage = plan.stage_of_rank(dev);
    const auto& st = plan.stages[static_cast<std::size_t>(stage)];
    std::int64_t local = 0;
    for (int o : pipeline::micro_owner_indices(st, 8)) {
      local += o == plan.index_in_group(dev) ? 1 : 0;
    }
    const std::int64_t in_flight =
        pipeline::max_in_flight(pipeline::make_schedule(
            pipeline::ScheduleKind::k1F1B, local,
            pipeline::stage_warmup(plan, stage)));
    EXPECT_EQ(est.device_memory_bytes[static_cast<std::size_t>(dev)],
              static_cast<std::uint64_t>(3000 * in_flight))
        << "device " << dev;
  }
  // A budget between the two members' needs is an OOM.
  input.device_budget_bytes = 8000;
  EXPECT_FALSE(evaluate_plan(input, plan).feasible);
}

TEST(PlanHybridTest, AmpleMemoryPrefersDataParallel) {
  // With no memory pressure and tiny trainable state (cheap AllReduce),
  // pure DP has no bubble and should win.
  auto input = uniform_input(8, 4, 0.02, 0.04, 1 << 10, 1 << 8, 4,
                             std::numeric_limits<std::uint64_t>::max());
  PlanEstimate est = plan_hybrid(input);
  ASSERT_TRUE(est.feasible);
  EXPECT_EQ(est.plan.num_stages(), 1);
  EXPECT_EQ(est.plan.stages[0].devices.size(), 4U);
}

TEST(PlanHybridTest, TightMemoryForcesPipelining) {
  // Each device can hold at most ~half the blocks: a 1-stage plan is
  // infeasible and the planner must split.
  const std::uint64_t param = 1 << 20;
  auto input = uniform_input(8, 4, 0.02, 0.04, param, 0, 4,
                             /*budget=*/5 * param);
  PlanEstimate est = plan_hybrid(input);
  ASSERT_TRUE(est.feasible) << est.note;
  EXPECT_GE(est.plan.num_stages(), 2);
  for (const auto& mem : est.stage_memory_bytes) {
    EXPECT_LE(mem, input.device_budget_bytes);
  }
}

TEST(PlanHybridTest, InfeasibleWhenNothingFits) {
  auto input = uniform_input(4, 2, 0.01, 0.01, 1 << 20, 0, 2,
                             /*budget=*/100);
  PlanEstimate est = plan_hybrid(input);
  EXPECT_FALSE(est.feasible);
  EXPECT_FALSE(est.note.empty());
}

TEST(PlanHybridTest, PlanIsAlwaysValid) {
  for (int devices : {1, 2, 3, 5, 8}) {
    for (std::int64_t blocks : {3, 7, 14}) {
      if (blocks < devices) continue;
      auto input = uniform_input(blocks, devices, 0.01, 0.02, 1 << 18,
                                 1 << 12, 8,
                                 std::numeric_limits<std::uint64_t>::max());
      PlanEstimate est = plan_hybrid(input);
      ASSERT_TRUE(est.feasible);
      est.plan.validate(blocks, devices);
    }
  }
}

TEST(PlanHybridTest, BeatsOrMatchesBothPureBaselines) {
  // Hybrid search space contains both extremes, so the chosen plan's
  // estimate can never be worse than either baseline.
  const std::uint64_t param = 1 << 22;
  auto input = uniform_input(12, 4, 0.05, 0.08, param, 1 << 16, 8,
                             /*budget=*/40 * param);
  PlanEstimate hybrid = plan_hybrid(input);
  ASSERT_TRUE(hybrid.feasible);
  PlanEstimate dp = evaluate_plan(
      input, pipeline::ParallelPlan::pure_data_parallel(12, 4, 8));
  PlanEstimate pp = evaluate_plan(
      input, pipeline::ParallelPlan::pure_pipeline(12, 4, 8));
  if (dp.feasible) {
    EXPECT_LE(hybrid.minibatch_seconds, dp.minibatch_seconds + 1e-9);
  }
  if (pp.feasible) {
    EXPECT_LE(hybrid.minibatch_seconds, pp.minibatch_seconds + 1e-9);
  }
}

TEST(PlanHybridTest, PaperScaleBartLargeEightDevicesIsHybrid) {
  // Fig. 10: on 8 Jetson Nanos PAC chooses a *hybrid* configuration for
  // BART-Large — neither EDDL's single all-device group nor Eco-FL's 8
  // singleton stages (the paper's instance is 2 stages x 4 devices; our
  // cost model lands on a hybrid with multi-device groups too, see
  // EXPERIMENTS.md for the exact grouping comparison).
  auto input = analytic_planner_input(
      model::bart_large(),
      model::paper_technique_config(Technique::kParallelAdapters),
      costmodel::SeqShape{1, 128, 16}, costmodel::jetson_nano(),
      costmodel::edge_lan(), 8, 16, true);
  PlanEstimate est = plan_hybrid(input);
  ASSERT_TRUE(est.feasible) << est.note;
  EXPECT_GE(est.plan.num_stages(), 2);   // not pure data parallelism
  EXPECT_LT(est.plan.num_stages(), 8);   // not pure pipeline either
  std::size_t widest_group = 0;
  for (const auto& st : est.plan.stages) {
    widest_group = std::max(widest_group, st.devices.size());
  }
  EXPECT_GE(widest_group, 2U) << "expected intra-stage data parallelism";
  // Every stage must respect the Jetson budget.
  for (std::uint64_t mem : est.stage_memory_bytes) {
    EXPECT_LE(mem, input.device_budget_bytes);
  }
}

TEST(PlanHybridTest, PlanningCompletesWithinPaperBudget) {
  // Paper §5.1: planning finishes within 3 s on an edge device.
  WallTimer timer;
  for (const auto& cfg :
       {model::t5_base(), model::bart_large(), model::t5_large()}) {
    auto input = analytic_planner_input(
        cfg, model::paper_technique_config(Technique::kParallelAdapters),
        costmodel::SeqShape{2, 128, 16}, costmodel::jetson_nano(),
        costmodel::edge_lan(), 8, 8, true);
    plan_hybrid(input);
  }
  EXPECT_LT(timer.seconds(), 3.0);
}

TEST(ProfilerTest, MeasuresExecutedBlocks) {
  model::TechniqueConfig tc;
  tc.technique = Technique::kParallelAdapters;
  tc.pa_reduction = 4;
  model::Model m(model::tiny(3, 16, 2, 32, 8), tc, model::TaskSpec{}, 5);
  Rng rng(6);
  Tensor tokens({2, 8});
  for (std::int64_t i = 0; i < tokens.numel(); ++i) {
    tokens.data()[i] = static_cast<float>(rng.integer(0, 31));
  }
  auto profiles = profile_model(m, tokens, 3);
  ASSERT_EQ(profiles.size(), 5U);  // emb + 3 layers + head
  for (const auto& p : profiles) {
    EXPECT_GE(p.t_fwd, 0.0);
    EXPECT_GT(p.param_bytes, 0U) << p.name;
  }
  // Under Parallel Adapters the backward message is the r-wide gradient.
  EXPECT_GT(profiles[1].fwd_msg_bytes, profiles[1].bwd_msg_bytes);
  EXPECT_EQ(profiles[1].bwd_msg_bytes, 2ULL * 8 * 4 * sizeof(float));
  // Frozen backbone + trainable side: trainable < params.
  EXPECT_LT(profiles[1].trainable_bytes, profiles[1].param_bytes);
}

TEST(ProfilerTest, FullTechniqueProfilesBackwardEverywhere) {
  model::TechniqueConfig tc;
  tc.technique = Technique::kFull;
  model::Model m(model::tiny(2, 16, 2, 32, 8), tc, model::TaskSpec{}, 7);
  Tensor tokens = Tensor::zeros({2, 8});
  auto profiles = profile_model(m, tokens, 2);
  for (const auto& p : profiles) {
    EXPECT_EQ(p.param_bytes, p.trainable_bytes) << p.name;
  }
  // Hidden-width backward messages between blocks.
  EXPECT_EQ(profiles[1].bwd_msg_bytes, 2ULL * 8 * 16 * sizeof(float));
}

// ---------------------------------------------------------------------------
// Property test: the partition DP against brute-force enumeration.
//
// The DP's search space is: contiguous block segments, assigned in order to
// contiguous device groups starting at rank 0, with idle trailing devices
// allowed.  The brute force below enumerates that space exhaustively and
// replicates the stage cost model independently of the Prefix/DpTables
// machinery (direct summation loops, explicit in-flight bound), so a bug in
// either the recurrence or the reconstruction-free objective shows up as a
// mismatch against `optimal_bottleneck_seconds`.

std::int64_t bf_ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

// Cost of one stage with `stages_from_here` stages left in the pipeline
// (itself included): +inf on OOM under the classic 1F1B in-flight bound
// min(local_micros, stages_from_here), else the slowest member's micro
// share plus the group AllReduce.  Mirrors the model in
// src/planner/planner.cpp but recomputed from first principles.
double bf_stage_cost(const PlannerInput& input, std::int64_t block_begin,
                     std::int64_t block_end, std::int64_t first_rank,
                     std::int64_t m, std::int64_t stages_from_here) {
  double t_fwd = 0.0;
  double t_bwd = 0.0;
  std::uint64_t param_bytes = 0;
  std::uint64_t trainable_bytes = 0;
  std::uint64_t activation_bytes = 0;
  for (std::int64_t b = block_begin; b < block_end; ++b) {
    const auto& blk = input.blocks[static_cast<std::size_t>(b)];
    t_fwd += blk.t_fwd;
    t_bwd += blk.t_bwd;
    param_bytes += blk.param_bytes;
    trainable_bytes += blk.trainable_bytes;
    activation_bytes += blk.activation_bytes;
  }
  const std::int64_t local_micros =
      std::max<std::int64_t>(1, bf_ceil_div(input.num_micro_batches, m));
  const std::int64_t in_flight =
      input.schedule == pipeline::ScheduleKind::kGPipe
          ? local_micros
          : std::min(local_micros, stages_from_here);
  const std::uint64_t mem =
      param_bytes + trainable_bytes +
      nn::Adam::kStateFactor * trainable_bytes +
      activation_bytes * static_cast<std::uint64_t>(in_flight);
  if (mem > input.device_budget_bytes) {
    return std::numeric_limits<double>::infinity();
  }
  pipeline::StageAssignment st;
  st.block_begin = 0;
  st.block_end = 1;
  bool heterogeneous = false;
  for (std::int64_t j = 0; j < m; ++j) {
    st.devices.push_back(static_cast<int>(first_rank + j));
    st.device_weights.push_back(
        input.device_scale(static_cast<int>(first_rank + j)));
    if (st.device_weights.back() !=
        input.device_scale(static_cast<int>(first_rank))) {
      heterogeneous = true;
    }
  }
  if (!heterogeneous) st.device_weights.clear();
  const std::vector<int> owners =
      pipeline::micro_owner_indices(st, input.num_micro_batches);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(m), 0);
  for (int o : owners) ++counts[static_cast<std::size_t>(o)];
  double compute = 0.0;
  for (std::int64_t j = 0; j < m; ++j) {
    const double scale =
        input.device_scale(static_cast<int>(first_rank + j));
    compute = std::max(
        compute, static_cast<double>(counts[static_cast<std::size_t>(j)]) *
                     (t_fwd + t_bwd) / scale);
  }
  return compute + input.network.allreduce_seconds(trainable_bytes,
                                                   static_cast<int>(m));
}

// Min-over-everything bottleneck by exhaustive recursion.  For a fixed stage
// count s, place each stage's block segment and device width left to right;
// at most 8 blocks x 4 devices keeps this in the thousands of leaves.
void bf_recurse(const PlannerInput& input, std::int64_t num_stages,
                std::int64_t stage, std::int64_t block_begin,
                std::int64_t next_rank, double worst_so_far, double* best) {
  const std::int64_t n = input.num_blocks();
  const std::int64_t stages_left = num_stages - stage;
  if (stages_left == 0) {
    if (block_begin == n) *best = std::min(*best, worst_so_far);
    return;
  }
  // Leave at least one block and one device for each later stage.
  for (std::int64_t end = block_begin + 1; end <= n - (stages_left - 1);
       ++end) {
    for (std::int64_t m = 1;
         next_rank + m + (stages_left - 1) <= input.num_devices; ++m) {
      const double cost = bf_stage_cost(input, block_begin, end, next_rank,
                                        m, stages_left);
      bf_recurse(input, num_stages, stage + 1, end, next_rank + m,
                 std::max(worst_so_far, cost), best);
    }
  }
}

double bf_optimal_bottleneck(const PlannerInput& input) {
  double best = std::numeric_limits<double>::infinity();
  const std::int64_t s_max =
      std::min<std::int64_t>(input.num_devices, input.num_blocks());
  for (std::int64_t s = 1; s <= s_max; ++s) {
    bf_recurse(input, s, 0, 0, 0, 0.0, &best);
  }
  return best;
}

PlannerInput random_input(std::mt19937& rng) {
  std::uniform_int_distribution<std::int64_t> blocks_dist(1, 8);
  std::uniform_int_distribution<int> devices_dist(1, 4);
  std::uniform_int_distribution<std::int64_t> micros_dist(1, 8);
  std::uniform_real_distribution<double> time_dist(1e-3, 5e-2);
  std::uniform_int_distribution<std::uint64_t> param_dist(1 << 12, 1 << 20);
  std::uniform_int_distribution<std::uint64_t> act_dist(0, 1 << 16);
  std::uniform_real_distribution<double> scale_dist(0.5, 2.0);
  std::uniform_int_distribution<int> coin(0, 3);

  PlannerInput input;
  const std::int64_t n = blocks_dist(rng);
  input.num_devices = devices_dist(rng);
  input.num_micro_batches = micros_dist(rng);
  input.schedule = coin(rng) == 0 ? pipeline::ScheduleKind::kGPipe
                                  : pipeline::ScheduleKind::k1F1B;
  for (std::int64_t i = 0; i < n; ++i) {
    BlockProfile p;
    p.name = "b" + std::to_string(i);
    p.t_fwd = time_dist(rng);
    p.t_bwd = time_dist(rng);
    p.param_bytes = param_dist(rng);
    p.trainable_bytes = p.param_bytes / 16;
    p.activation_bytes = act_dist(rng);
    p.fwd_msg_bytes = 1 << 12;
    p.bwd_msg_bytes = 1 << 10;
    input.blocks.push_back(std::move(p));
  }
  if (coin(rng) == 0) {
    // Heterogeneous cluster: per-rank compute scales.
    for (int r = 0; r < input.num_devices; ++r) {
      input.device_scales.push_back(scale_dist(rng));
    }
  }
  // Planning for a real edge LAN exercises nonzero AllReduce terms.
  if (coin(rng) < 2) input.network = costmodel::edge_lan();

  // Budgets: ample / tight / hopeless, to hit feasible, partly-OOM (some
  // groupings priced +inf) and fully-OOM (result is +inf) regimes.
  std::uint64_t total = 0;
  for (const auto& b : input.blocks) {
    total += b.param_bytes + b.trainable_bytes +
             b.activation_bytes *
                 static_cast<std::uint64_t>(input.num_micro_batches);
  }
  switch (coin(rng)) {
    case 0:
      input.device_budget_bytes = std::numeric_limits<std::uint64_t>::max();
      break;
    case 1:
      input.device_budget_bytes = total + 1;
      break;
    case 2:
      input.device_budget_bytes = std::max<std::uint64_t>(1, total / 3);
      break;
    default:
      input.device_budget_bytes = std::max<std::uint64_t>(
          1, total / static_cast<std::uint64_t>(8 * input.num_devices));
      break;
  }
  return input;
}

TEST(PlannerPropertyTest, DpMatchesBruteForceBottleneck) {
  std::mt19937 rng(0x9E3779B9U);
  int infeasible_cases = 0;
  for (int trial = 0; trial < 200; ++trial) {
    PlannerInput input = random_input(rng);
    const double expected = bf_optimal_bottleneck(input);
    const double got = optimal_bottleneck_seconds(input);
    if (std::isinf(expected)) {
      ++infeasible_cases;
      EXPECT_TRUE(std::isinf(got))
          << "trial " << trial << ": brute force says nothing fits, DP found "
          << got;
    } else {
      EXPECT_NEAR(got, expected, 1e-9 * std::max(1.0, expected))
          << "trial " << trial << ": n=" << input.num_blocks()
          << " d=" << input.num_devices
          << " micros=" << input.num_micro_batches
          << " budget=" << input.device_budget_bytes;
    }
  }
  // The budget mix must actually produce OOM => +inf cases.
  EXPECT_GT(infeasible_cases, 0);
}

TEST(PlannerPropertyTest, HandPickedOomEdgeCases) {
  // Everything fits nowhere: even a 1-block stage on its own device blows
  // the budget.
  auto hopeless = uniform_input(4, 4, 0.01, 0.01, 1 << 20, 0, 4,
                                /*budget=*/100);
  EXPECT_TRUE(std::isinf(optimal_bottleneck_seconds(hopeless)));
  EXPECT_TRUE(std::isinf(bf_optimal_bottleneck(hopeless)));

  // Fits only when fully pipelined: budget covers exactly one block's
  // footprint (params + trainable + optimizer state), so the optimum is the
  // 4-stage split and both searches must find it.
  const std::uint64_t param = 1 << 20;
  auto tight = uniform_input(4, 4, 0.01, 0.02, param, 0, 4,
                             /*budget=*/param + param / 100 * 3 + 8);
  const double expected = bf_optimal_bottleneck(tight);
  ASSERT_FALSE(std::isinf(expected));
  EXPECT_NEAR(optimal_bottleneck_seconds(tight), expected, 1e-12);
}

}  // namespace
}  // namespace pac::planner
