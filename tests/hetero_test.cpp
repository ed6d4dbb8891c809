// Heterogeneous-cluster planning and simulation (the paper's Eq. 2 DP is
// over an ordered device set, which naturally admits unequal devices).
#include <gtest/gtest.h>

#include "planner/planner.hpp"
#include "sim/event_sim.hpp"

namespace pac::planner {
namespace {

PlannerInput hetero_input(std::int64_t n, std::vector<double> scales,
                          double t_fwd, double t_bwd, std::int64_t micros) {
  PlannerInput input;
  input.num_devices = static_cast<int>(scales.size());
  input.device_scales = std::move(scales);
  input.num_micro_batches = micros;
  input.network.latency_s = 0.0;
  input.network.bandwidth_bps = 1e18;
  for (std::int64_t i = 0; i < n; ++i) {
    BlockProfile p;
    p.name = "b" + std::to_string(i);
    p.t_fwd = t_fwd;
    p.t_bwd = t_bwd;
    input.blocks.push_back(std::move(p));
  }
  return input;
}

// The compute makespan of a simulated mini-batch: the end of its last
// compute op, before the gradient AllReduce.
double compute_makespan(const PlannerInput& input,
                        const pipeline::ParallelPlan& plan) {
  double end = 0.0;
  for (const sim::OpTrace& op : sim::simulate_minibatch(input, plan).trace) {
    end = std::max(end, op.end);
  }
  return end;
}

TEST(HeteroPlannerTest, SlowDeviceBoundsTheStage) {
  // Two devices, second at half speed, one stage over both: the slow
  // member's micro share bounds the stage time.
  auto input = hetero_input(4, {1.0, 0.5}, 0.1, 0.2, 4);
  auto plan = pipeline::ParallelPlan::pure_data_parallel(4, 2, 4);
  PlanEstimate est = evaluate_plan(input, plan);
  // Each member handles 2 micros x 4 blocks x 0.3s; the slow one takes 2x.
  EXPECT_NEAR(est.minibatch_seconds, 2 * 4 * 0.3 / 0.5, 1e-9);
}

TEST(HeteroPlannerTest, FasterClusterPlansFaster) {
  auto slow = hetero_input(8, {1.0, 1.0, 1.0, 1.0}, 0.05, 0.1, 8);
  auto fast = hetero_input(8, {2.0, 2.0, 2.0, 2.0}, 0.05, 0.1, 8);
  const double t_slow = plan_hybrid(slow).minibatch_seconds;
  const double t_fast = plan_hybrid(fast).minibatch_seconds;
  EXPECT_NEAR(t_fast, t_slow / 2.0, 1e-9);
}

TEST(HeteroPlannerTest, UnequalDevicesGetUnequalWork) {
  // Device 0 is 3x the speed of device 1.  A pipeline split should give
  // the fast device (first in planner order) more blocks than the slow
  // one — the planner balances time, not block counts.
  auto input = hetero_input(12, {3.0, 1.0}, 0.1, 0.2, 8);
  // Force memory pressure so a split is required.
  for (auto& blk : input.blocks) blk.param_bytes = 1 << 20;
  input.device_budget_bytes = 9 << 20;  // at most 9 blocks per device
  PlanEstimate est = plan_hybrid(input);
  ASSERT_TRUE(est.feasible) << est.note;
  ASSERT_EQ(est.plan.num_stages(), 2);
  const auto blocks0 =
      est.plan.stages[0].block_end - est.plan.stages[0].block_begin;
  const auto blocks1 =
      est.plan.stages[1].block_end - est.plan.stages[1].block_begin;
  EXPECT_GT(blocks0, blocks1)
      << "fast device should own the larger stage: " << est.note;
}

TEST(HeteroPlannerTest, HomogeneousScalesMatchDefault) {
  auto with_scales = hetero_input(6, {1.0, 1.0, 1.0}, 0.1, 0.1, 6);
  auto without = with_scales;
  without.device_scales.clear();
  EXPECT_NEAR(plan_hybrid(with_scales).minibatch_seconds,
              plan_hybrid(without).minibatch_seconds, 1e-12);
}

TEST(HeteroSimTest, StragglerStretchesMakespan) {
  auto input = hetero_input(4, {1.0, 1.0, 1.0, 1.0}, 0.25, 0.5, 4);
  const auto plan = pipeline::ParallelPlan::pure_data_parallel(4, 4, 4);
  const double t_equal = compute_makespan(input, plan);

  input.device_scales = {1.0, 1.0, 1.0, 0.25};  // one 4x-slow straggler
  const double t_straggler = compute_makespan(input, plan);
  EXPECT_NEAR(t_straggler, t_equal * 4.0, 1e-9);
}

TEST(HeteroSimTest, WeightedOwnershipBeatsBlindRoundRobin) {
  // One 4x-slow straggler in a data-parallel group: weight-proportional
  // micro assignment (planner-emitted) must beat blind round-robin.
  auto input = hetero_input(4, {1.0, 1.0, 1.0, 0.25}, 0.25, 0.5, 8);

  pipeline::ParallelPlan blind =
      pipeline::ParallelPlan::pure_data_parallel(4, 4, 8);
  const double t_blind = compute_makespan(input, blind);

  pipeline::ParallelPlan weighted = blind;
  weighted.stages[0].device_weights = {1.0, 1.0, 1.0, 0.25};
  const double t_weighted = compute_makespan(input, weighted);
  EXPECT_LT(t_weighted, t_blind * 0.75)
      << "blind " << t_blind << " vs weighted " << t_weighted;
}

TEST(HeteroPlannerTest, PlannerEmitsWeightsForMixedGroups) {
  // A heterogeneous 4-device cluster with ample memory: if the planner
  // forms any multi-device group mixing speeds, that group must carry
  // weights; homogeneous groups must not.
  auto input = hetero_input(8, {2.0, 2.0, 1.0, 1.0}, 0.05, 0.1, 8);
  PlanEstimate est = plan_hybrid(input);
  ASSERT_TRUE(est.feasible);
  for (const auto& st : est.plan.stages) {
    bool mixed = false;
    for (int r : st.devices) {
      if (input.device_scale(r) != input.device_scale(st.devices[0])) {
        mixed = true;
      }
    }
    EXPECT_EQ(!st.device_weights.empty(), mixed) << est.plan.to_string();
  }
}

TEST(HeteroSimTest, ScaleRankRangeChecked) {
  PlannerInput input = hetero_input(2, {1.0}, 0.1, 0.1, 1);
  EXPECT_THROW(input.device_scale(5), InvalidArgument);
  EXPECT_DOUBLE_EQ(input.device_scale(0), 1.0);
}

}  // namespace
}  // namespace pac::planner
