// PAC's parallelism planner (paper §5.1, Eq. 2-6).
//
// Dynamic program over block *suffixes* (start y, first free rank r,
// stages remaining s):
//     W(y→n, r, s) = min over (e, m) of
//         max( T(y→e on ranks [r, r+m)),  W(e→n, r+m, s-1) )
// where T is the data-parallel stage time — the slowest member's share of
// the M micro-batches of (fwd+bwd) plus the adapter AllReduce — and a
// stage whose per-device memory exceeds the budget costs +infinity (the
// paper's OOM rule).  The suffix orientation lets T approximate
// activations with the classic 1F1B in-flight bound min(local_micros, s):
// a stage's distance from the pipeline's end is exactly the suffix stage
// count, which a prefix DP would not know while the prefix grows.  The
// outer sweep picks the stage count s minimizing the full mini-batch
// latency estimate (fill + steady-state bottleneck + drain + AllReduce),
// which evaluate_plan computes with each device's executed in-flight peak.
//
// Devices may differ in compute speed (PlannerInput::device_scales; the
// paper's testbed is a rack of identical Jetson Nanos); groups are
// contiguous rank ranges.
#pragma once

#include <string>

#include "pipeline/plan.hpp"
#include "planner/profile.hpp"

namespace pac::planner {

// Profile totals of a contiguous block range.
struct BlockTotals {
  double t_fwd = 0.0;  // per micro-batch, at device scale 1.0
  double t_bwd = 0.0;
  std::uint64_t param_bytes = 0;
  std::uint64_t trainable_bytes = 0;
  std::uint64_t activation_bytes = 0;  // retained per in-flight micro
};

// One stage of a plan priced under the profile: its blocks' totals and
// how the mini-batch's micro-batches fall on its group members.
struct StageLoad : BlockTotals {
  std::vector<int> owners;  // per micro: index into st.devices
  std::vector<std::int64_t> local_micros;  // per member: micros it owns
  double compute_seconds = 0.0;  // slowest member's fwd+bwd over its micros
};

// Prices stages under one profile for mini-batches of `num_micro`
// micro-batches (prefix sums make each stage O(group + micros)).  The DP,
// evaluate_plan and the event simulator all read their per-stage sums and
// micro counts from here.  Holds a reference to input.
class StagePricer {
 public:
  StagePricer(const PlannerInput& input, std::int64_t num_micro);
  StageLoad load(const pipeline::StageAssignment& st) const;

 private:
  const PlannerInput& input_;
  std::int64_t num_micro_;
  std::vector<BlockTotals> prefix_;  // totals of blocks [0, i)
};

struct PlanEstimate {
  pipeline::ParallelPlan plan;
  bool feasible = false;
  double minibatch_seconds = std::numeric_limits<double>::infinity();
  std::string note;  // infeasibility reason or plan summary
  // Modeled memory of each device (index = rank, 0 for ranks the plan
  // leaves idle): the stage's weights, gradients and optimizer state plus
  // the activations of the in-flight peak of the op list the device runs
  // (input.schedule, its local micro count, pipeline::stage_warmup).
  std::vector<std::uint64_t> device_memory_bytes;
  // The largest device_memory_bytes of each stage (index = stage).
  std::vector<std::uint64_t> stage_memory_bytes;
  // Modeled per-device *weight* memory for each stage (Fig. 9b).
  std::vector<std::uint64_t> stage_weight_bytes;
};

// Evaluates an arbitrary plan under the profile: closed-form mini-batch
// latency plus per-device memory feasibility.
PlanEstimate evaluate_plan(const PlannerInput& input,
                           const pipeline::ParallelPlan& plan);

// Runs the DP and returns the best feasible hybrid plan (or an infeasible
// estimate when no configuration fits memory).
PlanEstimate plan_hybrid(const PlannerInput& input);

// Mid-run re-planning entry point: folds runtime-observed per-device speed
// ratios (elastic::StragglerVerdict::observed_scales, 1.0 = as profiled)
// into the calibration profile's device scales and re-runs the DP.  The
// observed vector must cover every device of `input` (pass 1.0 for ranks
// without samples).
PlanEstimate replan_hybrid(PlannerInput input,
                           const std::vector<double>& observed_scales);

// The DP's objective on its own: the minimum achievable steady-state
// bottleneck (max over stages of per-stage time, OOM stages costing
// +infinity under the DP's approximate in-flight bound) over every stage
// count / contiguous device grouping, idle trailing devices allowed.
// This is what W(0→n, 0, s) minimizes before plan_hybrid's latency sweep
// picks among the reconstructions; exposed so tests can cross-check it
// against brute-force enumeration.  Returns +infinity when nothing fits
// memory.
double optimal_bottleneck_seconds(const PlannerInput& input);

}  // namespace pac::planner
