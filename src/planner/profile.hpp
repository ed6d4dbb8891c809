// Planner inputs: per-block runtime/memory profiles plus the cluster shape.
//
// Profiles come from either the executed profiler (measured on this
// machine, paper §5.1 "Step 1") or the analytic cost model (paper-scale
// simulation).  The planner and the event simulator are agnostic to the
// source.
#pragma once

#include <string>
#include <vector>

#include "costmodel/block_cost.hpp"
#include "costmodel/device_spec.hpp"
#include "pipeline/schedule.hpp"

namespace pac::planner {

struct BlockProfile {
  std::string name;
  double t_fwd = 0.0;  // seconds per micro-batch
  double t_bwd = 0.0;
  std::uint64_t param_bytes = 0;
  std::uint64_t trainable_bytes = 0;
  std::uint64_t activation_bytes = 0;  // retained per in-flight micro
  std::uint64_t fwd_msg_bytes = 0;
  std::uint64_t bwd_msg_bytes = 0;
};

struct PlannerInput {
  std::vector<BlockProfile> blocks;
  int num_devices = 1;
  std::uint64_t device_budget_bytes =
      std::numeric_limits<std::uint64_t>::max();
  costmodel::NetworkModel network;
  std::int64_t num_micro_batches = 8;  // per mini-batch
  // The schedule every stage runs.  GPipe keeps every local micro-batch's
  // activations in flight; 1F1B bounds them by its warmup.  The planner
  // prices memory with it and the event simulator replays it.
  pipeline::ScheduleKind schedule = pipeline::ScheduleKind::k1F1B;
  // Relative compute speed per device (1.0 = the profiled reference).
  // Empty means homogeneous.  The DP consumes devices in this order, so
  // callers choose the ordering (paper Eq. 2 uses ordered device sets).
  std::vector<double> device_scales;

  double device_scale(int rank) const {
    if (device_scales.empty()) return 1.0;
    PAC_CHECK(rank >= 0 &&
                  rank < static_cast<int>(device_scales.size()),
              "device scale rank out of range");
    return device_scales[static_cast<std::size_t>(rank)];
  }

  std::int64_t num_blocks() const {
    return static_cast<std::int64_t>(blocks.size());
  }
};

// Builds a PlannerInput from the analytic cost model at paper scale.
PlannerInput analytic_planner_input(const model::ModelConfig& config,
                                    const model::TechniqueConfig& technique,
                                    const costmodel::SeqShape& micro_shape,
                                    const costmodel::DeviceModel& device,
                                    const costmodel::NetworkModel& network,
                                    int num_devices,
                                    std::int64_t num_micro_batches,
                                    bool include_decoder = true);

}  // namespace pac::planner
