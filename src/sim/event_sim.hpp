// Discrete-event simulator for one mini-batch of pipeline execution.
//
// Replays the exact op sequence every rank would run — the schedule kind
// of input.schedule, each stage's pipeline::stage_warmup, and the micro
// owners and per-stage costs of planner::StagePricer, so the same routing
// as the executed StageWorker — against the profiled block costs: devices
// are serial compute resources, each directed link is a serial transfer
// resource, forwards/backwards wait on the producing rank's message.
// Output is the mini-batch makespan, the per-device busy fraction
// (1 - bubble), total traffic and the trace of every compute op, next to
// the planner's own estimate of the plan (feasibility, per-device memory,
// per-stage weights), which the simulator keeps rather than copies.  This
// is what regenerates the paper's Jetson-scale timing numbers (Tables 2,
// Figs 8a/9a/11) without the hardware.
#pragma once

#include "pipeline/plan.hpp"
#include "pipeline/schedule.hpp"
#include "planner/planner.hpp"

namespace pac::sim {

// One simulated compute op (for traces / Gantt rendering).
struct OpTrace {
  int rank = -1;
  int stage = -1;
  std::int64_t micro = -1;
  bool backward = false;
  double start = 0.0;
  double end = 0.0;
};

struct SimResult {
  // planner::evaluate_plan of the replayed plan.  When it is infeasible
  // (a device over budget) nothing is replayed and the fields below stay
  // zero.
  planner::PlanEstimate estimate;
  double minibatch_seconds = 0.0; // compute, messages and AllReduce
  double bubble_fraction = 0.0;   // 1 - mean busy/makespan over used devices
  std::uint64_t comm_bytes = 0;   // inter-device traffic (p2p + allreduce)
  std::vector<OpTrace> trace;     // every compute op the replay ran
};

// input.schedule picks 1F1B or GPipe.
SimResult simulate_minibatch(const planner::PlannerInput& input,
                             const pipeline::ParallelPlan& plan);

// ASCII Gantt chart of a simulated mini-batch: one row per device, time on
// the horizontal axis.  Forward ops render as the micro-batch id in hex
// (uppercase), backwards in lowercase, idle as '.', AllReduce as '*'.
std::string render_timeline(const planner::PlannerInput& input,
                            const pipeline::ParallelPlan& plan,
                            int width = 72);

}  // namespace pac::sim
