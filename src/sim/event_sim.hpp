// Discrete-event simulator for one mini-batch of pipeline execution.
//
// Replays the exact op sequence every rank would run — the schedule kind
// of input.schedule, each stage's pipeline::stage_warmup, and the micro
// owners and per-stage costs of planner::StagePricer, so the same routing
// as the executed StageWorker — against the profiled block costs: devices
// are serial compute resources, each directed link is a serial transfer
// resource, forwards/backwards wait on the producing rank's message.
// Output is the mini-batch makespan, the per-device busy fraction
// (1 - bubble), each device's peak modeled memory (evaluate_plan's
// per-device figure), and total traffic.  This is what regenerates the paper's Jetson-scale timing
// numbers (Tables 2, Figs 8a/9a/11) without the hardware.
#pragma once

#include "pipeline/plan.hpp"
#include "pipeline/schedule.hpp"
#include "planner/profile.hpp"

namespace pac::sim {

struct SimConfig {
  planner::PlannerInput input;  // input.schedule picks 1F1B or GPipe
  pipeline::ParallelPlan plan;
  bool include_allreduce = true;
  bool record_trace = false;  // fill SimResult::trace for visualization
};

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
  bool oom = false;
  int oom_device = -1;
  std::string oom_reason;
  double minibatch_seconds = 0.0;
  double bubble_fraction = 0.0;   // 1 - mean busy/makespan over used devices
  std::uint64_t comm_bytes = 0;   // inter-device traffic (p2p + allreduce)
  std::vector<std::uint64_t> peak_memory_per_device;
  std::vector<OpTrace> trace;     // populated when record_trace is set
};

SimResult simulate_minibatch(const SimConfig& config);

// ASCII Gantt chart of a simulated mini-batch: one row per device, time on
// the horizontal axis.  Forward ops render as the micro-batch id in hex
// (uppercase), backwards in lowercase, idle as '.', AllReduce as '*'.
std::string render_timeline(const SimConfig& config, int width = 72);

}  // namespace pac::sim
