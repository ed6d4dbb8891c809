// Paper-scale end-to-end training scenarios (the rows of Table 2 and the
// series of Figs. 8a, 9, 11).
//
// Systems modeled, matching the paper's baselines §6.1:
//   Standalone — one device, whole model.
//   EDDL       — pure data parallelism; every device replicates the model
//                and processes its own mini-batch of `per_device_batch`
//                (Table 2's EDDL memory/OOM behaviour implies per-device
//                batches, and Hao & Zhang's EDDL scales batches with
//                devices).
//   Eco-FL     — pure pipeline parallelism, one stage per device, GPipe
//                micro-batching (the paper notes baselines run without the
//                1F1B schedule).
//   PAC        — planner-chosen hybrid parallelism with 1F1B; with the
//                Parallel Adapters technique, epochs >= 2 use the
//                activation cache (pure DP over cached activations) after
//                a one-off cache/parameter redistribution.
//
// Every system runs the paper's testbed: Jetson Nanos
// (costmodel::jetson_nano) on the 128 Mbps edge LAN (costmodel::edge_lan),
// 128-token sequences, and PAC mini-batches split into 16 micro-batches.
// The activation cache is stored and shipped as fp16 (half the fp32
// in-memory footprint); DESIGN.md records this substitution.
#pragma once

#include "costmodel/memory_model.hpp"
#include "data/dataset.hpp"
#include "sim/event_sim.hpp"

namespace pac::sim {

enum class SystemKind { kStandalone, kEcoFl, kEddl, kPac };

const char* system_name(SystemKind kind);

struct ScenarioConfig {
  model::ModelConfig model;
  model::Technique technique = model::Technique::kParallelAdapters;
  data::GlueTask task = data::GlueTask::kMrpc;
  int num_devices = 8;
  std::int64_t global_batch = 16;      // Standalone / Eco-FL / PAC
  std::int64_t per_device_batch = 16;  // EDDL and PAC's cached phase
  bool pac_use_cache = true;
  // Overrides; <= 0 means "use the paper's numbers for the task".
  std::int64_t train_samples = -1;
  int epochs = -1;
  // Fault model (PAC only; other systems have no recovery path and
  // ignore it).  `fail_device >= 0` kills that device partway through
  // epoch 1; the runtime's recovery strategy for a first-epoch death is a
  // full restart on the survivors, so the simulated cost is the wasted
  // fraction of the full-strength first epoch plus a complete run on
  // `num_devices - 1` devices.
  int fail_device = -1;
  double fail_at_epoch_fraction = 0.5;  // in [0, 1]
  // Compute-slowdown model (PAC only): `throttle_device >= 0` dilates that
  // device's compute by `throttle_factor` from `throttle_at_epoch_fraction`
  // of epoch 1 onward.  With `elastic_replan` the runtime's elastic path is
  // modeled — the throttled remainder of epoch 1 is wasted, the epoch
  // restarts under a plan priced with the degraded device, and the cached
  // phase shards throughput-weighted; without it the degraded device paces
  // every mini-batch of the rest of the run.
  int throttle_device = -1;
  double throttle_factor = 1.0;             // >= 1; 1 = no slowdown
  double throttle_at_epoch_fraction = 0.5;  // in [0, 1]
  bool elastic_replan = true;
};

struct ScenarioResult {
  bool oom = false;
  std::string oom_reason;
  double total_hours = 0.0;
  double seconds_per_sample = 0.0;       // averaged over the whole run
  double first_epoch_seconds = 0.0;
  double later_epoch_seconds = 0.0;      // per epoch (cached under PAC)
  double redistribution_seconds = 0.0;   // PAC phase transition
  double recovery_seconds = 0.0;         // wasted work absorbed by a death
  int surviving_devices = 0;             // devices after any modeled death
  double throughput_samples_per_s = 0.0; // epoch-1-style steady state
  pipeline::ParallelPlan plan;
  std::vector<std::uint64_t> peak_memory_per_device;
  std::vector<std::uint64_t> weight_memory_per_device;
};

ScenarioResult simulate_system(SystemKind kind, const ScenarioConfig& config);

}  // namespace pac::sim
