#include "sim/scenarios.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "planner/planner.hpp"

namespace pac::sim {

using model::Technique;

const char* system_name(SystemKind kind) {
  switch (kind) {
    case SystemKind::kStandalone: return "Standalone";
    case SystemKind::kEcoFl: return "Eco-FL";
    case SystemKind::kEddl: return "EDDL";
    case SystemKind::kPac: return "PAC";
  }
  return "?";
}

namespace {

// The testbed the header describes; the fp16 cache stores 2 bytes per
// element (see costmodel::cache_bytes_per_sample).
constexpr std::int64_t kSeq = 128;
constexpr std::int64_t kPacMicroBatches = 16;
constexpr std::uint64_t kCacheBytesPerElement = 2;

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

struct MinibatchSim {
  planner::PlannerInput input;
  SimResult sim;  // sim.estimate: the plan, its memory and its weights
  std::int64_t samples_per_minibatch = 0;
};

// One epoch-1-style mini-batch under the given system.
MinibatchSim simulate_system_minibatch(SystemKind kind,
                                       const ScenarioConfig& cfg,
                                       const model::TechniqueConfig& tc) {
  MinibatchSim out;
  std::int64_t micros = 1;
  std::int64_t micro_batch = cfg.global_batch;
  int devices = cfg.num_devices;
  switch (kind) {
    case SystemKind::kStandalone:
      devices = 1;
      micros = 1;
      micro_batch = cfg.global_batch;
      out.samples_per_minibatch = cfg.global_batch;
      break;
    case SystemKind::kEddl:
      micros = devices;  // one micro (= local mini-batch) per device
      micro_batch = cfg.per_device_batch;
      out.samples_per_minibatch =
          cfg.per_device_batch * static_cast<std::int64_t>(devices);
      break;
    case SystemKind::kEcoFl:
      micros = std::min<std::int64_t>(cfg.global_batch, devices);
      micro_batch = std::max<std::int64_t>(1, cfg.global_batch / micros);
      out.samples_per_minibatch = cfg.global_batch;
      break;
    case SystemKind::kPac:
      micros = std::min<std::int64_t>(cfg.global_batch, kPacMicroBatches);
      micro_batch = std::max<std::int64_t>(1, cfg.global_batch / micros);
      out.samples_per_minibatch = cfg.global_batch;
      break;
  }

  const costmodel::SeqShape micro_shape{micro_batch, kSeq, 16};
  out.input = planner::analytic_planner_input(
      cfg.model, tc, micro_shape, costmodel::jetson_nano(),
      costmodel::edge_lan(), devices, micros, /*include_decoder=*/true);
  if (kind == SystemKind::kEcoFl) {
    out.input.schedule = pipeline::ScheduleKind::kGPipe;
  }

  const std::int64_t blocks = out.input.num_blocks();
  pipeline::ParallelPlan plan;
  switch (kind) {
    case SystemKind::kStandalone:
      plan = pipeline::ParallelPlan::standalone(blocks, micros);
      break;
    case SystemKind::kEddl:
      plan = pipeline::ParallelPlan::pure_data_parallel(blocks, devices,
                                                        micros);
      break;
    case SystemKind::kEcoFl:
      plan = pipeline::ParallelPlan::pure_pipeline(blocks, devices, micros);
      break;
    case SystemKind::kPac: {
      planner::PlanEstimate est = planner::plan_hybrid(out.input);
      if (!est.feasible) {
        out.sim.estimate = std::move(est);
        return out;
      }
      plan = std::move(est.plan);
      break;
    }
  }
  out.sim = simulate_minibatch(out.input, plan);
  return out;
}

// Components of one phase-2 (cached DP) step, shared by the clean run and
// the throttle model (which re-weights the compute term).
struct Phase2Step {
  double compute_s = 0.0;  // per-device side-network fwd+bwd
  double reload_s = 0.0;   // cache reload from flash
  double ar_s = 0.0;       // adapter-grad AllReduce
  std::int64_t minibatch = 0;
  std::uint64_t cache_per_sample = 0;  // fp16 wire/flash bytes
};

Phase2Step pac_phase2_step(const ScenarioConfig& cfg,
                           const model::TechniqueConfig& tc) {
  Phase2Step out;
  out.cache_per_sample = costmodel::cache_bytes_per_sample(
      cfg.model, kSeq, true, kCacheBytesPerElement);
  const int d = cfg.num_devices;
  out.minibatch = cfg.per_device_batch * static_cast<std::int64_t>(d);
  const costmodel::SeqShape dev_shape{cfg.per_device_batch, kSeq, 16};
  const costmodel::Flops side = costmodel::model_flops(
      cfg.model, tc, dev_shape, /*include_decoder=*/true,
      /*cached_epoch=*/true);
  const costmodel::DeviceModel device = costmodel::jetson_nano();
  out.compute_s = side.total() / device.effective_flops;
  out.reload_s = static_cast<double>(out.cache_per_sample) *
                 static_cast<double>(cfg.per_device_batch) * 8.0 /
                 device.flash_read_bps;
  out.ar_s = costmodel::edge_lan().allreduce_seconds(
      costmodel::trainable_param_bytes(cfg.model, tc, true), d);
  return out;
}

}  // namespace

ScenarioResult simulate_system(SystemKind kind,
                               const ScenarioConfig& config) {
  // Modeled device death during epoch 1 (PAC only).  Mirrors the runtime:
  // a first-epoch death restarts the attempt on the survivors, so the run
  // costs the wasted fraction of the full-strength first epoch plus a
  // complete fault-free run over one fewer device.
  if (kind == SystemKind::kPac && config.fail_device >= 0 &&
      config.fail_device < config.num_devices && config.num_devices > 1) {
    PAC_CHECK(config.fail_at_epoch_fraction >= 0.0 &&
                  config.fail_at_epoch_fraction <= 1.0,
              "fail_at_epoch_fraction must be in [0, 1]");
    ScenarioConfig full_cfg = config;
    full_cfg.fail_device = -1;
    const ScenarioResult full = simulate_system(kind, full_cfg);
    if (full.oom) return full;  // the doomed attempt never got started

    ScenarioConfig survivor_cfg = full_cfg;
    survivor_cfg.num_devices = config.num_devices - 1;
    ScenarioResult rec = simulate_system(kind, survivor_cfg);
    rec.surviving_devices = survivor_cfg.num_devices;
    if (rec.oom) return rec;  // survivors cannot fit the model

    rec.recovery_seconds =
        config.fail_at_epoch_fraction * full.first_epoch_seconds;
    rec.total_hours += rec.recovery_seconds / 3600.0;
    const data::TaskInfo fault_info = data::task_info(config.task);
    const std::int64_t fault_samples =
        config.train_samples > 0 ? config.train_samples
                                 : fault_info.paper_train_samples;
    const int fault_epochs =
        config.epochs > 0 ? config.epochs : fault_info.paper_epochs;
    rec.seconds_per_sample = rec.total_hours * 3600.0 /
                             (static_cast<double>(fault_samples) *
                              static_cast<double>(fault_epochs));
    return rec;
  }

  // Modeled compute slowdown from partway through epoch 1 (PAC only),
  // applied to the clean run below.
  const bool throttled = kind == SystemKind::kPac &&
                         config.throttle_device >= 0 &&
                         config.throttle_device < config.num_devices &&
                         config.throttle_factor > 1.0;
  if (throttled) {
    PAC_CHECK(config.throttle_at_epoch_fraction >= 0.0 &&
                  config.throttle_at_epoch_fraction <= 1.0,
              "throttle_at_epoch_fraction must be in [0, 1]");
  }

  const data::TaskInfo info = data::task_info(config.task);
  const model::TechniqueConfig tc =
      model::paper_technique_config(config.technique);
  const std::int64_t samples = config.train_samples > 0
                                   ? config.train_samples
                                   : info.paper_train_samples;
  const int epochs = config.epochs > 0 ? config.epochs : info.paper_epochs;

  ScenarioResult result;
  result.surviving_devices =
      kind == SystemKind::kStandalone ? 1 : config.num_devices;
  const MinibatchSim mb = simulate_system_minibatch(kind, config, tc);
  const planner::PlanEstimate& est = mb.sim.estimate;
  result.plan = est.plan;
  result.peak_memory_per_device = est.device_memory_bytes;
  if (!est.feasible) {
    result.oom = true;
    result.oom_reason = est.note;
    return result;
  }
  result.throughput_samples_per_s =
      static_cast<double>(mb.samples_per_minibatch) /
      mb.sim.minibatch_seconds;

  // Per-device weight bytes of the chosen plan (parameter bytes do not
  // depend on the micro shape the input was profiled at).
  result.weight_memory_per_device.assign(
      static_cast<std::size_t>(config.num_devices), 0);
  for (std::size_t s = 0; s < est.plan.stages.size(); ++s) {
    for (int r : est.plan.stages[s].devices) {
      result.weight_memory_per_device[static_cast<std::size_t>(r)] =
          est.stage_weight_bytes[s];
    }
  }

  const std::int64_t steps = ceil_div(samples, mb.samples_per_minibatch);
  result.first_epoch_seconds =
      static_cast<double>(steps) * mb.sim.minibatch_seconds;

  const bool cached = kind == SystemKind::kPac && config.pac_use_cache &&
                      config.technique == Technique::kParallelAdapters;
  Phase2Step p2;
  std::int64_t steps2 = 0;
  if (!cached) {
    result.later_epoch_seconds = result.first_epoch_seconds;
    result.total_hours = static_cast<double>(epochs) *
                         result.first_epoch_seconds / 3600.0;
  } else {
    // ---- phase transition: cache + parameter redistribution ----
    p2 = pac_phase2_step(config, tc);
    const double total_cache_bytes =
        static_cast<double>(p2.cache_per_sample) *
        static_cast<double>(samples);
    // All-to-all: each device ships (1 - 1/D) of its shard; transfers on
    // distinct device pairs proceed in parallel, so the wall time is one
    // device's outbound traffic at link bandwidth.
    const int d = config.num_devices;
    const double outbound_per_device =
        total_cache_bytes / d * (1.0 - 1.0 / d);
    result.redistribution_seconds =
        outbound_per_device * 8.0 / costmodel::edge_lan().bandwidth_bps +
        p2.ar_s;

    // ---- cached epochs: pure DP over the side network ----
    const double step_s = p2.compute_s + p2.reload_s + p2.ar_s;
    steps2 = ceil_div(samples, p2.minibatch);
    result.later_epoch_seconds = static_cast<double>(steps2) * step_s;

    result.total_hours =
        (result.first_epoch_seconds + result.redistribution_seconds +
         static_cast<double>(epochs - 1) * result.later_epoch_seconds) /
        3600.0;
  }

  if (throttled) {
    // The calibration profile, with the degraded device priced in; every
    // epoch-1 figure is an event replay, like the clean epoch's.
    const double d = static_cast<double>(config.num_devices);
    const double f = config.throttle_factor;
    planner::PlannerInput hetero = mb.input;
    hetero.device_scales.assign(
        static_cast<std::size_t>(config.num_devices), 1.0);
    hetero.device_scales[static_cast<std::size_t>(config.throttle_device)] =
        1.0 / f;
    const double degraded_epoch =
        static_cast<double>(steps) *
        simulate_minibatch(hetero, result.plan).minibatch_seconds;

    if (config.elastic_replan) {
      // Detection + restart: the epoch fraction already run is wasted, the
      // retry runs a plan the DP chose knowing the device's real speed.
      result.recovery_seconds =
          config.throttle_at_epoch_fraction * result.first_epoch_seconds;
      const planner::PlanEstimate replanned = planner::plan_hybrid(hetero);
      if (replanned.feasible) {
        result.plan = replanned.plan;
        result.first_epoch_seconds =
            static_cast<double>(steps) *
            simulate_minibatch(hetero, replanned.plan).minibatch_seconds;
      } else {
        result.first_epoch_seconds = degraded_epoch;
      }
      if (cached) {
        // Throughput-weighted shards: aggregate speed d-1 + 1/f replaces
        // d, and no device waits on the straggler's oversized share.
        const double step_s =
            p2.compute_s * d / (d - 1.0 + 1.0 / f) + p2.reload_s + p2.ar_s;
        result.later_epoch_seconds = static_cast<double>(steps2) * step_s;
      } else {
        result.later_epoch_seconds = result.first_epoch_seconds;
      }
    } else {
      // No elastic runtime: the slow device paces everything after onset.
      result.first_epoch_seconds =
          config.throttle_at_epoch_fraction * result.first_epoch_seconds +
          (1.0 - config.throttle_at_epoch_fraction) * degraded_epoch;
      if (cached) {
        // Even shards: every lockstep AllReduce waits on the straggler's
        // f-times-dilated compute.
        const double step_s = p2.compute_s * f + p2.reload_s + p2.ar_s;
        result.later_epoch_seconds = static_cast<double>(steps2) * step_s;
      } else {
        result.later_epoch_seconds = degraded_epoch;
      }
    }
    result.total_hours =
        (result.recovery_seconds + result.first_epoch_seconds +
         result.redistribution_seconds +
         static_cast<double>(epochs - 1) * result.later_epoch_seconds) /
        3600.0;
  }
  result.seconds_per_sample = result.total_hours * 3600.0 /
                              (static_cast<double>(samples) *
                               static_cast<double>(epochs));
  return result;
}

}  // namespace pac::sim
