// pac::core::Session — the public PAC API (paper Fig. 4, steps 0-5).
//
//   0. The target model is equipped with Parallel Adapters (technique
//      config) and the backbone frozen.
//   1. The profiler fine-tunes on a calibration micro-batch and records
//      per-block runtime and tensor sizes.
//   2. The planner turns profiles + cluster shape into a hybrid
//      data/pipeline plan (stage boundaries + device groups).
//   3/4. Phase 1: one epoch of hybrid-parallel fine-tuning across the
//      cluster, recording every backbone activation into per-device cache
//      shards.
//   5. Phase 2: cache and adapter parameters are redistributed; remaining
//      epochs train the side network with pure data parallelism from the
//      cache — no backbone forward or backward at all.
//
// Sessions run any fine-tuning technique; the activation-cache phases
// engage only under Parallel Adapters (other techniques train all epochs
// under the hybrid plan, like the paper's baselines).
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>

#include "baselines/baselines.hpp"
#include "cache/activation_cache.hpp"
#include "cache/redistribution.hpp"
#include "data/dataset.hpp"
#include "elastic/health.hpp"
#include "pipeline/runners.hpp"
#include "planner/planner.hpp"

namespace pac::core {

struct SessionConfig {
  model::ModelConfig model;
  model::TechniqueConfig technique;  // default: Parallel Adapters, k = 8
  std::uint64_t model_seed = 42;

  std::int64_t batch_size = 8;
  std::int64_t num_micro_batches = 4;
  int epochs = 3;
  float lr = 1e-2F;
  std::uint64_t shuffle_seed = 77;

  bool use_activation_cache = true;
  bool cache_disk_backed = false;
  std::string cache_directory;  // required when disk-backed
  // Storage precision for cached activations.  kF32 (default) keeps every
  // existing run bit-identical; kF16/kI8 compress cache RAM, spill files,
  // and redistribution traffic 2-4x (phase-2 trains on the dequantized
  // activations).
  quant::Dtype cache_dtype = quant::Dtype::kF32;

  bool run_eval = true;

  // Phase 2 prefetches disk-cached activations in the background unless
  // cache_prefetch is off.  Loss trajectories are identical either way.
  bool cache_prefetch = true;

  // Resilience: when planning finds no feasible configuration or a device
  // OOMs mid-run, halve the mini-batch (activations shrink proportionally)
  // and re-plan, up to this many times before giving up.
  int max_oom_retries = 2;

  // Device-death resilience: survive up to this many rank deaths per
  // run().  Phase 1 restarts on the survivors (partial cache shards must
  // be re-recorded anyway); phase 2 restores adapter params from the last
  // committed epoch, re-shards the cache over the survivors (the dead
  // device's shard is salvaged — it models a disk-persisted cache) and
  // resumes.  Set to 0 to rethrow the first death instead.
  int max_rank_recoveries = 1;

  // Elastic runtime (src/elastic): when elastic.enabled, every rank feeds
  // per-mini-batch compute timings to a HealthMonitor; a device whose
  // EWMA throughput falls below elastic.straggler_ratio x its group's
  // median for elastic.straggler_window consecutive mini-batches triggers
  // a mid-run re-plan at the mini-batch boundary — phase 1 restarts under
  // a plan rebuilt from the observed speeds, phase 2 re-shards the cache
  // throughput-weighted (or evicts the device when its observed scale is
  // below elastic.evict_ratio).  At most elastic.max_replans re-plans per
  // run().  Monitoring is observation-only until a verdict, so an
  // un-triggered run is bit-identical to elastic disabled.
  elastic::ElasticPolicy elastic;

  // Cooperative cancellation (the service dispatcher's cancel path).  When
  // non-null, run() polls the flag at safe boundaries — attempt start,
  // between phase 1 and phase 2, and at every phase-2 resume — and throws
  // OperationCancelledError once it reads true.  Mid-epoch state is
  // discarded; committed epochs stay committed.
  const std::atomic<bool>* cancel = nullptr;

  // Deterministic per-block profiles (bypasses the wall-clock profiler).
  // Chaos/recovery tests set this so the plan — and therefore the whole
  // training trajectory — is reproducible across runs.
  std::optional<std::vector<planner::BlockProfile>> profile_override;

  // Observability (src/obs): when enabled, run() owns a TraceSession
  // spanning every attempt (clean or faulted — the recovery path's
  // restarts land in the same dump) and logs a final counter summary.
  // A non-empty trace_path implies enabled; the Chrome-trace JSON is written
  // there when run() returns or throws.  Off by default: tracing changes
  // no trajectory, but leaving it on would grow rings on every test.
  bool obs_enabled = false;
  std::string trace_path;
};

struct SessionReport {
  planner::PlanEstimate plan;
  int oom_retries = 0;                 // re-planning rounds that were needed
  int rank_deaths = 0;                 // device deaths survived this run
  std::vector<int> dead_ranks;         // ranks lost, in order of death
  int replans = 0;                     // straggler re-plans this run
  std::vector<int> straggler_ranks;    // ranks flagged, in verdict order
  std::vector<int> evicted_ranks;      // stragglers dropped from phase 2
  std::int64_t effective_batch_size = 0;  // batch actually used
  double profile_seconds = 0.0;
  double planning_seconds = 0.0;

  pipeline::RunResult phase1;
  bool cache_used = false;
  cache::RedistStats redistribution;  // summed over devices
  double redistribution_seconds = 0.0;
  std::uint64_t cache_bytes_total = 0;
  pipeline::RunResult phase2;  // empty when cache unused

  std::vector<double> epoch_losses;  // all epochs, both phases
  double eval_metric = 0.0;
  double total_seconds = 0.0;
};

class Session {
 public:
  Session(dist::EdgeCluster& cluster,
          const data::Dataset& dataset, SessionConfig config);

  // Profiles, plans, and runs both fine-tuning phases.  On OOM (planner
  // infeasibility or a runtime device OOM) retries with a halved batch up
  // to config.max_oom_retries times, then rethrows.
  SessionReport run();

  // The plan only (steps 1-2), without training.
  planner::PlanEstimate plan();

 private:
  SessionReport run_attempt();
  // Throws OperationCancelledError when config_.cancel reads true.
  void check_cancelled() const;
  pipeline::ModelFactory make_factory(
      const std::map<std::string, Tensor>* overrides) const;
  std::vector<planner::BlockProfile> profile();
  // Profiles + plans over the cluster's *surviving* ranks (links priced by
  // costmodel::in_process_network()), remapping the planner's dense device
  // indices onto cluster ranks.
  planner::PlanEstimate plan_over_alive(double* profile_seconds,
                                        double* planning_seconds);
  // The smallest memory budget among the surviving ranks.
  std::uint64_t alive_budget() const;
  // Registers a death (the cluster may already have marked it) and
  // decides whether the recovery budget allows continuing.
  bool absorb_death(int rank);
  // Registers a straggler verdict: folds its observed per-rank speeds into
  // observed_scale_ (keeping the most pessimistic observation per rank)
  // and decides whether the re-plan budget allows continuing.
  bool absorb_straggler(const elastic::StragglerVerdict& verdict);

  dist::EdgeCluster& cluster_;
  const data::Dataset& dataset_;
  SessionConfig config_;
  model::TaskSpec task_;
  int recoveries_used_ = 0;
  std::vector<int> dead_ranks_seen_;
  int replans_used_ = 0;
  std::vector<int> straggler_ranks_;
  std::vector<int> evicted_ranks_;
  // Runtime-observed speed per cluster rank (1.0 = as profiled), kept
  // across attempts so the re-plan DP prices the degradation.
  std::map<int, double> observed_scale_;
};

}  // namespace pac::core
