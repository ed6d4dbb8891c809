// Cluster-level training runners.
//
// `run_training` executes live (phase-1 style) training under an arbitrary
// ParallelPlan — which covers Standalone (1 device), EDDL (pure DP),
// Eco-FL (pure PP) and PAC's hybrid plans with one engine — and optionally
// records backbone activations into per-rank cache shards.
//
// `run_cached_data_parallel` executes PAC's phase 2: every device trains
// the Parallel Adapter side network from cached activations with pure data
// parallelism; the backbone is never touched, and only the rank that runs
// the live eval builds it (the paper's "release the LLM parameters" win).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "dist/cluster.hpp"
#include "elastic/health.hpp"
#include "model/model.hpp"
#include "pipeline/activation_io.hpp"
#include "pipeline/stage_worker.hpp"

namespace pac::pipeline {

// Builds the parts of the model that one rank runs.  The runners derive the
// parts from the plan, so each rank holds only its stage's blocks (or, in
// phase 2, the side network); see model::ModelParts.
using ModelFactory =
    std::function<std::unique_ptr<model::Model>(const model::ModelParts&)>;

// Epoch-boundary recovery state shared between a phase-2 run and the
// session that may have to resume it after a device death.  As each epoch
// finishes, the run commits the adapter values as the restore point.  A
// death mid-epoch therefore always finds a *consistent* restore point: the
// last epoch the run completed.  (Phase 1 restarts from scratch instead.)
// Thread-safe.
class RecoveryLog {
 public:
  // Deep-copies `params` into the restore point and records the epoch's
  // mean loss.  Replayed epochs overwrite.  The restore point it replaces
  // is kept for one roll_back_to.
  void commit_epoch(int epoch, const nn::ParameterList& params,
                    double mean_loss);
  // Forgets the last commit, so `epochs` must be one fewer than
  // epochs_completed() (or equal: a no-op).  Used when the survivors in
  // other processes did not all commit the epoch a death interrupted.
  void roll_back_to(int epochs);

  int epochs_completed() const;
  bool has_restore_point() const;
  // Trainable values at the last committed epoch boundary (all stages).
  std::map<std::string, Tensor> restore_point() const;
  // Mean loss of each committed epoch, ordered by epoch index.
  std::vector<double> committed_losses() const;

 private:
  mutable std::mutex mutex_;
  int epochs_completed_ = 0;
  std::map<std::string, Tensor> committed_;
  std::map<std::string, Tensor> previous_;  // the commit before committed_
  std::map<int, double> losses_;
};

struct RunConfig {
  ParallelPlan plan;
  ScheduleKind schedule = ScheduleKind::k1F1B;
  std::int64_t batch_size = 8;
  int epochs = 1;
  float lr = 1e-2F;
  std::uint64_t shuffle_seed = 77;
  bool run_eval = true;
  // Optional straggler watchdog: every rank reports its per-mini-batch
  // compute time here; a verdict is raised as StragglerDetectedError at
  // the mini-batch boundary and the session re-plans (see src/elastic/).
  elastic::HealthMonitor* health = nullptr;
};

struct RunResult {
  std::vector<double> epoch_losses;  // mean mini-batch loss per epoch
  double eval_metric = 0.0;          // task metric (see data::task_info)
  std::uint64_t comm_bytes = 0;      // inter-device traffic of the run
  double wall_seconds = 0.0;
  // Final values of all trainable parameters, keyed by name (collected from
  // the group-leader rank of each stage) — lets tests compare runs.
  std::map<std::string, Tensor> trainable_values;
  // Peak memory per device over the run (total across ledger classes).
  std::vector<std::uint64_t> peak_memory_per_device;
};

// recorders: nullptr, or one ActivationRecorder* per rank (entries may be
// null for ranks that should not record).
RunResult run_training(dist::EdgeCluster& cluster,
                       const data::Dataset& dataset,
                       const ModelFactory& factory, const RunConfig& config,
                       const std::vector<ActivationRecorder*>* recorders =
                           nullptr);

struct CachedRunConfig {
  std::int64_t device_batch_size = 8;  // per-device mini-batch
  int epochs = 1;
  float lr = 1e-2F;
  // Announce the next step's sample ids to the activation source so a
  // disk-backed cache can reload them while this step computes.
  bool prefetch = true;
  std::uint64_t shuffle_seed = 177;
  bool run_eval = true;
  // Index of the first epoch this invocation runs (nonzero when resuming
  // after a recovery): keeps shuffle seeds aligned with the uninterrupted
  // schedule.
  int first_epoch = 0;
  // Optional epoch-boundary snapshot sink (enables restart-after-death).
  RecoveryLog* recovery = nullptr;
  // See RunConfig: optional straggler watchdog.
  elastic::HealthMonitor* health = nullptr;
};

// shards[r] lists the dataset indices device r trains on; sources[r]
// serves cached activations for (at least) those samples.  Both vectors
// are indexed by rank over the full cluster; entries for dead ranks are
// ignored (the run executes on cluster.alive_ranks() only).
RunResult run_cached_data_parallel(
    dist::EdgeCluster& cluster, const data::Dataset& dataset,
    const ModelFactory& factory,
    const std::vector<const ActivationSource*>& sources,
    const std::vector<std::vector<std::int64_t>>& shards,
    const CachedRunConfig& config);

// Task metric per data::task_info: accuracy, acc/F1 mean, or
// Pearson-Spearman mean.  logits [N, C] (or [N, 1] for regression).
double compute_task_metric(const data::TaskInfo& info, const Tensor& logits,
                           const std::vector<std::int64_t>& labels,
                           const std::vector<float>& targets);

}  // namespace pac::pipeline
