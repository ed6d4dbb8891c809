// Per-rank execution engine for hybrid data+pipeline parallelism.
//
// Micro-batch routing: micro-batch m of a mini-batch is owned, in every
// stage, by that stage's group member (m mod group_size); the sender of
// m's activations in stage p is therefore deterministic from the plan, and
// all transfers are plain tagged point-to-point messages.  What flows
// matches the technique: hidden [B,T,H] forward everywhere; backward
// carries d_hidden for backprop-through-backbone techniques but only the
// r-dim adapter gradient under Parallel Adapters (the gradient highway).
//
// Gradients accumulate across micro-batches weighted by micro size, so a
// mini-batch produces exactly the full-batch mean gradient regardless of
// the partitioning — the parity tests rely on this.
//
// Communication always overlaps compute: outgoing activations and
// gradients go through Communicator::isend, so link-delay sleeps and
// transient-retry backoffs run on the sender thread while this rank keeps
// computing (a send that cannot wait is delivered inline); the
// statically-known schedule lets the worker pre-post irecv
// futures for every incoming tensor of the mini-batch up front.  The grad
// AllReduce runs once per mini-batch on the rank thread, after the last
// backward: the stage's trainable grads, in reverse block order, form one
// flat buffer reduced in ring order over a fixed tag, so values never
// depend on timing (see DESIGN.md, "Async communication engine").
//
// Backbone run-ahead: under Parallel Adapters the backbone activations b_i
// read no trainable weight.  The first stage of a multi-stage plan
// therefore runs the backbone half of the next mini-batch's first local
// micro-batch just before its last backward (where it would otherwise
// wait for the gradient), and that micro's forward later runs only the
// side half.  The stash is taken only while it fits under the kActivations
// high-water the stage already reached in this mini-batch, so the ledger
// peak does not move; messages, grad order and values do not change
// (DESIGN.md §5e, "Backbone run-ahead").
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "data/dataset.hpp"
#include "dist/cluster.hpp"
#include "model/model.hpp"
#include "nn/losses.hpp"
#include "nn/optimizer.hpp"
#include "pipeline/activation_io.hpp"
#include "pipeline/plan.hpp"
#include "pipeline/schedule.hpp"

namespace pac::pipeline {

// Message tag ranges (disjoint so collectives and p2p never collide).
namespace tags {
inline constexpr int kFwdHidden = 1000;
inline constexpr int kFwdAdapter = 1001;
inline constexpr int kFwdMask = 1002;
inline constexpr int kBwdHidden = 1100;
inline constexpr int kBwdAdapter = 1101;
inline constexpr int kGradAllReduce = 1200;
inline constexpr int kLossReduce = 1300;
inline constexpr int kEvalLogits = 1400;
inline constexpr int kTrainableSync = 1600;
inline constexpr int kResumeEpoch = 1700;
inline constexpr int kRedistCacheBase = 2100;  // id frames; + 1 payloads
}  // namespace tags

class StageWorker {
 public:
  // `model` is this rank's replica (identical seed across ranks).  The
  // worker registers its stage's memory with the device ledger.
  StageWorker(dist::DeviceContext& ctx, model::Model& model,
              const ParallelPlan& plan, ScheduleKind schedule);
  ~StageWorker();

  StageWorker(const StageWorker&) = delete;
  StageWorker& operator=(const StageWorker&) = delete;

  bool participates() const { return stage_ >= 0; }
  int stage() const { return stage_; }
  bool is_first_stage() const { return stage_ == 0; }
  bool is_last_stage() const {
    return stage_ == static_cast<int>(plan_.num_stages()) - 1;
  }

  // Runs one mini-batch (forward+backward over all micro-batches per the
  // schedule), accumulating gradients.  Returns this rank's weighted loss
  // contribution (nonzero only on last-stage ranks).  The grad AllReduce
  // completes before this returns; pair every call with
  // synchronize_and_step.  `next`, when given, is the batch the next call
  // trains on: the first stage may run part of its backbone ahead (and
  // record it) while it waits for this mini-batch's last gradient.
  double train_mini_batch(const data::Batch& batch,
                          ActivationRecorder* recorder,
                          const data::Batch* next = nullptr);

  // Steps the optimizer on the group-reduced grads.  Call once per
  // mini-batch after train_mini_batch.
  void synchronize_and_step(nn::Optimizer& optimizer);

  // Forward-only pass (model must be in eval mode).  On last-stage ranks
  // returns the logits of the micro-batches this rank owns, in micro
  // order; other ranks return an empty list.
  std::vector<Tensor> eval_mini_batch(const data::Batch& batch);

  // Abandons the in-flight mini-batch after a failure (peer death mid
  // pipeline): drops saved per-micro state, posted receives and queued
  // sends, and releases the activation bytes still registered with the
  // ledger.  The worker is reusable for a fresh mini-batch afterwards;
  // accumulated gradients are NOT stepped.
  void drain();

  // The stage's trainable parameters (for reporting / extraction).
  nn::ParameterList stage_trainable_params();

  // Pure compute time (block forward/backward loops only, communication
  // waits excluded; the rank thread's CPU clock) and rows processed over
  // the last train_mini_batch, run-ahead compute included.  The elastic
  // HealthMonitor consumes these: in a pipeline a slow rank inflates every
  // rank's wall clock, but only its own compute time isolates it.  Any
  // injected compute throttle is already included.
  double minibatch_compute_seconds() const { return mb_compute_seconds_; }
  std::int64_t minibatch_local_rows() const { return mb_local_rows_; }

 private:
  struct MicroSlice {
    std::int64_t micro;  // global micro index
    std::int64_t row_begin;
    std::int64_t row_end;
  };

  // Pre-posted receive futures for one micro-batch.
  struct PendingForward {
    dist::PendingRecv hidden;
    dist::PendingRecv adapter;
    dist::PendingRecv mask;
  };
  struct PendingBackward {
    dist::PendingRecv grad;
  };

  std::vector<MicroSlice> local_micros(std::int64_t batch_rows) const;
  int owner_rank(int stage, std::int64_t micro) const;

  // Shared recv/compute/send pieces used by both the train forward and the
  // eval path (keeps the two from drifting apart).
  model::FlowState receive_forward_inputs(const data::Batch& batch,
                                          const MicroSlice& ms);
  void send_forward_outputs(const MicroSlice& ms, model::FlowState& state);
  // Pre-posts irecv futures for every incoming tensor of the mini-batch;
  // consuming a tensor without a posted receive is a PAC_CHECK failure.
  void post_forward_receive(std::int64_t micro);
  void post_receives(const std::vector<MicroSlice>& micros,
                     const std::vector<PipeOp>& ops);
  void post_eval_receives(const std::vector<MicroSlice>& micros);

  // Backbone halves of the stage's blocks for micro `ms` of `batch`, one
  // FlowState per block; records each b_i.
  std::vector<model::FlowState> forward_backbone(
      const model::FlowState& input, const data::Batch& batch,
      const MicroSlice& ms, ActivationRecorder* recorder);
  model::FlowState forward_micro(
      const data::Batch& batch, const MicroSlice& ms,
      ActivationRecorder* recorder);
  // Stashes the backbone half of `next`'s first local micro-batch when the
  // memory rule allows it.
  void run_ahead(const data::Batch& next, ActivationRecorder* recorder);
  void backward_micro(const MicroSlice& ms);
  // Ledger estimate of one in-flight micro-batch whose stage outputs are
  // `hidden_bytes` of backbone and `adapter_bytes` of side state.
  std::uint64_t activation_charge(std::int64_t hidden_bytes,
                                  std::int64_t adapter_bytes) const;
  // Sums the stage's trainable grads across its device group.
  void reduce_grads();

  dist::DeviceContext& ctx_;
  model::Model& model_;
  ParallelPlan plan_;
  ScheduleKind schedule_;

  int stage_ = -1;
  int group_index_ = 0;
  std::vector<int> group_;
  std::vector<model::PipelineBlock*> stage_blocks_;
  std::int64_t block_begin_ = 0;

  // The stage's trainable params in reverse block order: the layout of the
  // flat buffer the grad AllReduce reduces.
  std::vector<nn::Parameter*> grad_params_;
  std::int64_t grad_numel_ = 0;

  // Pre-posted receive futures, keyed by global micro index.
  std::map<std::int64_t, PendingForward> posted_fwd_;
  std::map<std::int64_t, PendingBackward> posted_bwd_;

  // Per-micro state saved between forward and backward.
  std::map<std::int64_t, nn::LossResult> pending_loss_;
  double minibatch_loss_ = 0.0;
  std::int64_t minibatch_rows_ = 0;
  double mb_compute_seconds_ = 0.0;
  std::int64_t mb_local_rows_ = 0;
  std::int64_t pending_backward_ = 0;  // micros forwarded but not reversed

  // Backbone run-ahead (see the file comment).
  struct Stash {
    std::vector<std::int64_t> sample_ids;    // the stashed micro's rows
    std::vector<model::FlowState> backbone;  // per stage block
    std::uint64_t charge = 0;                // its kActivations estimate
    double compute_seconds = 0.0;            // counted in its mini-batch
  };
  bool runs_ahead_ = false;
  std::optional<Stash> stash_;

  // Ledger registration (released in the destructor).
  std::uint64_t weights_bytes_ = 0;
  std::uint64_t grad_bytes_ = 0;
  std::uint64_t optimizer_bytes_ = 0;
  std::uint64_t inflight_act_bytes_ = 0;  // forwarded micros' activations
  // Highest in-flight kActivations charge this mini-batch.
  std::uint64_t act_high_water_ = 0;
};

}  // namespace pac::pipeline
