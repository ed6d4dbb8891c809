#include "pipeline/stage_worker.hpp"

#include <algorithm>

#include "common/timer.hpp"
#include "elastic/health.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace pac::pipeline {

namespace {

// Coarse per-micro-batch activation footprint for the device ledger.
// Backprop-through-backbone techniques retain roughly a small multiple of
// every block's output (attention probabilities, FFN pre-activations,
// LayerNorm saves); Parallel Adapters retain only the r-wide side states.
// The analytic cost model (pac::costmodel) does the precise paper-scale
// accounting; this estimate gives the executed-scale ledger the right
// relative shape between techniques and schedules.
constexpr double kRetainedPerBlockOutput = 4.0;

}  // namespace

StageWorker::StageWorker(dist::DeviceContext& ctx, model::Model& model,
                         const ParallelPlan& plan, ScheduleKind schedule)
    : ctx_(ctx), model_(model), plan_(plan), schedule_(schedule) {
  plan_.validate(model_.num_blocks(), ctx_.world_size);
  stage_ = plan_.stage_of_rank(ctx_.rank);
  if (!participates()) return;
  const StageAssignment& st = plan_.stages[static_cast<std::size_t>(stage_)];
  group_ = st.devices;
  group_index_ = plan_.index_in_group(ctx_.rank);
  block_begin_ = st.block_begin;
  runs_ahead_ = is_first_stage() && plan_.num_stages() > 1 &&
                model_.uses_parallel_adapters();
  auto all_blocks = model_.blocks();
  for (std::int64_t b = st.block_begin; b < st.block_end; ++b) {
    stage_blocks_.push_back(all_blocks[static_cast<std::size_t>(b)]);
  }
  // Reverse block order: the order the backward pass finishes blocks.
  for (auto it = stage_blocks_.rbegin(); it != stage_blocks_.rend(); ++it) {
    for (nn::Parameter* p : (*it)->parameters()) {
      if (!p->trainable()) continue;
      grad_params_.push_back(p);
      grad_numel_ += p->grad().numel();
    }
  }

  // Register this stage's memory with the device ledger.
  for (model::PipelineBlock* block : stage_blocks_) {
    for (nn::Parameter* p : block->parameters()) {
      weights_bytes_ += p->value_bytes();
      grad_bytes_ += p->grad_bytes();
    }
  }
  optimizer_bytes_ = nn::Adam::kStateFactor * grad_bytes_;
  ctx_.ledger.allocate(dist::MemClass::kWeights, weights_bytes_);
  ctx_.ledger.allocate(dist::MemClass::kGradients, grad_bytes_);
  ctx_.ledger.allocate(dist::MemClass::kOptimizer, optimizer_bytes_);
}

StageWorker::~StageWorker() {
  if (!participates()) return;
  drain();
  ctx_.ledger.release(dist::MemClass::kWeights, weights_bytes_);
  ctx_.ledger.release(dist::MemClass::kGradients, grad_bytes_);
  ctx_.ledger.release(dist::MemClass::kOptimizer, optimizer_bytes_);
}

void StageWorker::drain() {
  if (!participates()) return;
  posted_fwd_.clear();
  posted_bwd_.clear();
  ctx_.comm.abandon_sends();
  pending_loss_.clear();
  pending_backward_ = 0;
  minibatch_loss_ = 0.0;
  minibatch_rows_ = 0;
  if (stash_.has_value()) {
    inflight_act_bytes_ += stash_->charge;
    stash_.reset();
  }
  if (inflight_act_bytes_ > 0) {
    ctx_.ledger.release(dist::MemClass::kActivations, inflight_act_bytes_);
    inflight_act_bytes_ = 0;
  }
}

// ---- grad AllReduce ----------------------------------------------------

void StageWorker::reduce_grads() {
  PAC_TRACE_SCOPE("allreduce_bucket", ctx_.rank);
  if (obs::enabled()) {
    auto& counters = obs::CounterRegistry::instance();
    counters.add("allreduce.buckets", 1);
    counters.add("allreduce.bucket_bytes",
                 grad_numel_ * static_cast<std::int64_t>(sizeof(float)));
  }
  Tensor flat({grad_numel_});
  std::int64_t cursor = 0;
  for (nn::Parameter* p : grad_params_) {
    flat.slice0(cursor, cursor + p->grad().numel())
        .copy_from(p->grad().reshape({p->grad().numel()}));
    cursor += p->grad().numel();
  }
  ctx_.comm.allreduce_sum(flat, group_, tags::kGradAllReduce);
  cursor = 0;
  for (nn::Parameter* p : grad_params_) {
    Tensor src = flat.slice0(cursor, cursor + p->grad().numel());
    p->grad().copy_from(src.reshape(p->grad().shape()));
    cursor += p->grad().numel();
  }
}

// ---- micro routing ------------------------------------------------------

std::vector<StageWorker::MicroSlice> StageWorker::local_micros(
    std::int64_t batch_rows) const {
  const std::vector<std::int64_t> bounds =
      micro_row_bounds(batch_rows, plan_.num_micro_batches);
  const auto m_total = static_cast<std::int64_t>(bounds.size()) - 1;
  const std::vector<int> owners = micro_owner_indices(
      plan_.stages[static_cast<std::size_t>(stage_)], m_total);
  std::vector<MicroSlice> out;
  for (std::int64_t m = 0; m < m_total; ++m) {
    const auto i = static_cast<std::size_t>(m);
    if (owners[i] == group_index_) {
      out.push_back(MicroSlice{m, bounds[i], bounds[i + 1]});
    }
  }
  return out;
}

int StageWorker::owner_rank(int stage, std::int64_t micro) const {
  const auto& st = plan_.stages[static_cast<std::size_t>(stage)];
  const std::int64_t m_total =
      std::min<std::int64_t>(plan_.num_micro_batches, minibatch_rows_);
  const std::vector<int> owners = micro_owner_indices(st, m_total);
  return st.devices[static_cast<std::size_t>(
      owners[static_cast<std::size_t>(micro)])];
}

// ---- shared recv/send helpers (train forward + eval) -------------------

void StageWorker::post_forward_receive(std::int64_t micro) {
  const int src = owner_rank(stage_ - 1, micro);
  PendingForward pf;
  pf.hidden = ctx_.comm.irecv(src, tags::kFwdHidden);
  if (model_.uses_parallel_adapters()) {
    pf.adapter = ctx_.comm.irecv(src, tags::kFwdAdapter);
  }
  if (model_.config().pad_token >= 0) {
    pf.mask = ctx_.comm.irecv(src, tags::kFwdMask);
  }
  posted_fwd_[micro] = pf;
}

void StageWorker::post_receives(const std::vector<MicroSlice>& micros,
                                const std::vector<PipeOp>& ops) {
  for (const PipeOp& op : ops) {
    const MicroSlice& ms = micros[static_cast<std::size_t>(op.micro)];
    if (op.kind == PipeOp::Kind::kForward) {
      if (!is_first_stage()) post_forward_receive(ms.micro);
    } else if (!is_last_stage()) {
      const int src = owner_rank(stage_ + 1, ms.micro);
      const int tag = model_.uses_parallel_adapters() ? tags::kBwdAdapter
                                                      : tags::kBwdHidden;
      posted_bwd_[ms.micro] = PendingBackward{ctx_.comm.irecv(src, tag)};
    }
  }
}

void StageWorker::post_eval_receives(const std::vector<MicroSlice>& micros) {
  if (is_first_stage()) return;
  for (const MicroSlice& ms : micros) post_forward_receive(ms.micro);
}

model::FlowState StageWorker::receive_forward_inputs(const data::Batch& batch,
                                                     const MicroSlice& ms) {
  model::FlowState state;
  if (is_first_stage()) {
    state.tokens = batch.tokens.slice0(ms.row_begin, ms.row_end).clone();
    return state;
  }
  PAC_TRACE_SCOPE("recv_fwd", ctx_.rank, ms.micro);
  auto it = posted_fwd_.find(ms.micro);
  PAC_CHECK(it != posted_fwd_.end(),
            "forward for micro " << ms.micro << " without a posted receive");
  PendingForward pf = it->second;
  posted_fwd_.erase(it);
  state.hidden = pf.hidden.wait();
  if (pf.adapter.valid()) state.adapter = pf.adapter.wait();
  if (pf.mask.valid()) state.pad_mask = pf.mask.wait();
  return state;
}

void StageWorker::send_forward_outputs(const MicroSlice& ms,
                                       model::FlowState& state) {
  PAC_TRACE_SCOPE("send_fwd", ctx_.rank, ms.micro);
  const int dst = owner_rank(stage_ + 1, ms.micro);
  ctx_.comm.isend(dst, tags::kFwdHidden, state.hidden);
  if (model_.uses_parallel_adapters()) {
    ctx_.comm.isend(dst, tags::kFwdAdapter, state.adapter);
  }
  if (state.pad_mask.defined()) {
    ctx_.comm.isend(dst, tags::kFwdMask, state.pad_mask);
  }
}

// ---- train / eval ------------------------------------------------------

std::uint64_t StageWorker::activation_charge(
    std::int64_t hidden_bytes, std::int64_t adapter_bytes) const {
  const auto blocks = static_cast<double>(stage_blocks_.size());
  std::uint64_t retained = 0;
  if (model_.backprop_backbone()) {
    retained += static_cast<std::uint64_t>(
        kRetainedPerBlockOutput * static_cast<double>(hidden_bytes) * blocks);
  }
  retained += static_cast<std::uint64_t>(
      kRetainedPerBlockOutput * static_cast<double>(adapter_bytes) * blocks);
  return retained;
}

std::vector<model::FlowState> StageWorker::forward_backbone(
    const model::FlowState& input, const data::Batch& batch,
    const MicroSlice& ms, ActivationRecorder* recorder) {
  std::vector<std::int64_t> micro_ids;
  if (recorder != nullptr) {
    micro_ids.assign(batch.sample_ids.begin() + ms.row_begin,
                     batch.sample_ids.begin() + ms.row_end);
  }
  const std::int64_t last_backbone_block = model_.num_blocks() - 2;
  std::vector<model::FlowState> out;
  out.reserve(stage_blocks_.size());
  for (std::size_t i = 0; i < stage_blocks_.size(); ++i) {
    out.push_back(
        stage_blocks_[i]->forward_backbone(i == 0 ? input : out[i - 1]));
    const std::int64_t global_index =
        block_begin_ + static_cast<std::int64_t>(i);
    if (recorder != nullptr && global_index <= last_backbone_block) {
      recorder->record(micro_ids, global_index, out.back().hidden);
    }
  }
  return out;
}

model::FlowState StageWorker::forward_micro(
    const data::Batch& batch, const MicroSlice& ms,
    ActivationRecorder* recorder) {
  PAC_TRACE_SCOPE("fwd_micro", ctx_.rank, ms.micro);
  model::FlowState state = receive_forward_inputs(batch, ms);

  const ThreadCpuTimer compute;
  std::vector<model::FlowState> backbone;
  const bool stashed = stash_.has_value();
  std::uint64_t retained = 0;
  if (stashed) {
    // Run ahead during the previous mini-batch: only the side half is
    // left, and the stash's charge becomes this micro's in-flight charge.
    PAC_CHECK(std::equal(stash_->sample_ids.begin(), stash_->sample_ids.end(),
                         batch.sample_ids.begin() + ms.row_begin,
                         batch.sample_ids.begin() + ms.row_end),
              "run-ahead stash does not hold micro " << ms.micro
                                                     << "'s rows");
    backbone = std::move(stash_->backbone);
    retained = stash_->charge;
    stash_.reset();
  } else {
    backbone = forward_backbone(state, batch, ms, recorder);
  }
  for (std::size_t i = 0; i < stage_blocks_.size(); ++i) {
    stage_blocks_[i]->forward_side(state, backbone[i]);
    state = std::move(backbone[i]);
  }
  mb_compute_seconds_ += elastic::apply_compute_throttle(
      compute.seconds(), ctx_.comm.compute_throttle());

  // Ledger: retained activations for this in-flight micro-batch.
  if (!stashed) {
    retained = activation_charge(
        state.hidden.defined() ? state.hidden.byte_size() : 0,
        state.adapter.defined() ? state.adapter.byte_size() : 0);
    ctx_.ledger.allocate(dist::MemClass::kActivations, retained);
  }
  inflight_act_bytes_ += retained;
  act_high_water_ = std::max(act_high_water_, inflight_act_bytes_);

  if (is_last_stage()) {
    // state.hidden holds the logits; compute the loss now, weighted so the
    // sum over micro-batches equals the full-batch mean.
    const float weight = static_cast<float>(ms.row_end - ms.row_begin) /
                         static_cast<float>(minibatch_rows_);
    nn::LossResult r;
    if (model_.task().kind == model::TaskKind::kClassification) {
      std::vector<std::int64_t> labels(
          batch.labels.begin() + ms.row_begin,
          batch.labels.begin() + ms.row_end);
      r = nn::softmax_cross_entropy(state.hidden, labels);
    } else {
      std::vector<float> targets(batch.targets.begin() + ms.row_begin,
                                 batch.targets.begin() + ms.row_end);
      r = nn::mse_loss(state.hidden, targets);
    }
    r.dlogits.scale_(weight);
    minibatch_loss_ += static_cast<double>(r.loss) * weight;
    pending_loss_[ms.micro] = std::move(r);
  } else {
    send_forward_outputs(ms, state);
  }
  return state;
}

void StageWorker::run_ahead(const data::Batch& next,
                            ActivationRecorder* recorder) {
  const std::vector<MicroSlice> micros = local_micros(next.tokens.size(0));
  if (micros.empty()) return;
  const MicroSlice& ms = micros.front();
  // The stage's outputs will be [rows, T, H] and [rows, T, r] fp32.
  const std::int64_t positions =
      (ms.row_end - ms.row_begin) * next.tokens.size(1);
  const auto f32 = static_cast<std::int64_t>(sizeof(float));
  const std::uint64_t charge =
      activation_charge(positions * model_.config().hidden * f32,
                        positions * model_.side_width() * f32);
  // Memory rule: the stash must fit under the kActivations high-water this
  // mini-batch already reached, so run-ahead never raises the peak.
  if (inflight_act_bytes_ + charge > act_high_water_) return;

  PAC_TRACE_SCOPE("fwd_micro", ctx_.rank, ms.micro);
  const ThreadCpuTimer compute;
  Stash stash;
  stash.backbone =
      forward_backbone(receive_forward_inputs(next, ms), next, ms, recorder);
  stash.sample_ids.assign(next.sample_ids.begin() + ms.row_begin,
                          next.sample_ids.begin() + ms.row_end);
  stash.charge = charge;
  stash.compute_seconds = elastic::apply_compute_throttle(
      compute.seconds(), ctx_.comm.compute_throttle());
  ctx_.ledger.allocate(dist::MemClass::kActivations, charge);
  stash_ = std::move(stash);
}

void StageWorker::backward_micro(const MicroSlice& ms) {
  PAC_TRACE_SCOPE("bwd_micro", ctx_.rank, ms.micro);
  model::FlowGrad grad;
  if (is_last_stage()) {
    auto it = pending_loss_.find(ms.micro);
    PAC_CHECK(it != pending_loss_.end(),
              "backward for micro " << ms.micro << " without forward");
    grad.d_hidden = std::move(it->second.dlogits);
    pending_loss_.erase(it);
  } else {
    PAC_TRACE_SCOPE("recv_bwd", ctx_.rank, ms.micro);
    auto posted = posted_bwd_.find(ms.micro);
    PAC_CHECK(posted != posted_bwd_.end(),
              "backward for micro " << ms.micro << " without a posted receive");
    Tensor incoming = posted->second.grad.wait();
    posted_bwd_.erase(posted);
    if (model_.uses_parallel_adapters()) {
      grad.d_adapter = std::move(incoming);
    } else {
      grad.d_hidden = std::move(incoming);
    }
  }

  const ThreadCpuTimer compute;
  for (std::int64_t i = static_cast<std::int64_t>(stage_blocks_.size()) - 1;
       i >= 0; --i) {
    grad = stage_blocks_[static_cast<std::size_t>(i)]->backward(grad);
  }
  mb_compute_seconds_ += elastic::apply_compute_throttle(
      compute.seconds(), ctx_.comm.compute_throttle());

  // This micro's retained activations are now free.  All micros retain the
  // same estimate within a mini-batch (sizes differ by at most one row);
  // release the proportional share.
  if (inflight_act_bytes_ > 0) {
    const std::uint64_t share = std::min<std::uint64_t>(
        inflight_act_bytes_,
        inflight_act_bytes_ / std::max<std::uint64_t>(pending_backward_, 1));
    ctx_.ledger.release(dist::MemClass::kActivations, share);
    inflight_act_bytes_ -= share;
  }

  if (!is_first_stage()) {
    PAC_TRACE_SCOPE("send_bwd", ctx_.rank, ms.micro);
    const int dst = owner_rank(stage_ - 1, ms.micro);
    if (model_.uses_parallel_adapters()) {
      PAC_CHECK(grad.d_adapter.defined(),
                "parallel adapters backward lost the adapter gradient");
      ctx_.comm.isend(dst, tags::kBwdAdapter, grad.d_adapter);
    } else {
      PAC_CHECK(grad.d_hidden.defined(),
                "backward lost the hidden gradient");
      ctx_.comm.isend(dst, tags::kBwdHidden, grad.d_hidden);
    }
  }
}

double StageWorker::train_mini_batch(const data::Batch& batch,
                                     ActivationRecorder* recorder,
                                     const data::Batch* next) {
  if (!participates()) return 0.0;
  minibatch_loss_ = 0.0;
  minibatch_rows_ = batch.tokens.size(0);
  // A stash run ahead during the previous mini-batch is this one's work.
  mb_compute_seconds_ = stash_.has_value() ? stash_->compute_seconds : 0.0;
  act_high_water_ = 0;
  mb_local_rows_ = 0;
  const std::vector<MicroSlice> micros = local_micros(minibatch_rows_);
  for (const MicroSlice& ms : micros) {
    mb_local_rows_ += ms.row_end - ms.row_begin;
  }
  const auto ops =
      make_schedule(schedule_, static_cast<std::int64_t>(micros.size()),
                    stage_warmup(plan_, stage_));
  post_receives(micros, ops);
  pending_backward_ = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const PipeOp& op = ops[i];
    const MicroSlice& ms = micros[static_cast<std::size_t>(op.micro)];
    if (op.kind == PipeOp::Kind::kForward) {
      ++pending_backward_;
      forward_micro(batch, ms, recorder);
    } else {
      // The last backward is where the first stage waits longest: the
      // gradient has to come back through the whole pipeline.
      if (runs_ahead_ && next != nullptr && i + 1 == ops.size()) {
        run_ahead(*next, recorder);
      }
      backward_micro(ms);
      --pending_backward_;
    }
  }
  PAC_CHECK(pending_loss_.empty(), "unconsumed losses after mini-batch");
  if (group_.size() > 1 && !grad_params_.empty()) reduce_grads();
  return minibatch_loss_;
}

void StageWorker::synchronize_and_step(nn::Optimizer& optimizer) {
  if (!participates()) return;
  optimizer.step(stage_trainable_params());
  model_.zero_grad();
  // Surface deferred async-send failures once per mini-batch instead of
  // letting them linger into an unrelated later call.
  ctx_.comm.flush_sends();
}

std::vector<Tensor> StageWorker::eval_mini_batch(const data::Batch& batch) {
  std::vector<Tensor> out;
  if (!participates()) return out;
  minibatch_rows_ = batch.tokens.size(0);
  const std::vector<MicroSlice> micros = local_micros(minibatch_rows_);
  post_eval_receives(micros);
  for (const MicroSlice& ms : micros) {
    PAC_TRACE_SCOPE("eval_micro", ctx_.rank, ms.micro);
    model::FlowState state = receive_forward_inputs(batch, ms);
    for (model::PipelineBlock* block : stage_blocks_) {
      state = block->forward(state);
    }
    if (is_last_stage()) {
      out.push_back(state.hidden);
    } else {
      send_forward_outputs(ms, state);
    }
  }
  ctx_.comm.flush_sends();
  return out;
}

nn::ParameterList StageWorker::stage_trainable_params() {
  nn::ParameterList out;
  for (model::PipelineBlock* block : stage_blocks_) {
    for (nn::Parameter* p : block->parameters()) {
      if (p->trainable()) out.push_back(p);
    }
  }
  return out;
}

}  // namespace pac::pipeline
