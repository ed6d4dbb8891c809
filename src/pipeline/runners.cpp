#include "pipeline/runners.hpp"

#include <algorithm>
#include <mutex>

#include "common/logging.hpp"
#include "common/timer.hpp"
#include "data/metrics.hpp"
#include "nn/losses.hpp"
#include "nn/optimizer.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace pac::pipeline {

void RecoveryLog::commit_epoch(int epoch, const nn::ParameterList& params,
                               double mean_loss) {
  std::lock_guard<std::mutex> guard(mutex_);
  previous_ = std::move(committed_);
  committed_.clear();
  for (nn::Parameter* p : params) {
    committed_[p->name()] = p->value().clone();
  }
  losses_[epoch] = mean_loss;
  epochs_completed_ = std::max(epochs_completed_, epoch + 1);
}

void RecoveryLog::roll_back_to(int epochs) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (epochs == epochs_completed_) return;
  PAC_CHECK(epochs == epochs_completed_ - 1 &&
                (epochs == 0 || !previous_.empty()),
            "cannot roll back from " << epochs_completed_ << " committed "
                                     << "epochs to " << epochs);
  committed_ = std::move(previous_);
  previous_.clear();
  losses_.erase(epochs);
  epochs_completed_ = epochs;
}

int RecoveryLog::epochs_completed() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return epochs_completed_;
}

bool RecoveryLog::has_restore_point() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return !committed_.empty();
}

std::map<std::string, Tensor> RecoveryLog::restore_point() const {
  std::lock_guard<std::mutex> guard(mutex_);
  std::map<std::string, Tensor> out;
  for (const auto& [name, value] : committed_) {
    out[name] = value.clone();
  }
  return out;
}

std::vector<double> RecoveryLog::committed_losses() const {
  std::lock_guard<std::mutex> guard(mutex_);
  std::vector<double> out;
  for (const auto& [epoch, loss] : losses_) {
    PAC_CHECK(epoch == static_cast<int>(out.size()),
              "committed epoch losses have a gap at epoch " << epoch);
    out.push_back(loss);
  }
  return out;
}

double compute_task_metric(const data::TaskInfo& info, const Tensor& logits,
                           const std::vector<std::int64_t>& labels,
                           const std::vector<float>& targets) {
  if (info.kind == model::TaskKind::kRegression) {
    std::vector<float> preds(static_cast<std::size_t>(logits.size(0)));
    for (std::int64_t i = 0; i < logits.size(0); ++i) {
      preds[static_cast<std::size_t>(i)] = logits.data()[i];
    }
    return 0.5 * (data::pearson(preds, targets) +
                  data::spearman(preds, targets));
  }
  const std::vector<std::int64_t> preds = nn::argmax_rows(logits);
  if (info.task == data::GlueTask::kMrpc) {
    return 0.5 * (data::accuracy(preds, labels) +
                  data::f1_binary(preds, labels));
  }
  return data::accuracy(preds, labels);
}

namespace {

// Result recording and RecoveryLog commits happen on one rank.  In
// single-process mode that is the group leader; when the leader lives in
// another process, the lowest local group member records into this
// process's RunResult/RecoveryLog instead (the values are identical on
// every rank: losses travel via AllReduce, params are DP-replicated or
// synced below).
int reporting_rank(const dist::EdgeCluster& cluster,
                   const std::vector<int>& group) {
  for (int r : group) {
    if (cluster.rank_is_local(r)) return r;
  }
  return group[0];
}

// Parameter names ride the tensor-only transport as float-encoded bytes:
// [length, byte0, byte1, ...].  Bytes are exactly representable in fp32.
Tensor encode_name(const std::string& name) {
  Tensor t = Tensor::zeros({static_cast<std::int64_t>(name.size()) + 1});
  t.at({0}) = static_cast<float>(name.size());
  for (std::size_t i = 0; i < name.size(); ++i) {
    t.at({static_cast<std::int64_t>(i) + 1}) =
        static_cast<float>(static_cast<unsigned char>(name[i]));
  }
  return t;
}

std::string decode_name(const Tensor& t) {
  const auto n = static_cast<std::int64_t>(t.at({0}));
  PAC_CHECK(n >= 0 && n + 1 <= t.numel(), "malformed name tensor");
  std::string name;
  for (std::int64_t i = 0; i < n; ++i) {
    name.push_back(static_cast<char>(
        static_cast<unsigned char>(t.at({i + 1}))));
  }
  return name;
}

}  // namespace

RunResult run_training(dist::EdgeCluster& cluster,
                       const data::Dataset& dataset,
                       const ModelFactory& factory, const RunConfig& config,
                       const std::vector<ActivationRecorder*>* recorders) {
  RunResult result;
  result.epoch_losses.assign(static_cast<std::size_t>(config.epochs), 0.0);
  std::mutex result_mutex;
  WallTimer timer;

  const std::vector<int> participants = config.plan.participating_ranks();
  PAC_CHECK(!participants.empty(), "plan uses no devices");
  const int leader = participants[0];
  // The ranks that leave the run holding its losses and trainables.  In
  // one process the participants fill the shared result.  Across
  // processes every alive rank receives them (hand_off below), so a
  // process whose ranks the plan leaves idle still starts phase 2 from
  // the trained adapters.
  const bool one_process = cluster.all_ranks_local();
  const std::vector<int> holders =
      one_process ? participants : cluster.alive_ranks();
  const int reporter = reporting_rank(cluster, holders);
  const auto num_batches = static_cast<double>(
      data::BatchPlan(dataset.train_size(), config.batch_size,
                      config.shuffle_seed)
          .num_batches());
  // Records each epoch's mean loss from the AllReduced loss sums.
  auto record_losses = [&](const Tensor& loss_sums) {
    std::lock_guard<std::mutex> result_guard(result_mutex);
    for (int e = 0; e < config.epochs; ++e) {
      result.epoch_losses[static_cast<std::size_t>(e)] =
          static_cast<double>(loss_sums.at({e})) / num_batches;
    }
  };

  // Multi-process: each stage's params live only in the processes that
  // hosted it, and the losses only in the participants', but phase 2
  // needs both in every process.  The leader broadcasts the loss sums and
  // each stage leader its adapters to every alive rank, idle ones too.
  auto hand_off = [&](dist::DeviceContext& ctx, StageWorker& worker,
                      const Tensor& loss_sums) {
    const Tensor sums = ctx.comm.broadcast(loss_sums, leader, holders,
                                           tags::kTrainableSync);
    std::map<std::string, Tensor> full;
    for (const StageAssignment& st : config.plan.stages) {
      const int stage_leader = st.devices[0];
      nn::ParameterList mine;
      if (ctx.rank == stage_leader) mine = worker.stage_trainable_params();
      Tensor count = ctx.comm.broadcast(
          Tensor::full({1}, static_cast<float>(mine.size())), stage_leader,
          holders, tags::kTrainableSync);
      const auto n = static_cast<std::int64_t>(count.at({0}));
      for (std::int64_t i = 0; i < n; ++i) {
        nn::Parameter* p =
            ctx.rank == stage_leader ? mine[static_cast<std::size_t>(i)]
                                     : nullptr;
        Tensor name_t = ctx.comm.broadcast(
            p != nullptr ? encode_name(p->name()) : Tensor(), stage_leader,
            holders, tags::kTrainableSync);
        Tensor value = ctx.comm.broadcast(
            p != nullptr ? p->value().clone() : Tensor(), stage_leader,
            holders, tags::kTrainableSync);
        full[decode_name(name_t)] = std::move(value);
      }
    }
    if (ctx.rank == reporter) {
      record_losses(sums);
      std::lock_guard<std::mutex> result_guard(result_mutex);
      result.trainable_values = std::move(full);
    }
  };

  cluster.run([&](dist::DeviceContext& ctx) {
    std::unique_ptr<model::Model> model = factory();
    model->set_training_mode(true);
    StageWorker worker(ctx, *model, config.plan, config.schedule);
    if (!worker.participates()) {
      if (!one_process) hand_off(ctx, worker, Tensor());
      return;
    }
    nn::Adam optimizer(config.lr);
    Tensor loss_sums = Tensor::zeros({config.epochs});

    ActivationRecorder* recorder = nullptr;
    if (recorders != nullptr) {
      PAC_CHECK(recorders->size() ==
                    static_cast<std::size_t>(ctx.world_size),
                "need one recorder slot per rank");
      recorder = (*recorders)[static_cast<std::size_t>(ctx.rank)];
    }

    // A death or straggler verdict unwinds through ~StageWorker, which
    // drains the in-flight mini-batch.
    for (int e = 0; e < config.epochs; ++e) {
      PAC_TRACE_SCOPE("train_epoch", ctx.rank, e);
      data::BatchPlan plan(dataset.train_size(), config.batch_size,
                           config.shuffle_seed + static_cast<std::uint64_t>(e));
      double loss_sum = 0.0;
      data::Batch batch = dataset.make_train_batch(plan.batch(0));
      for (std::int64_t b = 0; b < plan.num_batches(); ++b) {
        // The next batch of this epoch, so the worker can run ahead.
        data::Batch next;
        const bool has_next = b + 1 < plan.num_batches();
        if (has_next) next = dataset.make_train_batch(plan.batch(b + 1));
        // Record activations only on the first epoch — later epochs
        // would overwrite identical data (the backbone is frozen).
        ActivationRecorder* rec = e == 0 ? recorder : nullptr;
        loss_sum += worker.train_mini_batch(batch, rec,
                                            has_next ? &next : nullptr);
        worker.synchronize_and_step(optimizer);
        if (config.health != nullptr) {
          auto verdict = config.health->record_minibatch(
              ctx.rank, worker.minibatch_compute_seconds(),
              worker.minibatch_local_rows());
          // Raised on the straggler's own thread, at the mini-batch
          // boundary: the optimizer step above completed, so peers
          // unwind from a consistent point.
          if (verdict.has_value()) {
            throw elastic::StragglerDetectedError(std::move(*verdict));
          }
        }
        batch = std::move(next);
      }
      // Combine the weighted loss shares held by last-stage ranks.
      Tensor loss_buf = Tensor::full({1}, static_cast<float>(loss_sum));
      ctx.comm.allreduce_sum(loss_buf, participants, tags::kLossReduce);
      loss_sums.at({e}) = loss_buf.at({0});
      if (ctx.rank == reporter && obs::enabled()) {
        PAC_LOG_INFO << "epoch " << e << " counters:\n"
                     << obs::CounterRegistry::instance().summary_table();
      }
    }

    // ---- evaluation (forward-only through the same pipeline) ----
    if (config.run_eval) {
      model->set_training_mode(false);
      const int last_stage = static_cast<int>(config.plan.num_stages()) - 1;
      const auto& last_group =
          config.plan.stages[static_cast<std::size_t>(last_stage)].devices;

      Tensor all_logits;               // logits (or regression predictions)
      std::vector<std::int64_t> labels;
      std::vector<float> targets;
      const std::int64_t n_eval = dataset.eval_size();
      const std::int64_t head_out = model->task().head_outputs();
      if (ctx.rank == leader) {
        all_logits = Tensor::zeros({n_eval, head_out});
      }

      std::int64_t eval_cursor = 0;
      while (eval_cursor < n_eval) {
        const std::int64_t rows =
            std::min<std::int64_t>(config.batch_size, n_eval - eval_cursor);
        std::vector<std::int64_t> idx(static_cast<std::size_t>(rows));
        std::iota(idx.begin(), idx.end(), eval_cursor);
        auto batch = dataset.make_eval_batch(idx);
        // Last-stage owners ship their logits to the leader.
        for (Tensor& logits : worker.eval_mini_batch(batch)) {
          ctx.comm.send(leader, tags::kEvalLogits, std::move(logits));
        }
        if (ctx.rank == leader) {
          const std::vector<std::int64_t> bounds =
              micro_row_bounds(rows, config.plan.num_micro_batches);
          const std::vector<int> owners = micro_owner_indices(
              config.plan.stages[static_cast<std::size_t>(last_stage)],
              static_cast<std::int64_t>(bounds.size()) - 1);
          for (std::size_t m = 0; m < owners.size(); ++m) {
            const int owner =
                last_group[static_cast<std::size_t>(owners[m])];
            Tensor logits = ctx.comm.recv(owner, tags::kEvalLogits);
            const std::int64_t rb = bounds[m];
            const std::int64_t re = bounds[m + 1];
            PAC_CHECK(logits.size(0) == re - rb, "eval logits row mismatch");
            all_logits.slice0(eval_cursor + rb, eval_cursor + re)
                .copy_from(logits);
          }
          labels.insert(labels.end(), batch.labels.begin(),
                        batch.labels.end());
          targets.insert(targets.end(), batch.targets.begin(),
                         batch.targets.end());
        }
        eval_cursor += rows;
      }
      if (ctx.rank == leader) {
        const double metric =
            compute_task_metric(dataset.info(), all_logits, labels, targets);
        std::lock_guard<std::mutex> result_guard(result_mutex);
        result.eval_metric = metric;
      }
      model->set_training_mode(true);
    }

    // ---- export losses and final trainables ----
    if (!one_process) {
      hand_off(ctx, worker, loss_sums);
      return;
    }
    if (ctx.rank == reporter) record_losses(loss_sums);
    // Group leaders only, to avoid dupes; together they cover all stages.
    if (config.plan.index_in_group(ctx.rank) == 0) {
      std::lock_guard<std::mutex> result_guard(result_mutex);
      for (nn::Parameter* p : worker.stage_trainable_params()) {
        result.trainable_values[p->name()] = p->value().clone();
      }
    }
  });

  result.wall_seconds = timer.seconds();
  result.comm_bytes = cluster.last_run_total_bytes();
  for (int r = 0; r < cluster.size(); ++r) {
    result.peak_memory_per_device.push_back(cluster.ledger(r).peak_total());
  }
  return result;
}

RunResult run_cached_data_parallel(
    dist::EdgeCluster& cluster, const data::Dataset& dataset,
    const ModelFactory& factory,
    const std::vector<const ActivationSource*>& sources,
    const std::vector<std::vector<std::int64_t>>& shards,
    const CachedRunConfig& config) {
  PAC_CHECK(sources.size() == static_cast<std::size_t>(cluster.size()) &&
                shards.size() == static_cast<std::size_t>(cluster.size()),
            "need one activation source and shard per device");
  RunResult result;
  result.epoch_losses.assign(static_cast<std::size_t>(config.epochs), 0.0);
  std::mutex result_mutex;
  WallTimer timer;

  // The DP group is the surviving ranks; dead ranks' shard entries are
  // ignored (after a recovery the session re-shards onto the survivors).
  const std::vector<int> group = cluster.alive_ranks();
  PAC_CHECK(!group.empty(), "cached training with no live devices");
  const int leader = group[0];
  const int reporter = reporting_rank(cluster, group);

  // Ranks step in lockstep; all must issue the same number of AllReduces.
  std::int64_t max_steps = 0;
  std::int64_t total_samples = 0;
  for (int r : group) {
    const auto& shard = shards[static_cast<std::size_t>(r)];
    const std::int64_t n = static_cast<std::int64_t>(shard.size());
    total_samples += n;
    max_steps = std::max(max_steps,
                         (n + config.device_batch_size - 1) /
                             std::max<std::int64_t>(config.device_batch_size,
                                                    1));
  }
  PAC_CHECK(total_samples > 0, "cached training with no samples");

  cluster.run([&](dist::DeviceContext& ctx) {
    std::unique_ptr<model::Model> model = factory();
    PAC_CHECK(model->uses_parallel_adapters(),
              "cached data-parallel phase requires Parallel Adapters");
    model->set_training_mode(true);
    nn::Adam optimizer(config.lr);
    const auto& shard = shards[static_cast<std::size_t>(ctx.rank)];
    const ActivationSource* source =
        sources[static_cast<std::size_t>(ctx.rank)];

    // Ledger: phase 2 holds only the trainable side network + head (the
    // backbone weights are released — the paper's key memory saving).
    nn::ParameterList trainable = model->trainable_parameters();
    std::uint64_t weight_bytes = 0;
    std::uint64_t grad_bytes = 0;
    for (nn::Parameter* p : trainable) {
      weight_bytes += p->value_bytes();
      grad_bytes += p->grad_bytes();
    }
    dist::ScopedAlloc weights_alloc(ctx.ledger, dist::MemClass::kWeights,
                                    weight_bytes);
    dist::ScopedAlloc grads_alloc(ctx.ledger, dist::MemClass::kGradients,
                                  grad_bytes);
    dist::ScopedAlloc opt_alloc(ctx.ledger, dist::MemClass::kOptimizer,
                                nn::Adam::kStateFactor * grad_bytes);

    std::int64_t flat_size = 0;
    for (nn::Parameter* p : trainable) flat_size += p->value().numel();
    // Flat grads weighted by rows, plus the row count; every element is
    // rewritten each step, so one buffer serves the whole run.
    Tensor flat({flat_size + 1});

    for (int e = 0; e < config.epochs; ++e) {
      const int epoch = config.first_epoch + e;
      PAC_TRACE_SCOPE("cached_epoch", ctx.rank, epoch);
      double loss_sum = 0.0;
      std::unique_ptr<data::BatchPlan> plan;
      if (!shard.empty()) {
        plan = std::make_unique<data::BatchPlan>(
            static_cast<std::int64_t>(shard.size()),
            config.device_batch_size,
            config.shuffle_seed + static_cast<std::uint64_t>(epoch) * 1000 +
                static_cast<std::uint64_t>(ctx.rank));
      }
      for (std::int64_t step = 0; step < max_steps; ++step) {
        PAC_TRACE_SCOPE("cached_step", ctx.rank, step);
        model->zero_grad();
        double step_loss = 0.0;
        std::int64_t step_rows = 0;
        double step_compute_s = 0.0;
        if (plan != nullptr && step < plan->num_batches()) {
          // Translate shard-local indices to dataset sample ids.
          std::vector<std::int64_t> ids;
          for (std::int64_t local : plan->batch(step)) {
            ids.push_back(shard[static_cast<std::size_t>(local)]);
          }
          // Announce the next step's samples so a disk-backed source can
          // reload them while this step computes.
          if (config.prefetch && step + 1 < plan->num_batches()) {
            std::vector<std::int64_t> next_ids;
            for (std::int64_t local : plan->batch(step + 1)) {
              next_ids.push_back(shard[static_cast<std::size_t>(local)]);
            }
            source->prefetch(next_ids);
          }
          const ThreadCpuTimer compute;
          std::vector<Tensor> acts = source->fetch(ids);
          nn::LossResult r;
          {
            PAC_TRACE_SCOPE("cached_fwd", ctx.rank, step);
            auto batch = dataset.make_train_batch(ids);
            Tensor logits = model->forward_cached(
                acts,
                model::make_pad_mask(batch.tokens,
                                     model->config().pad_token));
            if (model->task().kind == model::TaskKind::kClassification) {
              r = nn::softmax_cross_entropy(logits, batch.labels);
            } else {
              r = nn::mse_loss(logits, batch.targets);
            }
          }
          {
            PAC_TRACE_SCOPE("cached_bwd", ctx.rank, step);
            model->backward_cached(r.dlogits);
          }
          step_loss = r.loss;
          step_rows = static_cast<std::int64_t>(ids.size());
          step_compute_s = elastic::apply_compute_throttle(
              compute.seconds(), ctx.comm.compute_throttle());
          // Weight grads by the local row share before the global sum so
          // the AllReduced gradient is the global batch mean.
        }
        // Flatten grads, weight by rows, AllReduce, rescale by total rows.
        {
          PAC_TRACE_SCOPE("cached_allreduce", ctx.rank, step);
          std::int64_t cursor = 0;
          for (nn::Parameter* p : trainable) {
            Tensor dst = flat.slice0(cursor, cursor + p->grad().numel());
            dst.copy_from(p->grad().reshape({p->grad().numel()}));
            dst.scale_(static_cast<float>(step_rows));
            cursor += p->grad().numel();
          }
          flat.at({flat_size}) = static_cast<float>(step_rows);
          ctx.comm.allreduce_sum(flat, group, tags::kGradAllReduce);
        }
        const float global_rows = flat.at({flat_size});
        if (global_rows > 0) {
          PAC_TRACE_SCOPE("cached_opt", ctx.rank, step);
          std::int64_t cursor = 0;
          for (nn::Parameter* p : trainable) {
            Tensor src = flat.slice0(cursor, cursor + p->grad().numel());
            p->grad().copy_from(src.reshape(p->grad().shape()));
            p->grad().scale_(1.0F / global_rows);
            cursor += p->grad().numel();
          }
          optimizer.step(trainable);
        }
        loss_sum += step_loss * static_cast<double>(step_rows);
        if (config.health != nullptr) {
          auto verdict = config.health->record_minibatch(
              ctx.rank, step_compute_s, step_rows);
          // The optimizer step completed, so the RecoveryLog's last commit
          // plus this epoch's replay is a consistent resume point.
          if (verdict.has_value()) {
            throw elastic::StragglerDetectedError(std::move(*verdict));
          }
        }
      }
      // Epoch loss: sample-weighted mean across devices.
      Tensor loss_buf = Tensor::full({1}, static_cast<float>(loss_sum));
      ctx.comm.allreduce_sum(loss_buf, group, tags::kLossReduce);
      const double mean_loss = static_cast<double>(loss_buf.at({0})) /
                               static_cast<double>(total_samples);
      if (ctx.rank == reporter) {
        std::lock_guard<std::mutex> result_guard(result_mutex);
        result.epoch_losses[static_cast<std::size_t>(e)] = mean_loss;
        // Pure DP: every rank holds the full trainable set and the loss
        // AllReduce already proves all ranks finished the epoch, so one
        // rank per process commits the restore point.
        if (config.recovery != nullptr) {
          config.recovery->commit_epoch(epoch, trainable, mean_loss);
        }
      }
    }

    if (ctx.rank == leader) {
      // Live eval on the leader device (eval samples are not cached).
      std::lock_guard<std::mutex> result_guard(result_mutex);
      if (config.run_eval) {
        model->set_training_mode(false);
        const std::int64_t n_eval = dataset.eval_size();
        Tensor all_logits =
            Tensor::zeros({n_eval, model->task().head_outputs()});
        std::vector<std::int64_t> labels;
        std::vector<float> targets;
        std::int64_t cursor2 = 0;
        while (cursor2 < n_eval) {
          const std::int64_t rows = std::min<std::int64_t>(
              config.device_batch_size, n_eval - cursor2);
          std::vector<std::int64_t> idx(static_cast<std::size_t>(rows));
          std::iota(idx.begin(), idx.end(), cursor2);
          auto batch = dataset.make_eval_batch(idx);
          Tensor logits = model->forward(batch.tokens);
          all_logits.slice0(cursor2, cursor2 + rows).copy_from(logits);
          labels.insert(labels.end(), batch.labels.begin(),
                        batch.labels.end());
          targets.insert(targets.end(), batch.targets.begin(),
                         batch.targets.end());
          cursor2 += rows;
        }
        result.eval_metric =
            compute_task_metric(dataset.info(), all_logits, labels, targets);
      }
    }
    if (ctx.rank == reporter) {
      // Pure DP: every rank holds the full trainable set, so the local
      // reporting rank can export it even when the leader is remote.
      std::lock_guard<std::mutex> result_guard(result_mutex);
      for (nn::Parameter* p : trainable) {
        result.trainable_values[p->name()] = p->value().clone();
      }
    }
  });

  result.wall_seconds = timer.seconds();
  result.comm_bytes = cluster.last_run_total_bytes();
  for (int r = 0; r < cluster.size(); ++r) {
    result.peak_memory_per_device.push_back(cluster.ledger(r).peak_total());
  }
  return result;
}

}  // namespace pac::pipeline
