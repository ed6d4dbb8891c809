#include "core/session.hpp"

#include <mutex>

#include "common/logging.hpp"
#include "common/timer.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "planner/profiler.hpp"

namespace pac::core {

Session::Session(dist::EdgeCluster& cluster,
                 const data::Dataset& dataset,
                 SessionConfig config)
    : cluster_(cluster), dataset_(dataset), config_(std::move(config)) {
  const data::TaskInfo& info = dataset_.info();
  task_ = model::TaskSpec{info.kind, info.num_classes};
  PAC_CHECK(config_.model.vocab == dataset_.vocab(),
            "model vocab " << config_.model.vocab << " != dataset vocab "
                           << dataset_.vocab());
  PAC_CHECK(config_.epochs >= 1, "need at least one epoch");
}

pipeline::ModelFactory Session::make_factory(
    const std::map<std::string, Tensor>* overrides) const {
  const SessionConfig& cfg = config_;
  const model::TaskSpec task = task_;
  if (overrides == nullptr) {
    return [cfg, task](const model::ModelParts& parts) {
      return std::make_unique<model::Model>(cfg.model, cfg.technique, task,
                                            cfg.model_seed, parts);
    };
  }
  const std::map<std::string, Tensor> values = *overrides;  // by value
  return [cfg, task, values](const model::ModelParts& parts) {
    auto m = std::make_unique<model::Model>(cfg.model, cfg.technique, task,
                                            cfg.model_seed, parts);
    model::apply_parameter_overrides(*m, values);
    return m;
  };
}

std::vector<planner::BlockProfile> Session::profile() {
  if (config_.profile_override.has_value()) {
    return *config_.profile_override;
  }
  auto m = make_factory(nullptr)(model::ModelParts{});
  const std::int64_t micro_rows = std::max<std::int64_t>(
      1, config_.batch_size / std::max<std::int64_t>(
                                  1, config_.num_micro_batches));
  std::vector<std::int64_t> idx(static_cast<std::size_t>(
      std::min<std::int64_t>(micro_rows, dataset_.train_size())));
  std::iota(idx.begin(), idx.end(), 0);
  auto batch = dataset_.make_train_batch(idx);
  return planner::profile_model(*m, batch.tokens, /*iters=*/3);
}

planner::PlanEstimate Session::plan_over_alive(double* profile_seconds,
                                               double* planning_seconds) {
  WallTimer profile_timer;
  planner::PlannerInput input;
  input.blocks = profile();
  if (profile_seconds != nullptr) *profile_seconds = profile_timer.seconds();

  const std::vector<int> alive = cluster_.alive_ranks();
  input.num_devices = static_cast<int>(alive.size());
  input.device_budget_bytes = alive_budget();
  input.num_micro_batches = config_.num_micro_batches;
  input.network = costmodel::in_process_network();
  for (int r : alive) {
    input.device_scales.push_back(cluster_.spec(r).compute_scale);
  }

  // Elastic re-plan: price in runtime-observed slowdowns (if any) so the
  // DP shifts blocks and micro ownership away from degraded devices.
  std::vector<double> observed(alive.size(), 1.0);
  bool any_observed = false;
  for (std::size_t i = 0; i < alive.size(); ++i) {
    const auto it = observed_scale_.find(alive[i]);
    if (it != observed_scale_.end() && it->second != 1.0) {
      observed[i] = it->second;
      any_observed = true;
    }
  }

  WallTimer plan_timer;
  planner::PlanEstimate est = any_observed
                                  ? planner::replan_hybrid(input, observed)
                                  : planner::plan_hybrid(input);
  if (planning_seconds != nullptr) *planning_seconds = plan_timer.seconds();

  // The planner assigns dense device indices 0..n_alive-1; remap them onto
  // the surviving cluster ranks (stage groups stay contiguous and sorted
  // because alive ranks are sorted).
  for (auto& st : est.plan.stages) {
    for (int& d : st.devices) {
      d = alive[static_cast<std::size_t>(d)];
    }
  }
  return est;
}

std::uint64_t Session::alive_budget() const {
  std::uint64_t budget = std::numeric_limits<std::uint64_t>::max();
  for (int r : cluster_.alive_ranks()) {
    budget = std::min(budget, cluster_.ledger(r).budget());
  }
  return budget;
}

planner::PlanEstimate Session::plan() {
  double profile_s = 0.0;
  double plan_s = 0.0;
  planner::PlanEstimate est = plan_over_alive(&profile_s, &plan_s);
  PAC_LOG_INFO << "profiling " << profile_s << "s, planning " << plan_s
               << "s: " << est.note;
  return est;
}

bool Session::absorb_death(int rank) {
  if (recoveries_used_ >= config_.max_rank_recoveries) return false;
  const int remaining =
      cluster_.num_alive() - (cluster_.is_dead(rank) ? 0 : 1);
  if (remaining < 1) return false;
  if (!cluster_.is_dead(rank)) cluster_.mark_dead(rank);
  ++recoveries_used_;
  dead_ranks_seen_.push_back(rank);
  return true;
}

bool Session::absorb_straggler(const elastic::StragglerVerdict& verdict) {
  if (replans_used_ >= config_.elastic.max_replans) return false;
  ++replans_used_;
  straggler_ranks_.push_back(verdict.rank);
  for (const auto& [rank, scale] : verdict.observed_scales) {
    const auto it = observed_scale_.find(rank);
    if (it == observed_scale_.end() || scale < it->second) {
      observed_scale_[rank] = scale;
    }
  }
  return true;
}

void Session::check_cancelled() const {
  if (config_.cancel != nullptr &&
      config_.cancel->load(std::memory_order_acquire)) {
    throw OperationCancelledError("session cancelled");
  }
}

SessionReport Session::run() {
  // One recording window over every attempt: faulted runs restart inside
  // the same session, so the post-mortem dump (written by the destructor
  // even when unwinding) shows the failed attempt alongside the retry.
  std::unique_ptr<obs::TraceSession> trace;
  if (config_.obs_enabled || !config_.trace_path.empty()) {
    obs::TraceSession::Options opts;
    opts.path = config_.trace_path;
    obs::CounterRegistry::instance().reset();
    trace = std::make_unique<obs::TraceSession>(std::move(opts));
    obs::set_thread_name("session", 0);
  }
  const std::int64_t original_batch = config_.batch_size;
  recoveries_used_ = 0;
  dead_ranks_seen_.clear();
  replans_used_ = 0;
  straggler_ranks_.clear();
  evicted_ranks_.clear();
  observed_scale_.clear();
  int retries = 0;
  for (;;) {
    try {
      check_cancelled();
      SessionReport report = run_attempt();
      report.oom_retries = retries;
      report.rank_deaths = recoveries_used_;
      report.dead_ranks = dead_ranks_seen_;
      report.replans = replans_used_;
      report.straggler_ranks = straggler_ranks_;
      report.evicted_ranks = evicted_ranks_;
      report.effective_batch_size = config_.batch_size;
      config_.batch_size = original_batch;
      if (trace != nullptr) {
        PAC_LOG_INFO << "session counters:\n"
                     << obs::CounterRegistry::instance().summary_table();
      }
      return report;
    } catch (const DeviceOomError&) {
      if (retries >= config_.max_oom_retries || config_.batch_size <= 1) {
        config_.batch_size = original_batch;
        throw;
      }
      ++retries;
      config_.batch_size = std::max<std::int64_t>(1, config_.batch_size / 2);
      config_.num_micro_batches = std::min<std::int64_t>(
          config_.num_micro_batches, config_.batch_size);
      PAC_LOG_WARN << "OOM; retrying with batch " << config_.batch_size
                   << " (retry " << retries << ")";
    } catch (const elastic::StragglerDetectedError& e) {
      // Phase-1 verdict: restart the attempt — plan_over_alive folds the
      // observed speeds into the DP, so the retry runs the re-planned
      // schedule (phase 1 restarts reproduce the loss trajectory exactly:
      // gradients are full-batch means under any partitioning).
      if (!absorb_straggler(e.verdict())) {
        config_.batch_size = original_batch;
        throw;
      }
      PAC_LOG_WARN << "rank " << e.rank()
                   << " flagged as straggler (throughput ratio "
                   << e.verdict().throughput_ratio
                   << "); re-planning over observed speeds";
    } catch (const RankLostError& e) {
      // An injected death, or a peer death (a recv-timeout presumption
      // included) that no injected death explains: continue without it.
      if (!absorb_death(e.rank())) {
        config_.batch_size = original_batch;
        throw;
      }
      PAC_LOG_WARN << e.what() << "; restarting over "
                   << cluster_.num_alive() << " survivors";
    }
  }
}

SessionReport Session::run_attempt() {
  SessionReport report;
  WallTimer total_timer;
  const std::vector<int> alive = cluster_.alive_ranks();

  // ---- steps 1-2: profile + plan (over the surviving ranks) ----
  report.plan = plan_over_alive(&report.profile_seconds,
                                &report.planning_seconds);
  if (!report.plan.feasible) {
    // Surfaced as a device OOM so the retry loop (and callers) treat
    // planner infeasibility and runtime OOM uniformly.
    const std::uint64_t budget = alive_budget();
    std::uint64_t worst = 0;
    for (std::uint64_t m : report.plan.stage_memory_bytes) {
      worst = std::max(worst, m);
    }
    throw DeviceOomError(/*device_id=*/alive[0],
                         std::max(worst, budget + 1), budget);
  }

  const bool cache_phase =
      config_.use_activation_cache &&
      config_.technique.technique ==
          model::Technique::kParallelAdapters &&
      config_.epochs > 1;
  report.cache_used = cache_phase;

  // ---- steps 3-4: phase-1 hybrid fine-tuning (with recording) ----
  const std::int64_t blocks_per_sample =
      config_.model.encoder_layers + 1;  // b_0 .. b_L
  std::vector<std::unique_ptr<cache::ActivationCache>> shards(
      static_cast<std::size_t>(cluster_.size()));
  std::vector<pipeline::ActivationRecorder*> recorders(
      static_cast<std::size_t>(cluster_.size()), nullptr);
  if (cache_phase) {
    for (int r : alive) {
      // Multi-process: each process materialises shards only for the ranks
      // it hosts; remote ranks' shards live in their own processes.
      if (!cluster_.rank_is_local(r)) continue;
      cache::CacheConfig cc;
      cc.num_blocks = blocks_per_sample;
      cc.disk_backed = config_.cache_disk_backed;
      cc.dtype = config_.cache_dtype;
      if (cc.disk_backed) {
        PAC_CHECK(!config_.cache_directory.empty(),
                  "disk-backed cache needs cache_directory");
        cc.directory =
            config_.cache_directory + "/device_" + std::to_string(r);
      }
      cc.ledger = &cluster_.ledger(r);
      shards[static_cast<std::size_t>(r)] =
          std::make_unique<cache::ActivationCache>(cc);
      recorders[static_cast<std::size_t>(r)] =
          shards[static_cast<std::size_t>(r)].get();
    }
  }

  {
    pipeline::RunConfig run;
    run.plan = report.plan.plan;
    run.batch_size = config_.batch_size;
    run.epochs = cache_phase ? 1 : config_.epochs;
    run.lr = config_.lr;
    run.shuffle_seed = config_.shuffle_seed;
    run.run_eval = config_.run_eval && !cache_phase;
    // Straggler watchdog: ranks compare within their stage's device group
    // (same per-row work); the remaining-budget monitor guarantees the
    // session never re-plans more than elastic.max_replans times.
    std::unique_ptr<elastic::HealthMonitor> monitor;
    const int verdict_budget = config_.elastic.max_replans - replans_used_;
    if (config_.elastic.enabled && verdict_budget > 0) {
      monitor = std::make_unique<elastic::HealthMonitor>(
          config_.elastic, cluster_.size(), verdict_budget);
      std::vector<std::vector<int>> groups;
      for (const auto& st : report.plan.plan.stages) {
        groups.push_back(st.devices);
      }
      monitor->set_groups(std::move(groups));
      run.health = monitor.get();
    }
    // A death here propagates to run(): phase 1 restarts from scratch on
    // the survivors (its partially-recorded cache shards would have to be
    // re-recorded anyway), which reproduces a fault-free survivors run
    // bit-for-bit.  A straggler verdict propagates the same way and
    // restarts under the re-planned schedule.
    report.phase1 = pipeline::run_training(
        cluster_, dataset_, make_factory(nullptr), run,
        cache_phase ? &recorders : nullptr);
  }
  report.epoch_losses = report.phase1.epoch_losses;

  if (!cache_phase) {
    report.eval_metric = report.phase1.eval_metric;
    report.total_seconds = total_timer.seconds();
    return report;
  }

  // ---- step 5a: redistribute cache shards + adapter parameters ----
  check_cancelled();
  auto target = cache::modulo_sharding_over(alive);
  auto run_redistribution = [&](const std::vector<int>& group,
                                const std::function<int(std::int64_t)>& t) {
    WallTimer t_redist;
    std::mutex stats_mutex;
    cluster_.run([&](dist::DeviceContext& ctx) {
      PAC_TRACE_SCOPE("redistribute", ctx.rank);
      cache::RedistStats stats = cache::redistribute_cache(
          ctx, *shards[static_cast<std::size_t>(ctx.rank)], t, group);
      std::lock_guard<std::mutex> stats_guard(stats_mutex);
      report.redistribution.items_sent += stats.items_sent;
      report.redistribution.items_received += stats.items_received;
      report.redistribution.payload_bytes_sent += stats.payload_bytes_sent;
    });
    report.redistribution_seconds += t_redist.seconds();
  };
  run_redistribution(alive, target);
  for (const auto& shard : shards) {
    if (shard != nullptr) report.cache_bytes_total += shard->total_bytes();
  }

  // ---- step 5b: cached data-parallel epochs (with death recovery) ----
  {
    std::vector<std::vector<std::int64_t>> assignments(
        static_cast<std::size_t>(cluster_.size()));
    for (std::int64_t s = 0; s < dataset_.train_size(); ++s) {
      assignments[static_cast<std::size_t>(target(s))].push_back(s);
    }
    std::vector<const pipeline::ActivationSource*> sources;
    for (const auto& shard : shards) sources.push_back(shard.get());

    // Epoch-boundary snapshots make a mid-phase death recoverable: resume
    // from the last committed epoch instead of replaying phase 2.
    pipeline::RecoveryLog recovery;
    std::map<std::string, Tensor> start_params =
        report.phase1.trainable_values;

    pipeline::CachedRunConfig run;
    run.device_batch_size = std::max<std::int64_t>(
        1, config_.batch_size / cluster_.num_alive());
    run.lr = config_.lr;
    run.prefetch = config_.cache_prefetch;
    run.shuffle_seed = config_.shuffle_seed + 991;
    run.run_eval = config_.run_eval;
    run.recovery = &recovery;

    // Rebuilds per-rank sample assignments and restores adapter params
    // from the last committed epoch, after `new_target` re-sharded.
    auto rebuild_assignments = [&](
        const std::function<int(std::int64_t)>& new_target) {
      target = new_target;
      for (auto& a : assignments) a.clear();
      for (std::int64_t s = 0; s < dataset_.train_size(); ++s) {
        assignments[static_cast<std::size_t>(new_target(s))].push_back(s);
      }
      if (recovery.has_restore_point()) {
        for (auto& [name, value] : recovery.restore_point()) {
          start_params[name] = value;
        }
      }
    };

    // In a multi-process run every process keeps its own log, and a death
    // inside the epoch-end loss reduce (each member sends its share to one
    // peer at a time) can leave some processes one commit ahead.  All
    // resume from the fewest committed epochs; one ahead rolls back.
    auto agree_on_resume_epoch = [&](const std::vector<int>& group) {
      const int mine = recovery.epochs_completed();
      int fewest = mine;
      std::mutex fewest_mutex;
      cluster_.run([&](dist::DeviceContext& ctx) {
        Tensor committed = Tensor::zeros({ctx.world_size});
        committed.at({ctx.rank}) = static_cast<float>(mine);
        ctx.comm.allreduce_sum(committed, group,
                               pipeline::tags::kResumeEpoch);
        std::lock_guard<std::mutex> guard(fewest_mutex);
        for (int r : group) {
          fewest = std::min(fewest, static_cast<int>(committed.at({r})));
        }
      });
      if (fewest < mine) {
        PAC_LOG_WARN << "rolling back the commit of epoch " << fewest
                     << ": a peer process did not commit it";
      }
      recovery.roll_back_to(fewest);
    };

    // Shrinks the DP group after `dead` died: salvage its shard (modelling
    // a re-read of the disk-persisted cache), re-shard over the survivors
    // through the normal redistribution path, and restore adapter params
    // from the last committed epoch.
    auto shrink_after_death = [&](int dead) {
      const std::vector<int> now_alive = cluster_.alive_ranks();
      auto new_target = cache::modulo_sharding_over(now_alive);
      // Salvage destination for blocks whose new owner is remote: the
      // lowest surviving local rank holds them until the redistribution
      // below ships them to their real owners.
      int fallback = -1;
      for (int r : now_alive) {
        if (cluster_.rank_is_local(r)) {
          fallback = r;
          break;
        }
      }
      PAC_CHECK(fallback >= 0, "no local survivor to salvage into");
      auto& dead_shard = shards[static_cast<std::size_t>(dead)];
      if (dead_shard != nullptr) {
        for (std::int64_t sample : dead_shard->sample_ids()) {
          int dest = new_target(sample);
          if (!cluster_.rank_is_local(dest)) dest = fallback;
          // Move the stored representation: lossless for compressed shards
          // (no requantization) and bit-exact for fp32 ones; a spilled
          // sample is read once.
          auto blocks = dead_shard->take_sample(sample);
          for (std::size_t b = 0; b < blocks.size(); ++b) {
            if (!blocks[b].has_value()) continue;
            shards[static_cast<std::size_t>(dest)]->put_block_q(
                sample, static_cast<std::int64_t>(b), std::move(*blocks[b]));
          }
        }
        dead_shard.reset();
        sources[static_cast<std::size_t>(dead)] = nullptr;
      } else if (config_.cache_disk_backed &&
                 cluster_.rank_is_local(now_alive.front())) {
        // The dead rank lived in another process, so its in-memory shard is
        // gone with it — but its flash store survives.  Exactly one process
        // (the one hosting the lowest surviving rank) re-reads the spill
        // files; redistribution then spreads the samples to their owners.
        // Only the samples the last completed sharding gave the dead rank
        // come back: a rank killed before it wrote the tombstones of the
        // samples it shipped still lists them, and their owners hold them.
        const std::string dir =
            config_.cache_directory + "/device_" + std::to_string(dead);
        const std::int64_t salvaged =
            shards[static_cast<std::size_t>(now_alive.front())]
                ->absorb_spilled_directory(dir, [&](std::int64_t sample) {
                  return target(sample) == dead;
                });
        PAC_LOG_INFO << "salvaged " << salvaged
                     << " spilled samples from dead rank " << dead;
      }
      run_redistribution(now_alive, new_target);
      if (!cluster_.all_ranks_local()) agree_on_resume_epoch(now_alive);
      rebuild_assignments(new_target);
    };

    // Elastic re-shard after a phase-2 straggler verdict: every rank keeps
    // a cache share proportional to its observed speed, so the per-step
    // critical path (the slowest device's local steps) shrinks.
    auto reshard_weighted = [&] {
      const std::vector<int> now_alive = cluster_.alive_ranks();
      std::vector<double> weights;
      for (int r : now_alive) {
        const auto it = observed_scale_.find(r);
        weights.push_back(it != observed_scale_.end() ? it->second : 1.0);
      }
      auto new_target = cache::weighted_sharding_over(
          now_alive, weights, dataset_.train_size());
      run_redistribution(now_alive, new_target);
      rebuild_assignments(new_target);
    };

    for (;;) {
      check_cancelled();
      // Fresh watchdog per resume: one DP group of all survivors, budget
      // shrunk by re-plans already spent.
      std::unique_ptr<elastic::HealthMonitor> monitor;
      const int verdict_budget = config_.elastic.max_replans - replans_used_;
      if (config_.elastic.enabled && verdict_budget > 0) {
        monitor = std::make_unique<elastic::HealthMonitor>(
            config_.elastic, cluster_.size(), verdict_budget);
        monitor->set_groups({cluster_.alive_ranks()});
      }
      run.health = monitor.get();
      try {
        run.first_epoch = recovery.epochs_completed();
        run.epochs = (config_.epochs - 1) - run.first_epoch;
        report.phase2 = pipeline::run_cached_data_parallel(
            cluster_, dataset_, make_factory(&start_params), sources,
            assignments, run);
        break;
      } catch (const elastic::StragglerDetectedError& e) {
        if (!absorb_straggler(e.verdict())) throw;
        const auto it = e.verdict().observed_scales.find(e.rank());
        const double scale =
            it != e.verdict().observed_scales.end() ? it->second : 1.0;
        if (scale < config_.elastic.evict_ratio &&
            cluster_.num_alive() > 1) {
          // Slower than the eviction floor: its steps cost more than its
          // compute contributes, so drop it from the DP group entirely.
          // The shard salvage models the disk-persisted cache, exactly as
          // for a death — but this is an eviction, not a death, so the
          // rank-recovery budget is untouched.
          evicted_ranks_.push_back(e.rank());
          cluster_.mark_dead(e.rank());
          shrink_after_death(e.rank());
          PAC_LOG_WARN << "rank " << e.rank() << " straggling at scale "
                       << scale << " < evict_ratio "
                       << config_.elastic.evict_ratio
                       << "; evicted from phase 2, resuming from epoch "
                       << recovery.epochs_completed();
        } else {
          PAC_LOG_WARN << "rank " << e.rank() << " straggling at scale "
                       << scale << "; re-sharding cache throughput-weighted"
                       << " and resuming from epoch "
                       << recovery.epochs_completed();
          reshard_weighted();
        }
      } catch (const RankLostError& e) {
        if (!absorb_death(e.rank())) throw;
        shrink_after_death(e.rank());
        PAC_LOG_WARN << e.what() << " in phase 2; resuming from epoch "
                     << recovery.epochs_completed() << " on "
                     << cluster_.num_alive() << " survivors";
      }
    }
    // The committed log covers every phase-2 epoch, including epochs that
    // ran before a mid-phase death; the last RunResult alone would not.
    report.phase2.epoch_losses = recovery.committed_losses();
  }
  report.rank_deaths = recoveries_used_;
  report.dead_ranks = dead_ranks_seen_;
  report.epoch_losses.insert(report.epoch_losses.end(),
                             report.phase2.epoch_losses.begin(),
                             report.phase2.epoch_losses.end());
  report.eval_metric = report.phase2.eval_metric;
  report.total_seconds = total_timer.seconds();
  return report;
}

}  // namespace pac::core
