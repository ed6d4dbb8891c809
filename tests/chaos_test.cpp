// Deterministic chaos harness: the end-to-end trainer under seeded fault
// schedules.  Every schedule is reproducible (FaultInjector decisions are
// pure hashes of the seed and per-link sequence numbers), so each scenario
// asserts exact agreement with a fault-free reference run:
//   - delay storms and legal reordering must not change results at all;
//   - transient send failures are absorbed by Communicator retries;
//   - a rank death mid-epoch-1 recovers onto the survivors and must match
//     a fault-free run on the equivalent surviving-device plan to 1e-6.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <thread>

#include "core/session.hpp"
#include "dist/rendezvous.hpp"
#include "dist/transport_factories.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "service/dispatcher.hpp"
#include "tensor/ops.hpp"

namespace pac::core {
namespace {

using model::Technique;

data::SyntheticGlueDataset small_dataset() {
  data::DatasetConfig cfg;
  cfg.task = data::GlueTask::kSst2;
  cfg.train_samples = 24;
  cfg.eval_samples = 12;
  cfg.seq_len = 8;
  cfg.vocab = 32;
  return data::SyntheticGlueDataset(cfg);
}

// Fixed per-block profiles so planning never consults the wall clock: the
// same cluster shape always yields the same plan, which makes whole
// training trajectories comparable across runs.
std::vector<planner::BlockProfile> fixed_profiles(std::int64_t num_blocks) {
  std::vector<planner::BlockProfile> blocks;
  for (std::int64_t i = 0; i < num_blocks; ++i) {
    planner::BlockProfile b;
    b.name = "block" + std::to_string(i);
    b.t_fwd = 1e-4;
    b.t_bwd = 2e-4;
    b.param_bytes = 64 * 1024;
    b.trainable_bytes = 4 * 1024;
    b.activation_bytes = 8 * 1024;
    b.fwd_msg_bytes = 4 * 1024;
    b.bwd_msg_bytes = 512;
    blocks.push_back(b);
  }
  return blocks;
}

SessionConfig chaos_session_config() {
  SessionConfig cfg;
  cfg.model = model::tiny(4, 16, 2, 32, 8);
  cfg.technique.technique = Technique::kParallelAdapters;
  cfg.technique.pa_reduction = 4;
  cfg.batch_size = 8;
  cfg.num_micro_batches = 4;
  cfg.epochs = 3;
  cfg.lr = 5e-3F;
  // 4 encoder layers + embedding + head.
  cfg.profile_override = fixed_profiles(4 + 2);
  return cfg;
}

SessionReport run_with_faults(
    const dist::FaultPlan& faults, const dist::CommPolicy& policy = {},
    const std::vector<int>& pre_dead = {},
    const std::function<void(SessionConfig&)>& tweak = {}) {
  auto ds = small_dataset();
  dist::EdgeCluster cluster(4, std::numeric_limits<std::uint64_t>::max());
  for (int r : pre_dead) cluster.mark_dead(r);
  cluster.set_fault_plan(faults);
  cluster.set_comm_policy(policy);
  SessionConfig cfg = chaos_session_config();
  if (tweak) tweak(cfg);
  Session session(cluster, ds, cfg);
  return session.run();
}

void expect_same_trajectory(const SessionReport& a, const SessionReport& b,
                            double tol) {
  ASSERT_EQ(a.epoch_losses.size(), b.epoch_losses.size());
  for (std::size_t i = 0; i < a.epoch_losses.size(); ++i) {
    EXPECT_NEAR(a.epoch_losses[i], b.epoch_losses[i], tol)
        << "epoch " << i;
  }
  EXPECT_NEAR(a.eval_metric, b.eval_metric, tol);
}

// ---- schedule 1: message delay storm (+ legal reordering) ----

TEST(ChaosTest, DelayStormMatchesFaultFreeRun) {
  SessionReport clean = run_with_faults(dist::FaultPlan{});

  dist::FaultPlan storm;
  storm.seed = 0xD31A9;
  storm.delay_probability = 0.25;
  storm.delay_min_ms = 0.1;
  storm.delay_max_ms = 1.0;
  storm.reorder_probability = 0.25;
  SessionReport stormy = run_with_faults(storm);

  // Delays and cross-key reordering change timing only, never values.
  expect_same_trajectory(stormy, clean, 1e-6);
  EXPECT_EQ(stormy.rank_deaths, 0);
}

TEST(ChaosTest, DelayStormIsDeterministic) {
  dist::FaultPlan storm;
  storm.seed = 0xD31A9;
  storm.delay_probability = 0.25;
  storm.delay_min_ms = 0.1;
  storm.delay_max_ms = 1.0;
  storm.reorder_probability = 0.25;
  SessionReport first = run_with_faults(storm);
  SessionReport second = run_with_faults(storm);
  expect_same_trajectory(first, second, 0.0);  // bit-for-bit
}

// ---- schedule 2: transient send failures ----

TEST(ChaosTest, TransientSendFailuresAreAbsorbedByRetries) {
  SessionReport clean = run_with_faults(dist::FaultPlan{});

  dist::FaultPlan flaky;
  flaky.seed = 0xF1A4;
  flaky.send_failure_probability = 0.2;
  flaky.max_transient_failures = 2;
  SessionReport retried = run_with_faults(flaky);

  expect_same_trajectory(retried, clean, 1e-6);
  EXPECT_EQ(retried.rank_deaths, 0);
}

// ---- schedule 3: rank death mid-epoch-1, with recovery ----

TEST(ChaosTest, RankDeathMidEpochRecoversOntoSurvivors) {
  // Reference: a fault-free run that never had device 2 to begin with.
  SessionReport survivors =
      run_with_faults(dist::FaultPlan{}, {}, /*pre_dead=*/{2});

  dist::FaultPlan death;
  death.seed = 0xDEAD;
  // Mid-first-epoch of phase 1: rank 2's ops run 6 per mini-batch (one
  // direct-schedule AllReduce) plus 4 at the epoch end, so op 10 falls in
  // the second mini-batch's gradient sync.
  death.death_after_ops = {{2, 10}};
  SessionReport recovered = run_with_faults(death);

  EXPECT_EQ(recovered.rank_deaths, 1);
  ASSERT_EQ(recovered.dead_ranks.size(), 1U);
  EXPECT_EQ(recovered.dead_ranks[0], 2);
  // Phase 1 restarts from scratch on the survivors, so the recovered
  // trajectory must match the surviving-device plan exactly.
  expect_same_trajectory(recovered, survivors, 1e-6);
}

TEST(ChaosTest, RankDeathInPhase2ResumesFromLastCommittedEpoch) {
  // Kill rank 3 deep into the cached phase: recovery must restore the last
  // committed epoch, re-shard the dead device's cache onto the survivors,
  // and resume — not replay — the cached phase.  Op counts restart with
  // each run's transport, and every run before phase 2 stays under 110 ops
  // per rank here (phase 1 22, redistribution 106).  Each cached epoch
  // takes 20, so in this 8-epoch run op 124 falls in the first step of the
  // last cached epoch.
  auto ds = small_dataset();
  dist::EdgeCluster cluster(4, std::numeric_limits<std::uint64_t>::max());
  dist::FaultPlan death;
  death.seed = 0xDEAD2;
  death.death_after_ops = {{3, 124}};
  cluster.set_fault_plan(death);
  SessionConfig cfg = chaos_session_config();
  cfg.epochs = 8;
  SessionReport recovered = Session(cluster, ds, cfg).run();

  EXPECT_EQ(recovered.rank_deaths, 1);
  ASSERT_EQ(recovered.dead_ranks.size(), 1U);
  EXPECT_EQ(recovered.dead_ranks[0], 3);
  // Every epoch is accounted for despite the mid-phase death (losses of
  // pre-death epochs come from the recovery log), and the run converges.
  ASSERT_EQ(recovered.epoch_losses.size(), 8U);
  EXPECT_EQ(recovered.phase2.epoch_losses.size(), 7U);
  for (double l : recovered.epoch_losses) {
    EXPECT_GT(l, 0.0);
    EXPECT_TRUE(std::isfinite(l));
  }
  EXPECT_LT(recovered.epoch_losses.back(), recovered.epoch_losses.front());
  EXPECT_GE(recovered.eval_metric, 0.0);
  EXPECT_LE(recovered.eval_metric, 1.0);
}

TEST(ChaosTest, Phase2DeathSalvagesCompressedDiskShardAndConverges) {
  // Same phase-2 kill schedule, but with an int8 disk-backed cache: the
  // dead device's blocks live in compressed spill files, so salvage and
  // re-sharding move quantized bytes (get_block_q reloads the compressed
  // shard from flash, redistribution ships it verbatim).  Recovery must
  // converge exactly like the fp32 variant above.
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "pac_chaos_quant_cache").string();
  fs::remove_all(dir);
  auto ds = small_dataset();
  dist::EdgeCluster cluster(4, std::numeric_limits<std::uint64_t>::max());
  dist::FaultPlan death;
  death.seed = 0xDEAD2;
  death.death_after_ops = {{3, 124}};
  cluster.set_fault_plan(death);
  SessionConfig cfg = chaos_session_config();
  cfg.epochs = 8;
  cfg.cache_disk_backed = true;
  cfg.cache_directory = dir;
  cfg.cache_dtype = quant::Dtype::kI8;
  SessionReport recovered = Session(cluster, ds, cfg).run();

  EXPECT_EQ(recovered.rank_deaths, 1);
  ASSERT_EQ(recovered.dead_ranks.size(), 1U);
  EXPECT_EQ(recovered.dead_ranks[0], 3);
  ASSERT_EQ(recovered.epoch_losses.size(), 8U);
  EXPECT_EQ(recovered.phase2.epoch_losses.size(), 7U);
  for (double l : recovered.epoch_losses) {
    EXPECT_GT(l, 0.0);
    EXPECT_TRUE(std::isfinite(l));
  }
  EXPECT_LT(recovered.epoch_losses.back(), recovered.epoch_losses.front());
  EXPECT_GE(recovered.eval_metric, 0.0);
  EXPECT_LE(recovered.eval_metric, 1.0);
  fs::remove_all(dir);
}

TEST(ChaosTest, DeathBeyondRecoveryBudgetRethrows) {
  auto ds = small_dataset();
  dist::EdgeCluster cluster(4, std::numeric_limits<std::uint64_t>::max());
  dist::FaultPlan death;
  death.death_after_ops = {{1, 20}};
  cluster.set_fault_plan(death);
  SessionConfig cfg = chaos_session_config();
  cfg.max_rank_recoveries = 0;
  Session session(cluster, ds, cfg);
  EXPECT_THROW(session.run(), RankDeathError);
}

// ---- schedule 4: the async engine under seeded fault schedules ----
//
// The async machinery (isend queues, pre-posted irecvs) reorders *timing*
// only: the same grad buffers are reduced in the same ring order with the
// same tags whatever the links do, so a faulted run must agree with the
// fault-free run of the same engine bit for bit under every fault class
// short of death.

TEST(ChaosTest, AsyncDelayStormMatchesFaultFreeBitForBit) {
  SessionReport clean = run_with_faults(dist::FaultPlan{});

  dist::FaultPlan storm;
  storm.seed = 0xA51D3;
  storm.delay_probability = 0.25;
  storm.delay_min_ms = 0.1;
  storm.delay_max_ms = 1.0;
  storm.reorder_probability = 0.25;
  SessionReport stormy = run_with_faults(storm);

  expect_same_trajectory(stormy, clean, 0.0);
  EXPECT_EQ(stormy.rank_deaths, 0);
}

TEST(ChaosTest, AsyncTransientSendFailuresMatchFaultFreeBitForBit) {
  // The retries run on the background sender thread; absorbing them there
  // must not change a single bit of the trajectory.
  SessionReport clean = run_with_faults(dist::FaultPlan{});

  dist::FaultPlan flaky;
  flaky.seed = 0xA51F4;
  flaky.send_failure_probability = 0.2;
  flaky.max_transient_failures = 2;
  SessionReport retried = run_with_faults(flaky);

  expect_same_trajectory(retried, clean, 0.0);
  EXPECT_EQ(retried.rank_deaths, 0);
}

TEST(ChaosTest, AsyncRankDeathMidOverlapRecovers) {
  // Kill a device partway through a gradient AllReduce (its grads reached
  // rank 0 but not ranks 1 and 3): recovery must abandon the step (drop
  // queued sends, close the dead links) and restart on the survivors,
  // matching the surviving-device plan.
  SessionReport survivors =
      run_with_faults(dist::FaultPlan{}, {}, /*pre_dead=*/{2});

  dist::FaultPlan death;
  death.seed = 0xA5DEAD;
  // Mid-first-epoch of phase 1: rank 2's ops run 6 per mini-batch (one
  // direct-schedule AllReduce), so op 8 is its send to rank 1 in the
  // second mini-batch's gradient sync.
  death.death_after_ops = {{2, 8}};
  SessionReport recovered = run_with_faults(death);

  EXPECT_EQ(recovered.rank_deaths, 1);
  ASSERT_EQ(recovered.dead_ranks.size(), 1U);
  EXPECT_EQ(recovered.dead_ranks[0], 2);
  expect_same_trajectory(recovered, survivors, 1e-6);
}

// ---- schedule 4b: death while a backbone run-ahead stash is held ----
//
// The first stage of a multi-stage plan runs the next mini-batch's first
// backbone half while it waits for its last gradient, and holds that stash
// (charged to its ledger) across the optimizer step.

pipeline::ModelFactory chaos_model_factory() {
  return [] {
    const SessionConfig cfg = chaos_session_config();
    return std::make_unique<model::Model>(
        cfg.model, cfg.technique,
        model::TaskSpec{model::TaskKind::kClassification, 2}, 4242);
  };
}

pipeline::RunConfig two_by_two_run() {
  pipeline::RunConfig cfg;
  cfg.plan.stages = {pipeline::StageAssignment{0, 3, {0, 1}, {}},
                     pipeline::StageAssignment{3, 6, {2, 3}, {}}};
  cfg.plan.num_micro_batches = 4;
  cfg.batch_size = 8;
  cfg.epochs = 2;
  cfg.lr = 5e-3F;
  return cfg;
}

int fwd_micro_spans_of(obs::TraceSession& trace, int rank) {
  int n = 0;
  for (const obs::SpanRecord& s : trace.spans()) {
    if (s.rank == rank && std::string(s.name) == "fwd_micro") ++n;
  }
  return n;
}

TEST(ChaosTest, DeathWhileRunAheadStashIsHeldLeaksNoLedgerCharge) {
  auto ds = small_dataset();
  dist::FaultPlan death;
  death.seed = 0x57A5;
  // Rank 0 forwards micros 0 and 2 (two sends each), then receives each
  // one's adapter gradient: op 6 is the second receive, the wait its
  // run-ahead fills, so the stash is held when the rank dies.
  death.death_after_ops = {{0, 6}};
  obs::TraceSession trace;
  dist::EdgeCluster cluster(4, std::numeric_limits<std::uint64_t>::max());
  cluster.set_fault_plan(death);
  EXPECT_THROW(pipeline::run_training(cluster, ds, chaos_model_factory(),
                                      two_by_two_run()),
               RankDeathError);

  EXPECT_EQ(fwd_micro_spans_of(trace, 0), 3);  // micros 0, 2 + run-ahead
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(cluster.ledger(r).current_total(), 0U) << "rank " << r;
  }
}

TEST(ChaosTest, DeathWhileRunAheadStashIsHeldRecoversOntoSurvivors) {
  // 64 KB profiled blocks against a 256 KB budget force a pipeline whose
  // first stage, device 0, owns all 4 micros of a mini-batch:
  //   S0[blocks 0..0; devs 0] | S1[blocks 1..2; devs 1] | S2[..; devs 2 3]
  auto run = [](const dist::FaultPlan& faults, const std::vector<int>& dead) {
    auto ds = small_dataset();
    dist::EdgeCluster cluster(4, 256 * 1024);
    for (int r : dead) cluster.mark_dead(r);
    cluster.set_fault_plan(faults);
    Session session(cluster, ds, chaos_session_config());
    return session.run();
  };
  const SessionReport survivors = run(dist::FaultPlan{}, /*dead=*/{0});
  EXPECT_GT(survivors.plan.plan.num_stages(), 1);

  dist::FaultPlan death;
  death.seed = 0x57A6;
  // Device 0's 1F1B ops: F0 F1 F2 B0 F3 B1 B2 B3, two sends per forward
  // and one receive per backward.  Op 12 is B3's receive: the run-ahead
  // stash was taken just before it.
  death.death_after_ops = {{0, 12}};
  obs::TraceSession trace;
  const SessionReport recovered = run(death, {});
  EXPECT_EQ(fwd_micro_spans_of(trace, 0), 5);  // 4 micros + run-ahead

  EXPECT_EQ(recovered.rank_deaths, 1);
  ASSERT_EQ(recovered.dead_ranks.size(), 1U);
  EXPECT_EQ(recovered.dead_ranks[0], 0);
  expect_same_trajectory(recovered, survivors, 1e-6);
}

// ---- schedule 4c: one run split over two clusters, wired over TCP ----

// Two EdgeClusters in one process stand in for two machines: one hosts
// ranks {0, 1} (stage 0), the other {2, 3} (stage 1), in one TCP mesh
// wired through the rendezvous service.  Each side exports the full
// trainable set through the stage leaders' broadcast, and both must equal
// the single-cluster in-process run bit for bit ("Tcp" in the name keeps
// it off the TSan pass).
TEST(ChaosTest, SplitClustersOverTcpRendezvousMatchInProcOracle) {
  auto ds = small_dataset();
  const pipeline::RunConfig cfg = two_by_two_run();
  dist::EdgeCluster oracle_cluster(4,
                                   std::numeric_limits<std::uint64_t>::max());
  const pipeline::RunResult oracle =
      pipeline::run_training(oracle_cluster, ds, chaos_model_factory(), cfg);

  dist::RendezvousServer server;
  server.start();
  dist::TcpRendezvousOptions opts;
  opts.server_port = server.port();
  opts.run_id = "split_clusters";
  auto run_side = [&](std::vector<int> local, pipeline::RunResult& out) {
    try {
      dist::EdgeCluster cluster(4, std::numeric_limits<std::uint64_t>::max());
      cluster.set_local_ranks(std::move(local));
      cluster.set_transport_factory(dist::make_tcp_rendezvous_factory(opts));
      // A side that fails must not leave the other blocked forever.
      dist::CommPolicy policy;
      policy.recv_timeout_ms = 2000.0;
      cluster.set_comm_policy(policy);
      out = pipeline::run_training(cluster, ds, chaos_model_factory(), cfg);
    } catch (const std::exception& e) {
      ADD_FAILURE() << e.what();
    }
  };
  pipeline::RunResult first;
  pipeline::RunResult second;
  std::thread other([&] { run_side({2, 3}, second); });
  run_side({0, 1}, first);
  other.join();
  server.stop();

  EXPECT_EQ(first.eval_metric, oracle.eval_metric);  // leader rank 0
  for (const pipeline::RunResult* side : {&first, &second}) {
    EXPECT_EQ(side->epoch_losses, oracle.epoch_losses);
    ASSERT_EQ(side->trainable_values.size(), oracle.trainable_values.size());
    for (const auto& [name, value] : oracle.trainable_values) {
      auto it = side->trainable_values.find(name);
      ASSERT_NE(it, side->trainable_values.end()) << name;
      EXPECT_EQ(ops::max_abs_diff(value, it->second), 0.0F) << name;
    }
  }
}

// A plan that leaves ranks {2, 3} idle, run as two processes' worth of
// clusters, one hosting only the idle ranks: the phase-1 hand-off must
// reach that side too, with the same losses and trainables as the
// in-process oracle, or its Session would start phase 2 from the initial
// adapters ("Tcp" in the name keeps it off the TSan pass).
TEST(ChaosTest, SplitClustersOverTcpHandResultsToTheIdleSide) {
  auto ds = small_dataset();
  pipeline::RunConfig cfg = two_by_two_run();
  cfg.plan.stages = {pipeline::StageAssignment{0, 6, {0, 1}, {}}};
  dist::EdgeCluster oracle_cluster(4,
                                   std::numeric_limits<std::uint64_t>::max());
  const pipeline::RunResult oracle =
      pipeline::run_training(oracle_cluster, ds, chaos_model_factory(), cfg);
  ASSERT_FALSE(oracle.trainable_values.empty());

  dist::RendezvousServer server;
  server.start();
  dist::TcpRendezvousOptions opts;
  opts.server_port = server.port();
  opts.run_id = "split_idle_side";
  auto run_side = [&](std::vector<int> local, pipeline::RunResult& out) {
    try {
      dist::EdgeCluster cluster(4, std::numeric_limits<std::uint64_t>::max());
      cluster.set_local_ranks(std::move(local));
      cluster.set_transport_factory(dist::make_tcp_rendezvous_factory(opts));
      dist::CommPolicy policy;
      policy.recv_timeout_ms = 2000.0;
      cluster.set_comm_policy(policy);
      out = pipeline::run_training(cluster, ds, chaos_model_factory(), cfg);
    } catch (const std::exception& e) {
      ADD_FAILURE() << e.what();
    }
  };
  pipeline::RunResult busy;
  pipeline::RunResult idle;
  std::thread other([&] { run_side({2, 3}, idle); });
  run_side({0, 1}, busy);
  other.join();
  server.stop();

  for (const pipeline::RunResult* side : {&busy, &idle}) {
    EXPECT_EQ(side->epoch_losses, oracle.epoch_losses);
    ASSERT_EQ(side->trainable_values.size(), oracle.trainable_values.size());
    for (const auto& [name, value] : oracle.trainable_values) {
      auto it = side->trainable_values.find(name);
      ASSERT_NE(it, side->trainable_values.end()) << name;
      EXPECT_EQ(ops::max_abs_diff(value, it->second), 0.0F) << name;
    }
  }
}

// A phase-2 death inside the epoch-end loss reduce, run as two processes'
// worth of clusters ({0, 1} and {2, 3}).  The one-float loss goes through
// the naive schedule: rank 0 gathers every share, then sends the sum to
// ranks 1, 2 and 3 in turn.  Rank 0 dies before the send to rank 3, so
// rank 2, which records the {2, 3} side's log, commits the epoch while
// the {0, 1} side, whose recording rank died, does not.  Both sides must
// resume from the epoch the {0, 1} side last committed, as the in-process
// run with the same death does ("Tcp" in the name keeps it off the TSan
// pass).
TEST(ChaosTest, SplitClustersOverTcpResumePhase2FromTheSameEpoch) {
  auto ds = small_dataset();
  SessionConfig cfg = chaos_session_config();
  cfg.epochs = 13;
  // Rank 0's op counts restart with each run's transport.  Phase 1 takes
  // 24 in one process and 270 split (it hands the trainables to the other
  // side), redistribution 106, and each cached epoch 24, ending with the
  // loss reduce: three receives, then the sends to ranks 1, 2 and 3.  Op
  // 288 is the send to rank 3 in cached epoch 11, past every earlier run.
  dist::FaultPlan death;
  death.death_after_ops = {{0, 288}};
  dist::EdgeCluster oracle_cluster(4,
                                   std::numeric_limits<std::uint64_t>::max());
  oracle_cluster.set_fault_plan(death);
  const SessionReport oracle = Session(oracle_cluster, ds, cfg).run();
  ASSERT_EQ(oracle.dead_ranks, (std::vector<int>{0}));

  dist::RendezvousServer server;
  server.start();
  dist::TcpRendezvousOptions opts;
  opts.server_port = server.port();
  opts.run_id = "split_resume_epoch";
  auto run_side = [&](std::vector<int> local, SessionReport& out) {
    try {
      dist::EdgeCluster cluster(4, std::numeric_limits<std::uint64_t>::max());
      cluster.set_local_ranks(std::move(local));
      cluster.set_transport_factory(dist::make_tcp_rendezvous_factory(opts));
      cluster.set_fault_plan(death);
      dist::CommPolicy policy;  // a side that fails must not hang the other
      policy.recv_timeout_ms = 500.0;
      policy.max_recv_retries = 2;
      cluster.set_comm_policy(policy);
      out = Session(cluster, ds, cfg).run();
    } catch (const std::exception& e) {
      ADD_FAILURE() << e.what();
    }
  };
  SessionReport first;
  SessionReport second;
  std::thread other([&] { run_side({2, 3}, second); });
  run_side({0, 1}, first);
  other.join();
  server.stop();

  for (const SessionReport* side : {&first, &second}) {
    EXPECT_EQ(side->dead_ranks, (std::vector<int>{0}));
    EXPECT_EQ(side->epoch_losses, oracle.epoch_losses);
  }
  EXPECT_EQ(first.eval_metric, oracle.eval_metric);  // leader rank 1
}

// ---- schedule 5: compute stragglers (elastic runtime) ----
//
// A seeded throttle dilates one rank's compute mid-run.  With the elastic
// runtime enabled the HealthMonitor must flag the rank at a mini-batch
// boundary and the session must re-plan: phase 1 restarts under a plan
// priced with the observed speeds, phase 2 re-shards the cache
// throughput-weighted (or evicts the rank when it is slower than
// evict_ratio).  Verdict timing depends on measured EWMAs, so these
// scenarios assert convergence against an un-throttled reference rather
// than bit-identity; the uniform-cluster test below asserts the
// bit-identity half of the contract (observation-only until a verdict).

// ThreadSanitizer dilates thread timing nondeterministically (10-20x and
// bursty), which manufactures compute stragglers on perfectly healthy
// ranks — EWMA-threshold schedules are meaningless under it, so they are
// skipped in the TSan pass.  HealthMonitor's thread-safety is still
// TSan-covered by elastic_test's concurrent-recording unit, and the
// op-count-driven fault schedules above run under TSan unchanged.
#if defined(__SANITIZE_THREAD__)
constexpr bool kTimingDilated = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTimingDilated = true;
#else
constexpr bool kTimingDilated = false;
#endif
#else
constexpr bool kTimingDilated = false;
#endif

data::SyntheticGlueDataset straggler_dataset() {
  data::DatasetConfig cfg;
  cfg.task = data::GlueTask::kSst2;
  cfg.train_samples = 48;  // 6 mini-batches per epoch: room for the
  cfg.eval_samples = 12;   // monitor's warmup + window inside phase 1
  cfg.seq_len = 8;
  cfg.vocab = 32;
  return data::SyntheticGlueDataset(cfg);
}

// Detection knobs sized for these short runs: one warmup mini-batch, two
// consecutive below-threshold samples at 0.4x the group median.  An 8x
// throttle pushes the EWMA ratio through 0.56, 0.34, 0.23 (alpha 0.5), so
// a verdict lands on the third throttled mini-batch.
void make_elastic(SessionConfig& cfg) {
  cfg.elastic.enabled = true;
  cfg.elastic.straggler_ratio = 0.4;
  cfg.elastic.straggler_window = 2;
  cfg.elastic.warmup_minibatches = 1;
}

SessionReport run_straggler_phase1(const dist::FaultPlan& faults) {
  auto ds = straggler_dataset();
  dist::EdgeCluster cluster(4, std::numeric_limits<std::uint64_t>::max());
  cluster.set_fault_plan(faults);
  SessionConfig cfg = chaos_session_config();
  make_elastic(cfg);
  Session session(cluster, ds, cfg);
  return session.run();
}

dist::FaultPlan phase1_throttle() {
  dist::FaultPlan slow;
  slow.seed = 0x510A4;
  // Mid-first-epoch of phase 1: op 10 falls in the second of six
  // mini-batches, leaving room for the three-sample verdict.
  slow.throttle_after_ops = {{2, 10}};
  slow.throttle_factor = 8.0;
  return slow;
}

void expect_converged_like(const SessionReport& run,
                           const SessionReport& clean) {
  ASSERT_EQ(run.epoch_losses.size(), clean.epoch_losses.size());
  for (double l : run.epoch_losses) {
    EXPECT_GT(l, 0.0);
    EXPECT_TRUE(std::isfinite(l));
  }
  EXPECT_LT(run.epoch_losses.back(), run.epoch_losses.front());
  // Gradients are exact full-batch means under every plan, so the
  // re-planned run lands where the un-throttled one does (FP summation
  // order is the only difference); eval on 12 samples quantizes coarsely.
  EXPECT_NEAR(run.epoch_losses.back(), clean.epoch_losses.back(), 0.05);
  EXPECT_NEAR(run.eval_metric, clean.eval_metric, 0.25);
}

TEST(ChaosTest, StragglerMidPhase1TriggersReplanAndConverges) {
  if (kTimingDilated) GTEST_SKIP() << "EWMA thresholds need real timing";
  SessionReport clean = run_straggler_phase1(dist::FaultPlan{});
  EXPECT_EQ(clean.replans, 0);
  EXPECT_TRUE(clean.straggler_ranks.empty());

  SessionReport replanned = run_straggler_phase1(phase1_throttle());

  EXPECT_EQ(replanned.replans, 1);
  ASSERT_EQ(replanned.straggler_ranks.size(), 1U);
  EXPECT_EQ(replanned.straggler_ranks[0], 2);
  EXPECT_TRUE(replanned.evicted_ranks.empty());
  EXPECT_EQ(replanned.rank_deaths, 0);
  expect_converged_like(replanned, clean);
}

// Phase-2 placement: op counts restart with each run's transport, and a
// throttle only dilates compute, so one armed during phase 1 (22 ops per
// rank here) would fire there, while one armed during redistribution has
// no compute to slow.  Each cached epoch takes 20 ops, so a trigger at 84
// lands in the first step of the fifth cached epoch.
SessionReport run_phase2_straggler(
    double factor, const std::function<void(SessionConfig&)>& tweak = {}) {
  auto ds = small_dataset();
  dist::EdgeCluster cluster(4, std::numeric_limits<std::uint64_t>::max());
  dist::FaultPlan slow;
  slow.seed = 0x510A5;
  slow.throttle_after_ops = {{3, 84}};
  slow.throttle_factor = factor;
  cluster.set_fault_plan(slow);
  SessionConfig cfg = chaos_session_config();
  cfg.epochs = 8;
  make_elastic(cfg);
  if (tweak) tweak(cfg);
  Session session(cluster, ds, cfg);
  return session.run();
}

TEST(ChaosTest, StragglerMidPhase2ReshardsWeighted) {
  if (kTimingDilated) GTEST_SKIP() << "EWMA thresholds need real timing";
  // An 8x throttle is observed at scale ~0.23 — above the default
  // evict_ratio, so the straggler stays in the group with a smaller shard.
  SessionReport r = run_phase2_straggler(8.0);

  EXPECT_EQ(r.replans, 1);
  ASSERT_EQ(r.straggler_ranks.size(), 1U);
  EXPECT_EQ(r.straggler_ranks[0], 3);
  EXPECT_TRUE(r.evicted_ranks.empty());
  EXPECT_EQ(r.rank_deaths, 0);
  // Every epoch is accounted for across the re-shard (pre-verdict epochs
  // come from the recovery log), and the run still converges.
  ASSERT_EQ(r.epoch_losses.size(), 8U);
  EXPECT_EQ(r.phase2.epoch_losses.size(), 7U);
  for (double l : r.epoch_losses) {
    EXPECT_GT(l, 0.0);
    EXPECT_TRUE(std::isfinite(l));
  }
  EXPECT_LT(r.epoch_losses.back(), r.epoch_losses.front());
  EXPECT_GE(r.eval_metric, 0.0);
  EXPECT_LE(r.eval_metric, 1.0);
}

TEST(ChaosTest, StragglerEvictedBelowEvictRatio) {
  if (kTimingDilated) GTEST_SKIP() << "EWMA thresholds need real timing";
  // A 16x throttle converges toward scale 1/16; with a window of three the
  // verdict-time EWMA sits near 0.12, under the 0.2 eviction threshold, so
  // the rank is dropped from phase 2 instead of down-weighted.
  SessionReport r = run_phase2_straggler(16.0, [](SessionConfig& cfg) {
    cfg.elastic.evict_ratio = 0.2;
    cfg.elastic.straggler_window = 3;
  });

  EXPECT_EQ(r.replans, 1);
  ASSERT_EQ(r.straggler_ranks.size(), 1U);
  EXPECT_EQ(r.straggler_ranks[0], 3);
  ASSERT_EQ(r.evicted_ranks.size(), 1U);
  EXPECT_EQ(r.evicted_ranks[0], 3);
  ASSERT_EQ(r.epoch_losses.size(), 8U);
  for (double l : r.epoch_losses) {
    EXPECT_GT(l, 0.0);
    EXPECT_TRUE(std::isfinite(l));
  }
  EXPECT_LT(r.epoch_losses.back(), r.epoch_losses.front());
}

TEST(ChaosTest, UniformClusterElasticStaysBitIdenticalWithZeroReplans) {
  if (kTimingDilated) GTEST_SKIP() << "EWMA thresholds need real timing";
  // The no-false-positive guarantee: on a healthy cluster the monitor
  // observes and never intervenes, so elastic on/off trajectories agree
  // bit for bit.  The strict ratio leaves a 6.7x margin against CI timing
  // noise.
  SessionReport off = run_with_faults(dist::FaultPlan{});
  SessionReport on =
      run_with_faults(dist::FaultPlan{}, {}, {}, [](SessionConfig& cfg) {
        cfg.elastic.enabled = true;
        cfg.elastic.straggler_ratio = 0.15;
        cfg.elastic.straggler_window = 3;
      });

  EXPECT_EQ(on.replans, 0);
  EXPECT_TRUE(on.straggler_ranks.empty());
  expect_same_trajectory(on, off, 0.0);  // bit-for-bit
}

TEST(ChaosTest, ElasticDisabledPaysLongerThrottledCriticalPath) {
  if (kTimingDilated) GTEST_SKIP() << "EWMA thresholds need real timing";
  // The injected throttle exports its sleep through the obs counter
  // "elastic.throttle_sleep_us" — a wall-clock-free measure of how much
  // compute the straggler dilated.  Riding out the throttle pays it on
  // every remaining step's full shard; the elastic run pays it only until
  // the verdict plus a sliver on the re-weighted shard afterwards.
  auto run_throttled = [](bool elastic_on) {
    auto ds = small_dataset();
    dist::EdgeCluster cluster(4, std::numeric_limits<std::uint64_t>::max());
    dist::FaultPlan slow;
    slow.seed = 0x510A6;
    slow.throttle_after_ops = {{3, 84}};
    slow.throttle_factor = 8.0;
    cluster.set_fault_plan(slow);
    SessionConfig cfg = chaos_session_config();
    cfg.epochs = 12;  // the longer the tail, the longer the rigid run pays
    cfg.obs_enabled = true;
    if (elastic_on) make_elastic(cfg);
    Session session(cluster, ds, cfg);
    SessionReport r = session.run();
    return std::make_pair(
        r, obs::CounterRegistry::instance().value("elastic.throttle_sleep_us"));
  };
  // Scheduler stalls during a throttled interval inflate the measured
  // compute (and therefore the injected sleep) but never deflate it, so
  // the min over two runs strips the noise tail.
  auto min_sleep = [&](bool elastic_on) {
    auto [report, first_us] = run_throttled(elastic_on);
    auto [repeat, second_us] = run_throttled(elastic_on);
    EXPECT_EQ(report.replans, elastic_on ? 1 : 0);
    EXPECT_EQ(repeat.replans, report.replans);
    return std::min(first_us, second_us);
  };

  const std::int64_t elastic_sleep_us = min_sleep(true);
  const std::int64_t rigid_sleep_us = min_sleep(false);

  EXPECT_GT(elastic_sleep_us, 0);
  EXPECT_GT(rigid_sleep_us, 2 * elastic_sleep_us);
}

// ---- schedule 6: multi-tenant fault isolation ----
//
// Three fine-tuning jobs share one fleet through the service dispatcher;
// one rank of one job is killed mid-run.  Only the owning job pays the
// recovery, and the co-tenants' trajectories must match their solo runs
// bit for bit — co-tenancy on disjoint device groups leaks nothing, not
// even a rounding difference.

TEST(ChaosTest, MultiTenantRankDeathIsolatedToOwningJob) {
  const auto ds = small_dataset();

  // Per-tenant seeds so the three jobs train genuinely different models
  // on different shuffles — identical trajectories could mask cross-talk.
  auto tenant_config = [](std::uint64_t tenant) {
    SessionConfig cfg = chaos_session_config();
    cfg.model_seed = 42 + tenant;
    cfg.shuffle_seed = 77 + tenant;
    return cfg;
  };
  dist::FaultPlan death;
  death.seed = 0xDEAD;
  death.death_after_ops = {{2, 20}};  // rank 2 *of the owning job's group*

  // Solo references, each on its own private cluster of the same size the
  // dispatcher will carve.
  auto solo = [&](int devices, std::uint64_t tenant,
                  const dist::FaultPlan& faults) {
    dist::EdgeCluster cluster(devices,
                              std::numeric_limits<std::uint64_t>::max());
    if (faults.any_faults()) cluster.set_fault_plan(faults);
    Session session(cluster, ds, tenant_config(tenant));
    return session.run();
  };
  const SessionReport solo0 = solo(4, 0, death);
  const SessionReport solo1 = solo(2, 1, dist::FaultPlan{});
  const SessionReport solo2 = solo(2, 2, dist::FaultPlan{});

  // The shared run: 4+2+2 devices carved from one 8-device fleet, all
  // three jobs training concurrently, job 0 suffering the death.
  service::Fleet fleet(8, std::numeric_limits<std::uint64_t>::max());
  service::DispatcherConfig cfg;
  cfg.num_workers = 3;
  service::JobDispatcher dispatcher(fleet, cfg);

  auto submit = [&](std::uint64_t tenant, int devices,
                    const dist::FaultPlan& faults) {
    service::JobSpec spec;
    spec.name = "tenant-" + std::to_string(tenant);
    spec.request.min_devices = devices;
    spec.request.max_devices = devices;
    spec.dataset = &ds;
    spec.session = tenant_config(tenant);
    spec.faults = faults;
    return dispatcher.submit(spec);
  };
  const service::JobId j0 = submit(0, 4, death);
  const service::JobId j1 = submit(1, 2, dist::FaultPlan{});
  const service::JobId j2 = submit(2, 2, dist::FaultPlan{});
  dispatcher.wait_idle();

  const service::JobInfo i0 = dispatcher.info(j0);
  const service::JobInfo i1 = dispatcher.info(j1);
  const service::JobInfo i2 = dispatcher.info(j2);
  ASSERT_EQ(i0.state, service::JobState::kCompleted);
  ASSERT_EQ(i1.state, service::JobState::kCompleted);
  ASSERT_EQ(i2.state, service::JobState::kCompleted);

  // Only the owning job paid the recovery...
  ASSERT_TRUE(i0.outcome.report.has_value());
  EXPECT_EQ(i0.outcome.report->rank_deaths, 1);
  ASSERT_EQ(i0.outcome.report->dead_ranks.size(), 1U);
  EXPECT_EQ(i0.outcome.report->dead_ranks[0], 2);
  EXPECT_EQ(i1.outcome.report->rank_deaths, 0);
  EXPECT_EQ(i2.outcome.report->rank_deaths, 0);
  // ...and it matches its solo run through the same schedule, while the
  // co-tenants match their fault-free solo runs to the last bit.
  expect_same_trajectory(*i0.outcome.report, solo0, 0.0);
  expect_same_trajectory(*i1.outcome.report, solo1, 0.0);
  expect_same_trajectory(*i2.outcome.report, solo2, 0.0);

  // The dead device (group-local rank 2 of job 0's carve) is quarantined
  // in the fleet; the other seven devices stay in rotation.
  EXPECT_EQ(fleet.num_quarantined(), 1);
  ASSERT_EQ(i0.devices.size(), 4U);
  EXPECT_TRUE(fleet.snapshot()[static_cast<std::size_t>(i0.devices[2])]
                  .quarantined);
  EXPECT_EQ(dispatcher.stats().devices_quarantined, 1);
}

// ---- rank-scoped failure semantics (no collateral ChannelClosedError) ----

TEST(ChaosTest, RankDeathDoesNotCloseUnrelatedLinks) {
  dist::InProcTransport t(4);
  t.send(0, 1, /*tag=*/7, Tensor::full({1}, 1.0F));
  t.send(2, 1, /*tag=*/7, Tensor::full({1}, 2.0F));  // queued before death

  // A receiver blocked on the dying rank must wake with PeerDeadError —
  // not ChannelClosedError — once the rank is closed.
  std::thread blocked([&] {
    EXPECT_THROW(t.recv(3, 2, /*tag=*/9), PeerDeadError);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.close_rank(2);
  blocked.join();

  EXPECT_TRUE(t.rank_dead(2));
  EXPECT_FALSE(t.closed());  // the world did not end

  // Unrelated links keep working in both directions.
  EXPECT_FLOAT_EQ(t.recv(1, 0, 7).at({0}), 1.0F);
  t.send(3, 0, 11, Tensor::full({1}, 3.0F));
  EXPECT_FLOAT_EQ(t.recv(0, 3, 11).at({0}), 3.0F);

  // Messages the dead rank delivered before dying drain normally...
  EXPECT_FLOAT_EQ(t.recv(1, 2, 7).at({0}), 2.0F);
  // ...but fresh traffic to or from it reports the death.
  EXPECT_THROW(t.send(0, 2, 7, Tensor::full({1}, 4.0F)), PeerDeadError);
  EXPECT_THROW(t.recv(1, 2, 7), PeerDeadError);
  EXPECT_THROW(t.send(2, 0, 7, Tensor::full({1}, 5.0F)), PeerDeadError);
}

// ---- schedule 7: WAN link — bandwidth shaping + forced TCP reconnects ----

// The full trainer over real loopback TCP with a WAN-shaped fault plan:
// token-bucket bandwidth shaping on every send plus repeated mid-run link
// cuts.  Shaping changes timing only; cuts are healed by reconnect+resync
// with exactly-once redelivery — so the trajectory must match the fault-free
// in-proc oracle bit-for-bit ("Tcp" in the name keeps it off the TSan pass).
TEST(ChaosTest, WanShapedTcpLinkCutsMatchOracleBitForBit) {
  SessionReport clean = run_with_faults(dist::FaultPlan{});

  dist::FaultPlan wan;
  wan.seed = 0x7A57E;
  wan.shape_bandwidth_bps = 16.0 * 1024 * 1024;  // bits/s — ~WAN, test-sized
  wan.shape_burst_bytes = 256;  // below one frame: every send pays the rate
  for (int a = 0; a < 4; ++a) {     // cut every link, repeatedly
    for (int b = 0; b < 4; ++b) {
      if (a != b) wan.tcp_cut_every_frames[{a, b}] = 6;
    }
  }

  auto ds = small_dataset();
  dist::EdgeCluster cluster(4, std::numeric_limits<std::uint64_t>::max());
  cluster.set_transport_factory(dist::make_tcp_loopback_factory());
  cluster.set_fault_plan(wan);
  SessionConfig cfg = chaos_session_config();
  cfg.obs_enabled = true;  // arms the wire.* counters for the run
  Session session(cluster, ds, cfg);
  SessionReport shaped = session.run();

  expect_same_trajectory(shaped, clean, 0.0);  // bit-for-bit
  EXPECT_EQ(shaped.rank_deaths, 0);
  // Session::run resets the counters when obs is enabled, so they hold
  // this run's counts only (a snapshot taken before run() is stale).
  auto& counters = obs::CounterRegistry::instance();
  EXPECT_GE(counters.value("wire.reconnects"), 2);
  EXPECT_GT(counters.value("wire.shape_sleep_us"), 0);
}

TEST(ChaosTest, RecvTimeoutPresumesPeerDead) {
  dist::InProcTransport t(2);
  dist::Communicator comm(t, 0);
  dist::CommPolicy policy;
  policy.recv_timeout_ms = 2.0;
  policy.max_recv_retries = 2;
  comm.set_policy(policy);
  try {
    comm.recv(1, /*tag=*/5);
    FAIL() << "recv should have presumed the peer dead";
  } catch (const PeerDeadError& e) {
    EXPECT_EQ(e.rank(), 1);
  }
}

TEST(ChaosTest, RecvForReturnsNulloptOnTimeoutOnly) {
  dist::InProcTransport t(2);
  EXPECT_EQ(t.recv_for(0, 1, 3, std::chrono::milliseconds(5)),
            std::nullopt);
  t.send(1, 0, 3, Tensor::full({1}, 9.0F));
  auto got = t.recv_for(0, 1, 3, std::chrono::milliseconds(5));
  ASSERT_TRUE(got.has_value());
  EXPECT_FLOAT_EQ(got->at({0}), 9.0F);
}

// ---- fault injector unit behaviour ----

TEST(ChaosTest, FaultDecisionsAreSeedDeterministic) {
  dist::FaultPlan plan;
  plan.seed = 42;
  plan.delay_probability = 0.5;
  plan.delay_min_ms = 1.0;
  plan.delay_max_ms = 5.0;
  plan.reorder_probability = 0.5;
  plan.send_failure_probability = 0.5;

  dist::FaultInjector a(plan, 4);
  dist::FaultInjector b(plan, 4);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.delay_ms(0, 1, 7), b.delay_ms(0, 1, 7)) << i;
    EXPECT_EQ(a.defer(0, 1, 7), b.defer(0, 1, 7)) << i;
    EXPECT_EQ(a.send_fails(0, 1, 7), b.send_fails(0, 1, 7)) << i;
    a.message_delivered(0, 1, 7);
    b.message_delivered(0, 1, 7);
  }
}

TEST(ChaosTest, TransientFailuresAreCapped) {
  dist::FaultPlan plan;
  plan.send_failure_probability = 1.0;  // every attempt wants to fail...
  plan.max_transient_failures = 3;      // ...but only 3 may, per message
  dist::FaultInjector inj(plan, 2);
  int failures = 0;
  while (inj.send_fails(0, 1, 1)) ++failures;
  EXPECT_EQ(failures, 3);
  inj.message_delivered(0, 1, 1);
  failures = 0;
  while (inj.send_fails(0, 1, 1)) ++failures;
  EXPECT_EQ(failures, 3);  // counter reset per logical message
}

}  // namespace
}  // namespace pac::core
