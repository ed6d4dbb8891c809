// Async communication engine tests (PR 3).
//
// Covers the Communicator's nonblocking path — isend ordering, link-delay
// absorption, deferred failure surfacing, PendingRecv futures — plus the
// end-to-end guarantees the trainers build on it: link timing must not
// change a single bit of the loss trajectory or the final parameters, and
// the cache prefetcher must serve exactly the tensors a cold fetch would,
// and the first stage's backbone run-ahead must stay inside its activation
// peak and record exactly what a plan without it records.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "cache/activation_cache.hpp"
#include "data/dataset.hpp"
#include "dist/cluster.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "pipeline/runners.hpp"
#include "tensor/ops.hpp"

namespace pac {
namespace {

using dist::Communicator;
using dist::InProcTransport;

Tensor scalar(float v) { return Tensor::full({1}, v); }

// ---------------------------------------------------------------------------
// isend / flush_sends
// ---------------------------------------------------------------------------

// isend delivers one of two ways: inline on the calling thread when the
// transport's sends cannot wait, or through the rank's sender thread when
// they can.  The ordering and failure tests below run on both.  The
// threaded path's link sleeps 5 ms per message, so isends posted back to
// back queue behind the one in flight.
struct SendPath {
  const char* name;
  dist::LinkModel link;
  bool threaded;
};

std::vector<SendPath> send_paths() {
  dist::LinkModel slept;
  slept.latency_s = 5e-3;
  slept.simulate_delay = true;
  return {{"inline", dist::LinkModel{}, false},
          {"sender thread", slept, true}};
}

TEST(AsyncCommTest, IsendPreservesPerLinkFifo) {
  for (const SendPath& path : send_paths()) {
    SCOPED_TRACE(path.name);
    InProcTransport t(2, path.link);
    ASSERT_EQ(t.send_may_wait(), path.threaded);
    Communicator comm(t, 0);
    constexpr int kMessages = 32;
    for (int i = 0; i < kMessages; ++i) {
      comm.isend(1, /*tag=*/5, scalar(static_cast<float>(i)));
    }
    if (path.threaded) {
      EXPECT_GT(comm.pending_sends(), 0U);
    } else {
      EXPECT_EQ(comm.pending_sends(), 0U);
    }
    comm.flush_sends();
    EXPECT_EQ(comm.pending_sends(), 0U);
    for (int i = 0; i < kMessages; ++i) {
      EXPECT_FLOAT_EQ(t.recv(1, 0, 5).at({0}), static_cast<float>(i));
    }
    EXPECT_EQ(t.stats(0, 1).messages, static_cast<std::uint64_t>(kMessages));
  }
}

TEST(AsyncCommTest, IsendReturnsBeforeTheLinkDelay) {
  // A 20 ms-latency link with realtime simulation: posting must not pay
  // the sleep; flushing must (the sender thread absorbs it).
  dist::LinkModel slow;
  slow.latency_s = 20e-3;
  slow.simulate_delay = true;
  InProcTransport t(2, slow);
  Communicator comm(t, 0);

  constexpr int kMessages = 5;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kMessages; ++i) {
    comm.isend(1, /*tag=*/3, scalar(static_cast<float>(i)));
  }
  const auto posted = std::chrono::steady_clock::now();
  comm.flush_sends();
  const auto flushed = std::chrono::steady_clock::now();

  const double post_s =
      std::chrono::duration<double>(posted - start).count();
  const double total_s =
      std::chrono::duration<double>(flushed - start).count();
  // Posting 5 messages is queue pushes; the sender eats >= 5 x 20 ms of
  // simulated link time before the flush returns.
  EXPECT_LT(post_s, 0.050);
  EXPECT_GE(total_s, 0.080);
  EXPECT_EQ(t.stats(0, 1).messages, static_cast<std::uint64_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_FLOAT_EQ(t.recv(1, 0, 3).at({0}), static_cast<float>(i));
  }
}

TEST(AsyncCommTest, BlockingSendDoesNotOvertakeQueuedIsends) {
  for (const SendPath& path : send_paths()) {
    SCOPED_TRACE(path.name);
    InProcTransport t(2, path.link);
    Communicator comm(t, 0);
    constexpr int kQueued = 4;
    for (int i = 1; i <= kQueued; ++i) {
      comm.isend(1, /*tag=*/7, scalar(static_cast<float>(i)));
    }
    // On the threaded path the send finds its key still queued and must
    // wait for it to drain; inline, nothing is left to wait for.
    if (path.threaded) {
      ASSERT_GT(comm.pending_sends(), 0U);
    } else {
      ASSERT_EQ(comm.pending_sends(), 0U);
    }
    comm.send(1, /*tag=*/7, scalar(static_cast<float>(kQueued + 1)));
    for (int i = 1; i <= kQueued + 1; ++i) {
      EXPECT_FLOAT_EQ(t.recv(1, 0, 7).at({0}), static_cast<float>(i));
    }
  }
}

TEST(AsyncCommTest, AbandonSendsDropsQueuedMessages) {
  dist::LinkModel slow;
  slow.latency_s = 30e-3;
  slow.simulate_delay = true;
  InProcTransport t(2, slow);
  Communicator comm(t, 0);
  for (int i = 0; i < 4; ++i) comm.isend(1, 1, scalar(0.0F));
  comm.abandon_sends();  // queued (not in-flight) messages are dropped
  comm.flush_sends();    // waits only for whatever was already in flight
  EXPECT_EQ(comm.pending_sends(), 0U);
  EXPECT_LT(t.stats(0, 1).messages, 4U);
}

// ---------------------------------------------------------------------------
// deferred sender failures
// ---------------------------------------------------------------------------

TEST(AsyncCommTest, ExhaustedTransientRetriesSurfaceOnFlush) {
  dist::FaultPlan plan;
  plan.send_failure_probability = 1.0;
  plan.max_transient_failures = 1000;  // more than the send retry budget
  InProcTransport t(2, dist::LinkModel{}, plan);
  Communicator comm(t, 0);
  dist::CommPolicy policy;
  policy.max_send_retries = 2;
  policy.send_backoff_ms = 0.01;
  comm.set_policy(policy);

  comm.isend(1, /*tag=*/2, scalar(1.0F));
  EXPECT_THROW(comm.flush_sends(), TransientSendError);
  // The failure is sticky: every comm entry point reports it.
  EXPECT_THROW(comm.isend(1, 2, scalar(2.0F)), TransientSendError);
  EXPECT_THROW(comm.recv(1, 2), TransientSendError);
  EXPECT_EQ(comm.deferred_death_rank(), std::nullopt);
}

TEST(AsyncCommTest, IsendToDeadRankSurfacesPeerDeathOnFlush) {
  for (const SendPath& path : send_paths()) {
    SCOPED_TRACE(path.name);
    InProcTransport t(3, path.link);
    t.close_rank(2);
    Communicator comm(t, 0);
    comm.isend(2, /*tag=*/1, scalar(1.0F));
    try {
      comm.flush_sends();
      ADD_FAILURE() << "flush should have reported the dead peer";
    } catch (const PeerDeadError& e) {
      EXPECT_EQ(e.rank(), 2);
    }
  }
}

TEST(AsyncCommTest, InjectedDeathIsDeferredAndReported) {
  // Rank 0's first transport operation kills it; the RankDeathError fires
  // on the background sender thread and must surface on the next flush,
  // with the dead rank recorded for EdgeCluster::run.
  dist::FaultPlan plan;
  plan.death_after_ops = {{0, 1}};
  InProcTransport t(2, dist::LinkModel{}, plan);
  Communicator comm(t, 0);
  comm.isend(1, /*tag=*/1, scalar(1.0F));
  EXPECT_THROW(comm.flush_sends(), RankDeathError);
  ASSERT_TRUE(comm.deferred_death_rank().has_value());
  EXPECT_EQ(*comm.deferred_death_rank(), 0);
}

TEST(AsyncCommTest, IsendThatCannotWaitDeliversOnTheCallingThread) {
  // No link sleeps and no fault plan: the transport's send never waits, so
  // isend delivers before it returns and no sender thread is started.
  InProcTransport t(2);
  ASSERT_FALSE(t.send_may_wait());
  Communicator comm(t, 0);
  comm.isend(1, /*tag=*/4, scalar(5.0F));
  EXPECT_EQ(comm.pending_sends(), 0U);
  auto got = t.recv_for(1, 0, 4, std::chrono::milliseconds(0));
  ASSERT_TRUE(got.has_value());
  EXPECT_FLOAT_EQ(got->at({0}), 5.0F);

  dist::LinkModel sleepy;
  sleepy.simulate_delay = true;
  EXPECT_TRUE(InProcTransport(2, sleepy).send_may_wait());
  dist::FaultPlan faults;
  faults.delay_probability = 0.5;
  EXPECT_TRUE(InProcTransport(2, dist::LinkModel{}, faults).send_may_wait());
}

TEST(AsyncCommTest, InlineIsendFailureIsDeferredLikeTheSenderThreads) {
  // The inline path fails the way the sender thread does: isend itself
  // returns, and the first failure is rethrown from the next comm call.
  InProcTransport t(3);
  t.close_rank(2);
  Communicator comm(t, 0);
  EXPECT_NO_THROW(comm.isend(2, /*tag=*/1, scalar(1.0F)));
  EXPECT_THROW(comm.isend(1, /*tag=*/1, scalar(2.0F)), PeerDeadError);
  EXPECT_THROW(comm.flush_sends(), PeerDeadError);
  EXPECT_EQ(comm.deferred_death_rank(), std::nullopt);
  EXPECT_EQ(t.stats(0, 1).messages, 0U);
}

// ---------------------------------------------------------------------------
// irecv futures
// ---------------------------------------------------------------------------

TEST(AsyncCommTest, PendingRecvDeliversInPostingOrder) {
  InProcTransport t(2);
  Communicator receiver(t, 0);
  Communicator sender(t, 1);

  dist::PendingRecv first = receiver.irecv(1, /*tag=*/9);
  dist::PendingRecv second = receiver.irecv(1, /*tag=*/9);
  sender.isend(0, 9, scalar(10.0F));
  sender.isend(0, 9, scalar(20.0F));

  EXPECT_TRUE(first.valid());
  EXPECT_EQ(first.source(), 1);
  EXPECT_EQ(first.tag(), 9);
  EXPECT_FLOAT_EQ(first.wait().at({0}), 10.0F);
  EXPECT_FLOAT_EQ(second.wait().at({0}), 20.0F);
  // wait() is idempotent.
  EXPECT_FLOAT_EQ(first.wait().at({0}), 10.0F);
  EXPECT_FALSE(dist::PendingRecv{}.valid());
  sender.flush_sends();
}

TEST(AsyncCommTest, PendingRecvSurfacesPeerDeathOnWait) {
  InProcTransport t(2);
  Communicator comm(t, 0);
  dist::PendingRecv pending = comm.irecv(1, /*tag=*/4);  // never throws
  t.close_rank(1);
  EXPECT_THROW(pending.wait(), PeerDeadError);
}

// ---------------------------------------------------------------------------
// concurrency: two async senders into one receiver (satellite: transport
// stats + per-source ordering under concurrent isend)
// ---------------------------------------------------------------------------

TEST(AsyncCommTest, ConcurrentIsendersKeepPerSourceFifoAndStats) {
  for (const SendPath& path : send_paths()) {
    SCOPED_TRACE(path.name);
    InProcTransport t(3, path.link);
    Communicator c0(t, 0);
    Communicator c1(t, 1);
    constexpr int kMessages = 50;

    std::thread a([&] {
      for (int i = 0; i < kMessages; ++i) {
        c0.isend(2, /*tag=*/6, scalar(static_cast<float>(i)));
      }
      c0.flush_sends();
    });
    std::thread b([&] {
      for (int i = 0; i < kMessages; ++i) {
        c1.isend(2, /*tag=*/6, scalar(static_cast<float>(1000 + i)));
      }
      c1.flush_sends();
    });
    a.join();
    b.join();

    // The two streams interleave arbitrarily at the mailbox, but each
    // (source, tag) queue preserves its own posting order.
    for (int i = 0; i < kMessages; ++i) {
      EXPECT_FLOAT_EQ(t.recv(2, 0, 6).at({0}), static_cast<float>(i));
      EXPECT_FLOAT_EQ(t.recv(2, 1, 6).at({0}),
                      static_cast<float>(1000 + i));
    }
    EXPECT_EQ(t.stats(0, 2).messages, static_cast<std::uint64_t>(kMessages));
    EXPECT_EQ(t.stats(1, 2).messages, static_cast<std::uint64_t>(kMessages));
    EXPECT_EQ(t.stats(0, 2).bytes,
              static_cast<std::uint64_t>(kMessages) * sizeof(float));
  }
}

// ---------------------------------------------------------------------------
// end-to-end: training values are independent of link timing
// ---------------------------------------------------------------------------

data::SyntheticGlueDataset tiny_dataset() {
  data::DatasetConfig cfg;
  cfg.task = data::GlueTask::kSst2;
  cfg.train_samples = 24;
  cfg.eval_samples = 8;
  cfg.seq_len = 8;
  cfg.vocab = 32;
  return data::SyntheticGlueDataset(cfg);
}

pipeline::ModelFactory tiny_factory(
    model::Technique technique = model::Technique::kParallelAdapters,
    const model::ModelConfig& config = model::tiny(4, 16, 2, 32, 8)) {
  return [technique, config] {
    model::TechniqueConfig tc;
    tc.technique = technique;
    tc.pa_reduction = 4;
    return std::make_unique<model::Model>(
        config, tc, model::TaskSpec{model::TaskKind::kClassification, 2},
        4242);
  };
}

pipeline::ParallelPlan hybrid_2x2(std::int64_t num_blocks = 6) {
  // 2 stages x 2 devices: exercises pre-posted pipeline recvs, isent
  // activations/grads, AND the grad AllReduce in one plan.
  const std::int64_t mid = num_blocks / 2;
  pipeline::StageAssignment s0{0, mid, {0, 1}, {}};
  pipeline::StageAssignment s1{mid, num_blocks, {2, 3}, {}};
  pipeline::ParallelPlan plan;
  plan.stages = {s0, s1};
  plan.num_micro_batches = 4;
  return plan;
}

TEST(AsyncCommTest, AsyncTrainingIsTimingIndependent) {
  auto ds = tiny_dataset();
  pipeline::RunConfig cfg;
  cfg.plan = hybrid_2x2();
  cfg.batch_size = 8;
  cfg.epochs = 2;
  cfg.lr = 5e-3F;

  dist::EdgeCluster clean_cluster(4,
                                  std::numeric_limits<std::uint64_t>::max());
  pipeline::RunResult clean =
      pipeline::run_training(clean_cluster, ds, tiny_factory(), cfg);

  // Delays and legal reordering shift when sends land, receives complete
  // and the AllReduce starts — but never which values meet in which order.
  // (Stage 0 also runs each next backbone ahead while it waits; where that
  // lands in time must not matter either.)
  dist::FaultPlan storm;
  storm.seed = 0x7141E;
  storm.delay_probability = 0.3;
  storm.delay_min_ms = 0.1;
  storm.delay_max_ms = 1.0;
  storm.reorder_probability = 0.3;
  dist::EdgeCluster stormy_cluster(4,
                                   std::numeric_limits<std::uint64_t>::max());
  stormy_cluster.set_fault_plan(storm);
  pipeline::RunResult stormy =
      pipeline::run_training(stormy_cluster, ds, tiny_factory(), cfg);

  // Bit-for-bit: identical grad buffers are reduced in identical ring
  // order with identical tags, so the arithmetic is the same expression
  // tree.
  ASSERT_EQ(clean.epoch_losses.size(), stormy.epoch_losses.size());
  for (std::size_t e = 0; e < clean.epoch_losses.size(); ++e) {
    EXPECT_EQ(clean.epoch_losses[e], stormy.epoch_losses[e]) << e;
  }
  EXPECT_EQ(clean.eval_metric, stormy.eval_metric);
  ASSERT_EQ(clean.trainable_values.size(), stormy.trainable_values.size());
  for (const auto& [name, value] : clean.trainable_values) {
    auto it = stormy.trainable_values.find(name);
    ASSERT_NE(it, stormy.trainable_values.end()) << name;
    EXPECT_EQ(ops::max_abs_diff(value, it->second), 0.0F) << name;
  }
}

TEST(AsyncCommTest, InlineAndSenderThreadSendsTrainIdentically) {
  // A fault-free in-process run delivers every isend inline on the rank
  // thread; a negligible simulated link sends the same messages through
  // the sender threads.  Values, traffic and ordering must not differ.
  auto ds = tiny_dataset();
  pipeline::RunConfig cfg;
  cfg.plan = hybrid_2x2();
  cfg.batch_size = 8;
  cfg.epochs = 2;
  cfg.lr = 5e-3F;

  struct Observed {
    pipeline::RunResult result;
    std::map<std::string, std::int64_t> link_counters;
    std::vector<obs::SpanRecord> spans;
    bool saw_sender = false;
  };
  auto observe = [&](const dist::LinkModel& link) {
    Observed out;
    obs::TraceSession trace;
    obs::CounterRegistry& counters = obs::CounterRegistry::instance();
    counters.reset();
    dist::EdgeCluster cluster(4, std::numeric_limits<std::uint64_t>::max(),
                              link);
    out.result = pipeline::run_training(cluster, ds, tiny_factory(), cfg);
    for (const auto& [name, value] : counters.counters()) {
      if (name.rfind("comm.sent_msgs.", 0) == 0 ||
          name.rfind("comm.sent_bytes.", 0) == 0) {
        out.link_counters[name] = value;
      }
    }
    for (const obs::ThreadTrace& t : trace.collect().threads) {
      if (t.thread_name.find("/sender") != std::string::npos) {
        out.saw_sender = true;
      }
    }
    out.spans = trace.spans();
    return out;
  };

  const Observed inline_run = observe(dist::LinkModel{});
  dist::LinkModel negligible;
  negligible.latency_s = 1e-7;
  negligible.bandwidth_bps = 1e15;
  negligible.simulate_delay = true;
  const Observed threaded = observe(negligible);

  ASSERT_EQ(inline_run.result.epoch_losses.size(),
            threaded.result.epoch_losses.size());
  for (std::size_t e = 0; e < inline_run.result.epoch_losses.size(); ++e) {
    EXPECT_EQ(inline_run.result.epoch_losses[e],
              threaded.result.epoch_losses[e])
        << e;
  }
  ASSERT_EQ(inline_run.result.trainable_values.size(),
            threaded.result.trainable_values.size());
  for (const auto& [name, value] : inline_run.result.trainable_values) {
    auto it = threaded.result.trainable_values.find(name);
    ASSERT_NE(it, threaded.result.trainable_values.end()) << name;
    EXPECT_EQ(ops::max_abs_diff(value, it->second), 0.0F) << name;
  }
  EXPECT_FALSE(inline_run.link_counters.empty());
  EXPECT_EQ(inline_run.link_counters, threaded.link_counters);

  EXPECT_FALSE(inline_run.saw_sender);
  EXPECT_TRUE(threaded.saw_sender);
  int pipeline_sends = 0;
  for (const obs::SpanRecord& s : inline_run.spans) {
    const std::string name = s.name;
    EXPECT_NE(name, "sender_send") << s.thread_name;
    if (name != "send_fwd" && name != "send_bwd") continue;
    ++pipeline_sends;
    EXPECT_EQ(s.thread_name, "rank" + std::to_string(s.rank)) << name;
  }
  EXPECT_GT(pipeline_sends, 0);
}

// ---------------------------------------------------------------------------
// backbone run-ahead: the first stage overlaps the next backbone with the
// gradient wait, inside its activation high-water
// ---------------------------------------------------------------------------

TEST(AsyncCommTest, FirstStageRunsTheNextBackboneAheadWithinItsActivationPeak) {
  auto ds = tiny_dataset();
  pipeline::RunConfig cfg;
  cfg.plan = hybrid_2x2();
  cfg.batch_size = 8;
  cfg.epochs = 1;
  cfg.lr = 5e-3F;
  cfg.run_eval = false;

  obs::TraceSession trace;
  dist::EdgeCluster cluster(4, std::numeric_limits<std::uint64_t>::max());
  pipeline::run_training(cluster, ds, tiny_factory(), cfg);

  // 24 samples / batch 8 = 3 mini-batches; each stage-0 rank owns 2 of the
  // 4 micros of each.  Mini-batches 1 and 2 each get one more fwd_micro
  // span: the backbone half of their first micro, run before the previous
  // mini-batch's grad AllReduce.
  constexpr int kMiniBatches = 3;
  for (int rank : {0, 1}) {
    SCOPED_TRACE("rank " + std::to_string(rank));
    std::vector<std::int64_t> fwd_begins;
    std::vector<std::int64_t> reduce_begins;
    for (const obs::SpanRecord& s : trace.spans()) {
      if (s.rank != rank) continue;
      const std::string name = s.name;
      if (name == "fwd_micro") fwd_begins.push_back(s.begin_ns);
      if (name == "allreduce_bucket") reduce_begins.push_back(s.begin_ns);
    }
    std::sort(reduce_begins.begin(), reduce_begins.end());
    ASSERT_EQ(reduce_begins.size(), static_cast<std::size_t>(kMiniBatches));
    EXPECT_EQ(fwd_begins.size(),
              static_cast<std::size_t>(2 * kMiniBatches + kMiniBatches - 1));
    for (int k = 0; k + 1 < kMiniBatches; ++k) {
      const auto before = std::count_if(
          fwd_begins.begin(), fwd_begins.end(), [&](std::int64_t t) {
            return t < reduce_begins[static_cast<std::size_t>(k)];
          });
      EXPECT_EQ(before, 3 * (k + 1)) << "mini-batch " << k;
    }
  }

  // The peaks equal those of the schedule without run-ahead.  A stage-0
  // micro (2 rows x 8 positions) retains 4 x its [2, 8, 4] fp32 side state
  // per block over 3 blocks: 3072 B, two in flight at 1F1B's peak.  The
  // last stage ends in the head and retains no side state.
  const std::uint64_t expected_peaks[] = {6144, 6144, 0, 0};
  for (int r = 0; r < 4; ++r) {
    const dist::MemoryLedger& ledger = cluster.ledger(r);
    EXPECT_EQ(ledger.peak(dist::MemClass::kActivations),
              expected_peaks[r])
        << "rank " << r;
    EXPECT_EQ(ledger.current_total(), 0U) << "rank " << r;
  }
}

TEST(AsyncCommTest, RunAheadRecordsTheSameCacheAsAPlanWithoutIt) {
  // A 2-stage plan runs ahead while it records; a 1-stage plan never
  // does.  With the same micro split both compute every b_i from the same
  // rows, so the recorded cache must match byte for byte.
  auto ds = tiny_dataset();
  using Recorded = std::map<std::pair<std::int64_t, std::int64_t>, Tensor>;
  auto record = [&](const pipeline::ParallelPlan& plan, int world) {
    pipeline::RunConfig cfg;
    cfg.plan = plan;
    cfg.batch_size = 8;
    cfg.epochs = 2;
    cfg.lr = 5e-3F;
    cfg.run_eval = false;
    std::vector<std::unique_ptr<cache::ActivationCache>> shards;
    std::vector<pipeline::ActivationRecorder*> recorders;
    for (int r = 0; r < world; ++r) {
      cache::CacheConfig cc;
      cc.num_blocks = 5;  // b_0 .. b_4 of tiny(4 encoder layers)
      shards.push_back(std::make_unique<cache::ActivationCache>(cc));
      recorders.push_back(shards.back().get());
    }
    dist::EdgeCluster cluster(world,
                              std::numeric_limits<std::uint64_t>::max());
    pipeline::run_training(cluster, ds, tiny_factory(), cfg, &recorders);
    Recorded out;
    for (const auto& shard : shards) {
      for (const auto& [sample, block] : shard->held_blocks()) {
        EXPECT_TRUE(
            out.emplace(std::make_pair(sample, block),
                        shard->get_block(sample, block))
                .second)
            << "sample " << sample << " block " << block << " recorded twice";
      }
    }
    return out;
  };

  pipeline::ParallelPlan one_stage;
  one_stage.stages = {pipeline::StageAssignment{0, 6, {0, 1}, {}}};
  one_stage.num_micro_batches = 4;
  const Recorded want = record(one_stage, 2);
  const Recorded got = record(hybrid_2x2(), 4);

  ASSERT_EQ(want.size(), static_cast<std::size_t>(24 * 5));
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, tensor] : want) {
    auto it = got.find(key);
    ASSERT_NE(it, got.end()) << key.first << "/" << key.second;
    ASSERT_EQ(it->second.shape(), tensor.shape());
    EXPECT_EQ(std::memcmp(it->second.data(), tensor.data(),
                          static_cast<std::size_t>(tensor.byte_size())),
              0)
        << "sample " << key.first << " block " << key.second;
  }
}

// ---------------------------------------------------------------------------
// cache prefetch
// ---------------------------------------------------------------------------

std::unique_ptr<cache::ActivationCache> make_disk_cache(
    const std::string& dir, std::int64_t num_samples) {
  std::filesystem::remove_all(dir);
  cache::CacheConfig cfg;
  cfg.num_blocks = 2;
  cfg.disk_backed = true;
  cfg.directory = dir;
  auto c = std::make_unique<cache::ActivationCache>(cfg);
  for (std::int64_t s = 0; s < num_samples; ++s) {
    for (std::int64_t b = 0; b < 2; ++b) {
      Tensor act({3, 4});
      for (std::int64_t i = 0; i < act.numel(); ++i) {
        act.data()[i] =
            static_cast<float>(s) * 100.0F + static_cast<float>(b) * 10.0F +
            static_cast<float>(i);
      }
      c->put_block(s, b, std::move(act));
    }
  }
  return c;
}

TEST(AsyncCommTest, PrefetchedFetchMatchesColdFetch) {
  const std::string dir = "/tmp/pac_async_prefetch_match";
  auto c = make_disk_cache(dir, 6);
  const std::vector<std::int64_t> ids = {0, 2, 4};

  std::vector<Tensor> cold = c->fetch(ids);
  c->prefetch(ids);
  // Give the reader thread a moment so the staged path is actually taken
  // (fetch falls back to a synchronous reload either way).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::vector<Tensor> staged = c->fetch(ids);

  ASSERT_EQ(cold.size(), staged.size());
  for (std::size_t b = 0; b < cold.size(); ++b) {
    EXPECT_EQ(ops::max_abs_diff(cold[b], staged[b]), 0.0F) << b;
  }
  std::filesystem::remove_all(dir);
}

TEST(AsyncCommTest, PrefetchIsAdvisoryOnly) {
  const std::string dir = "/tmp/pac_async_prefetch_advisory";
  auto c = make_disk_cache(dir, 6);

  // A fetch for samples that were never announced falls back to the
  // synchronous reload.
  c->prefetch({0, 1});
  std::vector<Tensor> other = c->fetch({3, 5});
  EXPECT_EQ(other.size(), 2U);

  // Re-announcing (coalescing) and fetching a superset both work.
  c->prefetch({0, 1});
  c->prefetch({0, 1, 2});
  std::vector<Tensor> batch = c->fetch({0, 1, 2, 4});
  EXPECT_EQ(batch.size(), 2U);
  EXPECT_EQ(batch[0].shape()[0], 4);  // [n, T, H] with n = 4 samples

  // Prefetching the same ids twice and never fetching them must not leak
  // or wedge teardown (the destructor stops the reader thread).
  c->prefetch({3, 4, 5});
  c->prefetch({3, 4, 5});
  std::filesystem::remove_all(dir);
}

TEST(AsyncCommTest, PrefetchIsNoOpForMemoryBackedShards) {
  cache::CacheConfig cfg;
  cfg.num_blocks = 1;
  cache::ActivationCache c(cfg);
  c.put_block(1, 0, Tensor::full({2, 2}, 7.0F));
  c.prefetch({1});  // nothing to stage; must not spawn anything
  std::vector<Tensor> got = c.fetch({1});
  ASSERT_EQ(got.size(), 1U);
  EXPECT_FLOAT_EQ(got[0].at({0, 0, 0}), 7.0F);
}

// ---------------------------------------------------------------------------
// grad AllReduce: one per stage per mini-batch, on the rank thread
// ---------------------------------------------------------------------------

TEST(AsyncCommTest, SingleGradBucketIsReducedInlineOnTheRankThread) {
  // After the last backward of a mini-batch, each rank reduces all of its
  // stage's trainable grads with one AllReduce on the rank thread: the
  // small adapter grads of Parallel Adapters and a Full fine-tuning
  // stage's grads (over 256 KB) alike.
  struct Case {
    const char* name;
    model::Technique technique;
    model::ModelConfig config;
  };
  const Case cases[] = {
      {"ParallelAdapters", model::Technique::kParallelAdapters,
       model::tiny(4, 16, 2, 32, 8)},
      {"Full", model::Technique::kFull, model::tiny(6, 48, 2, 32, 8)},
  };
  auto ds = tiny_dataset();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const pipeline::ModelFactory factory =
        tiny_factory(c.technique, c.config);
    pipeline::RunConfig cfg;
    cfg.plan = hybrid_2x2(factory()->num_blocks());
    cfg.batch_size = 8;
    cfg.epochs = 1;
    cfg.lr = 5e-3F;
    cfg.run_eval = false;

    // Grad bytes every rank of the plan reduces per mini-batch.
    std::int64_t group_grad_bytes = 0;
    {
      auto model = factory();
      const auto blocks = model->blocks();
      for (const pipeline::StageAssignment& st : cfg.plan.stages) {
        std::int64_t stage_bytes = 0;
        for (std::int64_t b = st.block_begin; b < st.block_end; ++b) {
          for (nn::Parameter* p :
               blocks[static_cast<std::size_t>(b)]->parameters()) {
            if (p->trainable()) {
              stage_bytes += static_cast<std::int64_t>(p->grad_bytes());
            }
          }
        }
        if (c.technique == model::Technique::kFull) {
          EXPECT_GT(stage_bytes, 256 * 1024);
        }
        group_grad_bytes +=
            stage_bytes * static_cast<std::int64_t>(st.devices.size());
      }
    }

    obs::TraceSession trace;
    obs::CounterRegistry& counters = obs::CounterRegistry::instance();
    counters.reset();
    dist::EdgeCluster cluster(4, std::numeric_limits<std::uint64_t>::max());
    pipeline::run_training(cluster, ds, factory, cfg);

    for (const obs::ThreadTrace& t : trace.collect().threads) {
      EXPECT_EQ(t.thread_name.find("/reducer"), std::string::npos)
          << t.thread_name;
    }
    std::map<int, int> reduces_per_rank;
    for (const obs::SpanRecord& s : trace.spans()) {
      EXPECT_NE(std::string(s.name), "bucket_wait") << s.thread_name;
      if (std::string(s.name) != "allreduce_bucket") continue;
      ++reduces_per_rank[s.rank];
      EXPECT_EQ(s.thread_name, "rank" + std::to_string(s.rank));
    }
    // 24 samples / batch 8 = 3 mini-batches, one reduce each on 4 ranks.
    constexpr int kMiniBatches = 3;
    EXPECT_EQ(reduces_per_rank.size(), 4U);
    for (const auto& [rank, n] : reduces_per_rank) {
      EXPECT_EQ(n, kMiniBatches) << "rank " << rank;
    }
    EXPECT_EQ(counters.value("allreduce.buckets"), kMiniBatches * 4);
    EXPECT_EQ(counters.value("allreduce.bucket_bytes"),
              kMiniBatches * group_grad_bytes);
  }
}

// ---------------------------------------------------------------------------
// eval-path parity: pipelined eval == single-process eval, bit for bit
// ---------------------------------------------------------------------------

double eval_metric_for(const pipeline::ParallelPlan& plan, int world) {
  auto ds = tiny_dataset();
  pipeline::RunConfig cfg;
  cfg.plan = plan;
  cfg.batch_size = 8;
  cfg.epochs = 0;  // evaluation only: identical untouched initial weights
  cfg.run_eval = true;
  dist::EdgeCluster cluster(world,
                            std::numeric_limits<std::uint64_t>::max());
  return pipeline::run_training(cluster, ds, tiny_factory(), cfg)
      .eval_metric;
}

TEST(AsyncCommTest, PipelinedEvalMatchesSingleProcessEvalBitForBit) {
  // 6 blocks: tiny(4 encoder layers) + embedding + head.
  const double standalone =
      eval_metric_for(pipeline::ParallelPlan::standalone(6, 4), 1);
  ASSERT_GT(standalone, 0.0);

  const double hybrid = eval_metric_for(hybrid_2x2(), 4);
  const double pure_pp =
      eval_metric_for(pipeline::ParallelPlan::pure_pipeline(6, 3, 4), 3);

  // The pipeline applies the same blocks to the same rows in the same
  // order; partitioning must not change a single bit of the logits.
  EXPECT_EQ(standalone, hybrid);
  EXPECT_EQ(standalone, pure_pp);
}

}  // namespace
}  // namespace pac
