// Observability layer tests (src/obs): span recording (nesting, concurrent
// writers, ring wraparound), counter exactness under the ThreadPool,
// Chrome-trace JSON schema validation through the bundled parser, the
// zero-cost-when-disabled guarantee, and the chaos post-mortem trace
// (schedule 4 with trace_path set must leave a Perfetto-loadable dump with
// spans from several ranks plus the sender helper threads).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/session.hpp"
#include "json.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace pac::obs {
namespace {

// ---------------------------------------------------------------------------
// JSON parser (used below to validate the exporter's output)
// ---------------------------------------------------------------------------

TEST(ObsJsonTest, ParsesScalarsContainersAndEscapes) {
  const JsonValue v = parse_json(
      R"({"a": 1.5, "b": [true, false, null, "x\n\"yA"], "c": {"d": -3}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.at("a").as_number(), 1.5);
  const JsonArray& arr = v.at("b").as_array();
  ASSERT_EQ(arr.size(), 4U);
  EXPECT_TRUE(arr[0].as_bool());
  EXPECT_FALSE(arr[1].as_bool());
  EXPECT_TRUE(arr[2].is_null());
  EXPECT_EQ(arr[3].as_string(), "x\n\"yA");
  EXPECT_EQ(v.at("c").at("d").as_int(), -3);
  EXPECT_FALSE(v.has("missing"));
}

TEST(ObsJsonTest, RejectsMalformedDocuments) {
  EXPECT_THROW(parse_json("{"), Error);
  EXPECT_THROW(parse_json("[1, 2,]"), Error);
  EXPECT_THROW(parse_json("{\"a\": 1} trailing"), Error);
  EXPECT_THROW(parse_json("nope"), Error);
}

// ---------------------------------------------------------------------------
// schema validation helpers
// ---------------------------------------------------------------------------

// Checks every traceEvents entry carries the Chrome-required fields and
// that each (pid, tid) stream's B/E events balance like parentheses.
void validate_chrome_trace(const std::string& json) {
  const JsonValue doc = parse_json(json);
  ASSERT_TRUE(doc.is_object());
  const JsonArray& events = doc.at("traceEvents").as_array();
  std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t> depth;
  std::map<std::pair<std::int64_t, std::int64_t>, double> last_ts;
  for (const JsonValue& e : events) {
    ASSERT_TRUE(e.is_object());
    ASSERT_TRUE(e.has("name"));
    ASSERT_TRUE(e.has("ph"));
    ASSERT_TRUE(e.has("pid"));
    ASSERT_TRUE(e.has("tid"));
    const std::string& ph = e.at("ph").as_string();
    ASSERT_EQ(ph.size(), 1U);
    if (ph == "M") continue;  // metadata events carry no timestamp
    ASSERT_TRUE(e.has("ts"));
    const auto key =
        std::make_pair(e.at("pid").as_int(), e.at("tid").as_int());
    const double ts = e.at("ts").as_number();
    EXPECT_GE(ts, 0.0);
    // Within one thread's stream the exporter emits in time order.
    auto it = last_ts.find(key);
    if (it != last_ts.end()) EXPECT_GE(ts, it->second);
    last_ts[key] = ts;
    if (ph == "B") {
      ++depth[key];
    } else if (ph == "E") {
      ASSERT_GT(depth[key], 0) << "orphan E event in stream pid="
                               << key.first << " tid=" << key.second;
      --depth[key];
    } else {
      EXPECT_EQ(ph, "i");
    }
  }
  for (const auto& [key, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced B/E in stream pid=" << key.first
                    << " tid=" << key.second;
  }
}

// ---------------------------------------------------------------------------
// span recording
// ---------------------------------------------------------------------------

TEST(ObsTraceTest, NestedScopesExportBalancedSchemaValidJson) {
  TraceSession session;
  set_thread_name("main", 7);
  {
    PAC_TRACE_SCOPE("outer", 1);
    {
      PAC_TRACE_SCOPE("inner", 2, 3);
      PAC_TRACE_INSTANT("tick", 4);
    }
  }
  const auto spans = session.spans();
  ASSERT_EQ(spans.size(), 2U);
  // replay emits a span when its E closes, so inner completes first.
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_STREQ(spans[1].name, "outer");
  EXPECT_EQ(spans[0].rank, 7);
  EXPECT_EQ(spans[1].args[0], 1);
  EXPECT_EQ(spans[0].args[0], 2);
  EXPECT_EQ(spans[0].args[1], 3);
  // inner nests inside outer on the same thread.
  EXPECT_GE(spans[0].begin_ns, spans[1].begin_ns);
  EXPECT_LE(spans[0].end_ns, spans[1].end_ns);

  const std::string json = session.to_json();
  validate_chrome_trace(json);
  const JsonValue doc = parse_json(json);
  // Thread metadata names the stream after set_thread_name.
  bool found_thread_name = false;
  for (const JsonValue& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "M" &&
        e.at("name").as_string() == "thread_name" &&
        e.at("args").at("name").as_string() == "main") {
      found_thread_name = true;
      EXPECT_EQ(e.at("pid").as_int(), 7);
    }
  }
  EXPECT_TRUE(found_thread_name);
}

TEST(ObsTraceTest, ConcurrentWritersLandInTheirOwnThreadStreams) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  TraceSession session;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      set_thread_name("writer" + std::to_string(t), t);
      for (int i = 0; i < kSpansPerThread; ++i) {
        PAC_TRACE_SCOPE("work", t, i);
      }
    });
  }
  for (auto& th : threads) th.join();

  const TraceData& data = session.collect();
  std::map<std::string, std::size_t> per_thread;
  for (const ThreadTrace& t : data.threads) {
    if (t.thread_name.rfind("writer", 0) == 0) {
      per_thread[t.thread_name] = t.events.size();
      EXPECT_EQ(t.dropped, 0U);
    }
  }
  ASSERT_EQ(per_thread.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [name, count] : per_thread) {
    EXPECT_EQ(count, static_cast<std::size_t>(2 * kSpansPerThread)) << name;
  }
  validate_chrome_trace(session.to_json());
}

TEST(ObsTraceTest, RingWraparoundKeepsRecentEventsAndRepairsPairs) {
  TraceSession::Options opts;
  opts.ring_capacity = 64;
  TraceSession session(opts);
  set_thread_name("wrapper");
  constexpr int kSpans = 500;  // 1000 events >> 64 slots
  for (int i = 0; i < kSpans; ++i) {
    PAC_TRACE_SCOPE("span", i);
  }
  const TraceData& data = session.collect();
  const ThreadTrace* mine = nullptr;
  for (const ThreadTrace& t : data.threads) {
    if (t.thread_name == "wrapper") mine = &t;
  }
  ASSERT_NE(mine, nullptr);
  EXPECT_EQ(mine->events.size(), 64U);
  EXPECT_EQ(mine->dropped, static_cast<std::uint64_t>(2 * kSpans - 64));
  // The ring keeps the most recent window: the last span recorded must
  // survive, and the export must still be balanced (orphan E dropped).
  bool saw_last = false;
  for (const TraceEvent& e : mine->events) {
    if (e.ph == 'B' && e.args[0] == kSpans - 1) saw_last = true;
  }
  EXPECT_TRUE(saw_last);
  validate_chrome_trace(session.to_json());
}

TEST(ObsTraceTest, UnclosedSpansAreClosedAtCollectTime) {
  TraceSession session;
  set_thread_name("leaky");
  emit_begin("never_closed", nullptr, 0);
  PAC_TRACE_INSTANT("after");
  const auto spans = session.spans();
  ASSERT_EQ(spans.size(), 1U);
  EXPECT_STREQ(spans[0].name, "never_closed");
  EXPECT_GE(spans[0].end_ns, spans[0].begin_ns);
  validate_chrome_trace(session.to_json());
}

TEST(ObsTraceTest, ZeroEventsAndZeroCountersWhenDisabled) {
  ASSERT_FALSE(enabled());
  // Record outside any session: all of this must vanish.
  set_thread_name("ghost");
  {
    PAC_TRACE_SCOPE("invisible", 1);
    PAC_TRACE_INSTANT("also_invisible");
  }
  CounterRegistry::instance().add("ghost.counter", 5);
  CounterRegistry::instance().high_water("ghost.gauge", 5);
  EXPECT_EQ(CounterRegistry::instance().value("ghost.counter"), 0);
  EXPECT_EQ(CounterRegistry::instance().value("ghost.gauge"), 0);

  // A fresh session starts empty — nothing recorded while disabled leaks
  // into it (the ghost thread registers only if it records *during* it).
  TraceSession session;
  const TraceData& data = session.collect();
  std::size_t total_events = 0;
  for (const ThreadTrace& t : data.threads) total_events += t.events.size();
  EXPECT_EQ(total_events, 0U);
}

TEST(ObsTraceTest, SecondConcurrentSessionIsRejected) {
  TraceSession session;
  EXPECT_THROW(TraceSession another, Error);
}

// ---------------------------------------------------------------------------
// counters
// ---------------------------------------------------------------------------

TEST(ObsCounterTest, ExactSumsUnderThreadPoolHammering) {
  TraceSession session;  // enables obs
  auto& counters = CounterRegistry::instance();
  counters.reset();
  constexpr std::int64_t kN = 100000;
  ThreadPool::global().parallel_for(
      kN,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          counters.add("hammer.count", 1);
          counters.high_water("hammer.peak", i);
        }
      },
      /*grain=*/64);
  EXPECT_EQ(counters.value("hammer.count"), kN);
  EXPECT_EQ(counters.value("hammer.peak"), kN - 1);

  const JsonValue snap = parse_json(counters.to_json());
  EXPECT_EQ(snap.at("counters").at("hammer.count").as_int(), kN);
  EXPECT_EQ(snap.at("gauges").at("hammer.peak").as_int(), kN - 1);
  const std::string table = counters.summary_table();
  EXPECT_NE(table.find("hammer.count"), std::string::npos);
  EXPECT_NE(table.find("hammer.peak"), std::string::npos);
  counters.reset();
  EXPECT_EQ(counters.value("hammer.count"), 0);
}

// ---------------------------------------------------------------------------
// chaos schedule 4 post-mortem trace (acceptance criterion)
// ---------------------------------------------------------------------------

// Mirrors chaos_test's deterministic fixture: tiny encoder, fixed block
// profiles, 4-rank cluster, async comm with 1 KiB buckets, and the
// schedule-4 fault plan killing rank 2 mid-epoch-1.
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

TEST(ObsSessionTest, ChaosScheduleFourLeavesAPostMortemTrace) {
  // The CI chaos job uploads this file as an artifact; default to /tmp.
  const char* env = std::getenv("PAC_CHAOS_TRACE");
  const std::string trace_path =
      env != nullptr ? env : "/tmp/pac_chaos_trace.json";

  data::DatasetConfig dcfg;
  dcfg.task = data::GlueTask::kSst2;
  dcfg.train_samples = 24;
  dcfg.eval_samples = 12;
  dcfg.seq_len = 8;
  dcfg.vocab = 32;
  data::SyntheticGlueDataset ds(dcfg);

  dist::EdgeCluster cluster(4, std::numeric_limits<std::uint64_t>::max());
  dist::FaultPlan death;
  death.seed = 0xA5DEAD;
  // Mid-first-epoch of phase 1: rank 2's ops run 6 per mini-batch (one
  // direct-schedule AllReduce), so op 8 is its send to rank 1 in the
  // second mini-batch's gradient sync.
  death.death_after_ops = {{2, 8}};
  cluster.set_fault_plan(death);

  core::SessionConfig cfg;
  cfg.model = model::tiny(4, 16, 2, 32, 8);
  cfg.technique.technique = model::Technique::kParallelAdapters;
  cfg.technique.pa_reduction = 4;
  cfg.batch_size = 8;
  cfg.num_micro_batches = 4;
  cfg.epochs = 3;
  cfg.lr = 5e-3F;
  cfg.profile_override = fixed_profiles(4 + 2);
  cfg.obs_enabled = true;
  cfg.trace_path = trace_path;

  core::Session session(cluster, ds, cfg);
  core::SessionReport report = session.run();
  EXPECT_EQ(report.rank_deaths, 1);

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << "trace dump missing at " << trace_path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  validate_chrome_trace(json);

  // Spans from >= 2 ranks plus the sender helper threads.
  const JsonValue doc = parse_json(json);
  std::set<std::int64_t> span_pids;
  bool saw_sender = false;
  for (const JsonValue& e : doc.at("traceEvents").as_array()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "B") span_pids.insert(e.at("pid").as_int());
    if (ph == "M" && e.at("name").as_string() == "thread_name") {
      const std::string& name = e.at("args").at("name").as_string();
      if (name.find("/sender") != std::string::npos) saw_sender = true;
    }
  }
  EXPECT_GE(span_pids.size(), 2U);
  EXPECT_TRUE(saw_sender);

  // Comm/allreduce counters accumulated during the traced run.
  EXPECT_GT(CounterRegistry::instance().value("allreduce.buckets"), 0);
}

TEST(ObsSessionTest, DisabledObservabilityChangesNoTrajectory) {
  data::DatasetConfig dcfg;
  dcfg.task = data::GlueTask::kSst2;
  dcfg.train_samples = 24;
  dcfg.eval_samples = 12;
  dcfg.seq_len = 8;
  dcfg.vocab = 32;
  data::SyntheticGlueDataset ds(dcfg);

  core::SessionConfig cfg;
  cfg.model = model::tiny(4, 16, 2, 32, 8);
  cfg.technique.technique = model::Technique::kParallelAdapters;
  cfg.technique.pa_reduction = 4;
  cfg.batch_size = 8;
  cfg.num_micro_batches = 4;
  cfg.epochs = 2;
  cfg.lr = 5e-3F;
  cfg.profile_override = fixed_profiles(4 + 2);

  dist::EdgeCluster plain_cluster(4,
                                  std::numeric_limits<std::uint64_t>::max());
  cfg.obs_enabled = false;
  core::SessionReport plain = core::Session(plain_cluster, ds, cfg).run();

  dist::EdgeCluster traced_cluster(
      4, std::numeric_limits<std::uint64_t>::max());
  cfg.obs_enabled = true;  // no trace_path: record + drop
  core::SessionReport traced = core::Session(traced_cluster, ds, cfg).run();

  // Tolerance 0.0: tracing must not perturb a single bit of the math.
  ASSERT_EQ(plain.epoch_losses.size(), traced.epoch_losses.size());
  for (std::size_t e = 0; e < plain.epoch_losses.size(); ++e) {
    EXPECT_EQ(plain.epoch_losses[e], traced.epoch_losses[e]) << e;
  }
  EXPECT_EQ(plain.eval_metric, traced.eval_metric);
}

TEST(ObsSessionTest, CachedStepPartsNestUnderTheStep) {
  data::DatasetConfig dcfg;
  dcfg.task = data::GlueTask::kSst2;
  dcfg.train_samples = 24;
  dcfg.eval_samples = 12;
  dcfg.seq_len = 8;
  dcfg.vocab = 32;
  data::SyntheticGlueDataset ds(dcfg);

  core::SessionConfig cfg;
  cfg.model = model::tiny(4, 16, 2, 32, 8);
  cfg.technique.technique = model::Technique::kParallelAdapters;
  cfg.technique.pa_reduction = 4;
  cfg.batch_size = 8;
  cfg.num_micro_batches = 4;
  cfg.epochs = 2;  // one recording epoch, one cached epoch
  cfg.lr = 5e-3F;
  cfg.profile_override = fixed_profiles(4 + 2);

  constexpr int kRanks = 4;
  dist::EdgeCluster cluster(kRanks,
                            std::numeric_limits<std::uint64_t>::max());
  TraceSession trace;
  const core::SessionReport report = core::Session(cluster, ds, cfg).run();
  ASSERT_TRUE(report.cache_used);
  const std::vector<SpanRecord> spans = trace.spans();

  // Every part of a cached step lies inside the cached_step span of the
  // same thread, rank and step.
  std::map<std::string, int> nested;
  int redistribute = 0;
  for (const SpanRecord& part : spans) {
    const std::string name = part.name;
    if (name == "redistribute") ++redistribute;
    if (name != "cached_fwd" && name != "cached_bwd" &&
        name != "cached_allreduce" && name != "cached_opt") {
      continue;
    }
    bool inside = false;
    for (const SpanRecord& step : spans) {
      inside = inside || (std::string(step.name) == "cached_step" &&
                          step.tid == part.tid &&
                          step.args[0] == part.args[0] &&
                          step.args[1] == part.args[1] &&
                          step.begin_ns <= part.begin_ns &&
                          part.end_ns <= step.end_ns);
    }
    EXPECT_TRUE(inside) << name << " rank " << part.args[0] << " step "
                        << part.args[1] << " outside its cached_step";
    ++nested[name];
  }
  for (const char* name :
       {"cached_fwd", "cached_bwd", "cached_allreduce", "cached_opt"}) {
    EXPECT_GT(nested[name], 0) << name;
  }
  // Every rank ships its shard in one redistribute span.
  EXPECT_EQ(redistribute, kRanks);
}

}  // namespace
}  // namespace pac::obs
