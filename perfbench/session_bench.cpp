// Session benchmark binary.  One process runs one core::Session::run() of
// a workload described on the command line and prints its measurements as
// one JSON object on the last line of stdout.  perfbench/run.py spawns one
// process per measured or traced run, so an abort costs one run, not the
// benchmark.
//
//   pac_perfbench run --data-seed 1003 --train-samples 2048
//                     --budget-bytes 524288 --cache off|f32|i8
//                     [--disk-dir DIR] [--trace]
//   pac_perfbench self-test
//
// Everything is measured from outside the library: the SessionReport, the
// cluster's memory ledgers, planner::profile_model calls made here (the
// Session's profile step, with pinned timings, and the model.* breakdown),
// and (with --trace) an obs::TraceSession owned here around run().
//
//   pac_perfbench profile   # median block timings: the source of the pins
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "core/session.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "planner/profiler.hpp"

namespace {

using namespace pac;

// ---- self time ----------------------------------------------------------

// Self time of every span (its duration minus the part its direct children
// on the same thread cover), summed by span name over all threads.  Spans
// of one thread nest (they are RAII scopes, and the exporter repairs
// ring-wrap damage into balanced pairs), so a stack walk in begin order
// finds each span's parent.
std::map<std::string, double> self_times(std::vector<obs::SpanRecord> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
              return a.end_ns > b.end_ns;  // parent before an equal-start child
            });
  std::map<std::string, double> out;
  struct Open {
    const obs::SpanRecord* span;
    std::int64_t child_ns;
  };
  std::vector<Open> stack;
  auto close = [&](const Open& o) {
    out[o.span->name != nullptr ? o.span->name : "?"] +=
        static_cast<double>(o.span->end_ns - o.span->begin_ns - o.child_ns) *
        1e-9;
  };
  int tid = -1;
  for (const obs::SpanRecord& s : spans) {
    if (s.tid != tid) {
      for (; !stack.empty(); stack.pop_back()) close(stack.back());
      tid = s.tid;
    }
    while (!stack.empty() && stack.back().span->end_ns <= s.begin_ns) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) {
      stack.back().child_ns +=
          std::min(s.end_ns, stack.back().span->end_ns) - s.begin_ns;
    }
    stack.push_back({&s, 0});
  }
  for (; !stack.empty(); stack.pop_back()) close(stack.back());
  return out;
}

// ---- minimal JSON writer --------------------------------------------------

class Json {
 public:
  Json() { os_ << std::setprecision(17); }
  Json& key(const std::string& k) {
    sep();
    quoted(k);
    os_ << ':';
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    sep();
    if (std::isfinite(v)) {
      os_ << v;
    } else {
      os_ << "null";
    }
    return *this;
  }
  Json& num(std::int64_t v) {
    sep();
    os_ << v;
    return *this;
  }
  Json& str(const std::string& v) {
    sep();
    quoted(v);
    return *this;
  }
  Json& open(char c) {
    sep();
    os_ << c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    os_ << c;
    fresh_ = false;
    return *this;
  }
  template <typename Map>
  Json& object(const Map& m) {
    open('{');
    for (const auto& [k, v] : m) key(k).num(v);
    return close('}');
  }
  std::string text() const { return os_.str(); }

 private:
  void sep() {
    if (!fresh_) os_ << ',';
    fresh_ = false;
  }
  void quoted(const std::string& v) {
    os_ << '"';
    for (char c : v) {
      if (c == '"' || c == '\\') os_ << '\\';
      os_ << c;
    }
    os_ << '"';
  }
  std::ostringstream os_;
  bool fresh_ = true;
};

// ---- workload -------------------------------------------------------------

struct Options {
  std::uint64_t data_seed = 1000;
  std::int64_t train_samples = 2048;
  std::uint64_t budget_bytes = std::numeric_limits<std::uint64_t>::max();
  std::string cache = "off";  // off | f32 | i8
  std::string disk_dir;       // non-empty: disk-backed cache here
  bool trace = false;
};

// The shape every workload shares: model::tiny(6, 48, 4, 64, 16) with
// Parallel Adapters on MRPC-shaped data, batch 16 in 4 micro-batches,
// 4 epochs on 4 devices.
constexpr int kDevices = 4;
// Profiler passes for the model.* metrics (the first is a discarded warm-up).
constexpr int kProfileIters = 21;
// Profiler passes of the Session's own profile step (Session::profile()).
constexpr int kSessionProfileIters = 3;
// Builds per run; setup_s is their median.
constexpr int kSetupReps = 9;
// Trace events per thread: no drops at the trace sizes (see README.md).
constexpr std::size_t kRingCapacity = 8192;

data::DatasetConfig dataset_config(const Options& o) {
  data::DatasetConfig d;
  d.task = data::GlueTask::kMrpc;
  d.train_samples = o.train_samples;
  d.eval_samples = 64;
  d.seq_len = 16;
  d.vocab = 64;
  d.seed = o.data_seed;
  return d;
}

core::SessionConfig session_config(const Options& o) {
  core::SessionConfig c;
  c.model = model::tiny(6, 48, 4, 64, 16);
  c.technique.technique = model::Technique::kParallelAdapters;
  c.batch_size = 16;
  c.num_micro_batches = 4;
  c.epochs = 4;
  c.use_activation_cache = o.cache != "off";
  c.cache_dtype = o.cache == "i8" ? quant::Dtype::kI8 : quant::Dtype::kF32;
  c.cache_disk_backed = !o.disk_dir.empty();
  c.cache_directory = o.disk_dir;
  c.cache_prefetch = true;
  return c;
}

// Everything built before run(): the dataset, the cluster and the Session.
struct Built {
  std::unique_ptr<data::SyntheticGlueDataset> dataset;
  std::unique_ptr<dist::EdgeCluster> cluster;
  std::unique_ptr<core::Session> session;
};

Built build(const Options& o,
            const std::vector<planner::BlockProfile>& profile) {
  Built b;
  b.dataset = std::make_unique<data::SyntheticGlueDataset>(dataset_config(o));
  b.cluster = std::make_unique<dist::EdgeCluster>(kDevices, o.budget_bytes);
  core::SessionConfig cfg = session_config(o);
  cfg.profile_override = profile;
  b.session = std::make_unique<core::Session>(*b.cluster, *b.dataset,
                                              std::move(cfg));
  return b;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The wall-clock profiler on a fresh model and one micro-batch of this
// workload, as Session::profile() calls it.
std::vector<planner::BlockProfile> profile(const Options& o, int iters) {
  const data::SyntheticGlueDataset dataset(dataset_config(o));
  const core::SessionConfig cfg = session_config(o);
  const data::TaskInfo& info = dataset.info();
  model::Model m(cfg.model, cfg.technique,
                 model::TaskSpec{info.kind, info.num_classes}, cfg.model_seed);
  std::vector<std::int64_t> idx(
      static_cast<std::size_t>(cfg.batch_size / cfg.num_micro_batches));
  std::iota(idx.begin(), idx.end(), 0);
  const auto batch = dataset.make_train_batch(idx);
  return planner::profile_model(m, batch.tokens, iters);
}

// Kind of a profiled block: embedding, encoder (any encoder_layer_*) or head.
std::string block_kind(const std::string& name) {
  return name.rfind("encoder_layer_", 0) == 0 ? "encoder" : name;
}

// Seconds per micro-batch that the planner is given for each block kind,
// in place of the timings of the run's own profile.  A scheduling hiccup
// inside the ~0.1 s profile window used to flip hybrid_live to another
// plan in about 1 run of 100, which ran a different workload.  These are
// the medians of `pac_perfbench profile` on a 4-vCPU x86 host; any values
// near them give the expected plans.
struct BlockSeconds {
  double fwd;
  double bwd;
};
const std::map<std::string, BlockSeconds> kPinnedSeconds = {
    {"embedding", {7.4e-6, 6.6e-6}},
    {"encoder", {2.0e-4, 1.95e-5}},
    {"head", {1.24e-5, 1.48e-5}},
};

// The run's profile with its timings replaced by kPinnedSeconds; the byte
// sizes (weights, activations, messages) are the profiler's own.
std::vector<planner::BlockProfile> pin(std::vector<planner::BlockProfile> blocks) {
  for (planner::BlockProfile& b : blocks) {
    const BlockSeconds& s = kPinnedSeconds.at(block_kind(b.name));
    b.t_fwd = s.fwd;
    b.t_bwd = s.bwd;
  }
  return blocks;
}

// Per-block forward/backward seconds from the profiler on one micro-batch
// of this workload, summed by module (encoder layers together).
std::map<std::string, double> profile_blocks(const Options& o) {
  std::map<std::string, double> out = {
      {"embedding_fwd_s", 0.0}, {"encoder_fwd_s", 0.0},
      {"encoder_bwd_s", 0.0},   {"head_fwd_s", 0.0},
      {"head_bwd_s", 0.0}};
  for (const planner::BlockProfile& p : profile(o, kProfileIters)) {
    if (p.name == "embedding") {
      out["embedding_fwd_s"] += p.t_fwd;
    } else if (p.name.rfind("encoder_layer_", 0) == 0) {
      out["encoder_fwd_s"] += p.t_fwd;
      out["encoder_bwd_s"] += p.t_bwd;
    } else if (p.name == "head") {
      out["head_fwd_s"] += p.t_fwd;
      out["head_bwd_s"] += p.t_bwd;
    }
  }
  return out;
}

int run(const Options& o) {
  // The Session's profile step, run here so that its timings can be pinned;
  // its wall time still counts towards finetune_s.
  WallTimer profile_timer;
  const std::vector<planner::BlockProfile> pinned =
      pin(profile(o, kSessionProfileIters));
  const double profile_s = profile_timer.seconds();

  // Set up several times and keep the last build for the run; the median
  // is the reported set-up time.
  std::vector<double> setup_times;
  Built b;
  for (int i = 0; i < kSetupReps; ++i) {
    b.session.reset();
    b.cluster.reset();
    b.dataset.reset();
    WallTimer t;
    b = build(o, pinned);
    setup_times.push_back(t.seconds());
  }

  std::unique_ptr<obs::TraceSession> trace;
  if (o.trace) {
    obs::CounterRegistry::instance().reset();
    obs::TraceSession::Options topts;
    topts.ring_capacity = kRingCapacity;
    trace = std::make_unique<obs::TraceSession>(std::move(topts));
    obs::set_thread_name("session", 0);
  }
  WallTimer run_timer;
  const core::SessionReport rep = b.session->run();
  const double finetune_s = profile_s + run_timer.seconds();

  std::map<std::string, double> self;
  std::int64_t dropped = 0;
  if (trace != nullptr) {
    for (const obs::ThreadTrace& t : trace->collect().threads) {
      dropped += static_cast<std::int64_t>(t.dropped);
    }
    self = self_times(trace->spans());
  }

  // After the Session, so that traced and untraced children do the same
  // work up to run().
  std::map<std::string, double> blocks;
  if (o.trace) blocks = profile_blocks(o);

  std::int64_t peak_total = 0;
  std::map<std::string, std::int64_t> peak_class;
  for (int r = 0; r < b.cluster->size(); ++r) {
    const dist::MemoryLedger& l = b.cluster->ledger(r);
    peak_total = std::max(peak_total, static_cast<std::int64_t>(l.peak_total()));
    for (int c = 0; c < static_cast<int>(dist::MemClass::kNumClasses); ++c) {
      const auto cls = static_cast<dist::MemClass>(c);
      std::int64_t& slot = peak_class[dist::mem_class_name(cls)];
      slot = std::max(slot, static_cast<std::int64_t>(l.peak(cls)));
    }
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);

  Json j;
  j.open('{');
  j.key("plan").str(rep.plan.plan.to_string());
  j.key("setup_s").num(median(setup_times));
  j.key("finetune_s").num(finetune_s);
  j.key("train_samples").num(b.dataset->train_size());
  j.key("phase1_s").num(rep.phase1.wall_seconds);
  j.key("phase1_epochs").num(static_cast<std::int64_t>(
      rep.phase1.epoch_losses.size()));
  j.key("phase2_s").num(rep.phase2.wall_seconds);
  j.key("phase2_epochs").num(static_cast<std::int64_t>(
      rep.phase2.epoch_losses.size()));
  j.key("redistribution_s").num(rep.redistribution_seconds);
  j.key("redist_bytes").num(
      static_cast<std::int64_t>(rep.redistribution.payload_bytes_sent));
  j.key("cache_bytes_total").num(
      static_cast<std::int64_t>(rep.cache_bytes_total));
  j.key("profile_s").num(profile_s);
  j.key("plan_s").num(rep.planning_seconds);
  j.key("est_minibatch_s").num(rep.plan.minibatch_seconds);
  j.key("effective_batch").num(rep.effective_batch_size);
  j.key("rank_deaths").num(static_cast<std::int64_t>(rep.rank_deaths));
  j.key("epoch_losses").open('[');
  for (double l : rep.epoch_losses) j.num(l);
  j.close(']');
  j.key("eval_metric").num(rep.eval_metric);
  j.key("peak_device_bytes").num(peak_total);
  j.key("peak_class_bytes").object(peak_class);
  j.key("rss_bytes").num(static_cast<std::int64_t>(ru.ru_maxrss) * 1024);
  if (o.trace) {
    j.key("blocks_s").object(blocks);
    j.key("span_self_s").object(self);
    j.key("counters").object(obs::CounterRegistry::instance().counters());
    j.key("dropped_events").num(dropped);
  }
  j.close('}');
  std::cout << j.text() << std::endl;
  return 0;
}

// ---- self-test --------------------------------------------------------------

int failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-12) {
    std::cerr << "FAIL " << what << ": got " << got << ", want " << want
              << "\n";
    ++failures;
  }
}

void expect(const char* what, bool ok) {
  if (!ok) {
    std::cerr << "FAIL " << what << "\n";
    ++failures;
  }
}

obs::SpanRecord span(int tid, const char* name, std::int64_t b,
                     std::int64_t e) {
  obs::SpanRecord s;
  s.tid = tid;
  s.name = name;
  s.begin_ns = b;
  s.end_ns = e;
  return s;
}

void test_nested() {
  // outer[0,100) holds a[10,30) and b[40,90); b holds c[50,60).
  const auto t = self_times({span(0, "c", 50, 60), span(0, "b", 40, 90),
                             span(0, "outer", 0, 100), span(0, "a", 10, 30)});
  expect_near("nested outer", t.at("outer"), 30e-9);
  expect_near("nested a", t.at("a"), 20e-9);
  expect_near("nested b", t.at("b"), 40e-9);
  expect_near("nested c", t.at("c"), 10e-9);
  // Siblings that touch end-to-start are not nested in each other.
  const auto u = self_times({span(0, "p", 0, 10), span(0, "q", 10, 30)});
  expect_near("touching p", u.at("p"), 10e-9);
  expect_near("touching q", u.at("q"), 20e-9);
}

void test_two_threads() {
  // Overlapping in time but on different threads: no parent/child relation;
  // same-name spans sum across threads.
  const auto t = self_times({span(1, "x", 0, 100), span(2, "y", 10, 50),
                             span(2, "x", 60, 80), span(1, "y", 20, 30)});
  expect_near("thread x", t.at("x"), (100 - 10 + 20) * 1e-9);
  expect_near("thread y", t.at("y"), (40 + 10) * 1e-9);
}

void test_wrapped_ring() {
  // A ring of 7 events over 20 iterations of outer{inner} keeps the tail of
  // iteration 18 (an inner pair and an orphan outer end, which export
  // repair drops) and all of iteration 19.
  obs::TraceSession::Options opts;
  opts.ring_capacity = 7;
  obs::TraceSession session(opts);
  for (int i = 0; i < 20; ++i) {
    PAC_TRACE_SCOPE("outer", i);
    PAC_TRACE_SCOPE("inner", i);
  }
  std::uint64_t dropped = 0;
  for (const obs::ThreadTrace& t : session.collect().threads) {
    dropped += t.dropped;
  }
  const std::vector<obs::SpanRecord> spans = session.spans();
  const auto t = self_times(spans);
  expect("ring wrapped", dropped == 80 - 7);
  expect("ring spans", spans.size() == 3);
  double outer_dur = 0.0;
  double inner_last = 0.0;
  double inner_all = 0.0;
  std::int64_t last_begin = -1;
  for (const obs::SpanRecord& s : spans) {
    const double d = static_cast<double>(s.end_ns - s.begin_ns) * 1e-9;
    if (std::string(s.name) == "outer") outer_dur = d;
    if (std::string(s.name) == "inner") {
      inner_all += d;
      if (s.begin_ns > last_begin) {
        last_begin = s.begin_ns;
        inner_last = d;
      }
    }
  }
  expect_near("ring outer self", t.at("outer"), outer_dur - inner_last);
  expect_near("ring inner self", t.at("inner"), inner_all);
}

int self_test() {
  test_nested();
  test_two_threads();
  test_wrapped_ring();
  std::cout << (failures == 0 ? "self-test ok" : "self-test FAILED")
            << std::endl;
  return failures == 0 ? 0 : 1;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--data-seed") {
      o.data_seed = std::stoull(value());
    } else if (a == "--train-samples") {
      o.train_samples = std::stoll(value());
    } else if (a == "--budget-bytes") {
      o.budget_bytes = std::stoull(value());
    } else if (a == "--cache") {
      o.cache = value();
      if (o.cache != "off" && o.cache != "f32" && o.cache != "i8") {
        throw std::invalid_argument("--cache must be off, f32 or i8");
      }
    } else if (a == "--disk-dir") {
      o.disk_dir = value();
    } else if (a == "--trace") {
      o.trace = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  return o;
}

// Median seconds per block kind over many Session-style profiles: the
// source of kPinnedSeconds.
int print_profile(const Options& o) {
  constexpr int kProfiles = 101;
  std::map<std::string, std::vector<double>> fwd;
  std::map<std::string, std::vector<double>> bwd;
  for (int i = 0; i < kProfiles; ++i) {
    for (const planner::BlockProfile& b : profile(o, kSessionProfileIters)) {
      fwd[block_kind(b.name)].push_back(b.t_fwd);
      bwd[block_kind(b.name)].push_back(b.t_bwd);
    }
  }
  for (const auto& [kind, v] : fwd) {
    std::cout << kind << " fwd " << median(v) << " bwd " << median(bwd[kind])
              << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "run") return run(parse(argc, argv));
    if (mode == "profile") return print_profile(parse(argc, argv));
    if (mode == "self-test") return self_test();
  } catch (const std::exception& e) {
    std::cerr << "pac_perfbench: " << e.what() << "\n";
    return 3;
  }
  std::cerr << "usage: pac_perfbench run [options] | profile | self-test\n";
  return 2;
}
