// Distributed-runtime micro-benchmarks (google-benchmark): transport
// point-to-point, ring vs naive AllReduce (ablation §5 of DESIGN.md),
// 1F1B vs GPipe end-to-end on the executed engine, and the BM_Comm*
// rows — the overlapped pipeline on a simulated 128 Mbps link (in-proc,
// TCP loopback, WAN-shaped, traced), a multi-mini-batch epoch on
// hybrid_live's 2x2 plan, and cold vs prefetched cache fetches
// (recorded to BENCH_comm.json by scripts/bench.sh --suite comm).
#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <numeric>
#include <optional>
#include <string>
#include <thread>

#include "cache/activation_cache.hpp"
#include "core/session.hpp"
#include "data/dataset.hpp"
#include "dist/cluster.hpp"
#include "dist/transport_factories.hpp"
#include "elastic/health.hpp"
#include "obs/trace.hpp"
#include "pipeline/runners.hpp"
#include "planner/planner.hpp"
#include "tensor/quant.hpp"

namespace {

using namespace pac;

void BM_TransportPingPong(benchmark::State& state) {
  dist::InProcTransport transport(2, dist::LinkModel{});
  const auto n = state.range(0);
  Rng rng(1);
  Tensor payload = Tensor::randn({n}, rng);
  for (auto _ : state) {
    transport.send(0, 1, 0, payload.clone());
    Tensor r = transport.recv(1, 0, 0);
    benchmark::DoNotOptimize(r.data());
  }
  state.SetBytesProcessed(state.iterations() * n * 4);
}
BENCHMARK(BM_TransportPingPong)->Arg(1024)->Arg(1 << 16);

template <dist::AllReduceAlgo Algo>
void BM_AllReduce(benchmark::State& state) {
  const int world = static_cast<int>(state.range(0));
  const auto n = state.range(1);
  dist::EdgeCluster cluster(world,
                            std::numeric_limits<std::uint64_t>::max());
  std::vector<int> group(static_cast<std::size_t>(world));
  std::iota(group.begin(), group.end(), 0);
  for (auto _ : state) {
    cluster.run([&](dist::DeviceContext& ctx) {
      Tensor t = Tensor::full({n}, 1.0F);
      ctx.comm.allreduce_sum(t, group, 100, Algo);
      benchmark::DoNotOptimize(t.data());
    });
  }
  state.SetBytesProcessed(state.iterations() * world * n * 4);
}
// {2, 1600} and {4, 1600}: an executed adapter-gradient payload (6.4 KB,
// like a hybrid_live stage's grads), which takes the direct schedule;
// {4, 13334}: 53336 bytes, just above the g = 4 crossover of the default
// link, back on the ring.
BENCHMARK(BM_AllReduce<dist::AllReduceAlgo::kRing>)
    ->Args({2, 1600})
    ->Args({4, 1600})
    ->Args({4, 13334})
    ->Args({4, 1 << 14})
    ->Args({8, 1 << 14})
    ->Args({4, 1 << 18});
BENCHMARK(BM_AllReduce<dist::AllReduceAlgo::kNaive>)
    ->Args({4, 1 << 14})
    ->Args({8, 1 << 14})
    ->Args({4, 1 << 18});

void run_schedule_bench(benchmark::State& state,
                        pipeline::ScheduleKind schedule) {
  data::DatasetConfig dcfg;
  dcfg.task = data::GlueTask::kSst2;
  dcfg.train_samples = 32;
  dcfg.eval_samples = 8;
  dcfg.seq_len = 8;
  dcfg.vocab = 32;
  data::SyntheticGlueDataset ds(dcfg);
  auto factory = [] {
    model::TechniqueConfig tc;
    tc.technique = model::Technique::kParallelAdapters;
    tc.pa_reduction = 4;
    return std::make_unique<model::Model>(model::tiny(4, 16, 2, 32, 8), tc,
                                          model::TaskSpec{}, 12);
  };
  for (auto _ : state) {
    dist::EdgeCluster cluster(2,
                              std::numeric_limits<std::uint64_t>::max());
    pipeline::RunConfig cfg;
    cfg.plan = pipeline::ParallelPlan::pure_pipeline(6, 2, 4);
    cfg.schedule = schedule;
    cfg.batch_size = 32;
    cfg.epochs = 1;
    cfg.run_eval = false;
    auto r = run_training(cluster, ds, factory, cfg);
    benchmark::DoNotOptimize(r.epoch_losses.data());
  }
}

void BM_Pipeline1F1B(benchmark::State& state) {
  run_schedule_bench(state, pipeline::ScheduleKind::k1F1B);
}
BENCHMARK(BM_Pipeline1F1B);

void BM_PipelineGPipe(benchmark::State& state) {
  run_schedule_bench(state, pipeline::ScheduleKind::kGPipe);
}
BENCHMARK(BM_PipelineGPipe);

// ---------------------------------------------------------------------------
// Compute/comm overlap: one 1F1B training epoch on a simulated 128 Mbps /
// 1 ms edge link.  Each iteration runs the same one-mini-batch schedule,
// so the per-iteration time IS the per-mini-batch pipeline wall clock.
//
// Shape rationale: the overlap win is the heavy stage's send sleeps
// running on the sender thread instead of its critical path, so the split
// is deliberately unbalanced (13 blocks vs 1) the way PAC's planner splits
// for heterogeneous edge devices, and the model is sized so per-micro
// compute and per-micro link time are comparable (a toy model under a
// 1 ms link is pure comm and nothing can hide it).  Single-device stages
// keep the bench honest on small CI hosts, where co-located ranks would
// otherwise share one core.
// ---------------------------------------------------------------------------

enum class CommBackend { kInProc, kTcpLoopback };

// `trace_path` non-empty: one live TraceSession (+ counters) spans every
// iteration, dumped there at the end.  `link_sleeps` false turns the
// modeled link's sleeps off.
void run_comm_pipeline_bench(benchmark::State& state, CommBackend backend,
                             double shape_mbps = 0.0,
                             const std::string& trace_path = "",
                             bool link_sleeps = true) {
  data::DatasetConfig dcfg;
  dcfg.task = data::GlueTask::kSst2;
  dcfg.train_samples = 32;
  dcfg.eval_samples = 8;
  dcfg.seq_len = 32;
  dcfg.vocab = 32;
  data::SyntheticGlueDataset ds(dcfg);
  auto factory = [] {
    model::TechniqueConfig tc;
    tc.technique = model::Technique::kParallelAdapters;
    tc.pa_reduction = 4;
    return std::make_unique<model::Model>(model::tiny(12, 64, 2, 32, 32), tc,
                                          model::TaskSpec{}, 12);
  };
  pipeline::StageAssignment s0{0, 13, {0}, {}};
  pipeline::StageAssignment s1{13, 14, {1}, {}};
  dist::LinkModel lan;  // paper testbed: 128 Mbps, 1 ms — slept for real
  lan.simulate_delay = link_sleeps;
  dist::FaultPlan faults;
  if (shape_mbps > 0.0) {
    // WAN token-bucket shaping on top of the modeled link: bursts ride the
    // bucket, sustained traffic is throttled to the configured rate.
    faults.shape_bandwidth_bps = shape_mbps * 1e6;
    faults.shape_burst_bytes = 16 * 1024;
  }
  std::optional<obs::TraceSession> trace;
  if (!trace_path.empty()) {
    obs::TraceSession::Options opts;
    opts.path = trace_path;
    trace.emplace(opts);
  }
  for (auto _ : state) {
    dist::EdgeCluster cluster(2, std::numeric_limits<std::uint64_t>::max(),
                              lan);
    if (backend == CommBackend::kTcpLoopback) {
      cluster.set_transport_factory(dist::make_tcp_loopback_factory());
    }
    cluster.set_fault_plan(faults);
    pipeline::RunConfig cfg;
    cfg.plan.stages = {s0, s1};
    cfg.plan.num_micro_batches = 16;
    cfg.batch_size = 32;
    cfg.epochs = 1;
    cfg.run_eval = false;
    auto r = run_training(cluster, ds, factory, cfg);
    benchmark::DoNotOptimize(r.epoch_losses.data());
  }
  state.SetItemsProcessed(state.iterations());  // one mini-batch per epoch
}

void BM_CommPipelineMiniBatch(benchmark::State& state) {
  run_comm_pipeline_bench(state, CommBackend::kInProc);
}
// UseRealTime: nearly all of an iteration is link sleeps and cross-thread
// waits, so CPU time would both misreport the result and make the harness
// run hundreds of iterations to fill --benchmark_min_time.
BENCHMARK(BM_CommPipelineMiniBatch)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The same mini-batch with no link sleeps: an in-process send that cannot
// wait is delivered on the rank thread, so this row prices the pipeline's
// compute and its rank-to-rank hand-offs with no sender-thread hop.
void BM_CommPipelineMiniBatchNoLink(benchmark::State& state) {
  run_comm_pipeline_bench(state, CommBackend::kInProc, 0.0, "",
                          /*link_sleeps=*/false);
}
BENCHMARK(BM_CommPipelineMiniBatchNoLink)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One epoch of several mini-batches on hybrid_live's shape: the
// Parallel Adapters model tiny(6, 48, 4, 64, 16), batch 16 in 4 micros, and
// the 2x2 plan S0[blocks 0..3; devs 0 1] | S1[blocks 4..7; devs 2 3], with
// no link sleeps.  A single mini-batch cannot show the first stage running
// the next mini-batch's backbone ahead across the optimizer step; 8 can.
void BM_CommPipelineEpochNoLink(benchmark::State& state) {
  constexpr std::int64_t kMiniBatches = 8;
  data::DatasetConfig dcfg;
  dcfg.task = data::GlueTask::kMrpc;
  dcfg.train_samples = 16 * kMiniBatches;
  dcfg.eval_samples = 8;
  dcfg.seq_len = 16;
  dcfg.vocab = 64;
  data::SyntheticGlueDataset ds(dcfg);
  auto factory = [] {
    model::TechniqueConfig tc;
    tc.technique = model::Technique::kParallelAdapters;
    return std::make_unique<model::Model>(model::tiny(6, 48, 4, 64, 16), tc,
                                          model::TaskSpec{}, 12);
  };
  pipeline::RunConfig cfg;
  cfg.plan.stages = {pipeline::StageAssignment{0, 4, {0, 1}, {}},
                     pipeline::StageAssignment{4, 8, {2, 3}, {}}};
  cfg.plan.num_micro_batches = 4;
  cfg.batch_size = 16;
  cfg.epochs = 1;
  cfg.run_eval = false;
  for (auto _ : state) {
    dist::EdgeCluster cluster(4, std::numeric_limits<std::uint64_t>::max());
    auto r = run_training(cluster, ds, factory, cfg);
    benchmark::DoNotOptimize(r.epoch_losses.data());
  }
  state.SetItemsProcessed(state.iterations() * kMiniBatches);
}
BENCHMARK(BM_CommPipelineEpochNoLink)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The same mini-batch over real TCP loopback sockets (every rank its own
// endpoint, frames through the kernel): the delta against
// BM_CommPipelineMiniBatch is the wire cost of the transport backend —
// framing, syscalls, loopback copies — on top of the modeled link.
// range(0) is WAN token-bucket shaping in Mbps (0 = unshaped): the shaped
// row prices the same mini-batch on a constrained cross-machine link.
void BM_CommPipelineMiniBatchTcp(benchmark::State& state) {
  run_comm_pipeline_bench(state, CommBackend::kTcpLoopback,
                          static_cast<double>(state.range(0)));
}
BENCHMARK(BM_CommPipelineMiniBatchTcp)
    ->ArgNames({"shape_mbps"})
    ->Arg(0)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Same workload with a live TraceSession + counters.  Compare against
// BM_CommPipelineMiniBatch for the observability-*enabled* cost
// (instrumentation is always compiled in; the acceptance bar is <2% when
// disabled).
void BM_CommPipelineMiniBatchObs(benchmark::State& state) {
  run_comm_pipeline_bench(state, CommBackend::kInProc, 0.0,
                          "/tmp/pac_bench_obs_trace.json");
}
BENCHMARK(BM_CommPipelineMiniBatchObs)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Cache prefetch: phase-2 step loop against a disk-backed shard, cold
// fetches (Arg 0) vs double-buffered prefetch of the next batch (Arg 1).
// The sleep stands in for the adapter-only compute the reload overlaps.
// ---------------------------------------------------------------------------

void BM_CommCachePrefetch(benchmark::State& state) {
  const bool prefetch = state.range(0) == 1;
  const std::string dir = "/tmp/pac_bench_comm_prefetch";
  std::filesystem::remove_all(dir);
  cache::CacheConfig ccfg;
  ccfg.num_blocks = 3;
  ccfg.disk_backed = true;
  ccfg.directory = dir;
  cache::ActivationCache cache(ccfg);
  Rng rng(7);
  constexpr std::int64_t kSamples = 32;
  constexpr std::int64_t kBatch = 8;
  for (std::int64_t s = 0; s < kSamples; ++s) {
    for (std::int64_t b = 0; b < ccfg.num_blocks; ++b) {
      cache.put_block(s, b, Tensor::randn({64, 256}, rng));
    }
  }
  std::vector<std::vector<std::int64_t>> batches;
  for (std::int64_t begin = 0; begin < kSamples; begin += kBatch) {
    std::vector<std::int64_t> ids(static_cast<std::size_t>(kBatch));
    std::iota(ids.begin(), ids.end(), begin);
    batches.push_back(std::move(ids));
  }
  for (auto _ : state) {
    for (std::size_t i = 0; i < batches.size(); ++i) {
      if (prefetch && i + 1 < batches.size()) {
        cache.prefetch(batches[i + 1]);
      }
      auto blocks = cache.fetch(batches[i]);
      benchmark::DoNotOptimize(blocks.data());
      // Stand-in for the side-network fwd+bwd of one cached step.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batches.size()));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CommCachePrefetch)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Quantized cache codec: encode + decode of one cached activation block
// (the same [64, 256] shape the prefetch bench stores) per storage dtype.
// Arg is the quant::Dtype value — 0 fp32 (repack floor), 1 fp16, 2 int8 —
// and bytes/s counts fp32 bytes through the codec, so the fp16/int8 rows
// are the per-block conversion cost the compressed cache pays on every
// record + fetch.
// ---------------------------------------------------------------------------

void BM_CacheQuantizeRoundTrip(benchmark::State& state) {
  const auto dtype = static_cast<quant::Dtype>(state.range(0));
  Rng rng(11);
  Tensor block = Tensor::randn({64, 256}, rng);
  std::vector<float> out(static_cast<std::size_t>(block.numel()));
  for (auto _ : state) {
    quant::QTensor q = quant::quantize_rows(block.data(), block.shape(),
                                            dtype);
    quant::dequantize_into(q, out.data());
    benchmark::DoNotOptimize(q.data.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * block.numel() * 4);
  state.SetLabel(quant::dtype_name(dtype));
}
BENCHMARK(BM_CacheQuantizeRoundTrip)->Arg(0)->Arg(1)->Arg(2);

// ---------------------------------------------------------------------------
// The compressed cache end-to-end: a full PAC session per storage dtype —
// phase 1 records into quantized shards, redistribution ships compressed
// frames, phase 2 trains from dequantized fetches.  Two counters carry the
// acceptance numbers into BENCH_comm.json: cache_bytes (resident shard
// bytes after redistribution) and redist_bytes (payload bytes the
// all-to-all actually sent).  fp16 must show >= 1.9x less of both than the
// Arg 0 fp32 baseline; int8 lands near 3.5x (its scales cost one f32 per
// [T, H] row).
// ---------------------------------------------------------------------------

void BM_CommPipelineMiniBatchQuantCache(benchmark::State& state) {
  const auto dtype = static_cast<quant::Dtype>(state.range(0));
  data::DatasetConfig dcfg;
  dcfg.task = data::GlueTask::kSst2;
  dcfg.train_samples = 32;
  dcfg.eval_samples = 8;
  dcfg.seq_len = 32;
  dcfg.vocab = 32;
  data::SyntheticGlueDataset ds(dcfg);
  core::SessionConfig cfg;
  cfg.model = model::tiny(4, 64, 2, 32, 32);
  cfg.technique.technique = model::Technique::kParallelAdapters;
  cfg.technique.pa_reduction = 4;
  cfg.batch_size = 16;
  cfg.num_micro_batches = 4;
  cfg.epochs = 3;
  cfg.run_eval = false;
  cfg.cache_dtype = dtype;
  std::uint64_t cache_bytes = 0;
  std::uint64_t redist_bytes = 0;
  for (auto _ : state) {
    dist::EdgeCluster cluster(2, std::numeric_limits<std::uint64_t>::max());
    core::Session session(cluster, ds, cfg);
    core::SessionReport report = session.run();
    cache_bytes = report.cache_bytes_total;
    redist_bytes = report.redistribution.payload_bytes_sent;
    benchmark::DoNotOptimize(report.epoch_losses.data());
  }
  state.counters["cache_bytes"] = static_cast<double>(cache_bytes);
  state.counters["redist_bytes"] = static_cast<double>(redist_bytes);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(quant::dtype_name(dtype));
}
BENCHMARK(BM_CommPipelineMiniBatchQuantCache)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// BM_ElasticReplan: the full straggler-reaction path the elastic runtime
// pays at a mini-batch boundary — feed the HealthMonitor until it issues a
// verdict, then re-run the planner DP with the observed speeds folded in.
// This is the detour the session takes between unwinding the old plan and
// launching the new one, so it bounds the re-plan latency the chaos tests
// hide inside their wall clock.
// ---------------------------------------------------------------------------

void BM_ElasticReplan(benchmark::State& state) {
  const int world = static_cast<int>(state.range(0));
  const std::int64_t blocks = state.range(1);
  planner::PlannerInput input;
  for (std::int64_t i = 0; i < blocks; ++i) {
    planner::BlockProfile b;
    b.name = "block" + std::to_string(i);
    b.t_fwd = 1e-3;
    b.t_bwd = 2e-3;
    b.param_bytes = 64 * 1024;
    b.trainable_bytes = 4 * 1024;
    b.activation_bytes = 8 * 1024;
    b.fwd_msg_bytes = 4 * 1024;
    b.bwd_msg_bytes = 512;
    input.blocks.push_back(b);
  }
  input.num_devices = world;
  input.num_micro_batches = 8;

  elastic::ElasticPolicy policy;
  policy.enabled = true;
  policy.straggler_ratio = 0.5;
  policy.straggler_window = 2;
  policy.warmup_minibatches = 1;

  std::vector<int> group(static_cast<std::size_t>(world));
  std::iota(group.begin(), group.end(), 0);

  for (auto _ : state) {
    elastic::HealthMonitor monitor(policy, world, /*verdict_budget=*/1);
    monitor.set_groups({group});
    std::optional<elastic::StragglerVerdict> verdict;
    for (int mb = 0; !verdict; ++mb) {
      for (int r = 0; r < world && !verdict; ++r) {
        // Rank world-1 runs 8x slow; everyone else at the profiled speed.
        const double seconds = r == world - 1 ? 8e-3 : 1e-3;
        verdict = monitor.record_minibatch(r, seconds, 8);
      }
    }
    std::vector<double> observed(static_cast<std::size_t>(world), 1.0);
    for (const auto& [rank, scale] : verdict->observed_scales) {
      observed[static_cast<std::size_t>(rank)] = scale;
    }
    auto est = planner::replan_hybrid(input, observed);
    benchmark::DoNotOptimize(est.feasible);
    benchmark::DoNotOptimize(est.minibatch_seconds);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ElasticReplan)
    ->Args({4, 8})
    ->Args({8, 26})  // bart-large-scale block count
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
