// Kernel micro-benchmarks (google-benchmark): the primitives whose cost
// the analytic model abstracts — GEMM, softmax, LayerNorm, attention, and
// a full encoder-layer forward/backward at executed scale.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>

#include "nn/attention.hpp"
#include "nn/linear.hpp"
#include "nn/transformer_layer.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace pac;

void BM_Gemm(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = ops::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmTransposed(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(2);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = ops::matmul_nt(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmTransposed)->Arg(64)->Arg(128);

void BM_GemmBatched(benchmark::State& state) {
  // Attention-shaped batch: batch = B * num_heads small GEMMs, the exact
  // pattern the per-head score/context matmuls produce.
  const auto t = state.range(0);
  constexpr std::int64_t kBatch = 16;  // 4 sequences x 4 heads
  constexpr std::int64_t kHeadDim = 16;
  Rng rng(8);
  Tensor a = Tensor::randn({kBatch, t, kHeadDim}, rng);
  Tensor b = Tensor::randn({kBatch, t, kHeadDim}, rng);
  Tensor c({kBatch, t, t});
  for (auto _ : state) {
    ops::gemm_batched(a.data(), b.data(), c.data(), kBatch, t, t, kHeadDim,
                      t * kHeadDim, t * kHeadDim, t * t,
                      /*trans_a=*/false, /*trans_b=*/true, 1.0F, 0.0F);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * kBatch * t * t * kHeadDim);
}
BENCHMARK(BM_GemmBatched)->Arg(16)->Arg(64)->Arg(128);

// The GEMMs the fine-tuning workloads execute (model::tiny(6, 48, 4, 64,
// 16), micro-batch 4 x 16 = 64 rows).  Linear forward: x[64, in] W^T + b.
void BM_LinearForward(benchmark::State& state) {
  const auto in = state.range(0);
  const auto out = state.range(1);
  constexpr std::int64_t kRows = 64;
  Rng rng(10);
  nn::Linear linear("bench", in, out, rng);
  linear.set_context_enabled(false);
  Tensor x = Tensor::randn({kRows, in}, rng);
  for (auto _ : state) {
    Tensor y = linear.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * kRows * in * out);
}
BENCHMARK(BM_LinearForward)->Args({48, 48})->Args({48, 192})->Args({192, 48});

// Attention at the executed shape: 16 heads (4 sequences x 4 heads) of
// T = 16, head_dim 12.  Arg 0: scores = q k^T (16x16x12, B transposed);
// Arg 1: context = probs @ v (16x12x16, neither transposed).
void BM_AttentionHeadGemm(benchmark::State& state) {
  const bool probs_v = state.range(0) == 1;
  constexpr std::int64_t kHeads = 16;
  constexpr std::int64_t kT = 16;
  constexpr std::int64_t kHeadDim = 12;
  Rng rng(11);
  Tensor q = Tensor::randn({kHeads, kT, kHeadDim}, rng);
  Tensor kv = Tensor::randn({kHeads, kT, kHeadDim}, rng);
  Tensor probs = ops::softmax_lastdim(Tensor::randn({kHeads, kT, kT}, rng));
  Tensor c({kHeads, kT, probs_v ? kHeadDim : kT});
  for (auto _ : state) {
    if (probs_v) {
      ops::gemm_batched(probs.data(), kv.data(), c.data(), kHeads, kT,
                        kHeadDim, kT, kT * kT, kT * kHeadDim, kT * kHeadDim,
                        false, false, 1.0F, 0.0F);
    } else {
      ops::gemm_batched(q.data(), kv.data(), c.data(), kHeads, kT, kT,
                        kHeadDim, kT * kHeadDim, kT * kHeadDim, kT * kT,
                        false, true, 0.28867513F, 0.0F);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * kHeads * kT * kT *
                          kHeadDim);
}
BENCHMARK(BM_AttentionHeadGemm)->Arg(0)->Arg(1);

void BM_FusedMaskedSoftmax(benchmark::State& state) {
  // Causal-masked softmax over attention scores, fused mask + softmax pass.
  const auto t = state.range(0);
  constexpr std::int64_t kB = 4;
  constexpr std::int64_t kHeads = 4;
  Rng rng(9);
  Tensor base = Tensor::randn({kB, kHeads, t, t}, rng);
  Tensor scores(base.shape());
  for (auto _ : state) {
    state.PauseTiming();
    std::copy_n(base.data(), base.numel(), scores.data());
    state.ResumeTiming();
    ops::attention_masked_softmax(scores, kB, kHeads, t, t, /*causal=*/true,
                                  /*key_mask=*/nullptr);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * base.numel());
}
BENCHMARK(BM_FusedMaskedSoftmax)->Arg(64)->Arg(128);

void BM_Softmax(benchmark::State& state) {
  Rng rng(3);
  Tensor x = Tensor::randn({state.range(0), 128}, rng);
  for (auto _ : state) {
    Tensor y = ops::softmax_lastdim(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_Softmax)->Arg(64)->Arg(512);

void BM_LayerNorm(benchmark::State& state) {
  Rng rng(4);
  Tensor x = Tensor::randn({state.range(0), 128}, rng);
  Tensor gamma = Tensor::full({128}, 1.0F);
  Tensor beta = Tensor::zeros({128});
  for (auto _ : state) {
    Tensor y = ops::layernorm(x, gamma, beta, 1e-5F, nullptr);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_LayerNorm)->Arg(64)->Arg(512);

void BM_AttentionForward(benchmark::State& state) {
  Rng rng(5);
  nn::MultiHeadAttention attn("bench", 64, 4, rng);
  attn.set_context_enabled(false);
  Tensor x = Tensor::randn({4, state.range(0), 64}, rng);
  for (auto _ : state) {
    Tensor y = attn.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_AttentionForward)->Arg(16)->Arg(64);

void BM_EncoderLayerForwardBackward(benchmark::State& state) {
  Rng rng(6);
  nn::TransformerEncoderLayer layer("bench", 64, 4, 256, rng);
  Tensor x = Tensor::randn({4, 16, 64}, rng);
  for (auto _ : state) {
    Tensor y = layer.forward(x);
    Tensor dx = layer.backward(Tensor::zeros(y.shape()));
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_EncoderLayerForwardBackward);

void BM_EncoderLayerForwardOnly(benchmark::State& state) {
  // Forward-only (context disabled) — what the frozen backbone costs under
  // Parallel Adapters.
  Rng rng(7);
  nn::TransformerEncoderLayer layer("bench", 64, 4, 256, rng);
  layer.set_context_enabled(false);
  Tensor x = Tensor::randn({4, 16, 64}, rng);
  for (auto _ : state) {
    Tensor y = layer.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_EncoderLayerForwardOnly);

// Cost of one PAC_TRACE_SCOPE when tracing is off (Arg 0: the default
// state of every instrumented hot path — a relaxed atomic load and an
// untouched pending-name slot) vs recording into a live ring (Arg 1).
void BM_TraceScope(benchmark::State& state) {
  const bool enabled = state.range(0) == 1;
  std::unique_ptr<obs::TraceSession> session;
  if (enabled) {
    session = std::make_unique<obs::TraceSession>();
  }
  std::int64_t x = 0;
  for (auto _ : state) {
    PAC_TRACE_SCOPE("bench_span", x);
    benchmark::DoNotOptimize(++x);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceScope)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  // The tier the GEMM numbers were measured on (see DESIGN.md 5d).
  benchmark::AddCustomContext("gemm_isa", pac::ops::gemm_isa());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
