// Property tests for the tiled/packed GEMM path and the fused attention
// softmax: randomized shapes (including odd, non-multiple-of-tile sizes) are
// checked against golden triple-loop references, kernels are re-run to
// confirm bit-identical results (chaos_test's trajectory guarantees assume
// run-to-run determinism for a fixed thread count), and the executed shapes
// are pinned to recorded output checksums.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/linear.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace pac {
namespace {

// Golden reference: plain triple loop with double accumulation, identical
// semantics to gemm_raw (C = alpha * op(A) @ op(B) + beta * C).
void gemm_reference(const float* a, const float* b, const float* c_in,
                    float* c_out, std::int64_t m, std::int64_t n,
                    std::int64_t k, bool ta, bool tb, float alpha,
                    float beta) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * m + i] : a[i * k + p];
        const float bv = tb ? b[j * k + p] : b[p * n + j];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      const double prior =
          beta == 0.0F ? 0.0 : static_cast<double>(beta) * c_in[i * n + j];
      c_out[i * n + j] = static_cast<float>(
          static_cast<double>(alpha) * acc + prior);
    }
  }
}

void expect_close(const std::vector<float>& got, const std::vector<float>& ref,
                  const char* what) {
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float tol = 1e-4F * (1.0F + std::abs(ref[i]));
    EXPECT_NEAR(got[i], ref[i], tol) << what << " at flat index " << i;
  }
}

TEST(GemmPropertyTest, RandomShapesAllTransCombosMatchReference) {
  Rng rng(20240807);
  // Mix of tiny and odd sizes so partial micro-tiles and the small-GEMM
  // fallback are exercised; a few fixed large shapes (appended after the
  // random draws) cross the Mc/Kc block boundaries, including k > Kc so
  // multiple depth blocks accumulate into C.
  const std::int64_t interesting[] = {1,  2,  3,  7,  8,   9,  15,
                                      16, 17, 31, 33, 63,  65, 100,
                                      129};
  struct Case {
    std::int64_t m, n, k;
  };
  const Case big_cases[] = {{129, 65, 300}, {257, 33, 257}, {64, 140, 512}};
  const float alphas[] = {1.0F, 0.5F, -2.0F};
  const float betas[] = {0.0F, 1.0F, 0.25F};
  const int random_iters = 48;
  const int total_iters = random_iters + 3 * 4;  // big cases x trans combos
  for (int iter = 0; iter < total_iters; ++iter) {
    std::int64_t m;
    std::int64_t n;
    std::int64_t k;
    bool ta;
    bool tb;
    if (iter < random_iters) {
      m = interesting[rng.integer(0, 14)];
      n = interesting[rng.integer(0, 14)];
      k = interesting[rng.integer(0, 14)];
      ta = rng.bernoulli(0.5);
      tb = rng.bernoulli(0.5);
    } else {
      const int which = (iter - random_iters) / 4;
      const int combo = (iter - random_iters) % 4;
      m = big_cases[which].m;
      n = big_cases[which].n;
      k = big_cases[which].k;
      ta = (combo & 1) != 0;
      tb = (combo & 2) != 0;
    }
    const float alpha = alphas[rng.integer(0, 2)];
    const float beta = betas[rng.integer(0, 2)];

    std::vector<float> a(static_cast<std::size_t>(m * k));
    std::vector<float> b(static_cast<std::size_t>(k * n));
    std::vector<float> c(static_cast<std::size_t>(m * n));
    for (auto& v : a) v = rng.normal();
    for (auto& v : b) v = rng.normal();
    for (auto& v : c) v = rng.normal();

    std::vector<float> ref(c.size());
    gemm_reference(a.data(), b.data(), c.data(), ref.data(), m, n, k, ta, tb,
                   alpha, beta);
    std::vector<float> got = c;
    ops::gemm_raw(a.data(), b.data(), got.data(), m, n, k, ta, tb, alpha,
                  beta);
    SCOPED_TRACE(::testing::Message()
                 << "m=" << m << " n=" << n << " k=" << k << " ta=" << ta
                 << " tb=" << tb << " alpha=" << alpha << " beta=" << beta);
    expect_close(got, ref, "gemm_raw");
  }
}

TEST(GemmPropertyTest, BatchedMatchesPerItemReference) {
  Rng rng(99);
  const std::int64_t batch = 13;
  const std::int64_t m = 33;
  const std::int64_t n = 17;
  const std::int64_t k = 21;
  std::vector<float> a(static_cast<std::size_t>(batch * m * k));
  std::vector<float> b(static_cast<std::size_t>(batch * k * n));
  std::vector<float> c(static_cast<std::size_t>(batch * m * n));
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto& v : c) v = rng.normal();

  std::vector<float> ref(c.size());
  for (std::int64_t i = 0; i < batch; ++i) {
    gemm_reference(a.data() + i * m * k, b.data() + i * k * n,
                   c.data() + i * m * n, ref.data() + i * m * n, m, n, k,
                   false, false, 0.7F, 1.0F);
  }
  std::vector<float> got = c;
  ops::gemm_batched(a.data(), b.data(), got.data(), batch, m, n, k, m * k,
                    k * n, m * n, false, false, 0.7F, 1.0F);
  expect_close(got, ref, "gemm_batched");
}

TEST(GemmPropertyTest, BatchedHandlesTransposes) {
  Rng rng(7);
  const std::int64_t batch = 6;
  const std::int64_t m = 19;
  const std::int64_t n = 11;
  const std::int64_t k = 23;
  // op(A) = A^T (stored [k, m]); op(B) = B^T (stored [n, k]).
  std::vector<float> a(static_cast<std::size_t>(batch * k * m));
  std::vector<float> b(static_cast<std::size_t>(batch * n * k));
  std::vector<float> c(static_cast<std::size_t>(batch * m * n), 0.0F);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();

  std::vector<float> ref(c.size());
  for (std::int64_t i = 0; i < batch; ++i) {
    gemm_reference(a.data() + i * k * m, b.data() + i * n * k,
                   c.data() + i * m * n, ref.data() + i * m * n, m, n, k,
                   true, true, 1.0F, 0.0F);
  }
  std::vector<float> got = c;
  ops::gemm_batched(a.data(), b.data(), got.data(), batch, m, n, k, k * m,
                    n * k, m * n, true, true, 1.0F, 0.0F);
  expect_close(got, ref, "gemm_batched transposed");
}

TEST(GemmPropertyTest, TiledPathIsBitDeterministic) {
  Rng rng(123);
  const std::int64_t m = 200;
  const std::int64_t n = 150;
  const std::int64_t k = 300;  // > one Kc block, > parallel threshold
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  std::vector<float> c1(static_cast<std::size_t>(m * n));
  std::vector<float> c2(static_cast<std::size_t>(m * n));
  ops::gemm_raw(a.data(), b.data(), c1.data(), m, n, k, false, false, 1.0F,
                0.0F);
  ops::gemm_raw(a.data(), b.data(), c2.data(), m, n, k, false, false, 1.0F,
                0.0F);
  EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)));
}

TEST(GemmPropertyTest, BatchedIsBitDeterministic) {
  Rng rng(321);
  const std::int64_t batch = 16;
  const std::int64_t m = 64;
  const std::int64_t n = 64;
  const std::int64_t k = 16;  // attention-like per-head shape
  std::vector<float> a(static_cast<std::size_t>(batch * m * k));
  std::vector<float> b(static_cast<std::size_t>(batch * k * n));
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  std::vector<float> c1(static_cast<std::size_t>(batch * m * n));
  std::vector<float> c2(static_cast<std::size_t>(batch * m * n));
  for (auto* c : {&c1, &c2}) {
    ops::gemm_batched(a.data(), b.data(), c->data(), batch, m, n, k, m * k,
                      k * n, m * n, false, false, 1.0F, 0.0F);
  }
  EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)));
}

// ---------------------------------------------------------------------------
// Bit identity at the executed shapes.
//
// The fine-tuning trajectories (perfbench goldens, the parity and chaos
// suites) depend on every GEMM output bit, so these shapes carry seeded
// checksums recorded from the kernels before the packing/workspace rework.
// A layout, workspace or load-path change must reproduce them exactly; a
// change that moves one of them changed the arithmetic.  There is one
// column per arithmetic of gemm.cpp's optimized build (gcc 12): with FMA
// the products fuse into the accumulation, without it they round first.
// Sanitizer instrumentation changes how gcc compiles the small transposed-B
// dot loop, so an ASan/UBSan build reads other (equally stable) values.
// ---------------------------------------------------------------------------

// FNV-1a over the output's bit patterns.
std::uint64_t bits_checksum(const std::vector<float>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const float x : v) {
    std::uint32_t u = 0;
    std::memcpy(&u, &x, sizeof u);
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (u >> (8 * byte)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

struct ChecksumCase {
  const char* what;
  std::int64_t batch, m, n, k;
  bool ta, tb;
  float alpha, beta;
  std::uint64_t fma;     // AVX2+FMA and AVX-512 builds agree bit for bit
  std::uint64_t scalar;  // no FMA: products round before the add
};

// Attention's 1/sqrt(head_dim) at head_dim 12.
constexpr float kScale12 = 0.28867513F;

// model::tiny(6, 48, 4, 64, 16): 64-row micro-batches, hidden 48, FFN 192,
// 4 heads of 12 on 4 sequences of 16, Parallel Adapter width 6, 2 classes.
const ChecksumCase kExecutedShapes[] = {
    // forward: Linear (x W^T) and attention
    {"qkvo 64x48x48", 1, 64, 48, 48, false, true, 1.0F, 0.0F,
     0x3ffb810279b504acULL, 0xbc8574b09901ae06ULL},
    {"fc1 64x192x48", 1, 64, 192, 48, false, true, 1.0F, 0.0F,
     0xf68a34188685fa4dULL, 0xadc908c4740f901aULL},
    {"fc2 64x48x192", 1, 64, 48, 192, false, true, 1.0F, 0.0F,
     0xa87c6576cf0cc5fdULL, 0x48df17d130863d36ULL},
    {"down 64x6x48", 1, 64, 6, 48, false, true, 1.0F, 0.0F,
     0xa1c13e38fa3fc02dULL, 0xaf6576e433925bULL},
    {"up 64x48x6", 1, 64, 48, 6, false, true, 1.0F, 0.0F,
     0xed70ecc84b736427ULL, 0xb50e1f4a70022263ULL},
    {"side 64x6x6", 1, 64, 6, 6, false, true, 1.0F, 0.0F,
     0x64d12665e994d071ULL, 0x8fc2bb3ba45fcd37ULL},
    {"classifier 4x2x48", 1, 4, 2, 48, false, true, 1.0F, 0.0F,
     0xfe206499f157768fULL, 0xfe206499f157768fULL},
    {"scores 16x(16x16x12)", 16, 16, 16, 12, false, true, kScale12, 0.0F,
     0x3895736a5405e752ULL, 0x3895736a5405e752ULL},
    {"probs@V 16x(16x12x16)", 16, 16, 12, 16, false, false, 1.0F, 0.0F,
     0xa84083614e781be5ULL, 0xa3a8d271e9cbd4e1ULL},
    // backward: weight-gradient accumulation (dy^T x, beta 1)
    {"dW qkvo 48x48x64", 1, 48, 48, 64, true, false, 1.0F, 1.0F,
     0x4a92ffd5cad9acb4ULL, 0xbc68704a92b93e1fULL},
    {"dW fc1 192x48x64", 1, 192, 48, 64, true, false, 1.0F, 1.0F,
     0x46eb1593c151df3dULL, 0x3da7b7a044390e3cULL},
    {"dW fc2 48x192x64", 1, 48, 192, 64, true, false, 1.0F, 1.0F,
     0xa89288ffdd9ca390ULL, 0x92accdda0d3caacULL},
    {"dW down 6x48x64", 1, 6, 48, 64, true, false, 1.0F, 1.0F,
     0x216f8cfcec7a9a8dULL, 0xfca42f1c672ac038ULL},
    {"dW up 48x6x64", 1, 48, 6, 64, true, false, 1.0F, 1.0F,
     0x37520d8c94331568ULL, 0x46580da3363a689eULL},
    {"dW side 6x6x64", 1, 6, 6, 64, true, false, 1.0F, 1.0F,
     0xf26d2fc82a90daf2ULL, 0x687c59b5dd72eb32ULL},
    {"dW classifier 2x48x4", 1, 2, 48, 4, true, false, 1.0F, 1.0F,
     0xab94b8ad6291a3feULL, 0x48cafa29e40b6e80ULL},
    // backward: input gradients (dy W)
    {"dx qkvo 64x48x48", 1, 64, 48, 48, false, false, 1.0F, 0.0F,
     0xb140446b4d87e594ULL, 0x6cc675140159e13eULL},
    {"dx fc1 64x48x192", 1, 64, 48, 192, false, false, 1.0F, 0.0F,
     0x22167c2152a47e21ULL, 0xc5a1660c1a32f27ULL},
    {"dx fc2 64x192x48", 1, 64, 192, 48, false, false, 1.0F, 0.0F,
     0x67571f342793222fULL, 0x661184f4b87e765bULL},
    {"dx down 64x48x6", 1, 64, 48, 6, false, false, 1.0F, 0.0F,
     0xe7a1dc03ef914c56ULL, 0x59dcd41a8460f692ULL},
    {"dx up 64x6x48", 1, 64, 6, 48, false, false, 1.0F, 0.0F,
     0x9bf715fbcd226a27ULL, 0x25bce513381df534ULL},
    {"dx side 64x6x6", 1, 64, 6, 6, false, false, 1.0F, 0.0F,
     0x5e584f1c15e7ada7ULL, 0xb28087dae6b8f611ULL},
    {"dx classifier 4x48x2", 1, 4, 48, 2, false, false, 1.0F, 0.0F,
     0x9a8d1783238a0d8ULL, 0x73b5d56b6a825038ULL},
    // backward: attention
    {"dprobs 16x(16x16x12)", 16, 16, 16, 12, false, true, 1.0F, 0.0F,
     0x273c7ef399aafd1ULL, 0x273c7ef399aafd1ULL},
    {"dV 16x(16x12x16)", 16, 16, 12, 16, true, false, 1.0F, 0.0F,
     0xfd4ce9ad632e0aa4ULL, 0xa403e61e579b904eULL},
    {"dQ 16x(16x12x16)", 16, 16, 12, 16, false, false, kScale12, 0.0F,
     0x2e46dfda9759b854ULL, 0x91d286ad48e289e6ULL},
    {"dK 16x(16x12x16)", 16, 16, 12, 16, true, false, kScale12, 0.0F,
     0xfb62b686bd8d2f2fULL, 0x67ae809f8d8f23a3ULL},
};

std::uint64_t run_checksum_case(const ChecksumCase& c, std::uint64_t seed) {
  Rng rng(seed);
  const std::int64_t sa = c.m * c.k;
  const std::int64_t sb = c.k * c.n;
  const std::int64_t sc = c.m * c.n;
  std::vector<float> a(static_cast<std::size_t>(c.batch * sa));
  std::vector<float> b(static_cast<std::size_t>(c.batch * sb));
  std::vector<float> out(static_cast<std::size_t>(c.batch * sc));
  // Exact zeros in A, as ReLU outputs and masked probabilities have: the
  // small kernel's non-transposed loop skips them.
  for (auto& v : a) v = rng.bernoulli(0.2) ? 0.0F : rng.normal();
  for (auto& v : b) v = rng.normal();
  // beta == 0 must not read C: a NaN there would poison the checksum.
  for (auto& v : out) {
    v = c.beta == 0.0F ? std::numeric_limits<float>::quiet_NaN()
                       : rng.normal();
  }
  ops::gemm_batched(a.data(), b.data(), out.data(), c.batch, c.m, c.n, c.k,
                    sa, sb, sc, c.ta, c.tb, c.alpha, c.beta);
  return bits_checksum(out);
}

TEST(GemmBitIdentityTest, ExecutedShapesMatchRecordedChecksums) {
  const std::string isa = ops::gemm_isa();
  std::uint64_t seed = 1;
  for (const ChecksumCase& c : kExecutedShapes) {
    const std::uint64_t want = isa == "scalar" ? c.scalar : c.fma;
    const std::uint64_t got = run_checksum_case(c, seed++);
    EXPECT_EQ(got, want) << c.what << " on " << isa << ": 0x" << std::hex
                         << got;
  }
}

// Stored transpose of a rows x cols row-major matrix.
std::vector<float> transposed(const std::vector<float>& x, std::int64_t rows,
                              std::int64_t cols) {
  std::vector<float> t(x.size());
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) t[c * rows + r] = x[r * cols + c];
  }
  return t;
}

std::vector<float> random_vector(Rng& rng, std::int64_t count) {
  std::vector<float> v(static_cast<std::size_t>(count));
  for (auto& x : v) x = rng.normal();
  return v;
}

// The packed path (m*n*k >= 8192) packs op(B) the same way whichever way B
// is stored, and the micro-kernel's arithmetic does not depend on it: B^T
// goes through the 8x8 SIMD transposes, B through plain row copies.  So
// the two storages must give the same bits, including on ragged panels
// (n % 16 != 0, n < 8) and on depths that are not multiples of 8, in one
// depth block or two (k > Kc = 256).
TEST(GemmBitIdentityTest, TransposedBPackMatchesRowCopyPack) {
  Rng rng(4242);
  const std::int64_t m = 70;
  for (const std::int64_t n : {6, 13, 16, 24, 40, 48}) {
    for (const std::int64_t k : {21, 48, 270, 300}) {
      const std::vector<float> a = random_vector(rng, m * k);
      const std::vector<float> b = random_vector(rng, k * n);  // [k, n]
      const std::vector<float> bt = transposed(b, k, n);       // [n, k]
      std::vector<float> rowcopy(static_cast<std::size_t>(m * n));
      std::vector<float> simd(rowcopy.size());
      ops::gemm_raw(a.data(), b.data(), rowcopy.data(), m, n, k, false, false,
                    1.0F, 0.0F);
      ops::gemm_raw(a.data(), bt.data(), simd.data(), m, n, k, false, true,
                    1.0F, 0.0F);
      EXPECT_EQ(0, std::memcmp(rowcopy.data(), simd.data(),
                               rowcopy.size() * sizeof(float)))
          << "n=" << n << " k=" << k;
    }
  }
}

// Row-major A is read in place by the micro-kernel; A^T is packed into
// panels first.  Same products in the same order, so the same bits — also
// when m is not a multiple of the 8-row tile, where the in-place reader
// must not touch rows past the edge, and past one 128-row block.
TEST(GemmBitIdentityTest, RowMajorAMatchesPackedA) {
  Rng rng(777);
  const std::int64_t n = 40;
  for (const std::int64_t m : {1, 5, 9, 63, 70, 135}) {
    for (const std::int64_t k : {210, 300}) {
      const std::vector<float> a = random_vector(rng, m * k);  // [m, k]
      const std::vector<float> at = transposed(a, m, k);       // [k, m]
      const std::vector<float> b = random_vector(rng, n * k);  // [n, k]
      const std::vector<float> c0 = random_vector(rng, m * n);
      std::vector<float> in_place = c0;
      std::vector<float> packed = c0;
      ops::gemm_raw(a.data(), b.data(), in_place.data(), m, n, k, false, true,
                    0.5F, 0.25F);
      ops::gemm_raw(at.data(), b.data(), packed.data(), m, n, k, true, true,
                    0.5F, 0.25F);
      EXPECT_EQ(0, std::memcmp(in_place.data(), packed.data(),
                               in_place.size() * sizeof(float)))
          << "m=" << m << " k=" << k;
    }
  }
}

// Linear::forward adds its bias inside the GEMM store; that must equal the
// unfused matmul_nt + add_bias bit for bit, on the packed path (one or two
// depth blocks) and on the small path.
TEST(GemmBitIdentityTest, FusedBiasLinearMatchesMatmulThenAddBias) {
  Rng rng(31337);
  struct Dims {
    std::int64_t rows, in, out;
  };
  for (const Dims d : {Dims{64, 48, 48}, Dims{64, 48, 192}, Dims{64, 192, 48},
                       Dims{64, 48, 6}, Dims{4, 48, 2}, Dims{9, 300, 20}}) {
    nn::Linear linear("fused", d.in, d.out, rng);
    for (std::int64_t j = 0; j < d.out; ++j) {
      linear.bias().value().data()[j] = rng.normal();
    }
    linear.set_context_enabled(false);
    const Tensor x = Tensor::randn({d.rows, d.in}, rng);
    const Tensor fused = linear.forward(x);
    const Tensor unfused = ops::add_bias(
        ops::matmul_nt(x, linear.weight().value()), linear.bias().value());
    ASSERT_EQ(fused.numel(), unfused.numel());
    EXPECT_EQ(0, std::memcmp(fused.data(), unfused.data(),
                             fused.numel() * sizeof(float)))
        << d.rows << "x" << d.in << "->" << d.out;
  }
}

// ---------------------------------------------------------------------------
// Fused masked softmax vs the unfused mask-then-softmax pipeline.
// ---------------------------------------------------------------------------

constexpr float kMaskValue = -1e30F;

Tensor unfused_masked_softmax(const Tensor& scores, std::int64_t b,
                              std::int64_t nh, std::int64_t t, std::int64_t s,
                              bool causal, const Tensor* key_mask) {
  Tensor masked = scores.clone();
  float* ps = masked.data();
  if (causal) {
    for (std::int64_t i = 0; i < b * nh; ++i) {
      for (std::int64_t r = 0; r < t; ++r) {
        float* row = ps + (i * t + r) * s;
        for (std::int64_t c = r + 1; c < s; ++c) row[c] = kMaskValue;
      }
    }
  }
  if (key_mask != nullptr) {
    const float* pm = key_mask->data();
    for (std::int64_t bi = 0; bi < b; ++bi) {
      for (std::int64_t h = 0; h < nh; ++h) {
        for (std::int64_t r = 0; r < t; ++r) {
          float* row = ps + ((bi * nh + h) * t + r) * s;
          for (std::int64_t c = 0; c < s; ++c) {
            if (pm[bi * s + c] == 0.0F) row[c] = kMaskValue;
          }
        }
      }
    }
  }
  return ops::softmax_lastdim(masked);
}

TEST(FusedSoftmaxTest, MatchesUnfusedMaskThenSoftmax) {
  Rng rng(55);
  const std::int64_t b = 3;
  const std::int64_t nh = 2;
  const std::int64_t t = 7;
  const std::int64_t s = 7;
  for (const bool causal : {false, true}) {
    for (const bool with_mask : {false, true}) {
      Tensor scores = Tensor::randn({b, nh, t, s}, rng, 2.0F);
      Tensor mask({b, s});
      for (std::int64_t i = 0; i < mask.numel(); ++i) {
        mask.data()[i] = rng.bernoulli(0.7) ? 1.0F : 0.0F;
      }
      // Keep at least the first key unmasked for one batch so both the
      // normal path and the all-masked fallback appear across iterations.
      const Tensor* km = with_mask ? &mask : nullptr;
      Tensor want = unfused_masked_softmax(scores, b, nh, t, s, causal, km);
      Tensor got = scores.clone();
      ops::attention_masked_softmax(got, b, nh, t, s, causal, km);
      SCOPED_TRACE(::testing::Message()
                   << "causal=" << causal << " with_mask=" << with_mask);
      EXPECT_LT(ops::max_abs_diff(got, want), 1e-6F);
    }
  }
}

TEST(FusedSoftmaxTest, FullyMaskedRowFallsBackToUniform) {
  const std::int64_t b = 1;
  const std::int64_t nh = 1;
  const std::int64_t t = 2;
  const std::int64_t s = 4;
  Rng rng(77);
  Tensor scores = Tensor::randn({b, nh, t, s}, rng);
  Tensor mask = Tensor::zeros({b, s});  // every key masked
  Tensor want = unfused_masked_softmax(scores, b, nh, t, s, false, &mask);
  Tensor got = scores.clone();
  ops::attention_masked_softmax(got, b, nh, t, s, false, &mask);
  EXPECT_LT(ops::max_abs_diff(got, want), 1e-6F);
  for (std::int64_t j = 0; j < s; ++j) {
    EXPECT_FLOAT_EQ(got.at({0, 0, 0, j}), 0.25F);
  }
}

TEST(FusedSoftmaxTest, MaskedPositionsAreExactlyZero) {
  Rng rng(88);
  const std::int64_t t = 5;
  const std::int64_t s = 5;
  Tensor scores = Tensor::randn({1, 1, t, s}, rng);
  Tensor got = scores.clone();
  ops::attention_masked_softmax(got, 1, 1, t, s, /*causal=*/true, nullptr);
  for (std::int64_t r = 0; r < t; ++r) {
    float rowsum = 0.0F;
    for (std::int64_t c = 0; c < s; ++c) {
      if (c > r) {
        EXPECT_EQ(got.at({0, 0, r, c}), 0.0F);
      } else {
        rowsum += got.at({0, 0, r, c});
      }
    }
    EXPECT_NEAR(rowsum, 1.0F, 1e-5F);
  }
}

}  // namespace
}  // namespace pac
