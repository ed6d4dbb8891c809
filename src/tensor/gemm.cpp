#include "tensor/ops.hpp"

#include <algorithm>
#include <memory>

#if defined(__AVX__)
#include <immintrin.h>
#endif

#include "common/thread_pool.hpp"

// This translation unit is compiled with the host's full SIMD width
// (-march=native via PAC_NATIVE_KERNELS); the intrinsics micro-kernel below
// selects AVX-512 / AVX2+FMA / scalar at compile time.  The rest of
// src/tensor stays on the project-wide flags: the exp-heavy row ops
// (softmax, gelu) measurably regress when the whole library is built with
// 512-bit autovectorization, so only the GEMM lives here.

namespace pac::ops {
namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

// ---------------------------------------------------------------------------
// GEMM
//
// Cache-blocked, panel-packed SGEMM (see DESIGN.md "Kernel architecture").
// op(B) column blocks of kNc are packed, one depth slice of kKc at a time,
// into contiguous panels of kNr columns; a register micro-kernel
// accumulates an kMr x kNr tile over a packed B panel and kMr rows of
// op(A), which is read in place when row-major and packed into panels of
// kMr rows when transposed.  Per-element accumulation order is ascending
// in k regardless of blocking, threading or where A is read from, so
// results are bit-deterministic.
//
// Arithmetic lock: every output element is an FMA chain from zero over
// ascending k (products rounded first in the scalar build), then the
// alpha/beta/bias store.  The blocking constants and flop thresholds below
// choose which path, and so which arithmetic, each shape takes; changing
// any of them changes results (DESIGN.md 5d).
// ---------------------------------------------------------------------------

constexpr std::int64_t kMr = 8;    // micro-tile rows (accumulator rows)
constexpr std::int64_t kNr = 16;   // micro-tile cols (one/two SIMD rows)
constexpr std::int64_t kMc = 128;  // packed A block rows   (A block in L2)
constexpr std::int64_t kKc = 256;  // packed depth per block (B panel in L1)
constexpr std::int64_t kNc = 1024; // packed B block cols    (B block in L2)

// m*n*k below this: the plain ikj loop beats packing overhead.
constexpr std::int64_t kSmallGemmFlops = 8 * 1024;
// m*n*k above this: worth dispatching row blocks on the pool.
constexpr std::int64_t kGemmParallelFlops = 1 << 16;

// Per-thread pack buffers, grown on demand and never shrunk or zeroed: the
// pack routines write every element the micro-kernel reads, padding
// included.  The B slot is filled by the thread that calls gemm_impl and
// read by every row-block worker; the A slot belongs to each worker.
enum PackSlot { kPackA = 0, kPackB = 1 };

float* pack_workspace(PackSlot slot, std::int64_t floats) {
  struct Buffer {
    std::unique_ptr<float[]> data;
    std::int64_t capacity = 0;
  };
  thread_local Buffer buffers[2];
  Buffer& buf = buffers[slot];
  if (buf.capacity < floats) {
    buf.data = std::make_unique_for_overwrite<float[]>(
        static_cast<std::size_t>(floats));
    buf.capacity = floats;
  }
  return buf.data.get();
}

// Pack op(A)[ic:ic+mb, pc:pc+kb] = A^T (A stored [k, m]) into panels of kMr
// rows:
//   dst[(ip * kb + p) * kMr + r] = A(pc + p, ic + ip*kMr + r)
// with zero padding for rows past mb (the micro-kernel always runs a full
// kMr x kNr tile; stores are guarded instead).  Row-major A needs no pack.
void pack_a_transposed(float* dst, const float* a, std::int64_t m,
                       std::int64_t ic, std::int64_t pc, std::int64_t mb,
                       std::int64_t kb) {
  const std::int64_t panels = ceil_div(mb, kMr);
  for (std::int64_t ip = 0; ip < panels; ++ip) {
    float* pdst = dst + ip * kb * kMr;
    const std::int64_t rows = std::min<std::int64_t>(kMr, mb - ip * kMr);
    for (std::int64_t p = 0; p < kb; ++p) {
      const float* src = a + (pc + p) * m + ic + ip * kMr;
      for (std::int64_t r = 0; r < rows; ++r) pdst[p * kMr + r] = src[r];
      for (std::int64_t r = rows; r < kMr; ++r) pdst[p * kMr + r] = 0.0F;
    }
  }
}

#if defined(__AVX__)
// dst[i * ldd + j] = src[j * lds + i] for i, j < 8.
inline void transpose_8x8(const float* src, std::int64_t lds, float* dst,
                          std::int64_t ldd) {
  __m256 r[8];
  for (int j = 0; j < 8; ++j) r[j] = _mm256_loadu_ps(src + j * lds);
  __m256 t[8];
  for (int j = 0; j < 8; j += 2) {
    t[j] = _mm256_unpacklo_ps(r[j], r[j + 1]);
    t[j + 1] = _mm256_unpackhi_ps(r[j], r[j + 1]);
  }
  __m256 u[8];
  for (int j = 0; j < 8; j += 4) {
    u[j] = _mm256_shuffle_ps(t[j], t[j + 2], 0x44);
    u[j + 1] = _mm256_shuffle_ps(t[j], t[j + 2], 0xEE);
    u[j + 2] = _mm256_shuffle_ps(t[j + 1], t[j + 3], 0x44);
    u[j + 3] = _mm256_shuffle_ps(t[j + 1], t[j + 3], 0xEE);
  }
  for (int i = 0; i < 4; ++i) {
    _mm256_storeu_ps(dst + i * ldd,
                     _mm256_permute2f128_ps(u[i], u[i + 4], 0x20));
    _mm256_storeu_ps(dst + (i + 4) * ldd,
                     _mm256_permute2f128_ps(u[i], u[i + 4], 0x31));
  }
}
#endif

// Pack op(B)[pc:pc+kb, jc:jc+nb] into panels of kNr columns:
//   dst[(jp * kb + p) * kNr + j] = op(B)(pc + p, jc + jp*kNr + j)
// with zero padding for columns past nb.  B^T (every Linear weight) is
// packed by 8x8 register transposes; the scalar loop covers ragged panels
// and depth tails.
void pack_b_block(float* dst, const float* b, std::int64_t n, std::int64_t k,
                  bool trans_b, std::int64_t jc, std::int64_t pc,
                  std::int64_t nb, std::int64_t kb) {
  const std::int64_t panels = ceil_div(nb, kNr);
  for (std::int64_t jp = 0; jp < panels; ++jp) {
    float* pdst = dst + jp * kb * kNr;
    const std::int64_t cols = std::min<std::int64_t>(kNr, nb - jp * kNr);
    if (!trans_b) {
      for (std::int64_t p = 0; p < kb; ++p) {
        const float* src = b + (pc + p) * n + jc + jp * kNr;
        float* row = pdst + p * kNr;
        for (std::int64_t j = 0; j < cols; ++j) row[j] = src[j];
        for (std::int64_t j = cols; j < kNr; ++j) row[j] = 0.0F;
      }
      continue;
    }
    // Column j of the panel is row jc + jp*kNr + j of the stored B.
    const float* src = b + (jc + jp * kNr) * k + pc;
    auto copy_scalar = [&](std::int64_t j0, std::int64_t j1, std::int64_t p0) {
      for (std::int64_t j = j0; j < j1; ++j) {
        for (std::int64_t p = p0; p < kb; ++p) {
          pdst[p * kNr + j] = src[j * k + p];
        }
      }
    };
    std::int64_t j0 = 0;
#if defined(__AVX__)
    const std::int64_t kb8 = kb - kb % 8;
    for (; j0 + 8 <= cols; j0 += 8) {
      for (std::int64_t p = 0; p < kb8; p += 8) {
        transpose_8x8(src + j0 * k + p, k, pdst + p * kNr + j0, kNr);
      }
      copy_scalar(j0, j0 + 8, kb8);
    }
#endif
    copy_scalar(j0, cols, 0);
    for (std::int64_t p = 0; p < kb; ++p) {
      for (std::int64_t j = cols; j < kNr; ++j) pdst[p * kNr + j] = 0.0F;
    }
  }
}

// Where the micro-kernel reads op(A)(r, p) for its kMr tile rows: a packed
// panel, or kMr row pointers into row-major A.  Both feed the identical
// FMA sequence, so which one a tile uses never changes its bits.
struct PackedA {
  const float* panel;  // panel[p * kMr + r]
  float operator()(std::int64_t r, std::int64_t p) const {
    return panel[p * kMr + r];
  }
};

struct RowMajorA {
  const float* rows[kMr];  // rows[r][p]
  float operator()(std::int64_t r, std::int64_t p) const {
    return rows[r][p];
  }
};

// acc[kMr x kNr] = A @ Bpanel over kb depth steps.  Written with explicit
// SIMD so the accumulator tile provably stays in vector registers
// (autovectorizers spill it); per-element accumulation order is
// k-ascending in every variant, so results stay run-to-run deterministic.
#if defined(__AVX512F__)
template <class ASource>
inline void micro_kernel(std::int64_t kb, const ASource& a,
                         const float* __restrict__ bp,
                         float* __restrict__ acc) {
  static_assert(kNr == 16, "AVX-512 micro-kernel assumes one zmm per row");
  __m512 c[kMr];
  for (std::int64_t r = 0; r < kMr; ++r) c[r] = _mm512_setzero_ps();
  for (std::int64_t p = 0; p < kb; ++p) {
    const __m512 bvec = _mm512_loadu_ps(bp + p * kNr);
    for (std::int64_t r = 0; r < kMr; ++r) {
      c[r] = _mm512_fmadd_ps(_mm512_set1_ps(a(r, p)), bvec, c[r]);
    }
  }
  for (std::int64_t r = 0; r < kMr; ++r) _mm512_storeu_ps(acc + r * kNr, c[r]);
}
#elif defined(__AVX2__) && defined(__FMA__)
template <class ASource>
inline void micro_kernel(std::int64_t kb, const ASource& a,
                         const float* __restrict__ bp,
                         float* __restrict__ acc) {
  static_assert(kNr == 16, "AVX2 micro-kernel assumes two ymm per row");
  __m256 lo[kMr];
  __m256 hi[kMr];
  for (std::int64_t r = 0; r < kMr; ++r) {
    lo[r] = _mm256_setzero_ps();
    hi[r] = _mm256_setzero_ps();
  }
  for (std::int64_t p = 0; p < kb; ++p) {
    const __m256 blo = _mm256_loadu_ps(bp + p * kNr);
    const __m256 bhi = _mm256_loadu_ps(bp + p * kNr + 8);
    for (std::int64_t r = 0; r < kMr; ++r) {
      const __m256 av = _mm256_set1_ps(a(r, p));
      lo[r] = _mm256_fmadd_ps(av, blo, lo[r]);
      hi[r] = _mm256_fmadd_ps(av, bhi, hi[r]);
    }
  }
  for (std::int64_t r = 0; r < kMr; ++r) {
    _mm256_storeu_ps(acc + r * kNr, lo[r]);
    _mm256_storeu_ps(acc + r * kNr + 8, hi[r]);
  }
}
#else
template <class ASource>
inline void micro_kernel(std::int64_t kb, const ASource& a,
                         const float* __restrict__ bp,
                         float* __restrict__ acc) {
  std::fill_n(acc, kMr * kNr, 0.0F);
  for (std::int64_t p = 0; p < kb; ++p) {
    const float* brow = bp + p * kNr;
    for (std::int64_t r = 0; r < kMr; ++r) {
      const float av = a(r, p);
      float* accr = acc + r * kNr;
      for (std::int64_t j = 0; j < kNr; ++j) accr[j] += av * brow[j];
    }
  }
}
#endif

// Write an accumulated tile into C.  On the first depth block beta applies
// (beta == 0 must not read C: freshly allocated outputs are uninitialized);
// later depth blocks accumulate.  `bias` (last depth block only) is added
// after the tile is complete, as a separate rounding, exactly like an
// add_bias pass over the finished product.
inline void store_tile(float* c, std::int64_t ldc, const float* acc,
                       std::int64_t rows, std::int64_t cols, float alpha,
                       float beta, bool first_kblock, const float* bias) {
  for (std::int64_t r = 0; r < rows; ++r) {
    float* crow = c + r * ldc;
    const float* arow = acc + r * kNr;
    if (first_kblock) {
      if (beta == 0.0F) {
        for (std::int64_t j = 0; j < cols; ++j) crow[j] = alpha * arow[j];
      } else {
        for (std::int64_t j = 0; j < cols; ++j) {
          crow[j] = alpha * arow[j] + beta * crow[j];
        }
      }
    } else {
      for (std::int64_t j = 0; j < cols; ++j) crow[j] += alpha * arow[j];
    }
    if (bias != nullptr) {
      for (std::int64_t j = 0; j < cols; ++j) crow[j] += bias[j];
    }
  }
}

// crow[0:n] = fma(alpha * a(p), B[p, 0:n], crow) for p ascending, skipping
// p where alpha * a(p) == 0.  a(p) is op(A)(i, p) for the row being built.
// The C row stays in registers across the depth loop; per element this is
// the same FMA chain the compiler emitted for the plain loop below.
template <class ARow>
inline void small_row_nn(float* __restrict__ crow, const float* __restrict__ b,
                         std::int64_t n, std::int64_t k, float alpha,
                         ARow a) {
#if defined(__AVX512F__)
  for (std::int64_t j0 = 0; j0 < n; j0 += 16) {
    const std::int64_t lanes = std::min<std::int64_t>(16, n - j0);
    const auto mask = static_cast<__mmask16>((1U << lanes) - 1U);
    __m512 c = _mm512_maskz_loadu_ps(mask, crow + j0);
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = alpha * a(p);
      if (av == 0.0F) continue;
      c = _mm512_fmadd_ps(_mm512_set1_ps(av),
                          _mm512_maskz_loadu_ps(mask, b + p * n + j0), c);
    }
    _mm512_mask_storeu_ps(crow + j0, mask, c);
  }
#elif defined(__AVX2__) && defined(__FMA__)
  for (std::int64_t j0 = 0; j0 < n; j0 += 8) {
    const auto lanes = static_cast<int>(std::min<std::int64_t>(8, n - j0));
    const __m256i mask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(lanes), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    __m256 c = _mm256_maskload_ps(crow + j0, mask);
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = alpha * a(p);
      if (av == 0.0F) continue;
      c = _mm256_fmadd_ps(_mm256_set1_ps(av),
                          _mm256_maskload_ps(b + p * n + j0, mask), c);
    }
    _mm256_maskstore_ps(crow + j0, mask, c);
  }
#else
  for (std::int64_t p = 0; p < k; ++p) {
    const float av = alpha * a(p);
    if (av == 0.0F) continue;
    const float* brow = b + p * n;
    for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
  }
#endif
}

// Reference-style ikj loop for problems too small to amortize packing.
void gemm_small(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t n, std::int64_t k, bool trans_a, bool trans_b,
                float alpha, float beta, const float* bias) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    if (beta == 0.0F) {
      std::fill_n(crow, n, 0.0F);
    } else if (beta != 1.0F) {
      for (std::int64_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    if (!trans_b) {
      if (trans_a) {
        small_row_nn(crow, b, n, k, alpha,
                     [=](std::int64_t p) { return a[p * m + i]; });
      } else {
        small_row_nn(crow, b, n, k, alpha,
                     [=](std::int64_t p) { return a[i * k + p]; });
      }
    } else {
      for (std::int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float acc = 0.0F;
        if (!trans_a) {
          const float* arow = a + i * k;
          for (std::int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
        } else {
          for (std::int64_t p = 0; p < k; ++p) acc += a[p * m + i] * brow[p];
        }
        crow[j] += alpha * acc;
      }
    }
    if (bias != nullptr) {
      for (std::int64_t j = 0; j < n; ++j) crow[j] += bias[j];
    }
  }
}

void gemm_impl(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t n, std::int64_t k, bool trans_a, bool trans_b,
               float alpha, float beta, const float* bias,
               bool allow_threads) {
  if (m <= 0 || n <= 0) return;
  if (m * n * k < kSmallGemmFlops) {
    gemm_small(a, b, c, m, n, k, trans_a, trans_b, alpha, beta, bias);
    return;
  }
  const bool threads =
      allow_threads && m * n * k >= kGemmParallelFlops;
  for (std::int64_t jc = 0; jc < n; jc += kNc) {
    const std::int64_t nb = std::min<std::int64_t>(kNc, n - jc);
    const std::int64_t jpanels = ceil_div(nb, kNr);
    for (std::int64_t pc = 0; pc < k; pc += kKc) {
      const std::int64_t kb = std::min<std::int64_t>(kKc, k - pc);
      float* b_pack = pack_workspace(kPackB, jpanels * kb * kNr);
      pack_b_block(b_pack, b, n, k, trans_b, jc, pc, nb, kb);
      const bool first = pc == 0;
      const float* block_bias = pc + kb == k && bias != nullptr
                                    ? bias + jc
                                    : nullptr;

      const std::int64_t mblocks = ceil_div(m, kMc);
      auto block_body = [&](std::int64_t blk_begin, std::int64_t blk_end) {
        alignas(64) float acc[kMr * kNr];
        for (std::int64_t blk = blk_begin; blk < blk_end; ++blk) {
          const std::int64_t ic = blk * kMc;
          const std::int64_t mb = std::min<std::int64_t>(kMc, m - ic);
          const std::int64_t ipanels = ceil_div(mb, kMr);
          float* a_pack = nullptr;
          if (trans_a) {
            a_pack = pack_workspace(kPackA, ipanels * kMr * kb);
            pack_a_transposed(a_pack, a, m, ic, pc, mb, kb);
          }
          for (std::int64_t jp = 0; jp < jpanels; ++jp) {
            const float* bp = b_pack + jp * kb * kNr;
            const std::int64_t cols =
                std::min<std::int64_t>(kNr, nb - jp * kNr);
            const float* tile_bias =
                block_bias != nullptr ? block_bias + jp * kNr : nullptr;
            for (std::int64_t ip = 0; ip < ipanels; ++ip) {
              const std::int64_t rows =
                  std::min<std::int64_t>(kMr, mb - ip * kMr);
              if (trans_a) {
                micro_kernel(kb, PackedA{a_pack + ip * kb * kMr}, bp, acc);
              } else {
                // Rows past the ragged edge repeat the last valid row; their
                // results are never stored.
                RowMajorA rows_a;
                for (std::int64_t r = 0; r < kMr; ++r) {
                  rows_a.rows[r] =
                      a + (ic + ip * kMr + std::min(r, rows - 1)) * k + pc;
                }
                micro_kernel(kb, rows_a, bp, acc);
              }
              store_tile(c + (ic + ip * kMr) * n + jc + jp * kNr, n, acc,
                         rows, cols, alpha, beta, first, tile_bias);
            }
          }
        }
      };
      if (threads) {
        ThreadPool::global().parallel_for(mblocks, block_body, /*grain=*/1);
      } else {
        block_body(0, mblocks);
      }
    }
  }
}

}  // namespace

const char* gemm_isa() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__) && defined(__FMA__)
  return "avx2";
#else
  return "scalar";
#endif
}

void gemm_raw(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t n, std::int64_t k, bool trans_a, bool trans_b,
              float alpha, float beta, const float* bias) {
  // a: op(A)[m,k]; stored [m,k] if !trans_a, else [k,m].
  // b: op(B)[k,n]; stored [k,n] if !trans_b, else [n,k].
  PAC_CHECK(bias == nullptr || (alpha == 1.0F && beta == 0.0F),
            "gemm_raw: a fused bias needs alpha 1 and beta 0");
  gemm_impl(a, b, c, m, n, k, trans_a, trans_b, alpha, beta, bias,
            /*allow_threads=*/true);
}

void gemm_batched(const float* a, const float* b, float* c, std::int64_t batch,
                  std::int64_t m, std::int64_t n, std::int64_t k,
                  std::int64_t stride_a, std::int64_t stride_b,
                  std::int64_t stride_c, bool trans_a, bool trans_b,
                  float alpha, float beta) {
  if (batch <= 0) return;
  if (batch == 1) {
    gemm_raw(a, b, c, m, n, k, trans_a, trans_b, alpha, beta);
    return;
  }
  // Parallelize across problems (each one runs single-threaded inside) when
  // the aggregate work is large enough; per-problem GEMMs in attention are
  // individually below the intra-GEMM threading threshold.
  auto body = [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      gemm_impl(a + i * stride_a, b + i * stride_b, c + i * stride_c, m, n, k,
                trans_a, trans_b, alpha, beta, /*bias=*/nullptr,
                /*allow_threads=*/false);
    }
  };
  if (batch * m * n * k >= kGemmParallelFlops) {
    ThreadPool::global().parallel_for(batch, body, /*grain=*/1);
  } else {
    body(0, batch);
  }
}

}  // namespace pac::ops
