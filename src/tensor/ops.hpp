// Tensor kernels.
//
// All kernels operate on 2-D (or flattened) contiguous fp32 buffers.  Higher
// layers (nn modules) reshape [B, T, H] activations to [B*T, H] before
// calling in here.
//
// GEMM is cache-blocked and panel-packed (Mc/Kc/Nc blocking with an Mr x Nr
// register micro-kernel over contiguous packed panels; see DESIGN.md
// "Kernel architecture") and parallelizes over row blocks via the global
// ThreadPool.  gemm_batched additionally parallelizes across the batch
// dimension, which is what the attention head loops use.  Row-wise ops
// (softmax, layernorm, activations, bias) thread over rows behind a size
// threshold.  All kernels keep a fixed per-element accumulation order, so
// results are bit-deterministic for a fixed thread count.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace pac::ops {

// ---------------------------------------------------------------------------
// GEMM: C = alpha * op(A) @ op(B) + beta * C
//   op(A) is [m, k], op(B) is [k, n], C is [m, n].
// An optional `bias` (n floats; needs alpha == 1 and beta == 0) is added to
// every row of the product, with the same bits as add_bias afterwards.
// ---------------------------------------------------------------------------
void gemm_raw(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t n, std::int64_t k, bool trans_a, bool trans_b,
              float alpha, float beta, const float* bias = nullptr);

// Instruction set gemm.cpp was compiled for: "avx512", "avx2" or "scalar".
const char* gemm_isa();

// Batched GEMM over `batch` independent problems of identical shape:
//   C_i = alpha * op(A_i) @ op(B_i) + beta * C_i
// where A_i = a + i * stride_a (and likewise for b, c).  Parallelizes across
// the batch dimension (each problem runs single-threaded inside), which is
// the right split for attention's many-small-GEMM head loops.
void gemm_batched(const float* a, const float* b, float* c, std::int64_t batch,
                  std::int64_t m, std::int64_t n, std::int64_t k,
                  std::int64_t stride_a, std::int64_t stride_b,
                  std::int64_t stride_c, bool trans_a, bool trans_b,
                  float alpha, float beta);

// C = A[m,k] @ B[k,n]
Tensor matmul(const Tensor& a, const Tensor& b);
// C = A[m,k] @ B[n,k]^T (+ bias[n] on every row, fused into the store)
Tensor matmul_nt(const Tensor& a, const Tensor& b,
                 const Tensor* bias = nullptr);
// C = A[k,m]^T @ B[k,n]
Tensor matmul_tn(const Tensor& a, const Tensor& b);
// C += alpha * op(A) @ op(B); shapes must already agree.
void matmul_acc(Tensor& c, const Tensor& a, const Tensor& b, bool trans_a,
                bool trans_b, float alpha);

// ---------------------------------------------------------------------------
// Elementwise / broadcast
// ---------------------------------------------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float alpha);

// y[r, :] = x[r, :] + bias (bias has size = last dim of x).
Tensor add_bias(const Tensor& x, const Tensor& bias);
// grad_bias[j] = sum_r dy[r, j]; dy viewed as [rows, bias.numel()].
void bias_grad_acc(Tensor& grad_bias, const Tensor& dy);

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------
Tensor relu(const Tensor& x);
// dx = dy * (x > 0)
Tensor relu_backward(const Tensor& dy, const Tensor& x);
Tensor gelu(const Tensor& x);
Tensor gelu_backward(const Tensor& dy, const Tensor& x);

// ---------------------------------------------------------------------------
// Softmax over the last dimension.
// ---------------------------------------------------------------------------
Tensor softmax_lastdim(const Tensor& x);
// dx given y = softmax(x) and dy:  dx = y * (dy - sum(dy * y)).
Tensor softmax_backward(const Tensor& dy, const Tensor& y);

// Fused masked softmax for attention scores, in place.  `scores` is
// [B, nh, T, S]; rows are softmaxed over the last dim with masking applied
// during the same pass (no separate mask write + full-width softmax):
//   - causal: column j of query row r participates only when j <= r;
//   - key_mask (optional, [B, S], 0 = masked): masked keys are excluded.
// Excluded positions end up with probability exactly 0.  A row with no
// admissible position degrades to uniform 1/S — the same result the unfused
// path produced for an all--1e30 row — so downstream numerics are unchanged.
void attention_masked_softmax(Tensor& scores, std::int64_t b, std::int64_t nh,
                              std::int64_t t, std::int64_t s, bool causal,
                              const Tensor* key_mask);

// ---------------------------------------------------------------------------
// LayerNorm over the last dimension.
// ---------------------------------------------------------------------------
struct LayerNormContext {
  Tensor mean;   // [rows]
  Tensor rstd;   // [rows]
  Tensor input;  // saved x for backward
};

Tensor layernorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps, LayerNormContext* ctx);
// Returns dx; accumulates dgamma / dbeta.
Tensor layernorm_backward(const Tensor& dy, const Tensor& gamma,
                          const LayerNormContext& ctx, Tensor& dgamma,
                          Tensor& dbeta);

// ---------------------------------------------------------------------------
// Embedding lookup: ids are float-encoded integers in a [B, T] tensor
// (the data pipeline produces integer token ids stored as floats).
// ---------------------------------------------------------------------------
Tensor embedding(const Tensor& table, const Tensor& ids);
void embedding_backward_acc(Tensor& grad_table, const Tensor& ids,
                            const Tensor& dy);

// ---------------------------------------------------------------------------
// Reductions / misc
// ---------------------------------------------------------------------------
float sum(const Tensor& x);
float mean(const Tensor& x);
float max_abs_diff(const Tensor& a, const Tensor& b);
Tensor transpose_2d(const Tensor& x);

// Mean over dimension 1 of x[B, T, H] -> [B, H] (pooling for task heads).
Tensor mean_over_dim1(const Tensor& x);
// Backward of mean_over_dim1: dy[B, H] -> dx[B, T, H].
Tensor mean_over_dim1_backward(const Tensor& dy, std::int64_t t);

// Masked mean over dimension 1: rows with mask[b, t] == 0 (padding) are
// excluded from the average.  A fully-masked sample yields zeros.
Tensor masked_mean_over_dim1(const Tensor& x, const Tensor& mask);
Tensor masked_mean_over_dim1_backward(const Tensor& dy, const Tensor& mask);

}  // namespace pac::ops
