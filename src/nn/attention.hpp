// Multi-head attention with self (optionally causal) and cross variants.
//
// Layout convention: activations enter as [B, T, H]; internally heads are
// materialized as [B, nh, T, dh] contiguous blocks so each (batch, head)
// slice is a plain 2-D GEMM.  Backward is hand-derived; gradients flow into
// the four projection Linears (which may themselves carry LoRA bypasses).
#pragma once

#include <string>
#include <utility>

#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace pac::nn {

class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(std::string name, std::int64_t hidden,
                     std::int64_t num_heads, Rng& rng, bool causal = false);
  // Draws from `rng` what the constructor draws (Wq, Wk, Wv, Wo), building
  // nothing.
  static void skip_init(std::int64_t hidden, Rng& rng) {
    for (int i = 0; i < 4; ++i) Linear::skip_init(hidden, hidden, rng);
  }

  // Self-attention: queries, keys and values all from x.
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& dy) override;

  // Cross-attention: queries from x [B, T, H], keys/values from
  // memory [B, S, H].  backward_cross returns {dx, dmemory}.
  Tensor forward_cross(const Tensor& x, const Tensor& memory);
  std::pair<Tensor, Tensor> backward_cross(const Tensor& dy);

  // Key-validity mask [B, S] (1 = attend, 0 = padding) consumed by the
  // NEXT forward and then cleared.  Masked positions receive zero
  // attention probability; their value/key gradients are exactly zero, so
  // backward needs no mask replay.  An undefined tensor disables masking.
  void set_key_mask(Tensor mask) { pending_mask_ = std::move(mask); }

  // ---- incremental decoding (inference only, no contexts) ----
  // Grown key/value tensors in head layout [B, nh, len, dh].
  struct KvCache {
    Tensor k;
    Tensor v;
    std::int64_t len = 0;  // valid positions
    Tensor key_mask;       // optional [B, len] (cross-attention padding)
  };

  // Precomputes cross-attention K/V (and stores the mask) from the encoder
  // memory [B, S, H].
  KvCache precompute_kv(const Tensor& memory, Tensor key_mask = Tensor());

  // Self-attention step: x_t [B, 1, H] is appended to `cache` and attends
  // over every cached position (causality is implicit).
  Tensor forward_step(const Tensor& x_t, KvCache& cache,
                      std::int64_t max_len);
  // Cross-attention step against a precomputed cache.
  Tensor forward_cross_step(const Tensor& x_t, const KvCache& memory_kv);

  void collect_parameters(ParameterList& out) override;
  std::size_t pending_contexts() const override { return ctx_.size(); }

  void set_context_enabled(bool enabled) override {
    ctx_enabled_ = enabled;
    wq_.set_context_enabled(enabled);
    wk_.set_context_enabled(enabled);
    wv_.set_context_enabled(enabled);
    wo_.set_context_enabled(enabled);
  }

  // Projections exposed so PEFT wrappers can attach LoRA to Wq / Wv
  // (the standard LoRA placement).
  Linear& wq() { return wq_; }
  Linear& wk() { return wk_; }
  Linear& wv() { return wv_; }
  Linear& wo() { return wo_; }

 private:
  struct Ctx {
    Tensor qh, kh, vh;  // [B, nh, T|S, dh]
    Tensor probs;       // [B, nh, T, S]
    bool cross = false;
  };

  Tensor attend(const Tensor& x, const Tensor& kv_src, bool cross);
  // Shared backward core; returns {dx, dkv}.
  std::pair<Tensor, Tensor> backward_impl(const Tensor& dy);

  std::int64_t hidden_;
  std::int64_t num_heads_;
  std::int64_t head_dim_;
  bool causal_;
  float scale_;

  Linear wq_, wk_, wv_, wo_;
  Tensor pending_mask_;
  ContextQueue<Ctx> ctx_;
};

}  // namespace pac::nn
