// Pre-LN transformer layers (encoder and decoder) plus the Houlsby
// bottleneck adapter used by the "Adapters" baseline technique.
//
// Encoder layer:   u = x + Attn(LN1(x));  y = u + FF(LN2(u))
//                  [+ y = y + Adapter(y) when a Houlsby adapter is attached]
// Decoder layer:   u = x + CausalSelfAttn(LN1(x))
//                  v = u + CrossAttn(LN2(u), memory)
//                  y = v + FF(LN3(v))
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "nn/attention.hpp"
#include "nn/dropout.hpp"
#include "nn/feedforward.hpp"
#include "nn/layernorm.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace pac::nn {

// Houlsby et al. 2019 bottleneck: y = x + Wup(relu(Wdown(x))).
class BottleneckAdapter : public Module {
 public:
  BottleneckAdapter(std::string name, std::int64_t hidden,
                    std::int64_t bottleneck, Rng& rng);
  // Draws from `rng` what the constructor draws, building nothing.
  static void skip_init(std::int64_t hidden, std::int64_t bottleneck,
                        Rng& rng) {
    Linear::skip_init(hidden, bottleneck, rng);
    Linear::skip_init(bottleneck, hidden, rng);
  }

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& dy) override;
  void collect_parameters(ParameterList& out) override;
  std::size_t pending_contexts() const override { return ctx_.size(); }

  void set_context_enabled(bool enabled) override {
    ctx_enabled_ = enabled;
    down_.set_context_enabled(enabled);
    up_.set_context_enabled(enabled);
  }

 private:
  struct Ctx {
    Tensor pre_act;
  };

  Linear down_;
  Linear up_;
  ContextQueue<Ctx> ctx_;
};

class TransformerEncoderLayer : public Module {
 public:
  // dropout_p > 0 adds inverted dropout on both residual branches
  // (attention output and FFN output), each with its own deterministic
  // stream seeded from `rng`.  Distributed parity tests require p = 0:
  // replicas draw masks independently.
  TransformerEncoderLayer(std::string name, std::int64_t hidden,
                          std::int64_t num_heads, std::int64_t ffn_dim,
                          Rng& rng, Activation act = Activation::kRelu,
                          float dropout_p = 0.0F);
  // Draws from `rng` what the constructor draws, in member order (the
  // attention weights, the attention dropout's seed, the FFN weights, the
  // FFN dropout's seed), building nothing.  attach_adapter's draws are
  // BottleneckAdapter::skip_init's; attach_lora's are two
  // Linear::skip_lora(spec, hidden).
  static void skip_init(std::int64_t hidden, std::int64_t ffn_dim, Rng& rng) {
    MultiHeadAttention::skip_init(hidden, rng);
    rng.fork();
    FeedForward::skip_init(hidden, ffn_dim, rng);
    rng.fork();
  }

  // Train/eval switch for the dropout branches (contexts are orthogonal).
  void set_dropout_training(bool training) {
    attn_drop_.set_training(training);
    ff_drop_.set_training(training);
  }

  // Attaches a trainable Houlsby adapter at the end of the layer
  // (the "Adapters" baseline).  The backbone itself stays as-is.
  void attach_adapter(std::int64_t bottleneck, Rng& rng);
  bool has_adapter() const { return adapter_ != nullptr; }
  BottleneckAdapter* adapter() { return adapter_.get(); }

  // Attaches LoRA bypasses to Wq / Wv of the attention block.
  void attach_lora(const LoraSpec& spec, Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& dy) override;
  void collect_parameters(ParameterList& out) override;
  std::size_t pending_contexts() const override;

  // Disables activation retention on the backbone sublayers.  A Houlsby
  // adapter attached to this layer keeps its own contexts enabled (it still
  // trains even when the backbone is frozen).
  void set_context_enabled(bool enabled) override {
    ctx_enabled_ = enabled;
    ln1_.set_context_enabled(enabled);
    attn_.set_context_enabled(enabled);
    attn_drop_.set_context_enabled(enabled);
    ln2_.set_context_enabled(enabled);
    ff_.set_context_enabled(enabled);
    ff_drop_.set_context_enabled(enabled);
  }

  MultiHeadAttention& attention() { return attn_; }

  // Key-validity mask for the NEXT forward (see MultiHeadAttention).
  void set_key_mask(Tensor mask) { attn_.set_key_mask(std::move(mask)); }

 private:
  LayerNorm ln1_;
  MultiHeadAttention attn_;
  Dropout attn_drop_;
  LayerNorm ln2_;
  FeedForward ff_;
  Dropout ff_drop_;
  std::unique_ptr<BottleneckAdapter> adapter_;
};

class TransformerDecoderLayer {
 public:
  TransformerDecoderLayer(std::string name, std::int64_t hidden,
                          std::int64_t num_heads, std::int64_t ffn_dim,
                          Rng& rng, Activation act = Activation::kRelu);

  Tensor forward(const Tensor& x, const Tensor& memory);
  // Returns {dx, dmemory}.
  std::pair<Tensor, Tensor> backward(const Tensor& dy);

  // ---- incremental decoding (inference only) ----
  // Per-layer state: growing self-attention K/V + fixed cross K/V.
  struct DecodeState {
    MultiHeadAttention::KvCache self_kv;
    MultiHeadAttention::KvCache memory_kv;
  };
  // Prepares the cross-attention cache from the encoder memory.
  DecodeState make_decode_state(const Tensor& memory,
                                Tensor memory_mask = Tensor());
  // One decoding step: x_t [B, 1, H] -> [B, 1, H].
  Tensor forward_step(const Tensor& x_t, DecodeState& state,
                      std::int64_t max_len);
  void collect_parameters(ParameterList& out);
  ParameterList parameters() {
    ParameterList out;
    collect_parameters(out);
    return out;
  }
  void set_trainable(bool trainable) {
    for (Parameter* p : parameters()) p->set_trainable(trainable);
  }

  // Houlsby adapter at the end of the layer (same placement as encoder).
  void attach_adapter(std::int64_t bottleneck, Rng& rng);
  bool has_adapter() const { return adapter_ != nullptr; }
  BottleneckAdapter* adapter() { return adapter_.get(); }
  // LoRA bypasses on Wq / Wv of both attention blocks.
  void attach_lora(const LoraSpec& spec, Rng& rng);

  // Memory-validity mask [B, S] for the NEXT forward's cross-attention
  // (padded encoder positions get zero attention).
  void set_memory_mask(Tensor mask) {
    cross_attn_.set_key_mask(std::move(mask));
  }

  void set_context_enabled(bool enabled) {
    ln1_.set_context_enabled(enabled);
    self_attn_.set_context_enabled(enabled);
    ln2_.set_context_enabled(enabled);
    cross_attn_.set_context_enabled(enabled);
    ln3_.set_context_enabled(enabled);
    ff_.set_context_enabled(enabled);
  }

 private:
  LayerNorm ln1_;
  MultiHeadAttention self_attn_;
  LayerNorm ln2_;
  MultiHeadAttention cross_attn_;
  LayerNorm ln3_;
  FeedForward ff_;
  std::unique_ptr<BottleneckAdapter> adapter_;
};

}  // namespace pac::nn
