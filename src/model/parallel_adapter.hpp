// PAC's Parallel Adapter side network (paper §4.1).
//
// Each backbone layer i gets a side block f_i implementing
//     a_i = f_i(b_i, a_{i-1})                          (paper Eq. 1)
// realized as an injection of the (down-projected) backbone activation into
// the running side state followed by a pre-LN bottleneck MLP at width
// r = hidden / k:
//     u   = a_{i-1} + down_i(b_i)
//     a_i = u + W2 · relu(W1 · LN(u))
// Crucially, backward() produces the gradient w.r.t. a_{i-1} (the dedicated
// "gradient highway") and never computes the gradient w.r.t. b_i — the
// backbone is never backpropagated, which is where the technique's time and
// memory savings come from.
//
// Weights are initialized by structural pruning of the corresponding
// backbone layer weights (paper §6.1): `init_from_backbone` copies the
// leading r×r / r×H sub-blocks of the backbone FFN matrices, scaled to
// preserve activation magnitude.
#pragma once

#include <string>

#include "nn/layernorm.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "nn/transformer_layer.hpp"

namespace pac::model {

class ParallelAdapterBlock {
 public:
  ParallelAdapterBlock(std::string name, std::int64_t hidden, std::int64_t r,
                       Rng& rng);
  // Draws from `rng` what the constructor draws, building nothing.
  static void skip_init(std::int64_t hidden, std::int64_t r, Rng& rng) {
    nn::Linear::skip_init(hidden, r, rng);
    nn::Linear::skip_init(r, r, rng);
    nn::Linear::skip_init(r, r, rng);
  }

  // a_i given (b_i, a_{i-1}).
  Tensor forward(const Tensor& backbone_act, const Tensor& prev_state);
  // d a_{i-1} given d a_i; accumulates this block's parameter grads and
  // skips the backbone gradient (side-tuning semantics).
  Tensor backward(const Tensor& d_state);

  void collect_parameters(nn::ParameterList& out);

  // Mirrors nn::Module context control (eval mode retains nothing).
  void set_context_enabled(bool enabled) {
    ctx_enabled_ = enabled;
    down_.set_context_enabled(enabled);
    ln_.set_context_enabled(enabled);
    w1_.set_context_enabled(enabled);
    w2_.set_context_enabled(enabled);
  }
  bool context_enabled() const { return ctx_enabled_; }

  // Structural-pruning initialization from the backbone layer's FFN weights
  // (leading sub-blocks, rescaled).  `fc1` is [ffn, hidden].
  void init_from_backbone(const Tensor& fc1_weight);

  std::int64_t width() const { return r_; }

 private:
  bool ctx_enabled_ = true;
  std::int64_t hidden_;
  std::int64_t r_;
  nn::Linear down_;   // [r, hidden]
  nn::LayerNorm ln_;  // over r
  nn::Linear w1_;     // [r, r]
  nn::Linear w2_;     // [r, r]
  nn::ContextQueue<Tensor> pre_act_;  // W1 output before relu
};

}  // namespace pac::model
