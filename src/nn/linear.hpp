// Fully connected layer y = x W^T + b, with optional LoRA bypass.
//
// The LoRA bypass implements Hu et al. 2021: y += x A^T B^T * (alpha / r)
// where A is [r, in] and B is [out, r].  When LoRA is enabled the base
// weight is frozen and only A/B train, exactly like the paper's baseline.
#pragma once

#include <optional>
#include <string>

#include "nn/module.hpp"

namespace pac::nn {

struct LoraSpec {
  std::int64_t rank = 4;
  float alpha = 8.0F;
};

class Linear : public Module {
 public:
  // Kaiming-uniform init on the weight, zero bias.
  Linear(std::string name, std::int64_t in_features,
         std::int64_t out_features, Rng& rng, bool bias = true);
  // Draws from `rng` what the constructor draws, building nothing.
  static void skip_init(std::int64_t in_features, std::int64_t out_features,
                        Rng& rng) {
    rng.skip_uniform(in_features * out_features);
  }

  // Adds a LoRA bypass; freezes the base weight/bias.  A ~ N(0, 0.02), B = 0
  // (the standard init making the bypass a no-op at step 0).
  void enable_lora(const LoraSpec& spec, Rng& rng);
  // Draws from `rng` what enable_lora draws, building nothing.
  static void skip_lora(const LoraSpec& spec, std::int64_t in_features,
                        Rng& rng) {
    rng.skip_normal(spec.rank * in_features);
  }
  bool lora_enabled() const { return lora_rank_ > 0; }

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& dy) override;
  // backward() for a layer whose input gradient nobody consumes (a side
  // network's tap on the frozen backbone): accumulates the parameter
  // gradients and pops the context, but never computes dx.
  void accumulate_param_grads(const Tensor& dy);
  void collect_parameters(ParameterList& out) override;
  std::size_t pending_contexts() const override { return ctx_.size(); }

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  struct Ctx {
    Tensor input;       // [rows, in]
    Shape input_shape;  // original (possibly 3-D) shape for dx
    Tensor lora_mid;    // x A^T, [rows, r] (LoRA only)
  };

  Tensor backward_impl(const Tensor& dy, bool want_dx);

  std::int64_t in_features_;
  std::int64_t out_features_;
  bool has_bias_;
  Parameter weight_;  // [out, in]
  Parameter bias_;    // [out]

  std::int64_t lora_rank_ = 0;
  float lora_scale_ = 0.0F;
  Parameter lora_a_;  // [r, in]
  Parameter lora_b_;  // [out, r]

  ContextQueue<Ctx> ctx_;
};

}  // namespace pac::nn
