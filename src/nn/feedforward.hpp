// Position-wise feed-forward block: Linear(H -> F) -> act -> Linear(F -> H).
#pragma once

#include <string>

#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace pac::nn {

enum class Activation { kRelu, kGelu };

class FeedForward : public Module {
 public:
  FeedForward(std::string name, std::int64_t hidden, std::int64_t ffn_dim,
              Rng& rng, Activation act = Activation::kRelu);
  // Draws from `rng` what the constructor draws, building nothing.
  static void skip_init(std::int64_t hidden, std::int64_t ffn_dim, Rng& rng) {
    Linear::skip_init(hidden, ffn_dim, rng);
    Linear::skip_init(ffn_dim, hidden, rng);
  }

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& dy) override;
  void collect_parameters(ParameterList& out) override;
  std::size_t pending_contexts() const override { return ctx_.size(); }

  void set_context_enabled(bool enabled) override {
    ctx_enabled_ = enabled;
    fc1_.set_context_enabled(enabled);
    fc2_.set_context_enabled(enabled);
  }

 private:
  struct Ctx {
    Tensor pre_act;  // output of the first linear, input to the activation
  };

  Activation act_;
  Linear fc1_;
  Linear fc2_;
  ContextQueue<Ctx> ctx_;
};

}  // namespace pac::nn
