#include "nn/linear.hpp"

#include <cmath>

#include "tensor/ops.hpp"

namespace pac::nn {

Linear::Linear(std::string name, std::int64_t in_features,
               std::int64_t out_features, Rng& rng, bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias) {
  PAC_CHECK(in_features > 0 && out_features > 0,
            "Linear " << name << ": bad dims " << in_features << "x"
                      << out_features);
  const float bound = 1.0F / std::sqrt(static_cast<float>(in_features));
  weight_ = Parameter(name + ".weight",
                      Tensor::uniform({out_features, in_features}, rng,
                                      -bound, bound));
  if (has_bias_) {
    bias_ = Parameter(name + ".bias", Tensor::zeros({out_features}));
  }
}

void Linear::enable_lora(const LoraSpec& spec, Rng& rng) {
  PAC_CHECK(spec.rank > 0, "LoRA rank must be positive");
  PAC_CHECK(!lora_enabled(), "LoRA already enabled on " << weight_.name());
  lora_rank_ = spec.rank;
  lora_scale_ = spec.alpha / static_cast<float>(spec.rank);
  lora_a_ = Parameter(weight_.name() + ".lora_a",
                      Tensor::randn({spec.rank, in_features_}, rng, 0.02F));
  lora_b_ = Parameter(weight_.name() + ".lora_b",
                      Tensor::zeros({out_features_, spec.rank}));
  weight_.set_trainable(false);
  if (has_bias_) bias_.set_trainable(false);
}

Tensor Linear::forward(const Tensor& x) {
  PAC_CHECK(x.size(x.dim() - 1) == in_features_,
            "Linear " << weight_.name() << ": input features "
                      << x.size(x.dim() - 1) << " != " << in_features_);
  const Shape in_shape = x.shape();
  const std::int64_t rows = x.numel() / in_features_;
  Tensor x2 = x.reshape({rows, in_features_});

  // [rows, out]; the bias add rides on the GEMM's tile store.
  Tensor y = ops::matmul_nt(x2, weight_.value(),
                            has_bias_ ? &bias_.value() : nullptr);

  Ctx ctx;
  ctx.input = x2;
  ctx.input_shape = in_shape;
  if (lora_enabled()) {
    ctx.lora_mid = ops::matmul_nt(x2, lora_a_.value());  // [rows, r]
    ops::matmul_acc(y, ctx.lora_mid, lora_b_.value(), false, true,
                    lora_scale_);
  }
  if (context_enabled()) ctx_.push(std::move(ctx));

  Shape out_shape = in_shape;
  out_shape.back() = out_features_;
  return y.reshape(std::move(out_shape));
}

Tensor Linear::backward(const Tensor& dy) {
  return backward_impl(dy, /*want_dx=*/true);
}

void Linear::accumulate_param_grads(const Tensor& dy) {
  backward_impl(dy, /*want_dx=*/false);
}

Tensor Linear::backward_impl(const Tensor& dy, bool want_dx) {
  Ctx ctx = ctx_.pop();
  const std::int64_t rows = ctx.input.size(0);
  PAC_CHECK(dy.numel() == rows * out_features_,
            "Linear " << weight_.name() << ": dy numel " << dy.numel()
                      << " != " << rows * out_features_);
  Tensor dy2 = dy.reshape({rows, out_features_});

  // dW = dy^T x  (only when the base weight trains).
  if (weight_.trainable()) {
    ops::matmul_acc(weight_.grad(), dy2, ctx.input, true, false, 1.0F);
  }
  if (has_bias_ && bias_.trainable()) {
    ops::bias_grad_acc(bias_.grad(), dy2);
  }

  // dx = dy W (+ LoRA path).
  Tensor dx;
  if (want_dx) dx = ops::matmul(dy2, weight_.value());  // [rows, in]
  if (lora_enabled()) {
    // mid = x A^T;  y += scale * mid B^T
    // dB = scale * dy^T mid ; dmid = scale * dy B ; dA = dmid^T x ;
    // dx += dmid A
    Tensor dmid = ops::matmul(dy2, lora_b_.value());  // [rows, r]
    dmid.scale_(lora_scale_);
    if (lora_b_.trainable()) {
      ops::matmul_acc(lora_b_.grad(), dy2, ctx.lora_mid, true, false,
                      lora_scale_);
    }
    if (lora_a_.trainable()) {
      ops::matmul_acc(lora_a_.grad(), dmid, ctx.input, true, false, 1.0F);
    }
    if (want_dx) {
      ops::matmul_acc(dx, dmid, lora_a_.value(), false, false, 1.0F);
    }
  }
  if (!want_dx) return Tensor();
  return dx.reshape(ctx.input_shape);
}

void Linear::collect_parameters(ParameterList& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
  if (lora_enabled()) {
    out.push_back(&lora_a_);
    out.push_back(&lora_b_);
  }
}

}  // namespace pac::nn
