#include "model/parallel_adapter.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/ops.hpp"

namespace pac::model {

ParallelAdapterBlock::ParallelAdapterBlock(std::string name,
                                           std::int64_t hidden,
                                           std::int64_t r, Rng& rng)
    : hidden_(hidden),
      r_(r),
      down_(name + ".down", hidden, r, rng),
      ln_(name + ".ln", r),
      w1_(name + ".w1", r, r, rng),
      w2_(name + ".w2", r, r, rng) {
  PAC_CHECK(r > 0 && r <= hidden, "parallel adapter width " << r
                                                            << " vs hidden "
                                                            << hidden);
  // Start close to identity: the side path initially passes a_{i-1} through.
  w2_.weight().value().scale_(0.01F);
}

Tensor ParallelAdapterBlock::forward(const Tensor& backbone_act,
                                     const Tensor& prev_state) {
  PAC_CHECK(backbone_act.size(backbone_act.dim() - 1) == hidden_,
            "parallel adapter: backbone feature dim mismatch");
  PAC_CHECK(prev_state.size(prev_state.dim() - 1) == r_,
            "parallel adapter: state width mismatch");
  Tensor injected = down_.forward(backbone_act);  // [B, T, r]
  Tensor u = ops::add(prev_state, injected);
  Tensor pre = w1_.forward(ln_.forward(u));
  if (ctx_enabled_) pre_act_.push(pre.clone());
  Tensor mlp_out = w2_.forward(ops::relu(pre));
  return ops::add(u, mlp_out);
}

Tensor ParallelAdapterBlock::backward(const Tensor& d_state) {
  Tensor pre = pre_act_.pop();
  // a_i = u + W2(relu(W1(LN(u))))
  Tensor dmid = w2_.backward(d_state);
  Tensor dpre = ops::relu_backward(dmid, pre);
  Tensor du = ln_.backward(w1_.backward(dpre));
  du.add_(d_state);
  // u = a_{i-1} + down(b_i): the down-projection's input gradient would be
  // the backbone gradient, which side-tuning never uses, so only its
  // parameter gradients are accumulated.
  down_.accumulate_param_grads(du);
  return du;  // d a_{i-1}
}

void ParallelAdapterBlock::collect_parameters(nn::ParameterList& out) {
  down_.collect_parameters(out);
  ln_.collect_parameters(out);
  w1_.collect_parameters(out);
  w2_.collect_parameters(out);
}

void ParallelAdapterBlock::init_from_backbone(const Tensor& fc1_weight) {
  PAC_CHECK(fc1_weight.dim() == 2 && fc1_weight.size(1) == hidden_,
            "init_from_backbone expects the backbone fc1 weight [ffn, H]");
  PAC_CHECK(fc1_weight.size(0) >= r_,
            "backbone fc1 too small for structural pruning");
  // down: leading r rows of fc1 ([r, H]), rescaled so the projected
  // activation variance stays comparable after the width reduction.
  const float rescale =
      std::sqrt(static_cast<float>(hidden_) / static_cast<float>(r_));
  const float* src = fc1_weight.data();
  float* pd = down_.weight().value().data();
  for (std::int64_t i = 0; i < r_; ++i) {
    for (std::int64_t j = 0; j < hidden_; ++j) {
      pd[i * hidden_ + j] = src[i * hidden_ + j] * rescale;
    }
  }
  // w1: leading r×r sub-block of fc1 restricted to the first r input dims.
  float* p1 = w1_.weight().value().data();
  for (std::int64_t i = 0; i < r_; ++i) {
    for (std::int64_t j = 0; j < r_; ++j) {
      p1[i * r_ + j] = src[i * hidden_ + j] * rescale;
    }
  }
}

}  // namespace pac::model
