// Optimizers operating on ParameterLists.  Only trainable parameters are
// touched; frozen ones carry no optimizer state, which is exactly the PEFT
// memory advantage the paper's Table 1 accounts for.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "nn/parameter.hpp"

namespace pac::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  virtual void step(const ParameterList& params) = 0;

  // Bytes of optimizer state currently held (for memory accounting).
  virtual std::uint64_t state_bytes() const = 0;

  // Learning-rate control (driven by nn::LrSchedule between steps).
  virtual void set_lr(float lr) = 0;
  virtual float lr() const = 0;
};

// Global L2 gradient clipping: scales every trainable gradient so their
// joint norm is at most max_norm.  Returns the pre-clip norm.
float clip_grad_norm(const ParameterList& params, float max_norm);

class Sgd : public Optimizer {
 public:
  explicit Sgd(float lr, float momentum = 0.0F)
      : lr_(lr), momentum_(momentum) {}

  void step(const ParameterList& params) override;
  std::uint64_t state_bytes() const override;
  void set_lr(float lr) override { lr_ = lr; }
  float lr() const override { return lr_; }

 private:
  float lr_;
  float momentum_;
  std::unordered_map<Parameter*, Tensor> velocity_;
};

// Adam with optional decoupled weight decay (AdamW when weight_decay > 0).
class Adam : public Optimizer {
 public:
  // Adam keeps two moments (m, v) per trainable value, so its state is
  // this many times the trainable (= gradient) bytes.  The planner, the
  // stage ledger and the phase-2 ledger all charge it from here.
  static constexpr std::uint64_t kStateFactor = 2;

  explicit Adam(float lr, float beta1 = 0.9F, float beta2 = 0.999F,
                float eps = 1e-8F, float weight_decay = 0.0F)
      : lr_(lr),
        beta1_(beta1),
        beta2_(beta2),
        eps_(eps),
        weight_decay_(weight_decay) {}

  void step(const ParameterList& params) override;
  std::uint64_t state_bytes() const override;
  void set_lr(float lr) override { lr_ = lr; }
  float lr() const override { return lr_; }

 private:
  struct State {
    Tensor m;
    Tensor v;
  };

  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  std::int64_t t_ = 0;
  std::unordered_map<Parameter*, State> state_;
};

}  // namespace pac::nn
