// Trainable parameter: value + gradient + trainability flag.
//
// PEFT techniques work by flipping `trainable` on a subset of parameters;
// optimizers, AllReduce, and the memory model all consult the flag, so a
// frozen parameter costs no gradient memory and no synchronization traffic.
// The gradient buffer is allocated on first use, and only while trainable:
// a weight that the builder freezes right after constructing it (the whole
// backbone under every PEFT technique) never holds one.  grad_bytes()
// reports what a trainable parameter holds once it has trained, so the
// ledger charges the same bytes before and after the first backward.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

namespace pac::nn {

class Parameter {
 public:
  Parameter() = default;
  Parameter(std::string name, Tensor value, bool trainable = true)
      : name_(std::move(name)),
        value_(std::move(value)),
        trainable_(trainable) {}

  const std::string& name() const { return name_; }
  Tensor& value() { return value_; }
  const Tensor& value() const { return value_; }

  bool trainable() const { return trainable_; }
  void set_trainable(bool trainable) {
    trainable_ = trainable;
    if (!trainable_) grad_ = Tensor();  // frozen params hold no gradient
  }

  // Gradient accumulator, zero-filled on first access; only valid while
  // trainable.
  Tensor& grad() {
    PAC_CHECK(trainable_, "gradient access on frozen parameter " << name_);
    if (!grad_.defined() && value_.defined()) {
      grad_ = Tensor::zeros(value_.shape());
    }
    return grad_;
  }

  void zero_grad() {
    if (grad_.defined()) grad_.zero();
  }

  // Accumulates dy into the gradient iff trainable (no-op otherwise), so
  // module backward passes can call this unconditionally.
  void accumulate_grad(const Tensor& dy) {
    if (trainable_) grad().add_(dy);
  }

  std::uint64_t value_bytes() const {
    return value_.defined() ? value_.byte_size() : 0;
  }
  std::uint64_t grad_bytes() const { return trainable_ ? value_bytes() : 0; }

 private:
  std::string name_;
  Tensor value_;
  Tensor grad_;
  bool trainable_ = true;
};

using ParameterList = std::vector<Parameter*>;

// Sum of parameter element counts, optionally restricted to trainable ones.
inline std::int64_t count_params(const ParameterList& params,
                                 bool trainable_only = false) {
  std::int64_t n = 0;
  for (const Parameter* p : params) {
    if (!trainable_only || p->trainable()) n += p->value().numel();
  }
  return n;
}

}  // namespace pac::nn
