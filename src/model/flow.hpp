// Pipeline flow types.
//
// A model is a sequence of PipelineBlocks; pipeline parallelism assigns
// contiguous runs of blocks to stages.  What flows between blocks (and so
// between stages, over the network) is a FlowState; what flows backwards is
// a FlowGrad.  Under Parallel Adapters, the backward flow carries only the
// r-dimensional adapter gradient — the "gradient highway" — because the
// backbone is never backpropagated.
#pragma once

#include <string>

#include "nn/parameter.hpp"
#include "tensor/tensor.hpp"

namespace pac::model {

struct FlowState {
  Tensor tokens;    // [B, T] token ids; defined only before the embedding
  Tensor hidden;    // [B, T, H] backbone activations b_i
  Tensor adapter;   // [B, T, r] side-network state a_i (Parallel Adapters)
  Tensor pad_mask;  // [B, T] 1 = valid token (defined when the model has a
                    // pad_token; flows forward with the activations)
};

// Validity mask (1 = real token) from a [B, T] id tensor; undefined when
// pad_token < 0.
Tensor make_pad_mask(const Tensor& tokens, std::int64_t pad_token);

struct FlowGrad {
  Tensor d_hidden;   // gradient w.r.t. hidden (undefined when the backbone
                     // is not backpropagated, i.e. Parallel Adapters)
  Tensor d_adapter;  // gradient w.r.t. the side-network state
};

class PipelineBlock {
 public:
  virtual ~PipelineBlock() = default;

  // forward is the side half applied to the backbone half.  The backbone
  // half fills `hidden` (b_i) and `pad_mask`; the side half adds what
  // reads the side network, a_i = f_i(b_i, a_{i-1}), from `in` and the
  // backbone half's output `out`.  Under Parallel Adapters the backbone
  // half of the embedding and encoder blocks reads no trainable weight, so
  // it may run before an optimizer step its side half must follow (see
  // StageWorker's run-ahead).  The head has no backbone half.
  FlowState forward(const FlowState& in) {
    FlowState out = forward_backbone(in);
    forward_side(in, out);
    return out;
  }
  virtual FlowState forward_backbone(const FlowState& in) = 0;
  virtual void forward_side(const FlowState& in, FlowState& out) = 0;
  virtual FlowGrad backward(const FlowGrad& dout) = 0;
  virtual void collect_parameters(nn::ParameterList& out) = 0;
  virtual const std::string& name() const = 0;

  nn::ParameterList parameters() {
    nn::ParameterList out;
    collect_parameters(out);
    return out;
  }

  nn::ParameterList trainable_parameters() {
    nn::ParameterList out;
    for (nn::Parameter* p : parameters()) {
      if (p->trainable()) out.push_back(p);
    }
    return out;
  }
};

}  // namespace pac::model
