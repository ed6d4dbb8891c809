// Analytic per-block costs — the planner's and simulator's common currency.
//
// The paper-scale model is the full encoder-decoder stack of Table 4; its
// pipeline-partitionable block list is
//     [embedding, enc_1 .. enc_Le, dec_1 .. dec_Ld, head]
// and each entry carries compute time inputs (FLOPs), resident parameter
// bytes, per-micro retained activation bytes, and inter-stage message
// sizes under the chosen fine-tuning technique.
#pragma once

#include <string>
#include <vector>

#include "costmodel/device_spec.hpp"
#include "costmodel/flops.hpp"
#include "costmodel/memory_model.hpp"

namespace pac::costmodel {

struct BlockCost {
  std::string name;
  Flops flops;                          // per micro-batch of `shape`
  std::uint64_t param_bytes = 0;        // resident weights (incl. frozen)
  std::uint64_t trainable_bytes = 0;    // trainable parameter bytes
  std::uint64_t activation_bytes = 0;   // retained per in-flight micro
  std::uint64_t fwd_msg_bytes = 0;      // forward inter-stage message
  std::uint64_t bwd_msg_bytes = 0;      // backward inter-stage message
};

// Block list for one *micro-batch* of `shape` under the technique.
std::vector<BlockCost> analytic_blocks(
    const model::ModelConfig& config,
    const model::TechniqueConfig& technique, const SeqShape& micro_shape,
    bool include_decoder, std::int64_t head_outputs = 2);

}  // namespace pac::costmodel
