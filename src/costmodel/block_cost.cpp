#include "costmodel/block_cost.hpp"

namespace pac::costmodel {

using model::Technique;

std::vector<BlockCost> analytic_blocks(
    const model::ModelConfig& config,
    const model::TechniqueConfig& technique, const SeqShape& micro_shape,
    bool include_decoder, std::int64_t head_outputs) {
  constexpr std::uint64_t kF32 = 4;
  const bool pa = technique.technique == Technique::kParallelAdapters;
  const bool backprop = technique.technique == Technique::kFull ||
                        technique.technique == Technique::kAdapters ||
                        technique.technique == Technique::kLora;
  const std::uint64_t b = static_cast<std::uint64_t>(micro_shape.batch);
  const std::uint64_t t = static_cast<std::uint64_t>(micro_shape.seq);
  const std::uint64_t h = static_cast<std::uint64_t>(config.hidden);
  const std::int64_t r =
      std::max<std::int64_t>(1, config.hidden / technique.pa_reduction);

  const std::uint64_t hidden_msg = kF32 * b * t * h;
  const std::uint64_t adapter_msg =
      pa ? kF32 * b * t * static_cast<std::uint64_t>(r) : 0;
  // Forward always carries the hidden states (plus the side state under
  // PA); backward carries d_hidden for backprop techniques but only the
  // r-wide adapter gradient under PA — the gradient highway.
  const std::uint64_t fwd_msg = hidden_msg + adapter_msg;
  const std::uint64_t bwd_msg = pa ? adapter_msg
                                   : (backprop ? hidden_msg : 0);

  const std::uint64_t side_params =
      pa ? kF32 * static_cast<std::uint64_t>(
                      r * config.hidden + r + 2 * r + 2 * (r * r + r))
         : 0;
  const std::uint64_t side_act =
      side_block_activation_bytes(config, technique, micro_shape);
  const Flops side_flops =
      pa ? side_block_flops(config, technique, micro_shape) : Flops{};

  std::vector<BlockCost> blocks;

  // ---- embedding ----
  {
    BlockCost blk;
    blk.name = "embedding";
    blk.param_bytes =
        kF32 * static_cast<std::uint64_t>(config.embedding_params());
    if (technique.technique == Technique::kFull) {
      blk.trainable_bytes = blk.param_bytes;
    }
    if (pa) {
      // side entry H -> r
      const std::uint64_t entry =
          kF32 * static_cast<std::uint64_t>(config.hidden * r + r);
      blk.param_bytes += entry;
      blk.trainable_bytes += entry;
      blk.flops.forward +=
          static_cast<double>(2 * b * t * h) * static_cast<double>(r);
      blk.flops.backward += 2.0 * blk.flops.forward;
      blk.activation_bytes += side_act;
    }
    if (backprop) {
      // Embedding output retained by the first layer's LayerNorm.
      blk.activation_bytes += hidden_msg;
    }
    blk.fwd_msg_bytes = fwd_msg;
    blk.bwd_msg_bytes = bwd_msg;
    blocks.push_back(std::move(blk));
  }

  // ---- encoder / decoder layers ----
  auto add_layers = [&](std::int64_t count, bool decoder) {
    for (std::int64_t i = 0; i < count; ++i) {
      BlockCost blk;
      blk.name = (decoder ? "decoder_" : "encoder_") + std::to_string(i);
      blk.flops = decoder
                      ? decoder_layer_flops(config, technique, micro_shape)
                      : encoder_layer_flops(config, technique, micro_shape);
      std::uint64_t params =
          kF32 * static_cast<std::uint64_t>(
                     decoder ? config.decoder_layer_params()
                             : config.encoder_layer_params());
      std::uint64_t trainable = 0;
      switch (technique.technique) {
        case Technique::kFull:
          trainable = params;
          break;
        case Technique::kAdapters: {
          const std::int64_t bn = std::max<std::int64_t>(
              1, config.hidden / technique.adapter_reduction);
          trainable = kF32 * static_cast<std::uint64_t>(
                                 2 * config.hidden * bn + bn + config.hidden);
          params += trainable;
          break;
        }
        case Technique::kLora: {
          const std::int64_t lr = technique.lora.rank;
          const std::int64_t bypasses = decoder ? 4 : 2;
          trainable = kF32 * static_cast<std::uint64_t>(
                                 bypasses * 2 * config.hidden * lr);
          params += trainable;
          break;
        }
        case Technique::kParallelAdapters:
          trainable = side_params;
          params += side_params;
          blk.flops += side_flops;
          break;
        case Technique::kInference:
          break;
      }
      blk.param_bytes = params;
      blk.trainable_bytes = trainable;
      blk.activation_bytes =
          layer_activation_bytes(config, technique, micro_shape, decoder) +
          side_act;
      blk.fwd_msg_bytes = fwd_msg;
      blk.bwd_msg_bytes = bwd_msg;
      blocks.push_back(std::move(blk));
    }
  };
  add_layers(config.encoder_layers, false);
  if (include_decoder) add_layers(config.decoder_layers, true);

  // ---- head ----
  {
    BlockCost blk;
    blk.name = "head";
    blk.flops = head_flops(config, micro_shape, head_outputs);
    blk.param_bytes = kF32 * static_cast<std::uint64_t>(
                                 config.hidden * head_outputs + head_outputs +
                                 2 * config.hidden);
    blk.trainable_bytes =
        technique.technique == Technique::kInference ? 0 : blk.param_bytes;
    if (pa) {
      const std::uint64_t exit_bytes =
          kF32 * static_cast<std::uint64_t>(r * config.hidden + config.hidden);
      blk.param_bytes += exit_bytes;
      blk.trainable_bytes += exit_bytes;
      blk.activation_bytes += adapter_msg;
    }
    if (backprop || technique.technique == Technique::kParallelAdapters) {
      blk.activation_bytes += hidden_msg;  // head LN retention
    }
    blk.fwd_msg_bytes = 0;  // nothing downstream
    blk.bwd_msg_bytes = 0;
    blocks.push_back(std::move(blk));
  }
  return blocks;
}

}  // namespace pac::costmodel
