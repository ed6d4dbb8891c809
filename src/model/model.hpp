// The fine-tunable transformer model, assembled per technique.
//
// A Model is a sequence of PipelineBlocks:
//     [Embedding, EncoderLayer_1 .. EncoderLayer_L, Head]
// which pipeline parallelism partitions into contiguous stages.  The
// technique decides what trains and what flows:
//   Full              — everything trains; backward traverses the backbone.
//   Adapters          — Houlsby bottlenecks (+head) train; backward still
//                       traverses the backbone (that is the paper's point).
//   LoRA              — low-rank bypasses on Wq/Wv (+head) train; backward
//                       still traverses the backbone.
//   ParallelAdapters  — the side network (+head) trains; the backbone is
//                       forward-only (contexts disabled), backward carries
//                       only the r-dim adapter gradient between stages.
//   Inference         — frozen, forward-only.
//
// The cached-activation phase (paper §4.2/§5.2) runs the side network alone
// from a per-sample list of backbone activations [b_0 .. b_L]:
// forward_cached / backward_cached skip the backbone entirely.
//
// A rank builds only the parts it runs (ModelParts): a pipeline rank its
// stage's blocks, a phase-2 replica the side network and the head.
#pragma once

#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "model/config.hpp"
#include "model/flow.hpp"
#include "model/parallel_adapter.hpp"
#include "nn/embedding.hpp"
#include "nn/layernorm.hpp"
#include "nn/linear.hpp"
#include "nn/transformer_layer.hpp"

namespace pac::model {

enum class TaskKind { kClassification, kRegression };

struct TaskSpec {
  TaskKind kind = TaskKind::kClassification;
  std::int64_t num_classes = 2;  // regression heads use 1 output

  std::int64_t head_outputs() const {
    return kind == TaskKind::kRegression ? 1 : num_classes;
  }
};

// The parts of a Model that one rank builds: the blocks in
// [block_begin, block_end), and of those, with `backbone` false, only the
// Parallel Adapter side network and the head (a phase-2 replica, whose
// backbone activations come from the cache).  A part left out holds no
// tensors, but its initializer still draws its values from the seed's
// stream and discards them, so every part that is built holds the same
// bits as in a whole-model build.  Calling into a part that was not built
// fails a PAC_CHECK that names its block.
struct ModelParts {
  std::int64_t block_begin = 0;
  std::int64_t block_end = std::numeric_limits<std::int64_t>::max();
  bool backbone = true;

  bool has_block(std::int64_t block) const {
    return block >= block_begin && block < block_end;
  }
  static ModelParts blocks(std::int64_t begin, std::int64_t end) {
    return {begin, end, true};
  }
  static ModelParts none() { return blocks(0, 0); }
  static ModelParts side_network() {
    return {0, std::numeric_limits<std::int64_t>::max(), false};
  }
};

class Model {
 public:
  Model(ModelConfig config, TechniqueConfig technique, TaskSpec task,
        std::uint64_t seed, ModelParts parts = {});

  // ---- pipeline view ----
  // Every block of the model, built or not (see ModelParts).
  std::vector<PipelineBlock*> blocks();
  std::int64_t num_blocks() const {
    return static_cast<std::int64_t>(blocks_.size());
  }

  // ---- single-device convenience ----
  // tokens [B, T] -> logits [B, C]
  Tensor forward(const Tensor& tokens);
  void backward(const Tensor& dlogits);

  // ---- cached-activation phase (Parallel Adapters only) ----
  // `cached` holds [b_0 .. b_L], each [B, T, H], as recorded in epoch 1.
  // `pad_mask` (optional, [B, T]) controls head pooling when the model has
  // a pad_token; recompute it from the batch tokens via make_pad_mask.
  Tensor forward_cached(const std::vector<Tensor>& cached,
                        const Tensor& pad_mask = Tensor());
  void backward_cached(const Tensor& dlogits);
  // Number of backbone activations cached per sample (= L + 1).
  std::int64_t cached_tensors_per_sample() const {
    return config_.encoder_layers + 1;
  }

  // ---- introspection ----
  nn::ParameterList parameters();
  nn::ParameterList trainable_parameters();
  const ModelConfig& config() const { return config_; }
  const TechniqueConfig& technique_config() const { return technique_; }
  Technique technique() const { return technique_.technique; }
  const TaskSpec& task() const { return task_; }
  bool uses_parallel_adapters() const {
    return technique_.technique == Technique::kParallelAdapters;
  }
  // Whether backward traverses the backbone under this technique.
  bool backprop_backbone() const {
    return technique_.technique == Technique::kFull ||
           technique_.technique == Technique::kAdapters ||
           technique_.technique == Technique::kLora;
  }
  std::int64_t side_width() const { return side_width_; }

  void zero_grad();

  // Training mode restores the per-technique context policy (backbone
  // retains activations only when it is backpropagated); eval mode retains
  // nothing anywhere, so forward-only passes never need a draining backward.
  void set_training_mode(bool training);

 private:
  friend class EmbeddingBlock;
  friend class EncoderBlock;
  friend class HeadBlock;

  // Freezes the backbone parts this rank built; `forward_only` also stops
  // them retaining contexts.
  void freeze_backbone(bool forward_only);

  ModelConfig config_;
  TechniqueConfig technique_;
  TaskSpec task_;
  std::int64_t side_width_ = 0;

  // Backbone.  Here and below, a part this rank did not build is null.
  std::unique_ptr<nn::Embedding> embedding_;
  std::vector<std::unique_ptr<nn::TransformerEncoderLayer>> layers_;

  // Parallel Adapter side network (only under kParallelAdapters).
  std::unique_ptr<nn::Linear> side_entry_;  // a_0 = side_entry(b_0), [H -> r]
  std::vector<std::unique_ptr<ParallelAdapterBlock>> side_blocks_;
  std::unique_ptr<nn::Linear> side_exit_;   // up-projection [r -> H]

  // Task head.
  std::unique_ptr<nn::LayerNorm> final_ln_;
  std::unique_ptr<nn::Linear> head_;

  std::vector<std::unique_ptr<PipelineBlock>> blocks_;
};

// Copies values into the model's parameters by name.  Used at the phase-1 →
// phase-2 transition: the trained adapter/head values collected from the
// stage leaders are loaded into every device's phase-2 replica (the
// parameter redistribution of paper §5.2).  Unknown names throw; parameters
// absent from the map keep their current values.
void apply_parameter_overrides(Model& model,
                               const std::map<std::string, Tensor>& values);

}  // namespace pac::model
