#include "model/model.hpp"

#include <string>

#include "tensor/ops.hpp"

namespace pac::model {

Tensor make_pad_mask(const Tensor& tokens, std::int64_t pad_token) {
  if (pad_token < 0) return Tensor();
  Tensor mask(tokens.shape());
  const float* pt = tokens.data();
  float* pm = mask.data();
  for (std::int64_t i = 0; i < tokens.numel(); ++i) {
    pm[i] = static_cast<std::int64_t>(pt[i]) == pad_token ? 0.0F : 1.0F;
  }
  return mask;
}

// ---------------------------------------------------------------------------
// Blocks
// ---------------------------------------------------------------------------

class EmbeddingBlock : public PipelineBlock {
 public:
  explicit EmbeddingBlock(Model* m) : m_(m), name_("embedding") {}

  FlowState forward_backbone(const FlowState& in) override {
    PAC_CHECK(in.tokens.defined(), "embedding block needs tokens");
    FlowState out;
    out.hidden = m_->embedding_->forward(in.tokens);
    out.pad_mask = make_pad_mask(in.tokens, m_->config_.pad_token);
    return out;
  }

  void forward_side(const FlowState& /*in*/, FlowState& out) override {
    if (m_->uses_parallel_adapters()) {
      out.adapter = m_->side_entry_->forward(out.hidden);
    }
  }

  FlowGrad backward(const FlowGrad& dout) override {
    if (dout.d_adapter.defined()) {
      // Accumulates side_entry grads only: side-tuning never backpropagates
      // the backbone, so the embedding gradient is not computed.
      m_->side_entry_->accumulate_param_grads(dout.d_adapter);
    }
    if (dout.d_hidden.defined()) {
      m_->embedding_->backward(dout.d_hidden);
    }
    return FlowGrad{};  // nothing upstream
  }

  void collect_parameters(nn::ParameterList& out) override {
    m_->embedding_->collect_parameters(out);
    if (m_->side_entry_ != nullptr) m_->side_entry_->collect_parameters(out);
  }

  const std::string& name() const override { return name_; }

 private:
  Model* m_;
  std::string name_;
};

class EncoderBlock : public PipelineBlock {
 public:
  EncoderBlock(Model* m, std::int64_t index)
      : m_(m),
        index_(index),
        name_("encoder_layer_" + std::to_string(index)) {}

  FlowState forward_backbone(const FlowState& in) override {
    PAC_CHECK(in.hidden.defined(), name_ << ": missing hidden input");
    FlowState out;
    out.pad_mask = in.pad_mask;
    if (in.pad_mask.defined()) {
      m_->layers_[static_cast<std::size_t>(index_)]->set_key_mask(
          in.pad_mask);
    }
    out.hidden = m_->layers_[static_cast<std::size_t>(index_)]->forward(
        in.hidden);
    return out;
  }

  void forward_side(const FlowState& in, FlowState& out) override {
    if (!m_->uses_parallel_adapters()) return;
    PAC_CHECK(in.adapter.defined(), name_ << ": missing adapter state");
    out.adapter = m_->side_blocks_[static_cast<std::size_t>(index_)]->forward(
        out.hidden, in.adapter);
  }

  FlowGrad backward(const FlowGrad& dout) override {
    FlowGrad din;
    if (dout.d_adapter.defined()) {
      din.d_adapter = m_->side_blocks_[static_cast<std::size_t>(index_)]
                          ->backward(dout.d_adapter);
    }
    if (dout.d_hidden.defined()) {
      PAC_CHECK(m_->backprop_backbone(),
                name_ << ": backbone gradient under a forward-only technique");
      din.d_hidden = m_->layers_[static_cast<std::size_t>(index_)]->backward(
          dout.d_hidden);
    }
    return din;
  }

  void collect_parameters(nn::ParameterList& out) override {
    m_->layers_[static_cast<std::size_t>(index_)]->collect_parameters(out);
    if (m_->uses_parallel_adapters()) {
      m_->side_blocks_[static_cast<std::size_t>(index_)]->collect_parameters(
          out);
    }
  }

  const std::string& name() const override { return name_; }

 private:
  Model* m_;
  std::int64_t index_;
  std::string name_;
};

class HeadBlock : public PipelineBlock {
 public:
  explicit HeadBlock(Model* m) : m_(m), name_("head") {}

  FlowState forward_backbone(const FlowState& /*in*/) override { return {}; }

  void forward_side(const FlowState& in, FlowState& out) override {
    PAC_CHECK(in.hidden.defined(), "head block needs hidden input");
    Tensor combined = in.hidden;
    if (m_->uses_parallel_adapters()) {
      PAC_CHECK(in.adapter.defined(), "head block: missing adapter state");
      // Side-tuning: side output summed with the backbone output at the
      // final layer.
      combined = ops::add(in.hidden, m_->side_exit_->forward(in.adapter));
    }
    Tensor normed = m_->final_ln_->forward(combined);
    // Inference mode keeps no contexts anywhere, including this queue.
    if (m_->head_->context_enabled()) {
      pool_ctx_.push(PoolCtx{normed.size(1), in.pad_mask});
    }
    Tensor pooled = in.pad_mask.defined()
                        ? ops::masked_mean_over_dim1(normed, in.pad_mask)
                        : ops::mean_over_dim1(normed);
    out.hidden = m_->head_->forward(pooled);  // logits [B, C]
  }

  FlowGrad backward(const FlowGrad& dout) override {
    PAC_CHECK(dout.d_hidden.defined(), "head backward needs dlogits");
    Tensor dpooled = m_->head_->backward(dout.d_hidden);
    const PoolCtx pc = pool_ctx_.pop();
    Tensor dnormed =
        pc.pad_mask.defined()
            ? ops::masked_mean_over_dim1_backward(dpooled, pc.pad_mask)
            : ops::mean_over_dim1_backward(dpooled, pc.seq_len);
    Tensor dcombined = m_->final_ln_->backward(dnormed);
    FlowGrad din;
    if (m_->uses_parallel_adapters()) {
      din.d_adapter = m_->side_exit_->backward(dcombined);
      // dcombined w.r.t. the backbone branch is dropped (forward-only).
    } else if (m_->backprop_backbone()) {
      din.d_hidden = dcombined;
    }
    return din;
  }

  void collect_parameters(nn::ParameterList& out) override {
    if (m_->side_exit_ != nullptr) m_->side_exit_->collect_parameters(out);
    m_->final_ln_->collect_parameters(out);
    m_->head_->collect_parameters(out);
  }

  const std::string& name() const override { return name_; }

 private:
  struct PoolCtx {
    std::int64_t seq_len = 0;
    Tensor pad_mask;
  };

  Model* m_;
  std::string name_;
  nn::ContextQueue<PoolCtx> pool_ctx_;
};

// ---------------------------------------------------------------------------
// Model assembly
// ---------------------------------------------------------------------------

Model::Model(ModelConfig config, TechniqueConfig technique, TaskSpec task,
             std::uint64_t seed)
    : config_(std::move(config)),
      technique_(technique),
      task_(task) {
  Rng rng(seed);

  embedding_ = std::make_unique<nn::Embedding>(
      "backbone.embedding", config_.vocab, config_.max_seq, config_.hidden,
      rng);
  layers_.reserve(static_cast<std::size_t>(config_.encoder_layers));
  for (std::int64_t i = 0; i < config_.encoder_layers; ++i) {
    layers_.push_back(std::make_unique<nn::TransformerEncoderLayer>(
        "backbone.layer_" + std::to_string(i), config_.hidden, config_.heads,
        config_.ffn, rng, config_.activation, config_.dropout));
  }
  final_ln_ = std::make_unique<nn::LayerNorm>("head.final_ln",
                                              config_.hidden);
  head_ = std::make_unique<nn::Linear>("head.classifier", config_.hidden,
                                       task_.head_outputs(), rng);

  switch (technique_.technique) {
    case Technique::kFull:
      break;  // everything trains, contexts stay on

    case Technique::kAdapters: {
      PAC_CHECK(technique_.adapter_reduction > 0, "bad adapter_reduction");
      const std::int64_t bottleneck =
          std::max<std::int64_t>(1,
                                 config_.hidden / technique_.adapter_reduction);
      for (auto& layer : layers_) {
        layer->attach_adapter(bottleneck, rng);
      }
      // Freeze the backbone, then re-enable the adapters.
      embedding_->set_trainable(false);
      for (auto& layer : layers_) {
        layer->set_trainable(false);
        layer->adapter()->set_trainable(true);
      }
      break;
    }

    case Technique::kLora: {
      for (auto& layer : layers_) {
        layer->attach_lora(technique_.lora, rng);
      }
      embedding_->set_trainable(false);
      for (auto& layer : layers_) {
        // enable_lora froze Wq/Wv bases; freeze the rest of the layer too,
        // then re-enable the LoRA factors.
        for (nn::Parameter* p : layer->parameters()) {
          const bool is_lora =
              p->name().find(".lora_") != std::string::npos;
          p->set_trainable(is_lora);
        }
      }
      break;
    }

    case Technique::kParallelAdapters: {
      PAC_CHECK(technique_.pa_reduction > 0, "bad pa_reduction");
      side_width_ =
          std::max<std::int64_t>(1, config_.hidden / technique_.pa_reduction);
      side_entry_ = std::make_unique<nn::Linear>(
          "side.entry", config_.hidden, side_width_, rng);
      for (std::int64_t i = 0; i < config_.encoder_layers; ++i) {
        side_blocks_.push_back(std::make_unique<ParallelAdapterBlock>(
            "side.block_" + std::to_string(i), config_.hidden, side_width_,
            rng));
      }
      side_exit_ = std::make_unique<nn::Linear>("side.exit", side_width_,
                                                config_.hidden, rng);
      // Structural-pruning init from the backbone (paper §6.1): seed each
      // side block from its backbone layer's first FFN weight.
      for (std::int64_t i = 0; i < config_.encoder_layers; ++i) {
        nn::ParameterList lp;
        layers_[static_cast<std::size_t>(i)]->collect_parameters(lp);
        for (nn::Parameter* p : lp) {
          if (p->name().find(".ff.fc1.weight") != std::string::npos) {
            side_blocks_[static_cast<std::size_t>(i)]->init_from_backbone(
                p->value());
            break;
          }
        }
      }
      // Backbone: frozen and forward-only.
      embedding_->set_trainable(false);
      embedding_->set_context_enabled(false);
      for (auto& layer : layers_) {
        layer->set_trainable(false);
        layer->set_context_enabled(false);
      }
      break;
    }

    case Technique::kInference: {
      embedding_->set_trainable(false);
      embedding_->set_context_enabled(false);
      for (auto& layer : layers_) {
        layer->set_trainable(false);
        layer->set_context_enabled(false);
      }
      final_ln_->set_trainable(false);
      final_ln_->set_context_enabled(false);
      head_->set_trainable(false);
      head_->set_context_enabled(false);
      break;
    }
  }

  blocks_.push_back(std::make_unique<EmbeddingBlock>(this));
  for (std::int64_t i = 0; i < config_.encoder_layers; ++i) {
    blocks_.push_back(std::make_unique<EncoderBlock>(this, i));
  }
  blocks_.push_back(std::make_unique<HeadBlock>(this));
}

std::vector<PipelineBlock*> Model::blocks() {
  std::vector<PipelineBlock*> out;
  out.reserve(blocks_.size());
  for (auto& b : blocks_) out.push_back(b.get());
  return out;
}

Tensor Model::forward(const Tensor& tokens) {
  FlowState state;
  state.tokens = tokens;
  for (auto& block : blocks_) state = block->forward(state);
  return state.hidden;
}

void Model::backward(const Tensor& dlogits) {
  FlowGrad grad;
  grad.d_hidden = dlogits;
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    grad = (*it)->backward(grad);
    // Stop once nothing flows upstream (safe: forward-only techniques keep
    // no contexts on the blocks we skip).
    if (!grad.d_hidden.defined() && !grad.d_adapter.defined()) break;
  }
}

Tensor Model::forward_cached(const std::vector<Tensor>& cached,
                             const Tensor& pad_mask) {
  PAC_CHECK(uses_parallel_adapters(),
            "forward_cached requires the ParallelAdapters technique");
  PAC_CHECK(static_cast<std::int64_t>(cached.size()) ==
                cached_tensors_per_sample(),
            "expected " << cached_tensors_per_sample()
                        << " cached activations, got " << cached.size());
  // The cached b_i stand in for the backbone halves; the side halves and
  // the head are the blocks' own, so phase-1 and phase-2 predictions are
  // identical.
  FlowState state;
  for (std::size_t i = 0; i < cached.size(); ++i) {
    FlowState out;
    out.hidden = cached[i];
    out.pad_mask = pad_mask;
    blocks_[i]->forward_side(state, out);
    state = std::move(out);
  }
  return blocks_.back()->forward(state).hidden;
}

void Model::backward_cached(const Tensor& dlogits) {
  PAC_CHECK(uses_parallel_adapters(),
            "backward_cached requires the ParallelAdapters technique");
  FlowGrad g;
  g.d_hidden = dlogits;
  FlowGrad head_grad = blocks_.back()->backward(g);
  Tensor d_a = head_grad.d_adapter;
  for (std::int64_t i = config_.encoder_layers - 1; i >= 0; --i) {
    d_a = side_blocks_[static_cast<std::size_t>(i)]->backward(d_a);
  }
  side_entry_->accumulate_param_grads(d_a);  // backbone stays untouched
}

nn::ParameterList Model::parameters() {
  nn::ParameterList out;
  for (auto& block : blocks_) block->collect_parameters(out);
  return out;
}

nn::ParameterList Model::trainable_parameters() {
  nn::ParameterList out;
  for (nn::Parameter* p : parameters()) {
    if (p->trainable()) out.push_back(p);
  }
  return out;
}

void Model::zero_grad() {
  for (nn::Parameter* p : parameters()) p->zero_grad();
}

void apply_parameter_overrides(Model& model,
                               const std::map<std::string, Tensor>& values) {
  std::map<std::string, nn::Parameter*> by_name;
  for (nn::Parameter* p : model.parameters()) by_name[p->name()] = p;
  for (const auto& [name, value] : values) {
    auto it = by_name.find(name);
    PAC_CHECK(it != by_name.end(), "override for unknown parameter " << name);
    it->second->value().copy_from(value);
  }
}

void Model::set_training_mode(bool training) {
  for (auto& layer : layers_) layer->set_dropout_training(training);
  const bool backbone_ctx = training && backprop_backbone();
  const bool trainable_ctx =
      training && technique_.technique != Technique::kInference;
  embedding_->set_context_enabled(backbone_ctx);
  for (auto& layer : layers_) {
    layer->set_context_enabled(backbone_ctx);
    if (layer->has_adapter()) {
      layer->adapter()->set_context_enabled(trainable_ctx);
    }
  }
  if (side_entry_ != nullptr) {
    side_entry_->set_context_enabled(trainable_ctx);
    side_exit_->set_context_enabled(trainable_ctx);
    for (auto& block : side_blocks_) {
      block->set_context_enabled(trainable_ctx);
    }
  }
  final_ln_->set_context_enabled(trainable_ctx);
  head_->set_context_enabled(trainable_ctx);
}

}  // namespace pac::model
