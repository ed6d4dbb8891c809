// Token embedding plus learned positional embedding.
//
// Input is a [B, T] tensor of float-encoded token ids; output is [B, T, H].
// backward() returns an empty tensor (there is no upstream of the
// embedding), accumulating into the tables when they train.
#pragma once

#include <string>

#include "nn/module.hpp"

namespace pac::nn {

class Embedding : public Module {
 public:
  Embedding(std::string name, std::int64_t vocab, std::int64_t max_seq,
            std::int64_t hidden, Rng& rng);
  // Draws from `rng` what the constructor draws, building nothing.
  static void skip_init(std::int64_t vocab, std::int64_t max_seq,
                        std::int64_t hidden, Rng& rng) {
    rng.skip_normal(vocab * hidden);
    rng.skip_normal(max_seq * hidden);
  }

  Tensor forward(const Tensor& ids) override;
  Tensor backward(const Tensor& dy) override;

  // Inference-only lookup of a single position: ids [B, 1] embedded with
  // the positional row `position` (incremental decoding).  Keeps no
  // context; never call backward for it.
  Tensor forward_at(const Tensor& ids, std::int64_t position) const;
  void collect_parameters(ParameterList& out) override;
  std::size_t pending_contexts() const override { return ctx_.size(); }

  std::int64_t hidden() const { return hidden_; }

 private:
  struct Ctx {
    Tensor ids;  // [B, T]
  };

  std::int64_t vocab_;
  std::int64_t max_seq_;
  std::int64_t hidden_;
  Parameter token_table_;  // [vocab, H]
  Parameter pos_table_;    // [max_seq, H]
  ContextQueue<Ctx> ctx_;
};

}  // namespace pac::nn
