#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "nn/attention.hpp"
#include "nn/dropout.hpp"
#include "nn/embedding.hpp"
#include "nn/feedforward.hpp"
#include "nn/layernorm.hpp"
#include "nn/linear.hpp"
#include "nn/losses.hpp"
#include "nn/optimizer.hpp"
#include "nn/transformer_layer.hpp"
#include "tensor/ops.hpp"

namespace pac::nn {
namespace {

// loss(x) = sum(dy ⊙ f(x)); checks module dx and all trainable parameter
// gradients against central finite differences.
void grad_check(Module& m, const Tensor& x, float tol = 5e-2F,
                float h = 1e-2F) {
  Rng rng(991);
  Tensor y = m.forward(x);
  Tensor dy = Tensor::randn(y.shape(), rng);
  m.zero_grad();
  // Re-run forward so the context queue holds exactly one entry.
  while (m.pending_contexts() > 0) m.backward(Tensor::zeros(y.shape()));
  m.zero_grad();
  y = m.forward(x);
  Tensor dx = m.backward(dy);

  auto loss_at = [&](const Tensor& xi) {
    Tensor yi = m.forward(xi);
    // Drain the context we just pushed so queues stay balanced.
    m.backward(Tensor::zeros(yi.shape()));
    float l = 0.0F;
    for (std::int64_t i = 0; i < yi.numel(); ++i) {
      l += yi.data()[i] * dy.data()[i];
    }
    return l;
  };

  // Input gradient: spot-check a subset of coordinates for speed.
  const std::int64_t stride = std::max<std::int64_t>(1, x.numel() / 16);
  ParameterList params = m.parameters();
  // Snapshot parameter grads before loss_at calls pollute them.
  std::vector<Tensor> saved_grads;
  for (Parameter* p : params) {
    saved_grads.push_back(p->trainable() ? p->grad().clone() : Tensor());
  }

  for (std::int64_t i = 0; i < x.numel(); i += stride) {
    Tensor xp = x.clone();
    Tensor xm = x.clone();
    xp.data()[i] += h;
    xm.data()[i] -= h;
    const float num = (loss_at(xp) - loss_at(xm)) / (2.0F * h);
    EXPECT_NEAR(dx.data()[i], num, tol) << "dx[" << i << "]";
  }

  // Parameter gradients: spot-check each trainable parameter.
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Parameter* p = params[pi];
    if (!p->trainable()) continue;
    const std::int64_t n = p->value().numel();
    const std::int64_t pstride = std::max<std::int64_t>(1, n / 8);
    for (std::int64_t i = 0; i < n; i += pstride) {
      const float orig = p->value().data()[i];
      p->value().data()[i] = orig + h;
      const float lp = loss_at(x);
      p->value().data()[i] = orig - h;
      const float lm = loss_at(x);
      p->value().data()[i] = orig;
      const float num = (lp - lm) / (2.0F * h);
      EXPECT_NEAR(saved_grads[pi].data()[i], num, tol)
          << p->name() << "[" << i << "]";
    }
  }
}

TEST(LinearTest, ForwardMatchesManual) {
  Rng rng(1);
  Linear lin("fc", 3, 2, rng);
  lin.weight().value() = Tensor::from_vector({2, 3}, {1, 0, 0, 0, 1, 0});
  lin.bias().value() = Tensor::from_vector({2}, {0.5F, -0.5F});
  Tensor x = Tensor::from_vector({1, 3}, {10, 20, 30});
  Tensor y = lin.forward(x);
  EXPECT_FLOAT_EQ(y.at({0, 0}), 10.5F);
  EXPECT_FLOAT_EQ(y.at({0, 1}), 19.5F);
}

TEST(LinearTest, GradCheck) {
  Rng rng(2);
  Linear lin("fc", 5, 4, rng);
  Tensor x = Tensor::randn({3, 5}, rng);
  grad_check(lin, x);
}

TEST(LinearTest, GradCheck3dInput) {
  Rng rng(3);
  Linear lin("fc", 4, 6, rng);
  Tensor x = Tensor::randn({2, 3, 4}, rng);
  grad_check(lin, x);
}

TEST(LinearTest, LoraFreezesBaseAndIsNoopAtInit) {
  Rng rng(4);
  Linear lin("fc", 4, 4, rng);
  Tensor x = Tensor::randn({2, 4}, rng);
  Tensor y0 = lin.forward(x);
  lin.backward(Tensor::zeros(y0.shape()));

  lin.enable_lora(LoraSpec{2, 4.0F}, rng);
  EXPECT_FALSE(lin.weight().trainable());
  Tensor y1 = lin.forward(x);
  lin.backward(Tensor::zeros(y1.shape()));
  // B starts at zero so the bypass contributes nothing initially.
  EXPECT_LT(ops::max_abs_diff(y0, y1), 1e-6F);

  ParameterList params = lin.parameters();
  EXPECT_EQ(count_params(params, /*trainable_only=*/true),
            2 * 4 + 4 * 2);  // A[2,4] + B[4,2]
}

TEST(LinearTest, LoraGradCheck) {
  Rng rng(5);
  Linear lin("fc", 4, 3, rng);
  lin.enable_lora(LoraSpec{2, 4.0F}, rng);
  // Give B nonzero values so the bypass participates.
  ParameterList params = lin.parameters();
  for (Parameter* p : params) {
    if (p->name().find("lora_b") != std::string::npos) {
      Tensor rnd = Tensor::randn(p->value().shape(), rng, 0.1F);
      p->value().copy_from(rnd);
    }
  }
  Tensor x = Tensor::randn({3, 4}, rng);
  grad_check(lin, x);
}

// The side network's taps on the frozen backbone skip dx: their parameter
// gradients must be exactly what backward() accumulates, with and without
// LoRA, and the saved context must still be consumed.
TEST(LinearTest, ParamOnlyBackwardMatchesBackwardGrads) {
  for (const bool lora : {false, true}) {
    Rng rng_a(9);
    Rng rng_b(9);
    Linear full("fc", 6, 5, rng_a);
    Linear param_only("fc", 6, 5, rng_b);
    if (lora) {
      full.enable_lora(LoraSpec{2, 4.0F}, rng_a);
      param_only.enable_lora(LoraSpec{2, 4.0F}, rng_b);
    }
    Rng data(10);
    const Tensor x = Tensor::randn({2, 3, 6}, data);
    const Tensor dy = Tensor::randn({2, 3, 5}, data);
    full.forward(x);
    param_only.forward(x);
    full.backward(dy);
    param_only.accumulate_param_grads(dy);
    EXPECT_EQ(param_only.pending_contexts(), 0U);
    ParameterList want = full.parameters();
    ParameterList got = param_only.parameters();
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (!want[i]->trainable()) continue;
      EXPECT_EQ(ops::max_abs_diff(want[i]->grad(), got[i]->grad()), 0.0F)
          << want[i]->name() << " lora=" << lora;
    }
  }
}

TEST(LinearTest, DoubleLoraThrows) {
  Rng rng(6);
  Linear lin("fc", 4, 4, rng);
  lin.enable_lora(LoraSpec{2, 4.0F}, rng);
  EXPECT_THROW(lin.enable_lora(LoraSpec{2, 4.0F}, rng), InvalidArgument);
}

TEST(LayerNormTest, GradCheck) {
  Rng rng(7);
  LayerNorm ln("ln", 6);
  Tensor x = Tensor::randn({3, 6}, rng);
  grad_check(ln, x);
}

TEST(LayerNormTest, FrozenParamsStillPropagateInputGrad) {
  Rng rng(8);
  LayerNorm ln("ln", 4);
  ln.set_trainable(false);
  Tensor x = Tensor::randn({2, 4}, rng);
  Tensor y = ln.forward(x);
  Tensor dx = ln.backward(Tensor::full(y.shape(), 1.0F));
  EXPECT_EQ(dx.numel(), x.numel());
}

TEST(EmbeddingTest, ForwardAddsPositional) {
  Rng rng(9);
  Embedding emb("emb", 10, 8, 4, rng);
  Tensor ids = Tensor::from_vector({1, 2}, {3, 3});
  Tensor y = emb.forward(ids);
  // Same token at different positions must differ (positional table).
  float diff = 0.0F;
  for (int j = 0; j < 4; ++j) {
    diff += std::abs(y.at({0, 0, j}) - y.at({0, 1, j}));
  }
  EXPECT_GT(diff, 1e-4F);
  emb.backward(Tensor::zeros(y.shape()));
}

TEST(EmbeddingTest, BackwardAccumulatesIntoTables) {
  Rng rng(10);
  Embedding emb("emb", 6, 4, 3, rng);
  Tensor ids = Tensor::from_vector({2, 2}, {1, 2, 1, 1});
  Tensor y = emb.forward(ids);
  emb.zero_grad();
  emb.backward(Tensor::full(y.shape(), 1.0F));
  ParameterList params = emb.parameters();
  // token table grad: id 1 appears 3 times.
  EXPECT_FLOAT_EQ(params[0]->grad().at({1, 0}), 3.0F);
  EXPECT_FLOAT_EQ(params[0]->grad().at({2, 0}), 1.0F);
  // positional grad: each position appears twice (batch of 2).
  EXPECT_FLOAT_EQ(params[1]->grad().at({0, 0}), 2.0F);
}

TEST(EmbeddingTest, TooLongSequenceThrows) {
  Rng rng(11);
  Embedding emb("emb", 6, 2, 3, rng);
  Tensor ids = Tensor::zeros({1, 3});
  EXPECT_THROW(emb.forward(ids), InvalidArgument);
}

TEST(DropoutTest, EvalModePassesThrough) {
  Dropout drop(0.5F, 42);
  drop.set_training(false);
  Rng rng(12);
  Tensor x = Tensor::randn({4, 4}, rng);
  Tensor y = drop.forward(x);
  EXPECT_LT(ops::max_abs_diff(x, y), 1e-7F);
  Tensor dx = drop.backward(x);
  EXPECT_LT(ops::max_abs_diff(x, dx), 1e-7F);
}

TEST(DropoutTest, TrainingMaskIsConsistentAcrossBackward) {
  Dropout drop(0.5F, 42);
  Tensor x = Tensor::full({64}, 1.0F);
  Tensor y = drop.forward(x);
  Tensor dx = drop.backward(Tensor::full({64}, 1.0F));
  // Forward mask and backward mask must be the same pattern.
  for (int i = 0; i < 64; ++i) {
    EXPECT_FLOAT_EQ(y.at({i}), dx.at({i}));
  }
}

TEST(DropoutTest, InvalidProbabilityThrows) {
  EXPECT_THROW(Dropout(1.0F, 1), InvalidArgument);
  EXPECT_THROW(Dropout(-0.1F, 1), InvalidArgument);
}

TEST(FeedForwardTest, GradCheck) {
  Rng rng(13);
  FeedForward ff("ff", 4, 8, rng);
  Tensor x = Tensor::randn({2, 4}, rng);
  grad_check(ff, x);
}

TEST(FeedForwardTest, GeluVariantGradCheck) {
  Rng rng(14);
  FeedForward ff("ff", 4, 8, rng, Activation::kGelu);
  Tensor x = Tensor::randn({2, 4}, rng);
  grad_check(ff, x);
}

TEST(AttentionTest, SelfAttentionGradCheck) {
  Rng rng(15);
  MultiHeadAttention attn("attn", 8, 2, rng);
  Tensor x = Tensor::randn({2, 3, 8}, rng, 0.5F);
  grad_check(attn, x, /*tol=*/6e-2F);
}

TEST(AttentionTest, CausalMaskBlocksFuture) {
  Rng rng(16);
  MultiHeadAttention attn("attn", 8, 2, rng, /*causal=*/true);
  Tensor x = Tensor::randn({1, 4, 8}, rng);
  Tensor y1 = attn.forward(x);
  attn.backward(Tensor::zeros(y1.shape()));
  // Changing a future token must not affect earlier outputs.
  Tensor x2 = x.clone();
  for (int j = 0; j < 8; ++j) x2.at({0, 3, j}) += 5.0F;
  Tensor y2 = attn.forward(x2);
  attn.backward(Tensor::zeros(y2.shape()));
  for (int s = 0; s < 3; ++s) {
    for (int j = 0; j < 8; ++j) {
      EXPECT_NEAR(y1.at({0, s, j}), y2.at({0, s, j}), 1e-5F)
          << "position " << s << " changed by a future token";
    }
  }
}

TEST(AttentionTest, NonCausalAttendsToAll) {
  Rng rng(17);
  MultiHeadAttention attn("attn", 8, 2, rng, /*causal=*/false);
  Tensor x = Tensor::randn({1, 4, 8}, rng);
  Tensor y1 = attn.forward(x);
  attn.backward(Tensor::zeros(y1.shape()));
  Tensor x2 = x.clone();
  for (int j = 0; j < 8; ++j) x2.at({0, 3, j}) += 5.0F;
  Tensor y2 = attn.forward(x2);
  attn.backward(Tensor::zeros(y2.shape()));
  EXPECT_GT(ops::max_abs_diff(y1.slice0(0, 1), y2.slice0(0, 1)), 1e-4F);
}

TEST(AttentionTest, CrossAttentionShapesAndGrads) {
  Rng rng(18);
  MultiHeadAttention attn("attn", 8, 2, rng);
  Tensor x = Tensor::randn({2, 3, 8}, rng, 0.5F);
  Tensor mem = Tensor::randn({2, 5, 8}, rng, 0.5F);
  Tensor y = attn.forward_cross(x, mem);
  EXPECT_EQ(y.size(0), 2);
  EXPECT_EQ(y.size(1), 3);
  EXPECT_EQ(y.size(2), 8);
  Tensor dy = Tensor::randn(y.shape(), rng);
  auto [dx, dmem] = attn.backward_cross(dy);
  EXPECT_EQ(dx.numel(), x.numel());
  EXPECT_EQ(dmem.numel(), mem.numel());

  // Finite-difference check on one memory coordinate.
  const float h = 1e-2F;
  auto loss = [&](const Tensor& m) {
    Tensor yy = attn.forward_cross(x, m);
    attn.backward_cross(Tensor::zeros(yy.shape()));
    float l = 0.0F;
    for (std::int64_t i = 0; i < yy.numel(); ++i) {
      l += yy.data()[i] * dy.data()[i];
    }
    return l;
  };
  Tensor mp = mem.clone();
  Tensor mm = mem.clone();
  mp.at({0, 2, 3}) += h;
  mm.at({0, 2, 3}) -= h;
  EXPECT_NEAR(dmem.at({0, 2, 3}), (loss(mp) - loss(mm)) / (2.0F * h), 5e-2F);
}

TEST(AttentionTest, MixedSelfCrossContextMismatchThrows) {
  Rng rng(19);
  MultiHeadAttention attn("attn", 8, 2, rng);
  Tensor x = Tensor::randn({1, 2, 8}, rng);
  Tensor y = attn.forward(x);
  EXPECT_THROW(attn.backward_cross(Tensor::zeros(y.shape())),
               InvalidArgument);
}

TEST(AttentionTest, BackwardWithoutForwardThrows) {
  Rng rng(20);
  MultiHeadAttention attn("attn", 8, 2, rng);
  EXPECT_THROW(attn.backward(Tensor::zeros({1, 2, 8})), InvalidArgument);
}

TEST(BottleneckAdapterTest, GradCheckAndNearIdentityInit) {
  Rng rng(21);
  BottleneckAdapter adapter("ad", 6, 2, rng);
  Tensor x = Tensor::randn({2, 6}, rng);
  Tensor y = adapter.forward(x);
  adapter.backward(Tensor::zeros(y.shape()));
  // Near-identity at init.
  EXPECT_LT(ops::max_abs_diff(x, y), 0.5F);
  grad_check(adapter, x);
}

TEST(EncoderLayerTest, GradCheck) {
  Rng rng(22);
  TransformerEncoderLayer layer("enc", 8, 2, 16, rng);
  Tensor x = Tensor::randn({1, 3, 8}, rng, 0.5F);
  grad_check(layer, x, /*tol=*/8e-2F);
}

TEST(EncoderLayerTest, AdapterAttachAddsTrainableParams) {
  Rng rng(23);
  TransformerEncoderLayer layer("enc", 8, 2, 16, rng);
  const std::int64_t base = count_params(layer.parameters());
  layer.attach_adapter(2, rng);
  const std::int64_t with_adapter = count_params(layer.parameters());
  EXPECT_EQ(with_adapter - base, 8 * 2 + 2 + 2 * 8 + 8);
  EXPECT_THROW(layer.attach_adapter(2, rng), InvalidArgument);
}

TEST(EncoderLayerTest, AdapterVariantGradCheck) {
  Rng rng(24);
  TransformerEncoderLayer layer("enc", 8, 2, 16, rng);
  layer.attach_adapter(2, rng);
  Tensor x = Tensor::randn({1, 2, 8}, rng, 0.5F);
  grad_check(layer, x, /*tol=*/8e-2F);
}

TEST(DecoderLayerTest, ForwardBackwardShapes) {
  Rng rng(25);
  TransformerDecoderLayer layer("dec", 8, 2, 16, rng);
  Tensor x = Tensor::randn({2, 3, 8}, rng, 0.5F);
  Tensor mem = Tensor::randn({2, 4, 8}, rng, 0.5F);
  Tensor y = layer.forward(x, mem);
  EXPECT_EQ(y.numel(), x.numel());
  auto [dx, dmem] = layer.backward(Tensor::randn(y.shape(), rng));
  EXPECT_EQ(dx.numel(), x.numel());
  EXPECT_EQ(dmem.numel(), mem.numel());
}

TEST(DecoderLayerTest, MemoryGradMatchesFiniteDifference) {
  Rng rng(26);
  TransformerDecoderLayer layer("dec", 8, 2, 16, rng);
  Tensor x = Tensor::randn({1, 2, 8}, rng, 0.5F);
  Tensor mem = Tensor::randn({1, 3, 8}, rng, 0.5F);
  Tensor y = layer.forward(x, mem);
  Tensor dy = Tensor::randn(y.shape(), rng);
  auto [dx, dmem] = layer.backward(dy);
  (void)dx;

  auto loss = [&](const Tensor& m) {
    Tensor yy = layer.forward(x, m);
    layer.backward(Tensor::zeros(yy.shape()));
    float l = 0.0F;
    for (std::int64_t i = 0; i < yy.numel(); ++i) {
      l += yy.data()[i] * dy.data()[i];
    }
    return l;
  };
  const float h = 1e-2F;
  Tensor mp = mem.clone();
  Tensor mm = mem.clone();
  mp.at({0, 1, 4}) += h;
  mm.at({0, 1, 4}) -= h;
  EXPECT_NEAR(dmem.at({0, 1, 4}), (loss(mp) - loss(mm)) / (2.0F * h), 8e-2F);
}

TEST(LossTest, CrossEntropyKnownValue) {
  // Uniform logits over 2 classes: loss = ln 2.
  Tensor logits = Tensor::zeros({3, 2});
  LossResult r = softmax_cross_entropy(logits, {0, 1, 0});
  EXPECT_NEAR(r.loss, std::log(2.0F), 1e-5F);
  // Gradient rows sum to zero.
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(r.dlogits.at({i, 0}) + r.dlogits.at({i, 1}), 0.0F, 1e-6F);
  }
}

TEST(LossTest, CrossEntropyGradMatchesFiniteDifference) {
  Rng rng(27);
  Tensor logits = Tensor::randn({2, 3}, rng);
  const std::vector<std::int64_t> labels{2, 0};
  LossResult r = softmax_cross_entropy(logits, labels);
  const float h = 1e-3F;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) {
      Tensor lp = logits.clone();
      Tensor lm = logits.clone();
      lp.at({i, j}) += h;
      lm.at({i, j}) -= h;
      const float num = (softmax_cross_entropy(lp, labels).loss -
                         softmax_cross_entropy(lm, labels).loss) /
                        (2.0F * h);
      EXPECT_NEAR(r.dlogits.at({i, j}), num, 1e-3F);
    }
  }
}

TEST(LossTest, CrossEntropyBadLabelThrows) {
  Tensor logits = Tensor::zeros({1, 2});
  EXPECT_THROW(softmax_cross_entropy(logits, {5}), InvalidArgument);
  EXPECT_THROW(softmax_cross_entropy(logits, {0, 1}), InvalidArgument);
}

TEST(LossTest, MseKnownValueAndGrad) {
  Tensor pred = Tensor::from_vector({2, 1}, {1.0F, 3.0F});
  LossResult r = mse_loss(pred, {0.0F, 1.0F});
  EXPECT_NEAR(r.loss, (1.0F + 4.0F) / 2.0F, 1e-6F);
  EXPECT_NEAR(r.dlogits.at({0, 0}), 2.0F * 1.0F / 2.0F, 1e-6F);
  EXPECT_NEAR(r.dlogits.at({1, 0}), 2.0F * 2.0F / 2.0F, 1e-6F);
}

TEST(LossTest, ArgmaxRows) {
  Tensor logits = Tensor::from_vector({2, 3}, {0, 5, 1, 9, 2, 3});
  const auto preds = argmax_rows(logits);
  EXPECT_EQ(preds[0], 1);
  EXPECT_EQ(preds[1], 0);
}

TEST(OptimizerTest, SgdStepsDownhill) {
  Rng rng(28);
  Parameter w("w", Tensor::from_vector({1}, {5.0F}));
  w.grad().fill(2.0F);
  Sgd opt(0.1F);
  opt.step({&w});
  EXPECT_NEAR(w.value().at({0}), 5.0F - 0.1F * 2.0F, 1e-6F);
  EXPECT_EQ(opt.state_bytes(), 0U);
}

TEST(OptimizerTest, SgdMomentumAccumulates) {
  Parameter w("w", Tensor::from_vector({1}, {0.0F}));
  Sgd opt(1.0F, 0.5F);
  w.grad().fill(1.0F);
  opt.step({&w});
  EXPECT_NEAR(w.value().at({0}), -1.0F, 1e-6F);
  opt.step({&w});  // velocity = 0.5 * 1 + 1 = 1.5
  EXPECT_NEAR(w.value().at({0}), -2.5F, 1e-6F);
  EXPECT_GT(opt.state_bytes(), 0U);
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  // minimize (w - 3)^2
  Parameter w("w", Tensor::from_vector({1}, {0.0F}));
  Adam opt(0.1F);
  for (int i = 0; i < 300; ++i) {
    w.zero_grad();
    w.grad().at({0}) = 2.0F * (w.value().at({0}) - 3.0F);
    opt.step({&w});
  }
  EXPECT_NEAR(w.value().at({0}), 3.0F, 1e-2F);
  EXPECT_EQ(opt.state_bytes(), 2U * sizeof(float));
}

TEST(OptimizerTest, FrozenParamsAreSkipped) {
  Parameter w("w", Tensor::from_vector({1}, {1.0F}));
  w.set_trainable(false);
  Adam opt(0.1F);
  opt.step({&w});
  EXPECT_FLOAT_EQ(w.value().at({0}), 1.0F);
  EXPECT_EQ(opt.state_bytes(), 0U);
}

TEST(ParameterTest, FreezeDropsGradStorage) {
  Parameter w("w", Tensor::zeros({10}));
  EXPECT_EQ(w.grad_bytes(), 10U * sizeof(float));
  w.set_trainable(false);
  EXPECT_EQ(w.grad_bytes(), 0U);
  EXPECT_THROW(w.grad(), InvalidArgument);
  // accumulate_grad is a safe no-op on frozen params.
  w.accumulate_grad(Tensor::zeros({10}));
}

TEST(ModuleTest, ContextQueueIsFifo) {
  Rng rng(29);
  Linear lin("fc", 2, 2, rng);
  Tensor x1 = Tensor::from_vector({1, 2}, {1, 0});
  Tensor x2 = Tensor::from_vector({1, 2}, {0, 1});
  lin.forward(x1);
  lin.forward(x2);
  EXPECT_EQ(lin.pending_contexts(), 2U);
  lin.zero_grad();
  Tensor dy = Tensor::from_vector({1, 2}, {1.0F, 1.0F});
  lin.backward(dy);  // consumes x1's context
  // dW after first backward = dy^T x1 → column 0 only.
  EXPECT_FLOAT_EQ(lin.weight().grad().at({0, 0}), 1.0F);
  EXPECT_FLOAT_EQ(lin.weight().grad().at({0, 1}), 0.0F);
  lin.backward(dy);  // consumes x2's context
  EXPECT_FLOAT_EQ(lin.weight().grad().at({0, 1}), 1.0F);
  EXPECT_EQ(lin.pending_contexts(), 0U);
}

}  // namespace
}  // namespace pac::nn
