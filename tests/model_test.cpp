#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "model/model.hpp"
#include "nn/losses.hpp"
#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"

namespace pac::model {
namespace {

ModelConfig test_config() { return tiny(3, 16, 2, 32, 8); }

Tensor make_tokens(std::int64_t b, std::int64_t t, std::uint64_t seed,
                   std::int64_t vocab) {
  Rng rng(seed);
  Tensor tokens({b, t});
  for (std::int64_t i = 0; i < tokens.numel(); ++i) {
    tokens.data()[i] = static_cast<float>(rng.integer(0, vocab - 1));
  }
  return tokens;
}

TEST(ConfigTest, PaperScalePresetsMatchTable4) {
  // Table 4: 0.25 B / 0.41 B / 0.74 B parameters.
  const double t5b = static_cast<double>(t5_base().full_param_count());
  const double bl = static_cast<double>(bart_large().full_param_count());
  const double t5l = static_cast<double>(t5_large().full_param_count());
  EXPECT_NEAR(t5b / 1e9, 0.25, 0.05);
  EXPECT_NEAR(bl / 1e9, 0.41, 0.06);
  EXPECT_NEAR(t5l / 1e9, 0.74, 0.08);
  EXPECT_EQ(t5_base().encoder_layers, 12);
  EXPECT_EQ(bart_large().heads, 16);
  EXPECT_EQ(t5_large().hidden, 1024);
}

TEST(ConfigTest, TinyPresetValidatesHeads) {
  EXPECT_THROW(tiny(2, 10, 3), InvalidArgument);
}

class TechniqueModelTest : public ::testing::TestWithParam<Technique> {};

TEST_P(TechniqueModelTest, ForwardProducesLogitsOfTaskShape) {
  TechniqueConfig tc;
  tc.technique = GetParam();
  tc.adapter_reduction = 4;
  tc.pa_reduction = 4;
  Model m(test_config(), tc, TaskSpec{TaskKind::kClassification, 3}, 7);
  Tensor tokens = make_tokens(2, 8, 1, 32);
  Tensor logits = m.forward(tokens);
  EXPECT_EQ(logits.size(0), 2);
  EXPECT_EQ(logits.size(1), 3);
}

TEST_P(TechniqueModelTest, TrainableSubsetMatchesTechnique) {
  const Technique t = GetParam();
  TechniqueConfig tc;
  tc.technique = t;
  tc.adapter_reduction = 4;
  tc.pa_reduction = 4;
  Model m(test_config(), tc, TaskSpec{}, 7);
  const std::int64_t total = nn::count_params(m.parameters());
  const std::int64_t trainable =
      nn::count_params(m.parameters(), /*trainable_only=*/true);
  switch (t) {
    case Technique::kFull:
      EXPECT_EQ(trainable, total);
      break;
    case Technique::kInference:
      EXPECT_EQ(trainable, 0);
      break;
    default:
      EXPECT_GT(trainable, 0);
      // All PEFT techniques train well under half the parameters even at
      // tiny scale (at paper scale this is ~1-2 %).
      EXPECT_LT(trainable, total / 2);
  }
}

TEST_P(TechniqueModelTest, TrainingStepReducesLoss) {
  const Technique t = GetParam();
  if (t == Technique::kInference) GTEST_SKIP();
  TechniqueConfig tc;
  tc.technique = t;
  tc.adapter_reduction = 4;
  tc.pa_reduction = 4;
  Model m(test_config(), tc, TaskSpec{TaskKind::kClassification, 2}, 7);
  Tensor tokens = make_tokens(4, 8, 2, 32);
  const std::vector<std::int64_t> labels{0, 1, 0, 1};
  nn::Adam opt(5e-3F);

  float first_loss = 0.0F;
  float last_loss = 0.0F;
  for (int step = 0; step < 25; ++step) {
    m.zero_grad();
    Tensor logits = m.forward(tokens);
    nn::LossResult r = nn::softmax_cross_entropy(logits, labels);
    if (step == 0) first_loss = r.loss;
    last_loss = r.loss;
    m.backward(r.dlogits);
    opt.step(m.trainable_parameters());
  }
  EXPECT_LT(last_loss, first_loss) << technique_name(t);
}

INSTANTIATE_TEST_SUITE_P(AllTechniques, TechniqueModelTest,
                         ::testing::Values(Technique::kFull,
                                           Technique::kAdapters,
                                           Technique::kLora,
                                           Technique::kParallelAdapters,
                                           Technique::kInference),
                         [](const auto& info) {
                           return technique_name(info.param);
                         });

TEST(ModelTest, FrozenBackboneUnchangedByPeftTraining) {
  for (Technique t : {Technique::kAdapters, Technique::kLora,
                      Technique::kParallelAdapters}) {
    TechniqueConfig tc;
    tc.technique = t;
    tc.adapter_reduction = 4;
    tc.pa_reduction = 4;
    Model m(test_config(), tc, TaskSpec{}, 7);
    // Snapshot frozen params.
    std::vector<Tensor> before;
    nn::ParameterList frozen;
    for (nn::Parameter* p : m.parameters()) {
      if (!p->trainable()) {
        frozen.push_back(p);
        before.push_back(p->value().clone());
      }
    }
    ASSERT_FALSE(frozen.empty());

    Tensor tokens = make_tokens(2, 8, 3, 32);
    nn::Adam opt(1e-2F);
    for (int step = 0; step < 3; ++step) {
      m.zero_grad();
      Tensor logits = m.forward(tokens);
      nn::LossResult r = nn::softmax_cross_entropy(logits, {0, 1});
      m.backward(r.dlogits);
      opt.step(m.trainable_parameters());
    }
    for (std::size_t i = 0; i < frozen.size(); ++i) {
      EXPECT_EQ(ops::max_abs_diff(frozen[i]->value(), before[i]), 0.0F)
          << technique_name(t) << ": " << frozen[i]->name();
    }
  }
}

TEST(ModelTest, BlockwiseForwardMatchesModelForward) {
  TechniqueConfig tc;
  tc.technique = Technique::kParallelAdapters;
  tc.pa_reduction = 4;
  Model m(test_config(), tc, TaskSpec{}, 9);
  Tensor tokens = make_tokens(2, 8, 4, 32);

  FlowState state;
  state.tokens = tokens;
  for (PipelineBlock* b : m.blocks()) state = b->forward(state);
  // Drain head context for queue hygiene.
  FlowGrad g;
  g.d_hidden = Tensor::zeros(state.hidden.shape());
  for (auto blocks = m.blocks(); !blocks.empty(); blocks.pop_back()) {
    g = blocks.back()->backward(g);
    if (!g.d_hidden.defined() && !g.d_adapter.defined()) break;
  }

  Tensor direct = m.forward(tokens);
  m.backward(Tensor::zeros(direct.shape()));
  EXPECT_LT(ops::max_abs_diff(state.hidden, direct), 1e-6F);
}

TEST(ModelTest, CachedForwardMatchesFullForward) {
  TechniqueConfig tc;
  tc.technique = Technique::kParallelAdapters;
  tc.pa_reduction = 4;
  Model m(test_config(), tc, TaskSpec{TaskKind::kClassification, 2}, 11);
  Tensor tokens = make_tokens(2, 8, 5, 32);

  // Run blockwise, recording backbone activations like epoch 1 does.
  std::vector<Tensor> cached;
  FlowState state;
  state.tokens = tokens;
  auto blocks = m.blocks();
  for (std::size_t i = 0; i + 1 < blocks.size(); ++i) {
    state = blocks[i]->forward(state);
    cached.push_back(state.hidden.clone());
  }
  Tensor logits_live = blocks.back()->forward(state).hidden;
  FlowGrad g;
  g.d_hidden = Tensor::zeros(logits_live.shape());
  for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) {
    g = (*it)->backward(g);
    if (!g.d_hidden.defined() && !g.d_adapter.defined()) break;
  }

  ASSERT_EQ(static_cast<std::int64_t>(cached.size()),
            m.cached_tensors_per_sample());
  Tensor logits_cached = m.forward_cached(cached);
  m.backward_cached(Tensor::zeros(logits_cached.shape()));
  EXPECT_LT(ops::max_abs_diff(logits_live, logits_cached), 1e-5F);
}

TEST(ModelTest, CachedTrainingMatchesLiveTrainingGradients) {
  TechniqueConfig tc;
  tc.technique = Technique::kParallelAdapters;
  tc.pa_reduction = 4;
  // Two identical models.
  Model live(test_config(), tc, TaskSpec{}, 13);
  Model cached_model(test_config(), tc, TaskSpec{}, 13);
  Tensor tokens = make_tokens(2, 8, 6, 32);
  const std::vector<std::int64_t> labels{0, 1};

  // Live step.
  live.zero_grad();
  Tensor logits = live.forward(tokens);
  nn::LossResult r = nn::softmax_cross_entropy(logits, labels);
  live.backward(r.dlogits);

  // Cached step: collect activations with a forward pass, then train from
  // the cache.
  std::vector<Tensor> cache;
  FlowState state;
  state.tokens = tokens;
  auto blocks = cached_model.blocks();
  for (std::size_t i = 0; i + 1 < blocks.size(); ++i) {
    state = blocks[i]->forward(state);
    cache.push_back(state.hidden.clone());
  }
  // Drain the head-less forward chain (only side/head modules hold ctx).
  Tensor head_logits = blocks.back()->forward(state).hidden;
  FlowGrad g;
  g.d_hidden = Tensor::zeros(head_logits.shape());
  for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) {
    g = (*it)->backward(g);
    if (!g.d_hidden.defined() && !g.d_adapter.defined()) break;
  }

  cached_model.zero_grad();
  Tensor logits2 = cached_model.forward_cached(cache);
  nn::LossResult r2 = nn::softmax_cross_entropy(logits2, labels);
  cached_model.backward_cached(r2.dlogits);

  EXPECT_NEAR(r.loss, r2.loss, 1e-5F);
  auto lp = live.trainable_parameters();
  auto cp = cached_model.trainable_parameters();
  ASSERT_EQ(lp.size(), cp.size());
  for (std::size_t i = 0; i < lp.size(); ++i) {
    EXPECT_LT(ops::max_abs_diff(lp[i]->grad(), cp[i]->grad()), 1e-4F)
        << lp[i]->name();
  }
}

TEST(ModelTest, ParallelAdaptersKeepNoBackboneContexts) {
  TechniqueConfig tc;
  tc.technique = Technique::kParallelAdapters;
  tc.pa_reduction = 4;
  Model m(test_config(), tc, TaskSpec{}, 15);
  Tensor tokens = make_tokens(2, 8, 7, 32);
  // Several forwards without backward: backbone must not accumulate state.
  for (int i = 0; i < 3; ++i) {
    Tensor logits = m.forward(tokens);
    m.backward(Tensor::zeros(logits.shape()));
  }
  SUCCEED();  // queue-discipline PAC_CHECKs would have thrown on imbalance
}

TEST(ModelTest, RegressionHeadHasOneOutput) {
  TechniqueConfig tc;
  tc.technique = Technique::kParallelAdapters;
  tc.pa_reduction = 4;
  Model m(test_config(), tc, TaskSpec{TaskKind::kRegression, 1}, 17);
  Tensor tokens = make_tokens(3, 8, 8, 32);
  Tensor pred = m.forward(tokens);
  EXPECT_EQ(pred.size(0), 3);
  EXPECT_EQ(pred.size(1), 1);
  nn::LossResult r = nn::mse_loss(pred, {0.5F, 1.0F, 0.0F});
  m.backward(r.dlogits);
}

TEST(ModelTest, SideWidthFollowsReductionFactor) {
  TechniqueConfig tc;
  tc.technique = Technique::kParallelAdapters;
  tc.pa_reduction = 8;
  Model m(tiny(2, 32, 2, 32, 8), tc, TaskSpec{}, 19);
  EXPECT_EQ(m.side_width(), 4);
}

TEST(ModelTest, CachedPathRejectedForOtherTechniques) {
  TechniqueConfig tc;
  tc.technique = Technique::kFull;
  Model m(test_config(), tc, TaskSpec{}, 21);
  EXPECT_THROW(m.forward_cached({}), InvalidArgument);
  EXPECT_THROW(m.backward_cached(Tensor::zeros({1, 2})), InvalidArgument);
}

TEST(ModelTest, ParallelAdaptersBackwardTouchesOnlySideAndHeadGrads) {
  TechniqueConfig tc;
  tc.technique = Technique::kParallelAdapters;
  tc.pa_reduction = 4;
  Model m(test_config(), tc, TaskSpec{}, 23);
  Tensor tokens = make_tokens(2, 8, 9, 32);
  m.zero_grad();
  Tensor logits = m.forward(tokens);
  nn::LossResult r = nn::softmax_cross_entropy(logits, {0, 1});
  m.backward(r.dlogits);
  bool any_nonzero = false;
  for (nn::Parameter* p : m.trainable_parameters()) {
    const bool is_side = p->name().rfind("side.", 0) == 0;
    const bool is_head = p->name().rfind("head.", 0) == 0;
    EXPECT_TRUE(is_side || is_head) << p->name();
    for (std::int64_t i = 0; i < p->grad().numel(); ++i) {
      if (p->grad().data()[i] != 0.0F) any_nonzero = true;
    }
  }
  EXPECT_TRUE(any_nonzero);
}

// ---- stage-only builds (ModelParts) ----------------------------------------

TechniqueConfig small_technique(Technique t) {
  TechniqueConfig tc;
  tc.technique = t;
  tc.adapter_reduction = 4;
  tc.pa_reduction = 4;
  return tc;
}

// Parameters of blocks [begin, end) of `m`, in block order.
nn::ParameterList block_params(Model& m, std::int64_t begin,
                               std::int64_t end) {
  nn::ParameterList out;
  const auto blocks = m.blocks();
  for (std::int64_t b = begin; b < end; ++b) {
    blocks[static_cast<std::size_t>(b)]->collect_parameters(out);
  }
  return out;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

// The message of the InvalidArgument that `fn` throws ("" if none).
template <typename Fn>
std::string check_failure(Fn fn) {
  try {
    fn();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

class StageOnlyBuildTest : public ::testing::TestWithParam<Technique> {};

TEST_P(StageOnlyBuildTest, EachStageHoldsTheWholeModelsBlocksBitForBit) {
  const TechniqueConfig tc = small_technique(GetParam());
  const ModelConfig cfg = tiny(4, 16, 2, 32, 8);  // 6 blocks
  Model whole(cfg, tc, TaskSpec{}, 31);
  const std::vector<std::pair<std::int64_t, std::int64_t>> stages{
      {0, 2}, {2, 4}, {4, 6}};
  for (const auto& [begin, end] : stages) {
    SCOPED_TRACE("blocks " + std::to_string(begin) + ".." +
                 std::to_string(end));
    Model stage(cfg, tc, TaskSpec{}, 31, ModelParts::blocks(begin, end));
    EXPECT_EQ(stage.num_blocks(), whole.num_blocks());
    const nn::ParameterList want = block_params(whole, begin, end);
    const nn::ParameterList got = stage.parameters();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i]->name(), want[i]->name());
      EXPECT_EQ(got[i]->trainable(), want[i]->trainable()) << want[i]->name();
      EXPECT_EQ(got[i]->value_bytes(), want[i]->value_bytes());
      EXPECT_EQ(got[i]->grad_bytes(), want[i]->grad_bytes());
      EXPECT_TRUE(same_bits(got[i]->value(), want[i]->value()))
          << want[i]->name();
    }
  }
  EXPECT_TRUE(
      Model(cfg, tc, TaskSpec{}, 31, ModelParts::none()).parameters().empty());
}

INSTANTIATE_TEST_SUITE_P(AllTechniques, StageOnlyBuildTest,
                         ::testing::Values(Technique::kFull,
                                           Technique::kAdapters,
                                           Technique::kLora,
                                           Technique::kParallelAdapters,
                                           Technique::kInference),
                         [](const auto& info) {
                           return technique_name(info.param);
                         });

TEST(StageOnlyBuildTest, TouchingABlockThatWasNotBuiltThrows) {
  const ModelConfig cfg = tiny(4, 16, 2, 32, 8);
  Model stage(cfg, small_technique(Technique::kParallelAdapters), TaskSpec{},
              31, ModelParts::blocks(2, 4));
  const auto blocks = stage.blocks();
  FlowState in;
  in.tokens = make_tokens(2, 8, 3, 32);
  EXPECT_NE(check_failure([&] { blocks[0]->forward(in); }).find("embedding"),
            std::string::npos);
  in.hidden = Tensor::zeros({2, 8, 16});
  in.adapter = Tensor::zeros({2, 8, 4});
  EXPECT_NE(check_failure([&] { blocks[1]->forward(in); })
                .find("encoder_layer_0"),
            std::string::npos);
  EXPECT_NE(check_failure([&] { blocks[5]->forward(in); }).find("head"),
            std::string::npos);
  EXPECT_NO_THROW(blocks[2]->forward(in));

  Model side(cfg, small_technique(Technique::kParallelAdapters), TaskSpec{},
             31, ModelParts::side_network());
  EXPECT_NE(check_failure([&] { side.forward(in.tokens); }).find("embedding"),
            std::string::npos);
  EXPECT_THROW(Model(cfg, small_technique(Technique::kLora), TaskSpec{}, 31,
                     ModelParts::side_network()),
               InvalidArgument);
}

TEST(StageOnlyBuildTest, SideOnlyReplicaMatchesAWholePhaseTwoReplica) {
  const ModelConfig cfg = tiny(4, 16, 2, 32, 8);
  const TechniqueConfig tc = small_technique(Technique::kParallelAdapters);
  // Phase-1 result: trainable values moved off their initial values.
  Model trained(cfg, tc, TaskSpec{}, 31);
  std::map<std::string, Tensor> overrides;
  for (nn::Parameter* p : trained.trainable_parameters()) {
    Tensor v = p->value().clone();
    v.scale_(1.5F);
    overrides[p->name()] = v;
  }
  // The cached backbone activations of one batch.
  std::vector<Tensor> cached;
  FlowState state;
  state.tokens = make_tokens(2, 8, 4, 32);
  const auto blocks = trained.blocks();
  for (std::size_t i = 0; i + 1 < blocks.size(); ++i) {
    state = blocks[i]->forward(state);
    cached.push_back(state.hidden.clone());
  }

  Model whole(cfg, tc, TaskSpec{}, 31);
  Model side(cfg, tc, TaskSpec{}, 31, ModelParts::side_network());
  apply_parameter_overrides(whole, overrides);
  apply_parameter_overrides(side, overrides);
  // The side replica holds nothing but the trainables.
  EXPECT_EQ(side.parameters().size(), side.trainable_parameters().size());
  const nn::ParameterList want = whole.trainable_parameters();
  const nn::ParameterList got = side.trainable_parameters();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i]->name(), want[i]->name());
    EXPECT_TRUE(same_bits(got[i]->value(), want[i]->value()))
        << want[i]->name();
  }
  // Cached steps agree bit for bit, grads included (phase 2 flattens the
  // grads in trainable_parameters() order).
  Tensor logits_whole = whole.forward_cached(cached);
  Tensor logits_side = side.forward_cached(cached);
  EXPECT_TRUE(same_bits(logits_side, logits_whole));
  const nn::LossResult r = nn::softmax_cross_entropy(logits_whole, {0, 1});
  whole.backward_cached(r.dlogits);
  side.backward_cached(r.dlogits);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(same_bits(got[i]->grad(), want[i]->grad()))
        << want[i]->name();
  }
}

}  // namespace
}  // namespace pac::model
