#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "model/checkpoint.hpp"
#include "model/model.hpp"
#include "nn/losses.hpp"
#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"

namespace pac::model {
namespace {

// ctest runs each case in its own process, concurrently: one file per case.
std::string test_path() {
  return ::testing::TempDir() + "pac_checkpoint_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ".bin";
}

Model make_model(std::uint64_t seed) {
  TechniqueConfig tc;
  tc.technique = Technique::kParallelAdapters;
  tc.pa_reduction = 4;
  return Model(tiny(2, 16, 2, 32, 8), tc, TaskSpec{}, seed);
}

TEST(CheckpointTest, FullRoundTrip) {
  Model a = make_model(1);
  save_parameters(a.parameters(), test_path());
  Model b = make_model(2);  // different init
  const std::size_t loaded = load_parameters(b.parameters(), test_path());
  EXPECT_EQ(loaded, a.parameters().size());
  auto pa = a.parameters();
  auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(ops::max_abs_diff(pa[i]->value(), pb[i]->value()), 0.0F)
        << pa[i]->name();
  }
  std::filesystem::remove(test_path());
}

TEST(CheckpointTest, TrainableSubsetRestoresAdapters) {
  Model a = make_model(3);
  // Perturb trainable params so the checkpoint differs from fresh init.
  Rng rng(9);
  for (nn::Parameter* p : a.trainable_parameters()) {
    Tensor noise = Tensor::randn(p->value().shape(), rng, 0.1F);
    p->value().add_(noise);
  }
  save_trainable_parameters(a.parameters(), test_path());

  Model b = make_model(3);  // same seed: identical backbone
  const std::size_t loaded =
      load_parameters(b.parameters(), test_path(), LoadMode::kSubset);
  EXPECT_EQ(loaded, a.trainable_parameters().size());
  auto ta = a.trainable_parameters();
  auto tb = b.trainable_parameters();
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ops::max_abs_diff(ta[i]->value(), tb[i]->value()), 0.0F);
  }
  // Strict mode must reject the adapter-only file.
  Model c = make_model(3);
  EXPECT_THROW(
      load_parameters(c.parameters(), test_path(), LoadMode::kStrict),
      InvalidArgument);
  std::filesystem::remove(test_path());
}

TEST(CheckpointTest, ShapeMismatchRejected) {
  Model a = make_model(5);
  save_parameters(a.parameters(), test_path());
  TechniqueConfig tc;
  tc.technique = Technique::kParallelAdapters;
  tc.pa_reduction = 2;  // different side width -> shape mismatch
  Model b(tiny(2, 16, 2, 32, 8), tc, TaskSpec{}, 5);
  EXPECT_THROW(load_parameters(b.parameters(), test_path()), InvalidArgument);
  std::filesystem::remove(test_path());
}

TEST(CheckpointTest, UnknownNameRejected) {
  Model a = make_model(6);
  save_parameters(a.parameters(), test_path());
  // A model with fewer layers lacks some checkpointed names.
  TechniqueConfig tc;
  tc.technique = Technique::kParallelAdapters;
  tc.pa_reduction = 4;
  Model b(tiny(1, 16, 2, 32, 8), tc, TaskSpec{}, 6);
  EXPECT_THROW(
      load_parameters(b.parameters(), test_path(), LoadMode::kSubset),
      InvalidArgument);
  std::filesystem::remove(test_path());
}

TEST(CheckpointTest, MissingFileAndBadMagic) {
  Model a = make_model(7);
  EXPECT_THROW(load_parameters(a.parameters(), test_path() + ".missing"),
               Error);
  std::ofstream bad(test_path(), std::ios::binary);
  const std::uint32_t junk = 0xdeadbeef;
  bad.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
  bad.close();
  EXPECT_THROW(load_parameters(a.parameters(), test_path()),
               Error);
  std::filesystem::remove(test_path());
}

TEST(CheckpointTest, ResumedTrainingMatchesUninterrupted) {
  // Train 6 steps straight vs 3 steps + checkpoint + restore + 3 steps.
  Rng rng(11);
  Tensor tokens({4, 8});
  for (std::int64_t i = 0; i < tokens.numel(); ++i) {
    tokens.data()[i] = static_cast<float>(rng.integer(0, 31));
  }
  const std::vector<std::int64_t> labels{0, 1, 0, 1};

  auto train_steps = [&](Model& m, nn::Optimizer& opt, int steps) {
    for (int i = 0; i < steps; ++i) {
      m.zero_grad();
      Tensor logits = m.forward(tokens);
      auto r = nn::softmax_cross_entropy(logits, labels);
      m.backward(r.dlogits);
      opt.step(m.trainable_parameters());
    }
  };

  Model straight = make_model(13);
  nn::Sgd opt1(0.05F);  // stateless: resume needs no optimizer state
  train_steps(straight, opt1, 6);

  Model first = make_model(13);
  nn::Sgd opt2(0.05F);
  train_steps(first, opt2, 3);
  save_parameters(first.parameters(), test_path());
  Model resumed = make_model(99);  // totally different init
  load_parameters(resumed.parameters(), test_path());
  nn::Sgd opt3(0.05F);
  train_steps(resumed, opt3, 3);

  auto ps = straight.trainable_parameters();
  auto pr = resumed.trainable_parameters();
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_LT(ops::max_abs_diff(ps[i]->value(), pr[i]->value()), 1e-6F)
        << ps[i]->name();
  }
  std::filesystem::remove(test_path());
}

TEST(CheckpointTest, AdapterOnlyMidEpochResumeMatchesUninterrupted) {
  // Personal-LLM restart story: a device checkpoints only the adapters
  // mid-epoch (between optimizer steps, not at an epoch boundary) and a
  // fresh process rebuilds the frozen backbone from config + seed, loads
  // the adapter subset, and must continue on the exact trajectory.
  Rng rng(21);
  Tensor tokens({4, 8});
  for (std::int64_t i = 0; i < tokens.numel(); ++i) {
    tokens.data()[i] = static_cast<float>(rng.integer(0, 31));
  }
  const std::vector<std::int64_t> labels{1, 0, 1, 0};

  auto train_steps = [&](Model& m, nn::Optimizer& opt, int steps) {
    double last = 0.0;
    for (int i = 0; i < steps; ++i) {
      m.zero_grad();
      Tensor logits = m.forward(tokens);
      auto r = nn::softmax_cross_entropy(logits, labels);
      m.backward(r.dlogits);
      opt.step(m.trainable_parameters());
      last = r.loss;
    }
    return last;
  };

  Model straight = make_model(17);
  nn::Sgd opt1(0.05F);
  const double straight_loss = train_steps(straight, opt1, 7);

  Model first = make_model(17);
  nn::Sgd opt2(0.05F);
  train_steps(first, opt2, 5);  // dies mid-epoch, 5 of 7 steps done
  save_trainable_parameters(first.parameters(), test_path());

  // Fresh process: same config/seed regenerate the frozen backbone;
  // only the adapter subset comes from the checkpoint.
  Model resumed = make_model(17);
  const std::size_t loaded =
      load_parameters(resumed.parameters(), test_path(), LoadMode::kSubset);
  EXPECT_EQ(loaded, first.trainable_parameters().size());
  nn::Sgd opt3(0.05F);
  const double resumed_loss = train_steps(resumed, opt3, 2);

  EXPECT_NEAR(resumed_loss, straight_loss, 1e-6);
  auto ps = straight.trainable_parameters();
  auto pr = resumed.trainable_parameters();
  ASSERT_EQ(ps.size(), pr.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_LT(ops::max_abs_diff(ps[i]->value(), pr[i]->value()), 1e-6F)
        << ps[i]->name();
  }
  std::filesystem::remove(test_path());
}

}  // namespace
}  // namespace pac::model
