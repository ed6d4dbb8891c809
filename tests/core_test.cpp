#include <gtest/gtest.h>

#include <filesystem>

#include "baselines/baselines.hpp"
#include "core/session.hpp"
#include "tensor/ops.hpp"

namespace pac::core {
namespace {

using model::Technique;

data::SyntheticGlueDataset small_dataset(data::GlueTask task) {
  data::DatasetConfig cfg;
  cfg.task = task;
  cfg.train_samples = 24;
  cfg.eval_samples = 12;
  cfg.seq_len = 8;
  cfg.vocab = 32;
  return data::SyntheticGlueDataset(cfg);
}

SessionConfig small_session_config() {
  SessionConfig cfg;
  cfg.model = model::tiny(4, 16, 2, 32, 8);
  cfg.technique.technique = Technique::kParallelAdapters;
  cfg.technique.pa_reduction = 4;
  cfg.batch_size = 8;
  cfg.num_micro_batches = 4;
  cfg.epochs = 3;
  cfg.lr = 5e-3F;
  return cfg;
}

TEST(SessionTest, FullPacWorkflowRuns) {
  auto ds = small_dataset(data::GlueTask::kSst2);
  dist::EdgeCluster cluster(4, std::numeric_limits<std::uint64_t>::max());
  Session session(cluster, ds, small_session_config());
  SessionReport report = session.run();

  EXPECT_TRUE(report.plan.feasible);
  EXPECT_TRUE(report.cache_used);
  EXPECT_EQ(report.epoch_losses.size(), 3U);   // 1 hybrid + 2 cached
  EXPECT_GT(report.epoch_losses[0], 0.0);
  EXPECT_GT(report.redistribution.items_sent, 0U);
  EXPECT_EQ(report.redistribution.items_sent,
            report.redistribution.items_received);
  EXPECT_GT(report.cache_bytes_total, 0U);
  EXPECT_GE(report.eval_metric, 0.0);
  EXPECT_LE(report.eval_metric, 1.0);
  // The cached epochs must actually train (loss decreases from epoch 1).
  EXPECT_LT(report.epoch_losses.back(), report.epoch_losses.front());
}

TEST(SessionTest, CacheMatchesLiveTrainingExactly) {
  // PAC with cache vs PAC without cache (same seeds, same plan) must
  // produce identical final adapters: the cache is a pure optimization.
  auto ds = small_dataset(data::GlueTask::kSst2);

  SessionConfig with_cache = small_session_config();
  SessionConfig without_cache = small_session_config();
  without_cache.use_activation_cache = false;

  dist::EdgeCluster c1(4, std::numeric_limits<std::uint64_t>::max());
  SessionReport cached = Session(c1, ds, with_cache).run();
  dist::EdgeCluster c2(4, std::numeric_limits<std::uint64_t>::max());
  SessionReport live = Session(c2, ds, without_cache).run();

  EXPECT_TRUE(cached.cache_used);
  EXPECT_FALSE(live.cache_used);
  // Phase-2 shuffles per-device shards rather than the global batch order,
  // so updates differ step-by-step; what must agree is the *result*: both
  // runs converge on the synthetic task to a comparable metric.
  EXPECT_NEAR(cached.eval_metric, live.eval_metric, 0.35);
  ASSERT_EQ(cached.epoch_losses.size(), live.epoch_losses.size());
  EXPECT_NEAR(cached.epoch_losses[0], live.epoch_losses[0], 1e-6);
}

TEST(SessionTest, SingleEpochSkipsCache) {
  auto ds = small_dataset(data::GlueTask::kSst2);
  dist::EdgeCluster cluster(2, std::numeric_limits<std::uint64_t>::max());
  SessionConfig cfg = small_session_config();
  cfg.epochs = 1;
  SessionReport report = Session(cluster, ds, cfg).run();
  EXPECT_FALSE(report.cache_used);
  EXPECT_EQ(report.epoch_losses.size(), 1U);
  EXPECT_EQ(report.cache_bytes_total, 0U);
}

TEST(SessionTest, NonPaTechniqueRunsWithoutCache) {
  auto ds = small_dataset(data::GlueTask::kSst2);
  dist::EdgeCluster cluster(2, std::numeric_limits<std::uint64_t>::max());
  SessionConfig cfg = small_session_config();
  cfg.technique.technique = Technique::kLora;
  cfg.technique.lora = nn::LoraSpec{2, 4.0F};
  cfg.epochs = 2;
  SessionReport report = Session(cluster, ds, cfg).run();
  EXPECT_FALSE(report.cache_used);
  EXPECT_EQ(report.epoch_losses.size(), 2U);
}

TEST(SessionTest, RegressionTaskWorksEndToEnd) {
  auto ds = small_dataset(data::GlueTask::kStsb);
  dist::EdgeCluster cluster(2, std::numeric_limits<std::uint64_t>::max());
  SessionConfig cfg = small_session_config();
  cfg.epochs = 2;
  SessionReport report = Session(cluster, ds, cfg).run();
  EXPECT_TRUE(report.cache_used);
  EXPECT_GE(report.eval_metric, -1.0);
  EXPECT_LE(report.eval_metric, 1.0);
}

TEST(SessionTest, DiskBackedCacheWorks) {
  const std::string dir = "/tmp/pac_session_disk_cache";
  std::filesystem::remove_all(dir);
  auto ds = small_dataset(data::GlueTask::kSst2);
  dist::EdgeCluster cluster(2, std::numeric_limits<std::uint64_t>::max());
  SessionConfig cfg = small_session_config();
  cfg.cache_disk_backed = true;
  cfg.cache_directory = dir;
  cfg.epochs = 2;
  SessionReport report = Session(cluster, ds, cfg).run();
  EXPECT_TRUE(report.cache_used);
  EXPECT_GT(report.epoch_losses.size(), 1U);
  std::filesystem::remove_all(dir);
}

TEST(SessionTest, PlanOnlyEntryPoint) {
  auto ds = small_dataset(data::GlueTask::kSst2);
  dist::EdgeCluster cluster(3, std::numeric_limits<std::uint64_t>::max());
  Session session(cluster, ds, small_session_config());
  planner::PlanEstimate est = session.plan();
  EXPECT_TRUE(est.feasible);
  est.plan.validate(4 + 2, 3);
}

TEST(SessionTest, PlansWithTheInProcessNetwork) {
  // The Session plans for the cluster it executes on, whose links are
  // priced by costmodel::in_process_network().  On this profile the
  // 128 Mbps edge LAN would make the adapter AllReduce dearer than the
  // compute it saves and keep the model on one device.
  std::vector<planner::BlockProfile> profile;
  for (int i = 0; i < 4 + 2; ++i) {
    planner::BlockProfile b;
    b.name = "block" + std::to_string(i);
    b.t_fwd = 1e-4;
    b.t_bwd = 2e-4;
    b.param_bytes = 64 * 1024;
    b.trainable_bytes = 4 * 1024;
    b.activation_bytes = 8 * 1024;
    b.fwd_msg_bytes = 4 * 1024;
    b.bwd_msg_bytes = 512;
    profile.push_back(b);
  }
  auto ds = small_dataset(data::GlueTask::kSst2);
  dist::EdgeCluster cluster(4, std::numeric_limits<std::uint64_t>::max());
  SessionConfig cfg = small_session_config();
  cfg.profile_override = profile;
  const planner::PlanEstimate est = Session(cluster, ds, cfg).plan();

  planner::PlannerInput input;
  input.blocks = profile;
  input.num_devices = 4;
  input.num_micro_batches = cfg.num_micro_batches;
  input.device_scales.assign(4, 1.0);
  input.network = costmodel::in_process_network();
  const planner::PlanEstimate want = planner::plan_hybrid(input);
  ASSERT_TRUE(est.feasible);
  EXPECT_EQ(est.note, want.note);
  EXPECT_EQ(est.minibatch_seconds, want.minibatch_seconds);
  EXPECT_EQ(est.plan.stages.size(), 1U);
  EXPECT_EQ(est.plan.stages[0].devices.size(), 4U);

  input.network = costmodel::edge_lan();
  EXPECT_NE(planner::plan_hybrid(input).note, want.note);
}

TEST(SessionTest, HopelessBudgetThrowsAfterRetries) {
  // Weights alone exceed the budget: no batch size can help, so the
  // session exhausts its retries and rethrows the OOM.
  auto ds = small_dataset(data::GlueTask::kSst2);
  dist::EdgeCluster cluster(2, /*memory_budget_bytes=*/1024);
  Session session(cluster, ds, small_session_config());
  EXPECT_THROW(session.run(), DeviceOomError);
}

TEST(SessionTest, OomRetryShrinksBatchAndSucceeds) {
  // An activation-bound budget: infeasible at batch 64, feasible at 32.
  // The session must re-plan with a halved batch and complete.  (The
  // budget sits below batch 64's best plan, 277792 bytes bottleneck, and
  // above batch 32's 223872.)
  data::DatasetConfig dcfg;
  dcfg.task = data::GlueTask::kSst2;
  dcfg.train_samples = 64;
  dcfg.eval_samples = 8;
  dcfg.seq_len = 16;
  dcfg.vocab = 32;
  data::SyntheticGlueDataset ds(dcfg);
  dist::EdgeCluster cluster(2, /*memory_budget_bytes=*/250000);
  SessionConfig cfg;
  cfg.model = model::tiny(4, 32, 2, 32, 16);
  cfg.technique.technique = Technique::kParallelAdapters;
  cfg.technique.pa_reduction = 4;
  cfg.batch_size = 64;
  cfg.num_micro_batches = 4;
  cfg.epochs = 1;
  cfg.run_eval = false;
  Session session(cluster, ds, cfg);
  SessionReport report = session.run();
  EXPECT_EQ(report.oom_retries, 1);
  EXPECT_EQ(report.effective_batch_size, 32);
  EXPECT_EQ(report.epoch_losses.size(), 1U);

  // With retries disabled the same configuration must fail.
  dist::EdgeCluster cluster2(2, /*memory_budget_bytes=*/250000);
  cfg.max_oom_retries = 0;
  Session strict(cluster2, ds, cfg);
  EXPECT_THROW(strict.run(), DeviceOomError);
}

TEST(SessionTest, VocabMismatchRejected) {
  auto ds = small_dataset(data::GlueTask::kSst2);
  dist::EdgeCluster cluster(2, std::numeric_limits<std::uint64_t>::max());
  SessionConfig cfg = small_session_config();
  cfg.model = model::tiny(2, 16, 2, /*vocab=*/64, 8);
  EXPECT_THROW(Session(cluster, ds, cfg), InvalidArgument);
}

TEST(BaselineTest, AllBaselinesTrainAllTechniques) {
  auto ds = small_dataset(data::GlueTask::kSst2);
  for (auto system : {baselines::System::kStandalone,
                      baselines::System::kEddl, baselines::System::kEcoFl}) {
    for (auto technique : {Technique::kFull, Technique::kAdapters,
                           Technique::kLora,
                           Technique::kParallelAdapters}) {
      dist::EdgeCluster cluster(
          2, std::numeric_limits<std::uint64_t>::max());
      baselines::BaselineConfig cfg;
      cfg.system = system;
      cfg.technique = technique;
      cfg.epochs = 1;
      cfg.batch_size = 8;
      cfg.num_micro_batches = 2;
      auto factory = [technique] {
        model::TechniqueConfig tc;
        tc.technique = technique;
        tc.adapter_reduction = 4;
        tc.pa_reduction = 4;
        tc.lora = nn::LoraSpec{2, 4.0F};
        return std::make_unique<model::Model>(model::tiny(2, 16, 2, 32, 8),
                                              tc, model::TaskSpec{}, 11);
      };
      auto result = run_baseline(cluster, ds, factory, cfg);
      EXPECT_EQ(result.epoch_losses.size(), 1U)
          << baselines::system_name(system) << "/"
          << model::technique_name(technique);
      EXPECT_GT(result.epoch_losses[0], 0.0);
    }
  }
}

TEST(BaselineTest, PlanShapes) {
  auto dp = baselines::baseline_plan(baselines::System::kEddl, 6, 3, 3);
  EXPECT_EQ(dp.num_stages(), 1);
  auto pp = baselines::baseline_plan(baselines::System::kEcoFl, 6, 3, 3);
  EXPECT_EQ(pp.num_stages(), 3);
  auto sa = baselines::baseline_plan(baselines::System::kStandalone, 6, 3,
                                     3);
  EXPECT_EQ(sa.participating_ranks().size(), 1U);
}

}  // namespace
}  // namespace pac::core
