#include <gtest/gtest.h>

#include "planner/planner.hpp"
#include "sim/event_sim.hpp"
#include "sim/scenarios.hpp"

namespace pac::sim {
namespace {

using model::Technique;

planner::PlannerInput uniform_input(std::int64_t n, int devices,
                                    double t_fwd, double t_bwd,
                                    std::int64_t micros) {
  planner::PlannerInput input;
  input.num_devices = devices;
  input.num_micro_batches = micros;
  input.network.latency_s = 0.0;       // exact-arithmetic tests
  input.network.bandwidth_bps = 1e18;  // effectively free links
  for (std::int64_t i = 0; i < n; ++i) {
    planner::BlockProfile p;
    p.name = "b" + std::to_string(i);
    p.t_fwd = t_fwd;
    p.t_bwd = t_bwd;
    input.blocks.push_back(std::move(p));
  }
  return input;
}

TEST(EventSimTest, SingleDeviceIsSequential) {
  SimConfig cfg;
  cfg.input = uniform_input(4, 1, 0.01, 0.02, 4);
  cfg.plan = pipeline::ParallelPlan::standalone(4, 4);
  SimResult r = simulate_minibatch(cfg);
  EXPECT_FALSE(r.oom);
  EXPECT_NEAR(r.minibatch_seconds, 4 * 4 * 0.03, 1e-9);
  EXPECT_NEAR(r.bubble_fraction, 0.0, 1e-9);
  EXPECT_EQ(r.comm_bytes, 0U);
}

TEST(EventSimTest, TwoStagePipelineMatchesHandComputation) {
  // 2 stages x 1 block each, t_f = 1, t_b = 1, 2 micros, free links.
  // 1F1B timeline:
  //   d0: F1[0-1] F2[1-2] B1[3-4] B2[5-6]
  //   d1:          F1[2-3] B1[3-4] F2[4-5] B2[5-6]  -> makespan 6? Let's
  // trust invariant checks instead of the exact trace:
  SimConfig cfg;
  cfg.input = uniform_input(2, 2, 1.0, 1.0, 2);
  cfg.plan = pipeline::ParallelPlan::pure_pipeline(2, 2, 2);
  SimResult r = simulate_minibatch(cfg);
  // Lower bound: critical path = fill (1) + 2 micros x 2 ops on the
  // bottleneck (4) + drain (1) = 6.  Upper bound: fully serial = 8.
  EXPECT_GE(r.minibatch_seconds, 6.0 - 1e-9);
  EXPECT_LE(r.minibatch_seconds, 8.0 + 1e-9);
  EXPECT_GT(r.bubble_fraction, 0.0);
  EXPECT_LT(r.bubble_fraction, 0.5);
}

TEST(EventSimTest, MoreMicroBatchesShrinkBubble) {
  double bubble_few = 0.0;
  double bubble_many = 0.0;
  for (std::int64_t micros : {2, 16}) {
    SimConfig cfg;
    cfg.input = uniform_input(4, 4, 0.5, 1.0, micros);
    cfg.plan = pipeline::ParallelPlan::pure_pipeline(4, 4, micros);
    SimResult r = simulate_minibatch(cfg);
    (micros == 2 ? bubble_few : bubble_many) = r.bubble_fraction;
  }
  EXPECT_LT(bubble_many, bubble_few);
}

TEST(EventSimTest, OneFOneBNeverSlowerThanGPipe) {
  for (std::int64_t micros : {4, 8}) {
    SimConfig cfg;
    cfg.input = uniform_input(6, 3, 0.3, 0.6, micros);
    cfg.plan = pipeline::ParallelPlan::pure_pipeline(6, 3, micros);
    cfg.input.schedule = pipeline::ScheduleKind::k1F1B;
    const double t_1f1b = simulate_minibatch(cfg).minibatch_seconds;
    cfg.input.schedule = pipeline::ScheduleKind::kGPipe;
    const double t_gpipe = simulate_minibatch(cfg).minibatch_seconds;
    EXPECT_LE(t_1f1b, t_gpipe + 1e-9);
  }
}

TEST(EventSimTest, DataParallelSplitsWork) {
  // 4 micros over 1 vs 4 devices: 4x speedup with free links.
  SimConfig cfg;
  cfg.input = uniform_input(4, 4, 0.25, 0.5, 4);
  cfg.plan = pipeline::ParallelPlan::pure_data_parallel(4, 4, 4);
  cfg.include_allreduce = false;
  const double t4 = simulate_minibatch(cfg).minibatch_seconds;
  cfg.input = uniform_input(4, 1, 0.25, 0.5, 4);
  cfg.plan = pipeline::ParallelPlan::standalone(4, 4);
  const double t1 = simulate_minibatch(cfg).minibatch_seconds;
  EXPECT_NEAR(t4, t1 / 4.0, 1e-9);
}

TEST(EventSimTest, SlowLinksSerializeTransfers) {
  SimConfig cfg;
  cfg.input = uniform_input(2, 2, 0.1, 0.1, 4);
  cfg.input.network.bandwidth_bps = 8e6;  // 1 MB/s
  cfg.input.network.latency_s = 0.0;
  for (auto& blk : cfg.input.blocks) {
    blk.fwd_msg_bytes = 1 << 20;  // 1 MiB -> 1 s per forward hop
    blk.bwd_msg_bytes = 0;
  }
  cfg.plan = pipeline::ParallelPlan::pure_pipeline(2, 2, 4);
  SimResult r = simulate_minibatch(cfg);
  // 4 forward transfers of 1 s each dominate the 0.1 s compute ops.
  EXPECT_GE(r.minibatch_seconds, 4.0);
  EXPECT_EQ(r.comm_bytes, 4U << 20);
}

TEST(EventSimTest, BackwardMessagesCarryTheUpstreamBoundaryGradient) {
  // T5-Base Full as two 13-block stages: per micro, the activation of
  // block 12 (stage 0's last) crosses forward and its gradient comes back.
  // The head, stage 1's last block, sends nothing backward.
  SimConfig cfg;
  model::TechniqueConfig full;
  full.technique = Technique::kFull;
  costmodel::SeqShape micro;
  micro.batch = 1;
  cfg.input = planner::analytic_planner_input(
      model::t5_base(), full, micro, costmodel::jetson_nano(),
      costmodel::edge_lan(), /*num_devices=*/2, /*num_micro_batches=*/4);
  ASSERT_EQ(cfg.input.num_blocks(), 26);
  cfg.plan = pipeline::ParallelPlan::pure_pipeline(26, 2, 4);
  ASSERT_EQ(cfg.plan.stages[0].block_end, 13);
  const planner::BlockProfile& boundary = cfg.input.blocks[12];
  ASSERT_EQ(boundary.fwd_msg_bytes, 393216U);
  ASSERT_EQ(boundary.bwd_msg_bytes, 393216U);
  EXPECT_EQ(simulate_minibatch(cfg).comm_bytes, 4U * 393216U + 4U * 393216U);
}

TEST(EventSimTest, AllReduceBytesFollowThePricedSchedule) {
  // 4-way DP on a 128 Mbps / 1 ms link with fp16 gradients on the wire:
  // g = 4 goes direct up to about 53 KB of wire bytes.  Direct sends each
  // member's payload N to its 3 peers, 4 * 3 * N; the ring moves 2 * 3
  // chunks of N/4 per member, 2 * 3 * N.
  for (const std::uint64_t block_grads : {1600ULL, 65536ULL}) {
    SimConfig cfg;
    cfg.input = uniform_input(4, 4, 0.1, 0.2, 4);
    cfg.input.network = costmodel::NetworkModel{};
    cfg.input.network.latency_s = 1e-3;
    for (auto& blk : cfg.input.blocks) blk.trainable_bytes = block_grads;
    cfg.plan = pipeline::ParallelPlan::pure_data_parallel(4, 4, 4);
    const double wire = 0.5 * static_cast<double>(4 * block_grads);
    const bool direct =
        costmodel::direct_allreduce_is_cheaper(wire, 4, 1e-3, 128e6);
    EXPECT_EQ(direct, block_grads == 1600ULL);
    const auto expect_bytes =
        static_cast<std::uint64_t>((direct ? 4 * 3 : 2 * 3) * wire);
    const SimResult r = simulate_minibatch(cfg);
    EXPECT_EQ(r.comm_bytes, expect_bytes) << block_grads;
    // The time charged is the same schedule's price.
    cfg.include_allreduce = false;
    const double compute_only = simulate_minibatch(cfg).minibatch_seconds;
    const double price =
        direct ? costmodel::direct_allreduce_seconds(wire, 4, 1e-3, 128e6)
               : costmodel::ring_allreduce_seconds(wire, 4, 1e-3, 128e6);
    EXPECT_NEAR(r.minibatch_seconds - compute_only, price, 1e-12)
        << block_grads;
  }
}

TEST(EventSimTest, OomReportedPerStage) {
  SimConfig cfg;
  cfg.input = uniform_input(4, 2, 0.1, 0.1, 2);
  for (auto& blk : cfg.input.blocks) blk.param_bytes = 1 << 20;
  cfg.input.device_budget_bytes = 3 << 20;
  cfg.plan = pipeline::ParallelPlan::pure_data_parallel(4, 2, 2);
  SimResult r = simulate_minibatch(cfg);
  EXPECT_TRUE(r.oom);
  EXPECT_GE(r.oom_device, 0);
  EXPECT_FALSE(r.oom_reason.empty());
}

TEST(EventSimTest, WeightedPlanPeakMatchesPlannerPerDevice) {
  // Stage 0 = blocks [0, 3) on devices {0, 1} weighted 3:1: device 0 owns
  // 6 of the 8 micros and holds 3 in flight under the weighted warmup.
  SimConfig cfg;
  cfg.input = uniform_input(6, 4, 0.1, 0.1, 8);
  for (auto& blk : cfg.input.blocks) blk.activation_bytes = 1000;
  cfg.plan.stages = {pipeline::StageAssignment{0, 3, {0, 1}, {3.0, 1.0}},
                     pipeline::StageAssignment{3, 6, {2, 3}, {}}};
  cfg.plan.num_micro_batches = 8;
  const SimResult r = simulate_minibatch(cfg);
  ASSERT_FALSE(r.oom);
  const std::vector<std::uint64_t> want{9000, 6000, 3000, 3000};
  EXPECT_EQ(r.peak_memory_per_device, want);
  EXPECT_EQ(r.peak_memory_per_device,
            planner::evaluate_plan(cfg.input, cfg.plan).device_memory_bytes);
  // The fast device alone overflows a budget between the two needs.
  cfg.input.device_budget_bytes = 8000;
  const SimResult oom = simulate_minibatch(cfg);
  EXPECT_TRUE(oom.oom);
  EXPECT_EQ(oom.oom_device, 0);
}

// ---------------------------------------------------------------------------
// Paper-scale scenarios
// ---------------------------------------------------------------------------

ScenarioConfig mrpc_config(const model::ModelConfig& m, Technique t) {
  ScenarioConfig cfg;
  cfg.model = m;
  cfg.technique = t;
  cfg.task = data::GlueTask::kMrpc;
  cfg.num_devices = 8;
  return cfg;
}

TEST(ScenarioTest, Table2OomPattern) {
  // Standalone: Full OOMs everywhere; Adapters fits T5-Base only.
  EXPECT_TRUE(simulate_system(SystemKind::kStandalone,
                              mrpc_config(model::t5_base(),
                                          Technique::kFull))
                  .oom);
  EXPECT_FALSE(simulate_system(SystemKind::kStandalone,
                               mrpc_config(model::t5_base(),
                                           Technique::kAdapters))
                   .oom);
  EXPECT_TRUE(simulate_system(SystemKind::kStandalone,
                              mrpc_config(model::bart_large(),
                                          Technique::kAdapters))
                  .oom);
  // EDDL: full model per device -> OOM for every Full row and for
  // BART-Large / T5-Large even with Adapters.
  EXPECT_TRUE(simulate_system(SystemKind::kEddl,
                              mrpc_config(model::t5_base(),
                                          Technique::kFull))
                  .oom);
  EXPECT_FALSE(simulate_system(SystemKind::kEddl,
                               mrpc_config(model::t5_base(),
                                           Technique::kAdapters))
                   .oom);
  EXPECT_TRUE(simulate_system(SystemKind::kEddl,
                              mrpc_config(model::bart_large(),
                                          Technique::kAdapters))
                  .oom);
  // Eco-FL splits the model: T5-Base Full becomes feasible.
  EXPECT_FALSE(simulate_system(SystemKind::kEcoFl,
                               mrpc_config(model::t5_base(),
                                           Technique::kFull))
                   .oom);
  // PAC runs every model with Parallel Adapters.
  for (const auto& m :
       {model::t5_base(), model::bart_large(), model::t5_large()}) {
    EXPECT_FALSE(simulate_system(SystemKind::kPac,
                                 mrpc_config(m,
                                             Technique::kParallelAdapters))
                     .oom)
        << m.name;
  }
}

TEST(ScenarioTest, PacBeatsBaselinesOnCachedWorkload) {
  // MRPC (3 epochs, 2 cached): PAC must decisively beat Eco-FL with
  // Adapters/LoRA — the paper reports up to 8.64x overall.
  auto pac = simulate_system(
      SystemKind::kPac,
      mrpc_config(model::t5_base(), Technique::kParallelAdapters));
  auto ecofl_adapters = simulate_system(
      SystemKind::kEcoFl, mrpc_config(model::t5_base(),
                                      Technique::kAdapters));
  ASSERT_FALSE(pac.oom);
  ASSERT_FALSE(ecofl_adapters.oom);
  EXPECT_LT(pac.total_hours, ecofl_adapters.total_hours / 2.0);
  // Cached epochs are much cheaper than the first epoch.
  EXPECT_LT(pac.later_epoch_seconds, 0.5 * pac.first_epoch_seconds);
}

TEST(ScenarioTest, CacheDisabledRemovesAdvantage) {
  auto with_cache = simulate_system(
      SystemKind::kPac,
      mrpc_config(model::t5_base(), Technique::kParallelAdapters));
  auto cfg = mrpc_config(model::t5_base(), Technique::kParallelAdapters);
  cfg.pac_use_cache = false;
  auto without = simulate_system(SystemKind::kPac, cfg);
  EXPECT_LT(with_cache.total_hours, without.total_hours);
  EXPECT_NEAR(without.later_epoch_seconds, without.first_epoch_seconds,
              1e-9);
}

TEST(ScenarioTest, Fig9ThroughputScalesAndPacWins) {
  // Fig. 9a setup: batch = #devices, Parallel Adapters, no cache.
  double last_pac = 0.0;
  for (int devices : {2, 4, 8}) {
    ScenarioConfig cfg =
        mrpc_config(model::t5_base(), Technique::kParallelAdapters);
    cfg.num_devices = devices;
    cfg.global_batch = devices;
    cfg.pac_use_cache = false;
    auto pac = simulate_system(SystemKind::kPac, cfg);
    auto ecofl = simulate_system(SystemKind::kEcoFl, cfg);
    ASSERT_FALSE(pac.oom);
    ASSERT_FALSE(ecofl.oom);
    // PAC's plan search includes Eco-FL's plan, so throughput dominates.
    EXPECT_GE(pac.throughput_samples_per_s,
              ecofl.throughput_samples_per_s * 0.999)
        << devices << " devices";
    // Monotone scaling with the cluster.
    EXPECT_GT(pac.throughput_samples_per_s, last_pac);
    last_pac = pac.throughput_samples_per_s;
  }
}

TEST(ScenarioTest, Fig9WeightMemoryShrinksWithPipeline) {
  ScenarioConfig cfg =
      mrpc_config(model::bart_large(), Technique::kParallelAdapters);
  cfg.global_batch = cfg.num_devices;
  cfg.pac_use_cache = false;
  auto ecofl = simulate_system(SystemKind::kEcoFl, cfg);
  ASSERT_FALSE(ecofl.oom);
  std::uint64_t max_w = 0;
  for (std::uint64_t w : ecofl.weight_memory_per_device) {
    max_w = std::max(max_w, w);
  }
  // 8 pipeline stages -> each device holds roughly 1/8 of 1.6 GiB.
  EXPECT_LT(max_w, 500ULL << 20);
  // EDDL would hold the whole model per device.
  auto eddl = simulate_system(SystemKind::kEddl, cfg);
  if (!eddl.oom) {
    EXPECT_GT(eddl.weight_memory_per_device[0], max_w);
  }
}

TEST(ScenarioTest, RedistributionIsSmallFraction) {
  // §5.2: cache/parameter redistribution ≈ 8 % of the 3-epoch BART-Large
  // MRPC run.
  auto pac = simulate_system(
      SystemKind::kPac,
      mrpc_config(model::bart_large(), Technique::kParallelAdapters));
  ASSERT_FALSE(pac.oom);
  const double fraction =
      pac.redistribution_seconds / (pac.total_hours * 3600.0);
  EXPECT_GT(fraction, 0.01);
  EXPECT_LT(fraction, 0.25);
}

TEST(ScenarioTest, DeviceDeathAddsRecoveryCostAndShrinksGroup) {
  auto cfg = mrpc_config(model::t5_base(), Technique::kParallelAdapters);
  const auto clean = simulate_system(SystemKind::kPac, cfg);
  ASSERT_FALSE(clean.oom);
  EXPECT_EQ(clean.surviving_devices, cfg.num_devices);
  EXPECT_EQ(clean.recovery_seconds, 0.0);

  cfg.fail_device = 3;
  cfg.fail_at_epoch_fraction = 0.5;
  const auto faulted = simulate_system(SystemKind::kPac, cfg);
  ASSERT_FALSE(faulted.oom);
  EXPECT_EQ(faulted.surviving_devices, cfg.num_devices - 1);
  // Recovery = wasted half of the full-strength first epoch.
  EXPECT_NEAR(faulted.recovery_seconds, 0.5 * clean.first_epoch_seconds,
              1e-9);
  // The faulted run matches a clean 7-device run plus the wasted work.
  ScenarioConfig survivors = cfg;
  survivors.fail_device = -1;
  survivors.num_devices = cfg.num_devices - 1;
  const auto ref = simulate_system(SystemKind::kPac, survivors);
  ASSERT_FALSE(ref.oom);
  EXPECT_NEAR(faulted.total_hours,
              ref.total_hours + faulted.recovery_seconds / 3600.0, 1e-12);
  EXPECT_GT(faulted.total_hours, clean.total_hours);

  // Dying later wastes more work.
  cfg.fail_at_epoch_fraction = 1.0;
  const auto late = simulate_system(SystemKind::kPac, cfg);
  EXPECT_GT(late.recovery_seconds, faulted.recovery_seconds);

  // Baselines have no recovery path: the knob is ignored.
  auto eddl_cfg = mrpc_config(model::t5_base(), Technique::kAdapters);
  eddl_cfg.fail_device = 3;
  const auto eddl = simulate_system(SystemKind::kEddl, eddl_cfg);
  EXPECT_EQ(eddl.recovery_seconds, 0.0);
  EXPECT_EQ(eddl.surviving_devices, eddl_cfg.num_devices);
}

TEST(TimelineTest, TraceCoversEveryOp) {
  SimConfig cfg;
  cfg.input = uniform_input(4, 2, 0.5, 1.0, 4);
  cfg.plan = pipeline::ParallelPlan::pure_pipeline(4, 2, 4);
  cfg.record_trace = true;
  SimResult r = simulate_minibatch(cfg);
  // 2 stages x 4 micros x (fwd + bwd) = 16 compute ops.
  ASSERT_EQ(r.trace.size(), 16U);
  for (const auto& op : r.trace) {
    EXPECT_GE(op.start, 0.0);
    EXPECT_GT(op.end, op.start);
    EXPECT_LE(op.end, r.minibatch_seconds + 1e-9);
  }
  // Stage 1's forward of micro m starts at/after stage 0's finishes.
  for (const auto& a : r.trace) {
    if (a.stage != 0 || a.backward) continue;
    for (const auto& b : r.trace) {
      if (b.stage == 1 && !b.backward && b.micro == a.micro) {
        EXPECT_GE(b.start + 1e-9, a.end);
      }
    }
  }
}

TEST(TimelineTest, RenderShowsEveryDeviceRow) {
  SimConfig cfg;
  cfg.input = uniform_input(6, 3, 0.5, 1.0, 6);
  cfg.plan = pipeline::ParallelPlan::pure_pipeline(6, 3, 6);
  const std::string chart = render_timeline(cfg, 64);
  EXPECT_NE(chart.find("dev0"), std::string::npos);
  EXPECT_NE(chart.find("dev1"), std::string::npos);
  EXPECT_NE(chart.find("dev2"), std::string::npos);
  EXPECT_NE(chart.find("bubble"), std::string::npos);
  EXPECT_NE(chart.find('0'), std::string::npos);   // fwd micro 0 label
  EXPECT_NE(chart.find('b'), std::string::npos);   // backward marker
  EXPECT_THROW(render_timeline(cfg, 4), InvalidArgument);
}

TEST(TimelineTest, OomRenderedAsMessage) {
  SimConfig cfg;
  cfg.input = uniform_input(4, 2, 0.1, 0.1, 2);
  for (auto& blk : cfg.input.blocks) blk.param_bytes = 1 << 20;
  cfg.input.device_budget_bytes = 1 << 10;
  cfg.plan = pipeline::ParallelPlan::pure_pipeline(4, 2, 2);
  const std::string chart = render_timeline(cfg);
  EXPECT_NE(chart.find("OOM"), std::string::npos);
}

TEST(ScenarioTest, SystemNames) {
  EXPECT_STREQ(system_name(SystemKind::kPac), "PAC");
  EXPECT_STREQ(system_name(SystemKind::kEcoFl), "Eco-FL");
}

}  // namespace
}  // namespace pac::sim
