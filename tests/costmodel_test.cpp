#include <gtest/gtest.h>

#include "costmodel/block_cost.hpp"
#include "costmodel/device_spec.hpp"
#include "costmodel/flops.hpp"
#include "costmodel/memory_model.hpp"

namespace pac::costmodel {
namespace {

using model::Technique;

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

SeqShape paper_shape() { return SeqShape{16, 128}; }

TEST(FlopsTest, FullFineTuneBackwardIsTwiceForward) {
  auto cfg = model::t5_large();
  auto tc = model::paper_technique_config(Technique::kFull);
  Flops f = encoder_layer_flops(cfg, tc, paper_shape());
  EXPECT_NEAR(f.backward / f.forward, 2.0, 0.05);
}

TEST(FlopsTest, FrozenBackboneForwardShareNearHalf) {
  // Paper Fig. 3: forward is ~54 % of total FLOPs under Adapters/LoRA
  // (~1/3 under full fine-tuning).
  auto cfg = model::t5_large();
  for (Technique t : {Technique::kAdapters, Technique::kLora}) {
    auto tc = model::paper_technique_config(t);
    Flops f = model_flops(cfg, tc, paper_shape(), /*include_decoder=*/true);
    const double share = f.forward / f.total();
    EXPECT_GT(share, 0.45) << model::technique_name(t);
    EXPECT_LT(share, 0.60) << model::technique_name(t);
  }
  auto full = model::paper_technique_config(Technique::kFull);
  Flops f = model_flops(cfg, full, paper_shape(), true);
  EXPECT_NEAR(f.forward / f.total(), 1.0 / 3.0, 0.03);
}

TEST(FlopsTest, ParallelAdaptersBackwardIsTiny) {
  auto cfg = model::t5_large();
  auto tc = model::paper_technique_config(Technique::kParallelAdapters);
  Flops f = model_flops(cfg, tc, paper_shape(), true);
  // Backward touches only the side network: a small fraction of forward.
  EXPECT_LT(f.backward, 0.15 * f.forward);
}

TEST(FlopsTest, CachedEpochDropsBackboneForward) {
  auto cfg = model::t5_large();
  auto tc = model::paper_technique_config(Technique::kParallelAdapters);
  Flops live = model_flops(cfg, tc, paper_shape(), true, false);
  Flops cached = model_flops(cfg, tc, paper_shape(), true, true);
  // Paper Fig. 8a: with the activation cache, per-sample training compute
  // drops by ~96 %.
  EXPECT_LT(cached.total(), 0.08 * live.total());
  EXPECT_THROW(model_flops(cfg, model::paper_technique_config(
                                    Technique::kFull),
                           paper_shape(), true, true),
               InvalidArgument);
}

TEST(MemoryModelTest, Table1WeightsMatchParamCounts) {
  // Table 1: T5-Large weights 2.75 GB fp32.
  auto cfg = model::t5_large();
  auto tc = model::paper_technique_config(Technique::kInference);
  MemoryBreakdown mem =
      standalone_memory(cfg, tc, paper_shape(), /*include_decoder=*/true);
  EXPECT_NEAR(static_cast<double>(mem.weights) / kGiB, 2.75, 0.3);
  EXPECT_EQ(mem.gradients, 0U);
  EXPECT_EQ(mem.activations, 0U);
}

TEST(MemoryModelTest, Table1TrainableCountsMatchPaper) {
  // Table 1: Adapters 12 M (1.70 %), LoRA 9 M (1.26 %) on T5-Large.
  auto cfg = model::t5_large();
  const double total = static_cast<double>(cfg.full_param_count());
  const double adapters =
      static_cast<double>(trainable_param_bytes(
          cfg, model::paper_technique_config(Technique::kAdapters), true)) /
      4.0;
  const double lora =
      static_cast<double>(trainable_param_bytes(
          cfg, model::paper_technique_config(Technique::kLora), true)) /
      4.0;
  EXPECT_NEAR(adapters / 1e6, 12.0, 2.0);
  EXPECT_NEAR(lora / 1e6, 9.0, 1.5);
  EXPECT_LT(adapters / total, 0.02);
  EXPECT_LT(lora / total, 0.015);
}

TEST(MemoryModelTest, Table1ActivationMagnitudes) {
  // Table 1 activations (T5-Large, bs 16, seq 128): Full 5.33 GB,
  // Adapters 4.04 GB, LoRA 4.31 GB.  Our analytic retention lands in the
  // same band; ordering must match exactly.
  auto cfg = model::t5_large();
  const auto full = standalone_memory(
      cfg, model::paper_technique_config(Technique::kFull), paper_shape(),
      true);
  const auto adapters = standalone_memory(
      cfg, model::paper_technique_config(Technique::kAdapters),
      paper_shape(), true);
  const auto lora = standalone_memory(
      cfg, model::paper_technique_config(Technique::kLora), paper_shape(),
      true);
  EXPECT_GT(static_cast<double>(full.activations) / kGiB, 3.8);
  EXPECT_LT(static_cast<double>(full.activations) / kGiB, 6.5);
  EXPECT_GT(static_cast<double>(adapters.activations) / kGiB, 2.2);
  EXPECT_LT(static_cast<double>(adapters.activations) / kGiB, 5.0);
  EXPECT_LT(adapters.activations, full.activations);
  // Full fine-tuning totals dominate the PEFT techniques.
  EXPECT_GT(full.total(), adapters.total());
  EXPECT_GT(full.total(), lora.total());
}

TEST(MemoryModelTest, ParallelAdaptersCachedPhaseReleasesBackbone) {
  auto cfg = model::t5_large();
  auto tc = model::paper_technique_config(Technique::kParallelAdapters);
  const auto live = standalone_memory(cfg, tc, paper_shape(), true, false);
  const auto cached = standalone_memory(cfg, tc, paper_shape(), true, true);
  // Live phase holds the frozen backbone; cached phase releases it.
  EXPECT_GT(live.weights, 10 * cached.weights);
  // Paper Fig. 8b: up to 74.6 % peak-memory reduction vs baselines; vs the
  // Adapters baseline our cached phase must shrink at least 3x.
  const auto adapters_mem = standalone_memory(
      cfg, model::paper_technique_config(Technique::kAdapters),
      paper_shape(), true);
  EXPECT_LT(cached.total() * 3, adapters_mem.total());
}

TEST(MemoryModelTest, CacheBytesPerSampleFormula) {
  auto cfg = model::t5_base();
  // (L+1) x T x H x 4 bytes with L = 24 (en-de).
  const std::uint64_t expect = 4ULL * 25 * 128 * 768;
  EXPECT_EQ(cache_bytes_per_sample(cfg, 128, true), expect);
  EXPECT_EQ(cache_bytes_per_sample(cfg, 128, false), 4ULL * 13 * 128 * 768);
}

TEST(DeviceSpecTest, JetsonAndLanDefaults) {
  DeviceModel dev = jetson_nano();
  EXPECT_GT(dev.usable_bytes(), 2ULL << 30);
  EXPECT_LT(dev.usable_bytes(), dev.dram_bytes);
  NetworkModel net = edge_lan();
  // 16 MB at 128 Mbps = 1 s + per-message overhead.
  EXPECT_NEAR(net.transfer_seconds(16'000'000), 1.0 + net.latency_s, 0.01);
  // AllReduce degenerates to zero for one device.
  EXPECT_EQ(net.allreduce_seconds(1000, 1), 0.0);
  EXPECT_GT(net.allreduce_seconds(1 << 20, 4), 0.0);
}

TEST(BlockCostTest, BlockListCoversFullModel) {
  auto cfg = model::t5_base();
  auto tc = model::paper_technique_config(Technique::kFull);
  auto blocks = analytic_blocks(cfg, tc, SeqShape{2, 128}, true);
  EXPECT_EQ(blocks.size(),
            static_cast<std::size_t>(cfg.encoder_layers +
                                     cfg.decoder_layers + 2));
  // Parameter bytes across blocks ~= full model bytes.
  std::uint64_t params = 0;
  for (const auto& blk : blocks) params += blk.param_bytes;
  EXPECT_NEAR(static_cast<double>(params),
              4.0 * static_cast<double>(cfg.full_param_count()),
              0.02 * 4.0 * static_cast<double>(cfg.full_param_count()));
}

TEST(BlockCostTest, GradientHighwayShrinksBackwardMessages) {
  auto cfg = model::t5_base();
  const SeqShape shape{2, 128};
  auto pa_blocks = analytic_blocks(
      cfg, model::paper_technique_config(Technique::kParallelAdapters),
      shape, true);
  auto full_blocks = analytic_blocks(
      cfg, model::paper_technique_config(Technique::kFull), shape, true);
  // Backward message shrinks by the reduction factor k = 8.
  const auto& pa_layer = pa_blocks[1];
  const auto& full_layer = full_blocks[1];
  EXPECT_EQ(full_layer.bwd_msg_bytes, 4ULL * 2 * 128 * 768);
  EXPECT_EQ(pa_layer.bwd_msg_bytes, full_layer.bwd_msg_bytes / 8);
  // Forward carries hidden plus the side state under PA.
  EXPECT_GT(pa_layer.fwd_msg_bytes, full_layer.fwd_msg_bytes);
}

TEST(BlockCostTest, ParallelAdapterBlocksRetainOnlySideActivations) {
  auto cfg = model::t5_base();
  const SeqShape shape{2, 128};
  auto pa_blocks = analytic_blocks(
      cfg, model::paper_technique_config(Technique::kParallelAdapters),
      shape, true);
  auto full_blocks = analytic_blocks(
      cfg, model::paper_technique_config(Technique::kFull), shape, true);
  EXPECT_LT(pa_blocks[1].activation_bytes,
            full_blocks[1].activation_bytes / 10);
}

TEST(BlockCostTest, OomPatternMatchesTable2) {
  // The planner's OOM logic must reproduce Table 2's standalone column:
  // Full OOMs on every model; Adapters/LoRA fit on T5-Base only.
  DeviceModel dev = jetson_nano();
  const SeqShape bs16{16, 128};
  struct Case {
    model::ModelConfig cfg;
    Technique technique;
    bool fits;
  };
  const std::vector<Case> cases{
      {model::t5_base(), Technique::kFull, false},
      {model::t5_base(), Technique::kAdapters, true},
      {model::t5_base(), Technique::kLora, true},
      {model::bart_large(), Technique::kAdapters, false},
      {model::t5_large(), Technique::kAdapters, false},
      {model::t5_large(), Technique::kFull, false},
  };
  for (const auto& c : cases) {
    const auto mem = standalone_memory(
        c.cfg, model::paper_technique_config(c.technique), bs16, true);
    EXPECT_EQ(mem.total() <= dev.usable_bytes(), c.fits)
        << c.cfg.name << " / " << model::technique_name(c.technique)
        << ": " << static_cast<double>(mem.total()) / kGiB << " GiB vs "
        << static_cast<double>(dev.usable_bytes()) / kGiB;
  }
}

}  // namespace
}  // namespace pac::costmodel
