// Smart-home intelligent-agent scenario (paper §1, Fig. 1).
//
// A personal agent accumulates private interaction data over the day and
// periodically personalizes its LLM on the household's idle devices.  This
// example compares what the home can actually run:
//   - a memory-tight hub device alone (Standalone) — OOMs on full FT;
//   - all devices with EDDL-style data parallelism — OOMs on the bigger
//     model;
//   - PAC — fits, trains fastest, and improves the agent across rounds.
//
//   ./examples/smart_home_agent
#include <cstdio>

#include "baselines/baselines.hpp"
#include "core/session.hpp"

namespace {

using namespace pac;

std::unique_ptr<model::Model> make_agent_model(
    model::Technique technique, const model::ModelParts& parts) {
  model::TechniqueConfig tc;
  tc.technique = technique;
  tc.pa_reduction = 8;
  tc.adapter_reduction = 8;
  tc.lora = nn::LoraSpec{4, 8.0F};
  return std::make_unique<model::Model>(
      model::tiny(/*layers=*/6, /*hidden=*/48, /*heads=*/2, /*vocab=*/64,
                  /*max_seq=*/16),
      tc, model::TaskSpec{model::TaskKind::kClassification, 2}, 2024, parts);
}

}  // namespace

int main() {
  // The household: one hub + three helpers.  Budgets sized so the full
  // model + full-FT activations do NOT fit on one device (the paper's
  // resource-wall motivation at miniature scale).
  const std::uint64_t budget = (5ULL << 20) / 2;  // 2.5 MiB per device
  std::printf("== smart home: 4 devices, %llu KiB DRAM budget each ==\n",
              static_cast<unsigned long long>(budget >> 10));

  data::DatasetConfig dcfg;
  dcfg.task = data::GlueTask::kMrpc;  // "did the user mean the same thing?"
  dcfg.train_samples = 64;
  dcfg.eval_samples = 32;
  dcfg.seq_len = 16;
  dcfg.vocab = 64;
  data::SyntheticGlueDataset dataset(dcfg);

  // --- attempt 1: the hub alone, full fine-tuning ---
  {
    dist::EdgeCluster hub(1, budget);
    baselines::BaselineConfig cfg;
    cfg.system = baselines::System::kStandalone;
    cfg.technique = model::Technique::kFull;
    cfg.batch_size = 16;
    try {
      run_baseline(hub, dataset,
                   [](const model::ModelParts& parts) {
                     return make_agent_model(model::Technique::kFull, parts);
                   },
                   cfg);
      std::printf("standalone full FT: unexpectedly fit\n");
    } catch (const DeviceOomError& e) {
      std::printf("standalone full FT: OOM (%s) — the resource wall\n",
                  e.what());
    }
  }

  // --- attempt 2: all devices, EDDL data parallelism, full FT ---
  {
    dist::EdgeCluster cluster(4, budget);
    baselines::BaselineConfig cfg;
    cfg.system = baselines::System::kEddl;
    cfg.technique = model::Technique::kFull;
    cfg.batch_size = 16;
    cfg.num_micro_batches = 4;
    try {
      run_baseline(cluster, dataset,
                   [](const model::ModelParts& parts) {
                     return make_agent_model(model::Technique::kFull, parts);
                   },
                   cfg);
      std::printf("EDDL full FT: unexpectedly fit\n");
    } catch (const DeviceOomError& e) {
      std::printf("EDDL full FT: OOM (every device still hosts the whole "
                  "model)\n");
    }
  }

  // --- PAC: planner splits the model, Parallel Adapters train ---
  {
    dist::EdgeCluster cluster(4, budget);
    core::SessionConfig cfg;
    cfg.model = model::tiny(6, 48, 2, 64, 16);
    cfg.technique.technique = model::Technique::kParallelAdapters;
    cfg.technique.pa_reduction = 8;
    cfg.model_seed = 2024;
    cfg.batch_size = 16;
    cfg.num_micro_batches = 4;
    cfg.epochs = 3;
    cfg.lr = 5e-3F;
    core::Session session(cluster, dataset, cfg);
    core::SessionReport report = session.run();
    std::printf("PAC: plan %s\n", report.plan.note.c_str());
    std::printf("PAC: losses");
    for (double l : report.epoch_losses) std::printf(" %.4f", l);
    std::printf("\nPAC: agent quality (acc/F1 mean) %.3f after %zu epochs\n",
                report.eval_metric, report.epoch_losses.size());
    std::printf("PAC: cached epochs reused %.2f MiB of activations instead "
                "of recomputing the backbone\n",
                static_cast<double>(report.cache_bytes_total) / (1 << 20));
  }
  return 0;
}
