// Figure 8 — time and memory efficiency of Parallel Adapters at the edge.
// Setup per paper §6.3: 8 devices; Parallel Adapters run data-parallel
// with the activation cache; other techniques run hybrid parallelism
// without 1F1B; batch 16, seq 128; Jetson scale via the simulator.
//
// (a) average per-sample training time   (paper: P.A. −31.9 % vs Full;
//     with cache −96.4 %)
// (b) peak per-device total memory       (paper: P.A. −25.3 %; with cache
//     −74.6 %)
#include <cstdio>

#include "baselines/baselines.hpp"
#include "common/timer.hpp"
#include "core/session.hpp"
#include "sim/scenarios.hpp"

namespace {

using namespace pac;
using model::Technique;

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

struct Row {
  const char* name;
  double sec_per_sample;
  double peak_gib;
};

Row run_row(const char* name, Technique technique, bool pac_cache) {
  sim::ScenarioConfig cfg;
  cfg.model = model::t5_base();
  cfg.technique = technique;
  cfg.task = data::GlueTask::kMrpc;  // 3 epochs, cache engages
  cfg.num_devices = 8;
  cfg.pac_use_cache = pac_cache;
  auto r = sim::simulate_system(sim::SystemKind::kPac, cfg);
  Row row{name, 0.0, 0.0};
  if (r.oom) {
    row.sec_per_sample = -1.0;
    return row;
  }
  row.sec_per_sample = r.seconds_per_sample;
  std::uint64_t peak = 0;
  for (std::uint64_t m : r.peak_memory_per_device) peak = std::max(peak, m);
  // Under the cached phase the steady-state resident set shrinks further;
  // report the phase-2 footprint for the cached row.
  if (pac_cache && technique == Technique::kParallelAdapters) {
    const auto mem = costmodel::standalone_memory(
        cfg.model, model::paper_technique_config(technique),
        costmodel::SeqShape{16, 128, 16}, true, /*cached_phase=*/true);
    peak = mem.total();
  }
  row.peak_gib = static_cast<double>(peak) / kGiB;
  return row;
}

}  // namespace

int main() {
  std::printf("Figure 8 — technique efficiency at the edge (T5-Base, 8 "
              "devices, batch 16, seq 128, simulated Jetson scale)\n\n");
  const Row rows[] = {
      run_row("Full", Technique::kFull, false),
      run_row("Adapters", Technique::kAdapters, false),
      run_row("LoRA", Technique::kLora, false),
      run_row("P.A. (no cache)", Technique::kParallelAdapters, false),
      run_row("P.A. + cache", Technique::kParallelAdapters, true),
  };

  std::printf("(a) average per-sample training time\n");
  std::printf("%-18s %14s %14s\n", "Technique", "s/sample",
              "vs Full");
  const double full_t = rows[0].sec_per_sample;
  for (const Row& r : rows) {
    if (r.sec_per_sample < 0) {
      std::printf("%-18s %14s\n", r.name, "OOM");
      continue;
    }
    std::printf("%-18s %14.4f %+13.1f%%\n", r.name, r.sec_per_sample,
                100.0 * (r.sec_per_sample - full_t) / full_t);
  }
  std::printf("paper: P.A. -31.9%% vs full; with cache -96.4%%\n\n");

  std::printf("(b) peak per-device memory\n");
  std::printf("%-18s %14s %14s\n", "Technique", "GiB", "vs Full");
  const double full_m = rows[0].peak_gib;
  for (const Row& r : rows) {
    if (r.sec_per_sample < 0) {
      std::printf("%-18s %14s\n", r.name, "OOM");
      continue;
    }
    std::printf("%-18s %14.2f %+13.1f%%\n", r.name, r.peak_gib,
                100.0 * (r.peak_gib - full_m) / full_m);
  }
  std::printf("paper: P.A. -25.3%%; with cache -74.6%%\n");

  // ---- executed counterpart: real wall-clock at tiny scale ----
  std::printf("\n(executed on this machine: tiny model, 2 devices, real "
              "wall-clock per sample)\n");
  data::DatasetConfig dcfg;
  dcfg.task = data::GlueTask::kMrpc;
  dcfg.train_samples = 96;
  dcfg.eval_samples = 16;
  dcfg.seq_len = 16;
  dcfg.vocab = 64;
  data::SyntheticGlueDataset ds(dcfg);
  const model::ModelConfig tiny_cfg = model::tiny(6, 48, 2, 64, 16);

  auto run_technique = [&](Technique technique,
                           bool use_cache) -> double {
    const int epochs = 3;
    if (!use_cache) {
      dist::EdgeCluster cluster(2,
                                std::numeric_limits<std::uint64_t>::max());
      baselines::BaselineConfig cfg;
      cfg.system = baselines::System::kEddl;
      cfg.technique = technique;
      cfg.batch_size = 16;
      cfg.num_micro_batches = 2;
      cfg.epochs = epochs;
      cfg.run_eval = false;
      auto factory = [technique, tiny_cfg](const model::ModelParts& parts) {
        model::TechniqueConfig tc;
        tc.technique = technique;
        tc.adapter_reduction = 4;
        tc.pa_reduction = 4;
        tc.lora = nn::LoraSpec{4, 8.0F};
        return std::make_unique<model::Model>(tiny_cfg, tc,
                                              model::TaskSpec{}, 99, parts);
      };
      WallTimer t;
      run_baseline(cluster, ds, factory, cfg);
      return t.seconds() / (epochs * ds.train_size());
    }
    dist::EdgeCluster cluster(2,
                              std::numeric_limits<std::uint64_t>::max());
    core::SessionConfig cfg;
    cfg.model = tiny_cfg;
    cfg.technique.technique = Technique::kParallelAdapters;
    cfg.technique.pa_reduction = 4;
    cfg.batch_size = 16;
    cfg.num_micro_batches = 2;
    cfg.epochs = epochs;
    cfg.run_eval = false;
    core::Session session(cluster, ds, cfg);
    WallTimer t;
    session.run();
    return t.seconds() / (epochs * ds.train_size());
  };

  struct ExecRow {
    const char* name;
    Technique technique;
    bool cache;
  };
  const ExecRow exec_rows[] = {
      {"Full", Technique::kFull, false},
      {"Adapters", Technique::kAdapters, false},
      {"LoRA", Technique::kLora, false},
      {"P.A. (no cache)", Technique::kParallelAdapters, false},
      {"P.A. + cache", Technique::kParallelAdapters, true},
  };
  double exec_full = 0.0;
  for (const auto& row : exec_rows) {
    const double s = run_technique(row.technique, row.cache);
    if (row.technique == Technique::kFull) exec_full = s;
    std::printf("%-18s %11.4f ms/sample %+13.1f%% vs Full\n", row.name,
                1e3 * s, 100.0 * (s - exec_full) / exec_full);
  }
  return 0;
}
