// Table 3 — final model quality parity across fine-tuning techniques.
//
// Executed training on synthetic GLUE-shaped tasks (see DESIGN.md for the
// substitution): for each of the four tasks, train Full / Adapters / LoRA
// / Parallel Adapters from the same initialization and report the task
// metric.  What must reproduce is the *parity*: Parallel Adapters lands
// within a small margin of the mean of the other three (paper: worst
// deviation -0.37 points).  Absolute values differ from the paper because
// models are tiny and tasks synthetic.
#include <cstdio>
#include <vector>

#include "baselines/baselines.hpp"
#include "data/metrics.hpp"

namespace {

using namespace pac;
using model::Technique;

double train_and_eval(data::GlueTask task, Technique technique) {
  data::DatasetConfig dcfg;
  dcfg.task = task;
  dcfg.train_samples = 192;
  dcfg.eval_samples = 96;
  dcfg.seq_len = 16;
  dcfg.vocab = 64;
  dcfg.seed = 99;
  data::SyntheticGlueDataset ds(dcfg);
  const data::TaskInfo info = ds.info();

  dist::EdgeCluster cluster(2, std::numeric_limits<std::uint64_t>::max());
  baselines::BaselineConfig cfg;
  cfg.system = baselines::System::kEddl;
  cfg.technique = technique;
  cfg.batch_size = 16;
  cfg.num_micro_batches = 2;
  cfg.epochs = 25;
  cfg.lr = 4e-3F;
  auto factory = [technique, info](const model::ModelParts& parts) {
    model::TechniqueConfig tc;
    tc.technique = technique;
    // Reductions scaled for the tiny hidden size (k=8 at h=1024 gives
    // r=128; k=4 at h=32 keeps the side network proportionally capable).
    tc.adapter_reduction = 4;
    tc.pa_reduction = 4;
    tc.lora = nn::LoraSpec{4, 8.0F};
    return std::make_unique<model::Model>(
        model::tiny(4, 32, 2, 64, 16), tc,
        model::TaskSpec{info.kind, info.num_classes}, 31337, parts);
  };
  return run_baseline(cluster, ds, factory, cfg).eval_metric;
}

}  // namespace

int main() {
  const Technique techniques[] = {Technique::kFull, Technique::kAdapters,
                                  Technique::kLora,
                                  Technique::kParallelAdapters};
  std::printf("Table 3 — quality parity on synthetic GLUE-shaped tasks "
              "(executed tiny models, 25 epochs)\n");
  std::printf("paper headline: Parallel Adapters within ±0.4 points of the "
              "mean of Full/Adapters/LoRA on real GLUE\n\n");
  std::printf("%-8s %10s %10s %10s %10s %10s %12s  %s\n", "Task", "Full",
              "Adapters", "LoRA", "P.A.", "mean", "P.A.-mean", "metric");

  double worst_dev = 0.0;
  for (data::GlueTask task : data::all_tasks()) {
    double scores[4];
    for (int i = 0; i < 4; ++i) {
      scores[i] = train_and_eval(task, techniques[i]);
    }
    const double mean = (scores[0] + scores[1] + scores[2]) / 3.0;
    const double dev = scores[3] - mean;
    if (std::abs(dev) > std::abs(worst_dev)) worst_dev = dev;
    std::printf("%-8s %10.3f %10.3f %10.3f %10.3f %10.3f %+12.3f  %s\n",
                data::task_name(task), scores[0], scores[1], scores[2],
                scores[3], mean, dev,
                data::task_info(task).metric.c_str());
  }
  std::printf("\nworst Parallel-Adapters deviation from the baseline mean: "
              "%+0.3f (paper: -0.0037 on its 0-100 scale)\n",
              worst_dev);
  return 0;
}
