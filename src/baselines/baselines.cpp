#include "baselines/baselines.hpp"

namespace pac::baselines {

const char* system_name(System system) {
  switch (system) {
    case System::kStandalone: return "Standalone";
    case System::kEddl: return "EDDL";
    case System::kEcoFl: return "Eco-FL";
  }
  return "?";
}

pipeline::ParallelPlan baseline_plan(System system, std::int64_t num_blocks,
                                     int world_size,
                                     std::int64_t num_micro_batches) {
  switch (system) {
    case System::kStandalone:
      return pipeline::ParallelPlan::standalone(num_blocks,
                                                num_micro_batches);
    case System::kEddl:
      return pipeline::ParallelPlan::pure_data_parallel(
          num_blocks, world_size, num_micro_batches);
    case System::kEcoFl:
      return pipeline::ParallelPlan::pure_pipeline(num_blocks, world_size,
                                                   num_micro_batches);
  }
  throw InvalidArgument("unknown baseline system");
}

pipeline::RunResult run_baseline(dist::EdgeCluster& cluster,
                                 const data::Dataset& dataset,
                                 const pipeline::ModelFactory& factory,
                                 const BaselineConfig& config) {
  // Probe the block count from a replica that builds no block.
  const std::int64_t num_blocks =
      factory(model::ModelParts::none())->num_blocks();
  pipeline::RunConfig run;
  run.plan = baseline_plan(config.system, num_blocks, cluster.size(),
                           config.num_micro_batches);
  run.schedule = config.system == System::kEcoFl
                     ? pipeline::ScheduleKind::kGPipe
                     : pipeline::ScheduleKind::k1F1B;
  run.batch_size = config.batch_size;
  run.epochs = config.epochs;
  run.lr = config.lr;
  run.shuffle_seed = config.shuffle_seed;
  run.run_eval = config.run_eval;
  return run_training(cluster, dataset, factory, run);
}

}  // namespace pac::baselines
