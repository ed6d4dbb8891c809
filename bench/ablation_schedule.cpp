// Ablation — 1F1B vs GPipe micro-batch scheduling (DESIGN.md §5.1).
// The 1F1B schedule PAC adopts (paper §5.1, citing PipeDream) bounds
// in-flight activations by the downstream stage count instead of the micro
// count; GPipe's all-forward-then-all-backward keeps every micro resident.
// Jetson-scale T5-Base pipeline, 4 stages, full fine-tuning (largest
// activations), sweeping micro-batch counts.
#include <cstdio>

#include "sim/event_sim.hpp"

int main() {
  using namespace pac;
  const auto cfg_model = model::t5_base();
  const auto tc = model::paper_technique_config(model::Technique::kFull);

  std::printf("Ablation — 1F1B vs GPipe (T5-Base, Full FT, 4-stage "
              "pipeline, batch 16, Jetson scale)\n\n");
  std::printf("%7s | %12s %12s | %14s %14s | %s\n", "micros", "1F1B s",
              "GPipe s", "1F1B act GiB", "GPipe act GiB", "GPipe OOM?");
  for (std::int64_t micros : {2, 4, 8, 16}) {
    auto input = planner::analytic_planner_input(
        cfg_model, tc, costmodel::SeqShape{16 / micros, 128, 16},
        costmodel::jetson_nano(), costmodel::edge_lan(), 4, micros, true);
    auto plan = pipeline::ParallelPlan::pure_pipeline(input.num_blocks(), 4,
                                                      micros);
    auto r1 = sim::simulate_minibatch(input, plan);

    input.schedule = pipeline::ScheduleKind::kGPipe;
    auto r2 = sim::simulate_minibatch(input, plan);

    auto peak = [](const std::vector<std::uint64_t>& v) {
      std::uint64_t mx = 0;
      for (std::uint64_t x : v) mx = std::max(mx, x);
      return static_cast<double>(mx) / (1024.0 * 1024.0 * 1024.0);
    };
    std::printf("%7lld | %12.2f %12.2f | %14.2f %14.2f | %s\n",
                static_cast<long long>(micros),
                r1.estimate.feasible ? r1.minibatch_seconds : -1.0,
                r2.estimate.feasible ? r2.minibatch_seconds : -1.0,
                peak(r1.estimate.device_memory_bytes),
                peak(r2.estimate.device_memory_bytes),
                r2.estimate.feasible ? "fits" : "OOM");
  }
  std::printf("\nReading: both schedules share the same bubble at equal "
              "micro counts, but GPipe's activation footprint grows with "
              "micros while 1F1B's stays bounded — which is why Eco-FL "
              "(GPipe-style) must run fewer/larger micros and loses "
              "throughput (paper §6.2).\n");
  return 0;
}
