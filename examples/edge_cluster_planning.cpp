// Edge-cluster planning walkthrough: how PAC's profiler + DP planner pick
// hybrid configurations as the cluster grows, at the paper's Jetson scale
// (analytic profiles — no hardware needed).
//
//   ./examples/edge_cluster_planning
#include <cstdio>

#include "planner/planner.hpp"
#include "sim/event_sim.hpp"

int main() {
  using namespace pac;
  const auto device = costmodel::jetson_nano();
  const auto network = costmodel::edge_lan();

  std::printf("Jetson Nano model: %.0f GFLOPS effective, %.2f GiB usable, "
              "%.0f Mbps LAN\n\n",
              device.effective_flops / 1e9,
              static_cast<double>(device.usable_bytes()) / (1ULL << 30),
              network.bandwidth_bps / 1e6);

  for (const auto& cfg :
       {model::t5_base(), model::bart_large(), model::t5_large()}) {
    std::printf("== %s (%.2f B params) ==\n", cfg.name.c_str(),
                static_cast<double>(cfg.full_param_count()) / 1e9);
    for (int devices : {2, 4, 6, 8}) {
      auto input = planner::analytic_planner_input(
          cfg,
          model::paper_technique_config(
              model::Technique::kParallelAdapters),
          costmodel::SeqShape{1, 128, 16}, device, network, devices,
          /*num_micro_batches=*/16, /*include_decoder=*/true);
      planner::PlanEstimate est = planner::plan_hybrid(input);
      if (!est.feasible) {
        std::printf("  %d devices: no feasible plan (%s)\n", devices,
                    est.note.c_str());
        continue;
      }
      // Validate the planner's estimate against the event simulator.
      sim::SimResult sim = sim::simulate_minibatch(input, est.plan);
      std::printf("  %d devices -> %lld stages, groups:", devices,
                  static_cast<long long>(est.plan.num_stages()));
      for (const auto& st : est.plan.stages) {
        std::printf(" %zux[%lld..%lld]", st.devices.size(),
                    static_cast<long long>(st.block_begin),
                    static_cast<long long>(st.block_end - 1));
      }
      std::printf("\n      est %.2fs/minibatch, sim %.2fs, bubble %.0f%%\n",
                  est.minibatch_seconds, sim.minibatch_seconds,
                  100.0 * sim.bubble_fraction);
    }
    std::printf("\n");
  }

  // Visualize the chosen BART-Large @ 8 plan as a pipeline timeline.
  {
    auto input = planner::analytic_planner_input(
        model::bart_large(),
        model::paper_technique_config(model::Technique::kParallelAdapters),
        costmodel::SeqShape{1, 128, 16}, device, network, 8, 16, true);
    planner::PlanEstimate est = planner::plan_hybrid(input);
    if (est.feasible) {
      std::printf("BART-Large @ 8 devices, one mini-batch under 1F1B:\n%s",
                  sim::render_timeline(input, est.plan).c_str());
    }
  }
  return 0;
}
