// Ablation — heterogeneity-aware planning.
// A realistic smart home mixes device generations; the paper's DP (Eq. 2)
// is formulated over an ordered device set, which this implementation
// exploits: the planner shifts stage boundaries toward the fast devices.
// Heterogeneity-aware planning has two levers: stage boundaries shift
// toward fast devices, and mixed-speed groups get weight-proportional
// micro-batch ownership (pipeline::micro_owner_indices).  This bench
// compares the aware plan against planning that wrongly assumes a
// homogeneous cluster, on clusters with an increasingly slow tail.
#include <cstdio>

#include "planner/planner.hpp"
#include "sim/event_sim.hpp"

int main() {
  using namespace pac;
  const auto cfg_model = model::t5_base();
  const auto tc = model::paper_technique_config(
      model::Technique::kParallelAdapters);

  std::printf("Ablation — heterogeneity-aware planning (T5-Base, Parallel "
              "Adapters, 4 devices, batch 16, Jetson scale)\n\n");
  std::printf("%-28s | %10s %10s | %s\n", "cluster (relative speeds)",
              "aware s", "blind s", "aware plan");
  for (double slow : {1.0, 0.5, 0.25}) {
    const std::vector<double> scales{1.0, 1.0, slow, slow};
    auto input = planner::analytic_planner_input(
        cfg_model, tc, costmodel::SeqShape{1, 128, 16},
        costmodel::jetson_nano(), costmodel::edge_lan(), 4, 16, true);

    // Heterogeneity-aware: planner sees the true scales.
    auto aware_input = input;
    aware_input.device_scales = scales;
    auto aware = planner::plan_hybrid(aware_input);

    // Blind: planner assumes homogeneous devices; the real cluster then
    // executes its plan with the true scales.
    auto blind = planner::plan_hybrid(input);

    auto simulate = [&](const pipeline::ParallelPlan& plan) {
      return sim::simulate_minibatch(aware_input, plan).minibatch_seconds;
    };
    const double t_aware = simulate(aware.plan);
    const double t_blind = simulate(blind.plan);

    std::string sizes;
    for (const auto& st : aware.plan.stages) {
      if (!sizes.empty()) sizes += "+";
      sizes += std::to_string(st.devices.size());
      sizes += "x" + std::to_string(st.block_end - st.block_begin);
    }
    char label[64];
    std::snprintf(label, sizeof(label), "2 fast + 2 @ %.2fx", slow);
    std::printf("%-28s | %10.2f %10.2f | stages %s%s\n", label, t_aware,
                t_blind, sizes.c_str(),
                t_aware < t_blind - 1e-9 ? "  <- aware wins" : "");
  }
  std::printf("\nReading: as the slow tail worsens, the aware planner "
              "re-balances stage boundaries/groups and beats the "
              "homogeneous assumption.\n");
  return 0;
}
