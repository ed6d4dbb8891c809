#include "planner/planner.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "nn/optimizer.hpp"
#include "obs/trace.hpp"
#include "pipeline/schedule.hpp"

namespace pac::planner {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

// Per-device bytes of a member holding a stage's weights, gradients and
// optimizer state plus `in_flight` micro-batches' activations.
std::uint64_t device_bytes(const BlockTotals& t, std::int64_t in_flight) {
  return t.param_bytes + t.trainable_bytes +
         nn::Adam::kStateFactor * t.trainable_bytes +
         t.activation_bytes * static_cast<std::uint64_t>(in_flight);
}

// The DP's per-device memory bound for a stage replicated over m devices
// with `stages_from_here` stages remaining (this one included).  It is an
// approximation of the executed peak that evaluate_plan charges: every
// member is given ceil(M/m) local micros, and 1F1B keeps the classic
// min(local_micros, stages_from_here) in flight — the suffix length the
// suffix DP knows when it places a stage — where the executed warmup
// (pipeline::stage_warmup) depends on the group widths downstream and on
// weighted ownership.  plan_hybrid re-checks every candidate exactly.
std::uint64_t stage_memory(const PlannerInput& input, const BlockTotals& t,
                           std::int64_t m, std::int64_t stages_from_here) {
  const std::int64_t local_micros =
      std::max<std::int64_t>(1, ceil_div(input.num_micro_batches, m));
  const std::int64_t in_flight =
      input.schedule == pipeline::ScheduleKind::kGPipe
          ? local_micros
          : std::min(local_micros, stages_from_here);
  return device_bytes(t, in_flight);
}

// Blocks [begin, end) on planner ranks [first_rank, first_rank + m).  A
// group mixing compute scales carries them as weights, so faster members
// own more micros (micro_owner_indices); a uniform group carries none.
pipeline::StageAssignment make_stage(const PlannerInput& input,
                                     std::int64_t begin, std::int64_t end,
                                     std::int64_t first_rank,
                                     std::int64_t m) {
  pipeline::StageAssignment st;
  st.block_begin = begin;
  st.block_end = end;
  bool heterogeneous = false;
  for (std::int64_t j = 0; j < m; ++j) {
    const int rank = static_cast<int>(first_rank + j);
    st.devices.push_back(rank);
    st.device_weights.push_back(input.device_scale(rank));
    if (input.device_scale(rank) !=
        input.device_scale(static_cast<int>(first_rank))) {
      heterogeneous = true;
    }
  }
  if (!heterogeneous) st.device_weights.clear();
  return st;
}

// Stage throughput term: the time this stage group needs per mini-batch —
// the slowest member's share of the micros plus the group AllReduce — or
// +infinity when the stage overflows the budget (the paper's OOM rule).
double stage_time(const PlannerInput& input, const StagePricer& pricer,
                  const pipeline::StageAssignment& st,
                  std::int64_t stages_from_here) {
  const auto m = static_cast<std::int64_t>(st.devices.size());
  const StageLoad load = pricer.load(st);
  if (stage_memory(input, load, m, stages_from_here) >
      input.device_budget_bytes) {
    return kInf;
  }
  return load.compute_seconds +
         input.network.allreduce_seconds(load.trainable_bytes,
                                         static_cast<int>(m));
}

// The partition DP shared by plan_hybrid and optimal_bottleneck_seconds.
//
// Runs over *suffixes*: dp[y][r][s] is the best bottleneck for blocks
// [y, n) arranged into s stages whose device groups are contiguous ranks
// starting at r (ranks after the last group stay idle).  The stage placed
// at (y, r, s) is the s-th from the pipeline's end, so the classic 1F1B
// in-flight bound min(local_micros, s) that stage_memory uses is known at
// placement time — a prefix-oriented DP cannot price this bound, because a
// stage's distance from the end is unknown while the prefix grows.  choice
// stores (segment_end, m) for forward reconstruction.
struct DpTables {
  std::int64_t n = 0;
  std::int64_t d_max = 0;
  std::int64_t s_max = 0;
  std::vector<double> dp;
  std::vector<std::pair<std::int64_t, std::int64_t>> choice;

  std::size_t idx(std::int64_t y, std::int64_t r, std::int64_t s) const {
    return static_cast<std::size_t>((y * (d_max + 1) + r) * (s_max + 1) +
                                    s);
  }
};

DpTables run_partition_dp(const PlannerInput& input) {
  DpTables t;
  t.n = input.num_blocks();
  t.d_max = input.num_devices;
  PAC_CHECK(t.n >= 1 && t.d_max >= 1, "planner needs blocks and devices");
  const StagePricer pricer(input, input.num_micro_batches);
  t.s_max = std::min<std::int64_t>(t.d_max, t.n);
  t.dp.assign(t.idx(t.n, t.d_max, t.s_max) + 1, kInf);
  t.choice.assign(t.dp.size(), {-1, -1});

  for (std::int64_t s = 1; s <= t.s_max; ++s) {
    for (std::int64_t y = t.n - s; y >= 0; --y) {
      for (std::int64_t r = 0; r + s <= t.d_max; ++r) {
        double best = kInf;
        std::pair<std::int64_t, std::int64_t> best_choice{-1, -1};
        if (s == 1) {
          // Final stage spanning [y, n) on ranks [r, r + m); any trailing
          // ranks stay idle, so every replication width is a candidate.
          for (std::int64_t m = 1; m <= t.d_max - r; ++m) {
            const double time = stage_time(
                input, pricer, make_stage(input, y, t.n, r, m), s);
            if (time < best) {
              best = time;
              best_choice = {t.n, m};
            }
          }
        } else {
          // Head stage [y, e) on ranks [r, r + m), leaving at least one
          // block and one rank per remaining stage.
          for (std::int64_t e = y + 1; e <= t.n - (s - 1); ++e) {
            for (std::int64_t m = 1; m + (s - 1) <= t.d_max - r; ++m) {
              const double rest = t.dp[t.idx(e, r + m, s - 1)];
              if (rest == kInf) continue;
              const double head = stage_time(
                  input, pricer, make_stage(input, y, e, r, m), s);
              const double bottleneck = std::max(head, rest);
              if (bottleneck < best) {
                best = bottleneck;
                best_choice = {e, m};
              }
            }
          }
        }
        t.dp[t.idx(y, r, s)] = best;
        t.choice[t.idx(y, r, s)] = best_choice;
      }
    }
  }
  return t;
}

}  // namespace

StagePricer::StagePricer(const PlannerInput& input, std::int64_t num_micro)
    : input_(input), num_micro_(num_micro), prefix_(input.blocks.size() + 1) {
  for (std::size_t i = 0; i < input.blocks.size(); ++i) {
    const BlockProfile& b = input.blocks[i];
    BlockTotals t = prefix_[i];
    t.t_fwd += b.t_fwd;
    t.t_bwd += b.t_bwd;
    t.param_bytes += b.param_bytes;
    t.trainable_bytes += b.trainable_bytes;
    t.activation_bytes += b.activation_bytes;
    prefix_[i + 1] = t;
  }
}

StageLoad StagePricer::load(const pipeline::StageAssignment& st) const {
  const BlockTotals& hi = prefix_[static_cast<std::size_t>(st.block_end)];
  const BlockTotals& lo = prefix_[static_cast<std::size_t>(st.block_begin)];
  StageLoad load;
  load.t_fwd = hi.t_fwd - lo.t_fwd;
  load.t_bwd = hi.t_bwd - lo.t_bwd;
  load.param_bytes = hi.param_bytes - lo.param_bytes;
  load.trainable_bytes = hi.trainable_bytes - lo.trainable_bytes;
  load.activation_bytes = hi.activation_bytes - lo.activation_bytes;
  load.owners = pipeline::micro_owner_indices(st, num_micro_);
  load.local_micros.assign(st.devices.size(), 0);
  for (int o : load.owners) ++load.local_micros[static_cast<std::size_t>(o)];
  for (std::size_t j = 0; j < st.devices.size(); ++j) {
    load.compute_seconds = std::max(
        load.compute_seconds, static_cast<double>(load.local_micros[j]) *
                                  (load.t_fwd + load.t_bwd) /
                                  input_.device_scale(st.devices[j]));
  }
  return load;
}

PlanEstimate evaluate_plan(const PlannerInput& input,
                           const pipeline::ParallelPlan& plan) {
  plan.validate(input.num_blocks(), input.num_devices);
  const StagePricer pricer(input, plan.num_micro_batches);
  const std::int64_t s = plan.num_stages();

  PlanEstimate est;
  est.plan = plan;
  est.feasible = true;
  est.device_memory_bytes.assign(static_cast<std::size_t>(input.num_devices),
                                 0);

  double steady = 0.0;
  double fill = 0.0;
  double drain = 0.0;
  double allreduce = 0.0;
  for (std::int64_t i = 0; i < s; ++i) {
    const auto& st = plan.stages[static_cast<std::size_t>(i)];
    const StageLoad load = pricer.load(st);
    // Each member holds the in-flight peak of the op list it runs.
    const std::int64_t warmup = pipeline::stage_warmup(plan, i);
    std::uint64_t mem = 0;
    for (std::size_t j = 0; j < st.devices.size(); ++j) {
      const std::int64_t in_flight = pipeline::max_in_flight(
          pipeline::make_schedule(input.schedule, load.local_micros[j],
                                  warmup));
      const std::uint64_t dev_mem = device_bytes(load, in_flight);
      est.device_memory_bytes[static_cast<std::size_t>(st.devices[j])] =
          dev_mem;
      mem = std::max(mem, dev_mem);
    }
    est.stage_memory_bytes.push_back(mem);
    est.stage_weight_bytes.push_back(load.param_bytes);
    if (mem > input.device_budget_bytes) {
      est.feasible = false;
      std::ostringstream os;
      os << "stage " << i << " needs " << mem << " bytes per device, budget "
         << input.device_budget_bytes;
      est.note = os.str();
    }
    steady = std::max(steady, load.compute_seconds);
    allreduce = std::max(
        allreduce, input.network.allreduce_seconds(
                       load.trainable_bytes,
                       static_cast<int>(st.devices.size())));
    if (i + 1 < s) {
      const auto& boundary =
          input.blocks[static_cast<std::size_t>(st.block_end - 1)];
      fill += load.t_fwd +
              input.network.transfer_seconds(boundary.fwd_msg_bytes);
      drain += load.t_bwd +
               input.network.transfer_seconds(boundary.bwd_msg_bytes);
    }
  }
  if (est.feasible) {
    est.minibatch_seconds = fill + steady + drain + allreduce;
    est.note = plan.to_string();
  }
  return est;
}

double optimal_bottleneck_seconds(const PlannerInput& input) {
  const DpTables t = run_partition_dp(input);
  double best = kInf;
  for (std::int64_t s = 1; s <= t.s_max; ++s) {
    best = std::min(best, t.dp[t.idx(0, 0, s)]);
  }
  return best;
}

PlanEstimate plan_hybrid(const PlannerInput& input) {
  PAC_TRACE_SCOPE("plan_hybrid", input.num_blocks(), input.num_devices);
  const DpTables tables = run_partition_dp(input);
  const std::int64_t d_max = tables.d_max;
  const std::int64_t s_max = tables.s_max;

  // For each stage count, reconstruct the bottleneck-optimal partition and
  // evaluate the full latency model; keep the best feasible plan (paper
  // Eq. 6).  The final stage's replication width is re-swept here: the DP
  // collapsed it to the bottleneck-min, but fill/drain terms can prefer a
  // different width, and trailing idle devices are legal.
  PlanEstimate best;
  for (std::int64_t s = 1; s <= s_max; ++s) {
    if (tables.dp[tables.idx(0, 0, s)] == kInf) continue;
    // Walk the choice table forward: (y, r) -> (segment_end, m).
    std::vector<std::pair<std::int64_t, std::int64_t>> segments;  // (end, m)
    std::int64_t y = 0;
    std::int64_t r = 0;
    for (std::int64_t ss = s; ss >= 1; --ss) {
      const auto [e, m] = tables.choice[tables.idx(y, r, ss)];
      PAC_CHECK(m >= 1, "planner reconstruction failed");
      segments.emplace_back(e, m);
      y = e;
      r += m;
    }
    const std::int64_t ranks_before_last = r - segments.back().second;
    for (std::int64_t last_m = 1; last_m <= d_max - ranks_before_last;
         ++last_m) {
      segments.back().second = last_m;
      pipeline::ParallelPlan plan;
      plan.num_micro_batches = input.num_micro_batches;
      std::int64_t begin = 0;
      std::int64_t rank = 0;
      for (const auto& [end, m] : segments) {
        plan.stages.push_back(make_stage(input, begin, end, rank, m));
        begin = end;
        rank += m;
      }
      PlanEstimate est = evaluate_plan(input, plan);
      if (est.feasible && est.minibatch_seconds < best.minibatch_seconds) {
        best = std::move(est);
        best.feasible = true;
      }
    }
  }
  if (!best.feasible && best.note.empty()) {
    best.note = "no feasible configuration within the memory budget";
  }
  return best;
}

PlanEstimate replan_hybrid(PlannerInput input,
                           const std::vector<double>& observed_scales) {
  PAC_CHECK(observed_scales.size() ==
                static_cast<std::size_t>(input.num_devices),
            "need one observed scale per device");
  if (input.device_scales.empty()) {
    input.device_scales.assign(static_cast<std::size_t>(input.num_devices),
                               1.0);
  }
  for (std::size_t r = 0; r < observed_scales.size(); ++r) {
    PAC_CHECK(observed_scales[r] > 0.0,
              "observed scale for device " << r << " must be positive");
    input.device_scales[r] *= observed_scales[r];
  }
  return plan_hybrid(input);
}

}  // namespace pac::planner
