#include "sim/event_sim.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/error.hpp"

namespace pac::sim {
namespace {

struct RankState {
  int rank = -1;
  int stage = -1;
  std::vector<pipeline::PipeOp> ops;
  std::vector<std::int64_t> micro_of_op;  // global micro id per op
  std::size_t next_op = 0;
  double clock = 0.0;  // device busy-until time
  double busy = 0.0;   // accumulated compute time
};

}  // namespace

SimResult simulate_minibatch(const planner::PlannerInput& input,
                             const pipeline::ParallelPlan& plan) {
  SimResult result;
  // Validates the plan and checks memory with the planner's per-device
  // model.
  result.estimate = planner::evaluate_plan(input, plan);
  if (!result.estimate.feasible) return result;

  const std::int64_t s = plan.num_stages();
  const std::int64_t M = plan.num_micro_batches;

  // ---- per-stage costs and micro ownership (the planner's pricer) ----
  const planner::StagePricer pricer(input, M);
  std::vector<planner::StageLoad> loads;
  for (const auto& st : plan.stages) loads.push_back(pricer.load(st));

  // ---- build per-rank op lists (same routing as StageWorker) ----
  std::vector<RankState> ranks;
  std::map<int, std::size_t> rank_index;
  for (std::int64_t i = 0; i < s; ++i) {
    const auto& st = plan.stages[static_cast<std::size_t>(i)];
    const planner::StageLoad& load = loads[static_cast<std::size_t>(i)];
    const std::int64_t warmup = pipeline::stage_warmup(plan, i);
    for (std::size_t gi = 0; gi < st.devices.size(); ++gi) {
      RankState rs;
      rs.rank = st.devices[gi];
      rs.stage = static_cast<int>(i);
      std::vector<std::int64_t> local;
      for (std::int64_t m = 0; m < M; ++m) {
        if (load.owners[static_cast<std::size_t>(m)] ==
            static_cast<int>(gi)) {
          local.push_back(m);
        }
      }
      rs.ops = pipeline::make_schedule(input.schedule, load.local_micros[gi],
                                       warmup);
      for (const auto& op : rs.ops) {
        rs.micro_of_op.push_back(local[static_cast<std::size_t>(op.micro)]);
      }
      rank_index[rs.rank] = ranks.size();
      ranks.push_back(std::move(rs));
    }
  }

  auto owner = [&](std::int64_t stage, std::int64_t micro) {
    const auto& st = plan.stages[static_cast<std::size_t>(stage)];
    return st.devices[static_cast<std::size_t>(
        loads[static_cast<std::size_t>(stage)]
            .owners[static_cast<std::size_t>(micro)])];
  };
  // A boundary's messages, both ways, are sized by the profile of the
  // upstream stage's last block.
  auto boundary = [&](std::int64_t stage) -> const planner::BlockProfile& {
    return input.blocks[static_cast<std::size_t>(
        plan.stages[static_cast<std::size_t>(stage)].block_end - 1)];
  };

  // Message availability times keyed by (stage, micro, is_backward).
  std::map<std::tuple<std::int64_t, std::int64_t, bool>, double> msg_ready;
  // Per-directed-link busy-until times (serial links).
  std::map<std::pair<int, int>, double> link_free;

  auto send_message = [&](int from, int to, double ready, double bytes,
                          std::int64_t stage, std::int64_t micro,
                          bool backward) {
    double arrival = ready;
    if (from != to && bytes > 0) {
      double& lf = link_free[{from, to}];
      const double start = std::max(lf, ready);
      const double dur = input.network.transfer_seconds(
          static_cast<std::uint64_t>(bytes));
      lf = start + dur;
      arrival = lf;
      result.comm_bytes += static_cast<std::uint64_t>(bytes);
    }
    msg_ready[{stage, micro, backward}] = arrival;
  };

  // ---- run to fixed point: ranks execute ops as dependencies resolve ----
  bool progressed = true;
  std::size_t remaining = 0;
  for (const auto& rs : ranks) remaining += rs.ops.size();
  while (remaining > 0) {
    PAC_CHECK(progressed, "simulator deadlock: schedule dependency cycle");
    progressed = false;
    for (RankState& rs : ranks) {
      while (rs.next_op < rs.ops.size()) {
        const auto& op = rs.ops[rs.next_op];
        const std::int64_t micro = rs.micro_of_op[rs.next_op];
        const bool backward = op.kind == pipeline::PipeOp::Kind::kBackward;
        double input_ready = 0.0;
        if (!backward && rs.stage > 0) {
          auto it = msg_ready.find({rs.stage - 1, micro, false});
          if (it == msg_ready.end()) break;  // producer not done yet
          input_ready = it->second;
        } else if (backward && rs.stage + 1 < s) {
          auto it = msg_ready.find({rs.stage + 1, micro, true});
          if (it == msg_ready.end()) break;
          input_ready = it->second;
        }
        const planner::StageLoad& load =
            loads[static_cast<std::size_t>(rs.stage)];
        const double dur = (backward ? load.t_bwd : load.t_fwd) /
                           input.device_scale(rs.rank);
        const double start = std::max(rs.clock, input_ready);
        rs.clock = start + dur;
        rs.busy += dur;
        result.trace.push_back(
            OpTrace{rs.rank, rs.stage, micro, backward, start, rs.clock});
        if (!backward && rs.stage + 1 < s) {
          send_message(rs.rank, owner(rs.stage + 1, micro), rs.clock,
                       static_cast<double>(boundary(rs.stage).fwd_msg_bytes),
                       rs.stage, micro, false);
        } else if (backward && rs.stage > 0) {
          // The gradient of the upstream stage's boundary activation.
          send_message(
              rs.rank, owner(rs.stage - 1, micro), rs.clock,
              static_cast<double>(boundary(rs.stage - 1).bwd_msg_bytes),
              rs.stage, micro, true);
        }
        ++rs.next_op;
        --remaining;
        progressed = true;
      }
    }
  }

  // ---- gradient AllReduce within each stage group ----
  double makespan = 0.0;
  for (RankState& rs : ranks) makespan = std::max(makespan, rs.clock);
  double ar_extra = 0.0;
  for (std::int64_t i = 0; i < s; ++i) {
    const auto& st = plan.stages[static_cast<std::size_t>(i)];
    const int g = static_cast<int>(st.devices.size());
    if (g <= 1) continue;
    const std::uint64_t trainable =
        loads[static_cast<std::size_t>(i)].trainable_bytes;
    const double ar = input.network.allreduce_seconds(trainable, g);
    // Group members finish their ops, then AllReduce together.
    double group_end = 0.0;
    for (int r : st.devices) {
      group_end = std::max(group_end, ranks[rank_index[r]].clock);
    }
    ar_extra = std::max(ar_extra, group_end + ar - makespan);
    result.comm_bytes += input.network.allreduce_group_bytes(trainable, g);
  }
  if (ar_extra > 0.0) makespan += ar_extra;

  result.minibatch_seconds = makespan;
  double busy_sum = 0.0;
  for (const RankState& rs : ranks) busy_sum += rs.busy;
  result.bubble_fraction =
      1.0 - busy_sum / (makespan * static_cast<double>(ranks.size()));
  return result;
}

std::string render_timeline(const planner::PlannerInput& input,
                            const pipeline::ParallelPlan& plan, int width) {
  PAC_CHECK(width >= 16, "timeline width too small");
  const SimResult r = simulate_minibatch(input, plan);
  std::ostringstream os;
  if (!r.estimate.feasible) {
    os << "OOM: " << r.estimate.note << "\n";
    return os.str();
  }
  const double span = r.minibatch_seconds;
  auto col = [&](double t) {
    return std::min<int>(width - 1,
                         static_cast<int>(t / span * width));
  };
  // Collect participating ranks in plan order.
  std::vector<int> ranks;
  for (const auto& st : plan.stages) {
    ranks.insert(ranks.end(), st.devices.begin(), st.devices.end());
  }
  std::map<int, std::string> rows;
  for (int rank : ranks) rows[rank] = std::string(width, '.');
  constexpr char kHex[] = "0123456789ABCDEF";
  for (const OpTrace& op : r.trace) {
    std::string& row = rows[op.rank];
    const int b = col(op.start);
    const int e = std::max(b + 1, col(op.end));
    // Span body: '=' for forward, '~' for backward; first cell labels the
    // op ('0'-'F' hex micro id for forward, 'b' for backward).
    for (int i = b; i < e && i < width; ++i) {
      row[static_cast<std::size_t>(i)] = op.backward ? '~' : '=';
    }
    if (b < width) {
      row[static_cast<std::size_t>(b)] =
          op.backward ? 'b' : kHex[op.micro % 16];
    }
  }
  os << "mini-batch " << span << " s, bubble "
     << static_cast<int>(100.0 * r.bubble_fraction) << "%\n";
  for (int rank : ranks) {
    os << "dev" << rank << " |" << rows[rank] << "|\n";
  }
  os << "      <hex>== forward of that micro, b~~ = backward, . = idle\n";
  return os.str();
}

}  // namespace pac::sim
