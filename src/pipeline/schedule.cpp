#include "pipeline/schedule.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pac::pipeline {

std::int64_t hybrid_warmup(const std::vector<std::int64_t>& group_sizes,
                           std::int64_t stage) {
  PAC_CHECK(stage >= 0 &&
                stage < static_cast<std::int64_t>(group_sizes.size()),
            "hybrid_warmup: stage out of range");
  std::int64_t downstream = 0;
  for (std::size_t q = static_cast<std::size_t>(stage) + 1;
       q < group_sizes.size(); ++q) {
    PAC_CHECK(group_sizes[q] >= 1, "empty stage group");
    downstream += group_sizes[q];
  }
  const std::int64_t own = group_sizes[static_cast<std::size_t>(stage)];
  return (downstream + own - 1) / own;
}

std::vector<PipeOp> make_schedule(ScheduleKind kind, std::int64_t num_micro,
                                  std::int64_t stage,
                                  std::int64_t num_stages,
                                  std::int64_t warmup_in) {
  PAC_CHECK(num_micro >= 0, "negative micro count");
  PAC_CHECK(stage >= 0 && stage < num_stages, "stage " << stage
                                                       << " out of range");
  std::vector<PipeOp> ops;
  ops.reserve(static_cast<std::size_t>(2 * num_micro));
  using Kind = PipeOp::Kind;

  if (kind == ScheduleKind::kGPipe) {
    for (std::int64_t m = 0; m < num_micro; ++m) {
      ops.push_back({Kind::kForward, m});
    }
    for (std::int64_t m = 0; m < num_micro; ++m) {
      ops.push_back({Kind::kBackward, m});
    }
    return ops;
  }

  // 1F1B: warmup forwards, steady 1B1F, drain backwards.
  const std::int64_t warmup = std::min(
      num_micro, warmup_in >= 0 ? warmup_in : num_stages - stage - 1);
  for (std::int64_t m = 0; m < warmup; ++m) {
    ops.push_back({Kind::kForward, m});
  }
  std::int64_t next_fwd = warmup;
  std::int64_t next_bwd = 0;
  while (next_fwd < num_micro) {
    ops.push_back({Kind::kForward, next_fwd++});
    ops.push_back({Kind::kBackward, next_bwd++});
  }
  while (next_bwd < num_micro) {
    ops.push_back({Kind::kBackward, next_bwd++});
  }
  return ops;
}

std::int64_t max_in_flight(const std::vector<PipeOp>& ops) {
  std::int64_t in_flight = 0;
  std::int64_t peak = 0;
  for (const PipeOp& op : ops) {
    if (op.kind == PipeOp::Kind::kForward) {
      ++in_flight;
      peak = std::max(peak, in_flight);
    } else {
      --in_flight;
    }
  }
  return peak;
}

}  // namespace pac::pipeline
