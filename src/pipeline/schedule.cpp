#include "pipeline/schedule.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pac::pipeline {

std::vector<PipeOp> make_schedule(ScheduleKind kind, std::int64_t num_micro,
                                  std::int64_t warmup_in) {
  PAC_CHECK(num_micro >= 0, "negative micro count");
  PAC_CHECK(warmup_in >= 0, "negative warmup");
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
  const std::int64_t warmup = std::min(num_micro, warmup_in);
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
