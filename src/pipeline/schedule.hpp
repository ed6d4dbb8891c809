// Micro-batch schedules.
//
// 1F1B (PipeDream-flush, Narayanan et al. 2019 — the schedule PAC adopts,
// paper §5.1): each rank runs a warmup of forwards, then alternates
// one-backward-one-forward, then drains.  On a uniform pipeline the
// warmup is (num_stages - stage - 1), which bounds in-flight activations
// per device to (num_stages - stage) instead of num_micro — the
// schedule's whole point.
//
// GPipe (all forwards, then all backwards) is kept as the ablation
// baseline: same bubble, maximal activation footprint.
//
// Both schedules issue backwards in forward order, matching the FIFO
// context queues in pac::nn.
#pragma once

#include <cstdint>
#include <vector>

namespace pac::pipeline {

enum class ScheduleKind { k1F1B, kGPipe };

struct PipeOp {
  enum class Kind { kForward, kBackward };
  Kind kind;
  std::int64_t micro;  // index into this rank's local micro-batch list
};

// Op sequence for one rank processing `num_micro` local micro-batches.
//
// `warmup` is the number of forwards issued before the first backward
// (clamped to num_micro; GPipe ignores it).  The only deadlock-free value
// depends on the whole plan, so callers take it from
// stage_warmup(plan, stage) (pipeline/plan.hpp).
std::vector<PipeOp> make_schedule(ScheduleKind kind, std::int64_t num_micro,
                                  std::int64_t warmup);

// Maximum number of micro-batches whose forward has run but whose backward
// has not, at any point in the schedule (activation high-water mark).
std::int64_t max_in_flight(const std::vector<PipeOp>& ops);

}  // namespace pac::pipeline
