// Micro-batch schedules.
//
// 1F1B (PipeDream-flush, Narayanan et al. 2019 — the schedule PAC adopts,
// paper §5.1): each stage runs a warmup of (num_stages - stage - 1)
// forwards, then alternates one-backward-one-forward, then drains.  This
// bounds in-flight activations per device to (num_stages - stage) instead
// of num_micro, which is the schedule's whole point.
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

// Op sequence for one stage processing `num_micro` local micro-batches.
//
// `warmup` is the number of forwards issued before the first backward
// (clamped to num_micro).  The default -1 selects the classic
// (num_stages - stage - 1), which is only deadlock-free when every stage
// has the same replication width; hybrid plans with non-uniform device
// groups must pass hybrid_warmup() instead, which measures the downstream
// pipeline depth in *global* micro-batches:
//     warmup(p) = ceil( sum_{q > p} group_size(q) / group_size(p) ).
std::vector<PipeOp> make_schedule(ScheduleKind kind, std::int64_t num_micro,
                                  std::int64_t stage,
                                  std::int64_t num_stages,
                                  std::int64_t warmup = -1);

// Deadlock-free 1F1B warmup for stage `stage` of a (possibly non-uniform)
// plan described by its per-stage group sizes.
std::int64_t hybrid_warmup(const std::vector<std::int64_t>& group_sizes,
                           std::int64_t stage);

// Maximum number of micro-batches whose forward has run but whose backward
// has not, at any point in the schedule (activation high-water mark).
std::int64_t max_in_flight(const std::vector<PipeOp>& ops);

}  // namespace pac::pipeline
