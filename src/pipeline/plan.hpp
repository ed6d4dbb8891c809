// Parallelism plan: how model blocks map onto device groups.
//
// A plan partitions the model's block sequence into contiguous stages and
// assigns each stage a disjoint group of devices; devices within a group
// replicate the stage and split micro-batches (intra-stage data
// parallelism).  Pure data parallelism is the 1-stage plan over all
// devices; pure pipeline parallelism uses singleton groups — both baselines
// (EDDL, Eco-FL) are expressed as degenerate plans of the same engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pac::pipeline {

struct StageAssignment {
  std::int64_t block_begin = 0;  // [begin, end) into the model's block list
  std::int64_t block_end = 0;
  std::vector<int> devices;  // sorted ranks replicating this stage
  // Optional per-device work weights (same order as `devices`).  Empty
  // means uniform; the planner fills these with compute scales on
  // heterogeneous clusters so faster members own more micro-batches.
  std::vector<double> device_weights;
};

// Deterministic weighted assignment of micro-batches to group members:
// returns, for each micro m in [0, num_micro), the index into st.devices
// that owns it.  Deficit round-robin — with uniform weights this is
// exactly (m mod group_size), so homogeneous plans keep their mapping.
// Senders, receivers, the simulator and the planner all share this
// function; disagreement would deadlock the pipeline.
std::vector<int> micro_owner_indices(const StageAssignment& st,
                                     std::int64_t num_micro);

// Row split of a `rows`-row mini-batch into min(num_micro, rows) micros:
// the m_total + 1 boundaries, earlier micros taking one remainder row
// each.  Stage workers and the eval gather share this split.
std::vector<std::int64_t> micro_row_bounds(std::int64_t rows,
                                           std::int64_t num_micro);

struct ParallelPlan {
  std::vector<StageAssignment> stages;
  std::int64_t num_micro_batches = 1;  // per mini-batch, across each group

  std::int64_t num_stages() const {
    return static_cast<std::int64_t>(stages.size());
  }

  // Throws InvalidArgument unless: stages are contiguous and cover
  // [0, num_blocks); device groups are non-empty, sorted and disjoint; all
  // ranks are < world_size; micro count >= 1; weights (if present) match
  // the group size and are positive.
  void validate(std::int64_t num_blocks, int world_size) const;

  // Whether any stage uses non-uniform device weights.
  bool weighted() const;

  // Stage index owning this rank, or -1 if the rank is unused by the plan.
  int stage_of_rank(int rank) const;
  // Position of the rank within its stage group (requires membership).
  int index_in_group(int rank) const;
  // Ranks used by any stage.
  std::vector<int> participating_ranks() const;

  std::string to_string() const;

  // ---- canonical plan shapes ----
  // EDDL-style pure data parallelism: one stage over all devices.
  static ParallelPlan pure_data_parallel(std::int64_t num_blocks,
                                         int world_size,
                                         std::int64_t num_micro);
  // Eco-FL-style pure pipeline: `world_size` stages with singleton groups,
  // splitting blocks as evenly as possible (embedding/head ride along with
  // the first/last transformer slice).
  static ParallelPlan pure_pipeline(std::int64_t num_blocks, int world_size,
                                    std::int64_t num_micro);
  // Single device.
  static ParallelPlan standalone(std::int64_t num_blocks,
                                 std::int64_t num_micro);
};

// 1F1B warmup (forwards before the first backward) that stage `stage` of
// `plan` must use; the one rule the stage workers, the event simulator and
// the planner's memory check all read.  The classic (num_stages - stage -
// 1) only holds for uniform groups: non-uniform groups take the hybrid
// warmup ceil(sum_{q > stage} |group q| / |group stage|) or adjacent
// stages deadlock on each other's first backward, and weighted ownership
// can hand one member several consecutive micros, so weighted plans take
// the full downstream depth sum_{q > stage} |group q| instead.
std::int64_t stage_warmup(const ParallelPlan& plan, std::int64_t stage);

}  // namespace pac::pipeline
