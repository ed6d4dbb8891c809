#include "pipeline/plan.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/error.hpp"

namespace pac::pipeline {

std::vector<int> micro_owner_indices(const StageAssignment& st,
                                     std::int64_t num_micro) {
  PAC_CHECK(!st.devices.empty(), "empty stage group");
  std::vector<double> weights(st.devices.size(), 1.0);
  if (!st.device_weights.empty()) {
    PAC_CHECK(st.device_weights.size() == st.devices.size(),
              "device_weights size mismatch");
    weights = st.device_weights;
  }
  std::vector<int> owners;
  owners.reserve(static_cast<std::size_t>(num_micro));
  std::vector<double> assigned(st.devices.size(), 0.0);
  for (std::int64_t m = 0; m < num_micro; ++m) {
    std::size_t best = 0;
    double best_deficit = assigned[0] / weights[0];
    for (std::size_t j = 1; j < weights.size(); ++j) {
      const double deficit = assigned[j] / weights[j];
      if (deficit < best_deficit - 1e-12) {
        best = j;
        best_deficit = deficit;
      }
    }
    assigned[best] += 1.0;
    owners.push_back(static_cast<int>(best));
  }
  return owners;
}

std::vector<std::int64_t> micro_row_bounds(std::int64_t rows,
                                           std::int64_t num_micro) {
  const std::int64_t m_total = std::min(num_micro, rows);
  const std::int64_t base = rows / m_total;
  const std::int64_t extra = rows % m_total;
  std::vector<std::int64_t> bounds{0};
  for (std::int64_t m = 0; m < m_total; ++m) {
    bounds.push_back(bounds.back() + base + (m < extra ? 1 : 0));
  }
  return bounds;
}

std::int64_t stage_warmup(const ParallelPlan& plan, std::int64_t stage) {
  PAC_CHECK(stage >= 0 && stage < plan.num_stages(),
            "stage " << stage << " out of range");
  // The downstream pipeline depth in *global* micro-batches.
  std::int64_t downstream = 0;
  for (std::size_t q = static_cast<std::size_t>(stage) + 1;
       q < plan.stages.size(); ++q) {
    downstream += static_cast<std::int64_t>(plan.stages[q].devices.size());
  }
  if (plan.weighted()) return downstream;
  // Uniform ownership deals this group every own-th micro, so the hybrid
  // warmup counts that depth in local micros:
  //     warmup(p) = ceil( sum_{q > p} group_size(q) / group_size(p) ).
  const auto own = static_cast<std::int64_t>(
      plan.stages[static_cast<std::size_t>(stage)].devices.size());
  PAC_CHECK(own >= 1, "empty stage group");
  return (downstream + own - 1) / own;
}

bool ParallelPlan::weighted() const {
  for (const auto& st : stages) {
    if (!st.device_weights.empty()) return true;
  }
  return false;
}

void ParallelPlan::validate(std::int64_t num_blocks, int world_size) const {
  PAC_CHECK(!stages.empty(), "plan has no stages");
  PAC_CHECK(num_micro_batches >= 1, "plan needs at least one micro-batch");
  std::int64_t cursor = 0;
  std::set<int> seen_ranks;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const StageAssignment& st = stages[s];
    PAC_CHECK(st.block_begin == cursor,
              "stage " << s << " begins at block " << st.block_begin
                       << ", expected " << cursor);
    PAC_CHECK(st.block_end > st.block_begin, "stage " << s << " is empty");
    cursor = st.block_end;
    PAC_CHECK(!st.devices.empty(), "stage " << s << " has no devices");
    PAC_CHECK(std::is_sorted(st.devices.begin(), st.devices.end()),
              "stage " << s << " devices not sorted");
    for (int r : st.devices) {
      PAC_CHECK(r >= 0 && r < world_size,
                "stage " << s << " rank " << r << " out of range");
      PAC_CHECK(seen_ranks.insert(r).second,
                "rank " << r << " appears in multiple stages");
    }
    if (!st.device_weights.empty()) {
      PAC_CHECK(st.device_weights.size() == st.devices.size(),
                "stage " << s << " weights size mismatch");
      for (double w : st.device_weights) {
        PAC_CHECK(w > 0.0, "stage " << s << " has non-positive weight");
      }
    }
  }
  PAC_CHECK(cursor == num_blocks, "stages cover blocks [0, " << cursor
                                                             << "), model has "
                                                             << num_blocks);
}

int ParallelPlan::stage_of_rank(int rank) const {
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const auto& devs = stages[s].devices;
    if (std::find(devs.begin(), devs.end(), rank) != devs.end()) {
      return static_cast<int>(s);
    }
  }
  return -1;
}

int ParallelPlan::index_in_group(int rank) const {
  const int s = stage_of_rank(rank);
  PAC_CHECK(s >= 0, "rank " << rank << " not in plan");
  const auto& devs = stages[static_cast<std::size_t>(s)].devices;
  return static_cast<int>(
      std::find(devs.begin(), devs.end(), rank) - devs.begin());
}

std::vector<int> ParallelPlan::participating_ranks() const {
  std::vector<int> out;
  for (const auto& st : stages) {
    out.insert(out.end(), st.devices.begin(), st.devices.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string ParallelPlan::to_string() const {
  std::ostringstream os;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    if (s > 0) os << " | ";
    os << "S" << s << "[blocks " << stages[s].block_begin << ".."
       << stages[s].block_end - 1 << "; devs";
    for (int r : stages[s].devices) os << " " << r;
    os << "]";
  }
  os << " micro=" << num_micro_batches;
  return os.str();
}

ParallelPlan ParallelPlan::pure_data_parallel(std::int64_t num_blocks,
                                              int world_size,
                                              std::int64_t num_micro) {
  ParallelPlan plan;
  StageAssignment st;
  st.block_begin = 0;
  st.block_end = num_blocks;
  for (int r = 0; r < world_size; ++r) st.devices.push_back(r);
  plan.stages.push_back(std::move(st));
  plan.num_micro_batches = num_micro;
  return plan;
}

ParallelPlan ParallelPlan::pure_pipeline(std::int64_t num_blocks,
                                         int world_size,
                                         std::int64_t num_micro) {
  PAC_CHECK(num_blocks >= world_size,
            "pure pipeline needs at least one block per device");
  ParallelPlan plan;
  const std::int64_t base = num_blocks / world_size;
  const std::int64_t extra = num_blocks % world_size;
  std::int64_t cursor = 0;
  for (int s = 0; s < world_size; ++s) {
    StageAssignment st;
    st.block_begin = cursor;
    cursor += base + (s < extra ? 1 : 0);
    st.block_end = cursor;
    st.devices = {s};
    plan.stages.push_back(std::move(st));
  }
  plan.num_micro_batches = num_micro;
  return plan;
}

ParallelPlan ParallelPlan::standalone(std::int64_t num_blocks,
                                      std::int64_t num_micro) {
  return pure_data_parallel(num_blocks, 1, num_micro);
}

}  // namespace pac::pipeline
