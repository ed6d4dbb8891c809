#include "cache/redistribution.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "pipeline/stage_worker.hpp"  // tag constants

namespace pac::cache {

namespace {

// Sample ids and block indices ride the id frame as fp32, which holds
// every integer below 2^24 exactly.
constexpr std::int64_t kExactIds = std::int64_t{1} << 24;

}  // namespace

RedistStats redistribute_cache(
    dist::DeviceContext& ctx, ActivationCache& shard,
    const std::function<int(std::int64_t)>& target_of_sample,
    const std::vector<int>& group) {
  RedistStats stats;
  const int tag_ids = pipeline::tags::kRedistCacheBase;
  const int tag_payload = pipeline::tags::kRedistCacheBase + 1;
  const auto me = std::find(group.begin(), group.end(), ctx.rank);
  PAC_CHECK(me != group.end(),
            "redistribute_cache group must contain the calling rank");
  const std::size_t g = group.size();
  const auto i = static_cast<std::size_t>(me - group.begin());

  // Partition held blocks by destination, keeping held_blocks' order
  // (ascending sample, then block), so a sample's blocks are adjacent.
  std::map<int, std::vector<std::pair<std::int64_t, std::int64_t>>> outgoing;
  for (const auto& [sample, block] : shard.held_blocks()) {
    const int dst = target_of_sample(sample);
    PAC_CHECK(std::find(group.begin(), group.end(), dst) != group.end(),
              "redistribution target " << dst << " is not in the group");
    if (dst == ctx.rank) continue;
    PAC_CHECK(sample >= 0 && sample < kExactIds,
              "sample id " << sample << " does not fit the fp32 id frame");
    outgoing[dst].emplace_back(sample, block);
  }

  // Round r ships to the member r places ahead, then receives from the one
  // r places behind (schedule and frames: see the header).
  std::vector<std::int64_t> shipped;
  for (std::size_t r = 1; r < g; ++r) {
    const int to = group[(i + r) % g];
    const int from = group[(i + g - r) % g];
    const auto& items = outgoing[to];
    std::vector<float> ids;
    ids.reserve(2 * items.size());
    for (const auto& [sample, block] : items) {
      ids.push_back(static_cast<float>(sample));
      ids.push_back(static_cast<float>(block));
    }
    ctx.comm.send_q(to, tag_ids,
                    quant::quantize_rows(
                        ids.data(), {static_cast<std::int64_t>(ids.size())},
                        quant::Dtype::kF32));
    std::vector<std::optional<quant::QTensor>> blocks;
    for (const auto& [sample, block] : items) {
      if (shipped.empty() || shipped.back() != sample) {
        blocks = shard.take_sample(sample);
        shipped.push_back(sample);
      }
      auto& payload = blocks.at(static_cast<std::size_t>(block));
      PAC_CHECK(payload.has_value(), "block " << block << " of sample "
                                              << sample << " left the shard");
      stats.payload_bytes_sent += payload->byte_size();
      ++stats.items_sent;
      ctx.comm.send_q(to, tag_payload, std::move(*payload));
    }

    const quant::QTensor frame = ctx.comm.recv_q(from, tag_ids);
    std::vector<float> in(static_cast<std::size_t>(frame.numel()));
    quant::dequantize_into(frame, in.data());
    PAC_CHECK(in.size() % 2 == 0, "odd-length redistribution id frame");
    for (std::size_t k = 0; k < in.size(); k += 2) {
      shard.put_block_q(static_cast<std::int64_t>(in[k]),
                        static_cast<std::int64_t>(in[k + 1]),
                        ctx.comm.recv_q(from, tag_payload));
      ++stats.items_received;
    }
  }

  // Drop the shipped entries (a spilled one leaves its tombstone now).
  for (std::int64_t sample : shipped) shard.drop_sample(sample);
  return stats;
}

std::vector<std::pair<std::int64_t, std::int64_t>> weighted_sample_ranges(
    const std::vector<double>& weights, std::int64_t num_samples,
    const std::vector<std::int64_t>* max_samples) {
  const std::size_t n = weights.size();
  PAC_CHECK(n > 0, "weighted sharding needs at least one device");
  PAC_CHECK(num_samples >= 0, "negative sample count");
  double weight_sum = 0.0;
  for (double w : weights) {
    PAC_CHECK(w > 0.0, "weighted sharding needs positive weights");
    weight_sum += w;
  }
  auto cap = [&](std::size_t i) {
    if (max_samples == nullptr) return num_samples;
    PAC_CHECK(max_samples->size() == n, "need one sample cap per device");
    PAC_CHECK((*max_samples)[i] >= 0, "negative sample cap");
    return std::min((*max_samples)[i], num_samples);
  };

  // Largest-remainder apportionment of the exact quotas.
  std::vector<std::int64_t> counts(n, 0);
  std::vector<std::pair<double, std::size_t>> remainders;  // (-frac, index)
  std::int64_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double quota =
        static_cast<double>(num_samples) * weights[i] / weight_sum;
    counts[i] = std::min(static_cast<std::int64_t>(quota), cap(i));
    assigned += counts[i];
    remainders.emplace_back(-(quota - static_cast<double>(counts[i])), i);
  }
  // Leftovers go to the largest fractional parts first (index breaks ties
  // so the split is deterministic), skipping devices at their cap; any
  // residue after a full sweep means the caps cannot hold the dataset.
  std::sort(remainders.begin(), remainders.end());
  while (assigned < num_samples) {
    const std::int64_t before = assigned;
    for (const auto& [neg_frac, i] : remainders) {
      if (assigned == num_samples) break;
      if (counts[i] >= cap(i)) continue;
      ++counts[i];
      ++assigned;
    }
    PAC_CHECK(assigned > before,
              "per-device sample caps cannot hold " << num_samples
                                                    << " samples");
  }

  std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
  std::int64_t begin = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ranges.emplace_back(begin, begin + counts[i]);
    begin += counts[i];
  }
  return ranges;
}

std::function<int(std::int64_t)> weighted_sharding_over(
    std::vector<int> ranks, const std::vector<double>& weights,
    std::int64_t num_samples, const std::vector<std::int64_t>* max_samples) {
  PAC_CHECK(ranks.size() == weights.size(),
            "weighted sharding needs one weight per rank");
  const auto ranges = weighted_sample_ranges(weights, num_samples,
                                             max_samples);
  // Range ends are the sorted cut points; upper_bound finds the owner.
  std::vector<std::int64_t> ends;
  for (const auto& [begin, end] : ranges) ends.push_back(end);
  return [ranks = std::move(ranks), ends = std::move(ends),
          num_samples](std::int64_t sample_id) {
    PAC_CHECK(sample_id >= 0 && sample_id < num_samples,
              "sample " << sample_id << " outside the sharded range");
    const auto it = std::upper_bound(ends.begin(), ends.end(), sample_id);
    PAC_CHECK(it != ends.end(), "sample " << sample_id << " unassigned");
    return ranks[static_cast<std::size_t>(it - ends.begin())];
  };
}

}  // namespace pac::cache
