#include "cache/redistribution.hpp"

#include <algorithm>
#include <initializer_list>
#include <map>
#include <set>
#include <vector>

#include "pipeline/stage_worker.hpp"  // tag constants

namespace pac::cache {

namespace {

// A small fp32 control frame (count or header) as a kF32 QTensor.
quant::QTensor floats(std::initializer_list<float> values) {
  return quant::quantize_rows(std::data(values),
                              {static_cast<std::int64_t>(values.size())},
                              quant::Dtype::kF32);
}

}  // namespace

RedistStats redistribute_cache(
    dist::DeviceContext& ctx, ActivationCache& shard,
    const std::function<int(std::int64_t)>& target_of_sample,
    const std::vector<int>& group) {
  RedistStats stats;
  const int me = ctx.rank;
  const int tag_count = pipeline::tags::kRedistCacheBase;
  const int tag_header = pipeline::tags::kRedistCacheBase + 1;
  const int tag_payload = pipeline::tags::kRedistCacheBase + 2;
  const std::set<int> members(group.begin(), group.end());
  PAC_CHECK(members.count(me) == 1,
            "redistribute_cache group must contain the calling rank");

  // Partition held blocks by destination.
  std::map<int, std::vector<std::pair<std::int64_t, std::int64_t>>> outgoing;
  std::set<std::int64_t> shipped_samples;
  for (const auto& [sample, block] : shard.held_blocks()) {
    const int dst = target_of_sample(sample);
    PAC_CHECK(members.count(dst) == 1,
              "redistribution target " << dst << " is not in the group");
    if (dst == me) continue;
    outgoing[dst].emplace_back(sample, block);
    shipped_samples.insert(sample);
  }

  // Announce counts, then stream items.  Sends never block, so issuing all
  // sends before any recv is deadlock-free.  Every frame is a QTensor:
  // payloads ship in the shard's stored representation (losslessly — no
  // requantization on the move), and counts and headers as kF32 frames,
  // whose wire bytes equal a plain fp32 send.
  for (int peer : group) {
    if (peer == me) continue;
    const auto it = outgoing.find(peer);
    const std::size_t n = it == outgoing.end() ? 0 : it->second.size();
    ctx.comm.send_q(peer, tag_count, floats({static_cast<float>(n)}));
    if (it == outgoing.end()) continue;
    for (const auto& [sample, block] : it->second) {
      ctx.comm.send_q(peer, tag_header,
                      floats({static_cast<float>(sample),
                              static_cast<float>(block)}));
      quant::QTensor payload = shard.get_block_q(sample, block);
      stats.payload_bytes_sent += payload.byte_size();
      ++stats.items_sent;
      ctx.comm.send_q(peer, tag_payload, std::move(payload));
    }
  }

  // Receive from every peer.
  for (int peer : group) {
    if (peer == me) continue;
    const auto n = static_cast<std::int64_t>(
        quant::dequantize(ctx.comm.recv_q(peer, tag_count)).at({0}));
    for (std::int64_t i = 0; i < n; ++i) {
      const Tensor header =
          quant::dequantize(ctx.comm.recv_q(peer, tag_header));
      const auto sample = static_cast<std::int64_t>(header.at({0}));
      const auto block = static_cast<std::int64_t>(header.at({1}));
      shard.put_block_q(sample, block, ctx.comm.recv_q(peer, tag_payload));
      ++stats.items_received;
    }
  }

  // Drop everything we shipped away.
  for (std::int64_t sample : shipped_samples) {
    shard.drop_sample(sample);
  }
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
