// Cache redistribution between fine-tuning phases (paper §5.2).
//
// After epoch 1, each device's cache shard holds only the (sample, block)
// pairs its pipeline stage produced for the micro-batches it owned.  Phase
// 2 trains data-parallel, so every device needs *complete* entries for the
// samples assigned to it.  `redistribute_cache` performs the all-to-all:
// every rank ships its held blocks to each sample's target device and
// drops what it shipped.  The paper measures this at ~8 % of a 3-epoch
// BART-Large/MRPC run; the traffic counters here and the event simulator
// reproduce that accounting.
//
// Schedule: g-1 pairwise rounds over the g members of `group`.  In round
// r, member i ships to member (i+r) mod g, then receives from member
// (i-r) mod g.  Sends never wait for a receive, so no order of arrival
// deadlocks, and a member starts round r+1 only once it has received all
// of round r.
//
// Frames: per round and link, one kF32 id frame listing the shipped
// (sample, block) pairs (empty when nothing ships; its length is the
// count), then one payload frame per block in the shard's stored
// representation, in id-frame order.  Ids ride as fp32, exact below 2^24,
// so a larger sample id throws.
//
// Memory: every block leaves its shard by move (ActivationCache::
// take_sample).  A RAM shard refunds a block's bytes (kCache) as it ships,
// so a rank holds no copy of what it sends; a spilled sample is read from
// the log once.  Shipped entries are dropped after the last round.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "cache/activation_cache.hpp"
#include "dist/cluster.hpp"

namespace pac::cache {

struct RedistStats {
  std::uint64_t items_sent = 0;
  std::uint64_t payload_bytes_sent = 0;
  std::uint64_t items_received = 0;
};

// Must be called by every rank of `group` (inside EdgeCluster::run).
// target_of_sample maps a dataset sample id to the rank (a member of
// `group`) that will train on it in phase 2.  `group` must be sorted,
// unique, and contain ctx.rank; after a device death the survivors pass
// cluster.alive_ranks() so the all-to-all skips the dead rank.
RedistStats redistribute_cache(
    dist::DeviceContext& ctx, ActivationCache& shard,
    const std::function<int(std::int64_t)>& target_of_sample,
    const std::vector<int>& group);

// Standard phase-2 sharding: samples round-robin over an explicit
// (sorted) rank list — the alive ranks, so after a device death the
// survivors.
inline std::function<int(std::int64_t)> modulo_sharding_over(
    std::vector<int> ranks) {
  return [ranks = std::move(ranks)](std::int64_t sample_id) {
    return ranks[static_cast<std::size_t>(
        sample_id % static_cast<std::int64_t>(ranks.size()))];
  };
}

// Throughput-weighted apportionment for the elastic re-shard: splits
// sample ids [0, num_samples) into one contiguous range per weight entry,
// sized by largest-remainder so counts sum exactly to num_samples (every
// sample lands exactly once — the invariant the property tests assert).
// `max_samples`, when given, caps each entry's count (a per-device memory
// budget expressed in samples); overflow moves to the highest-weight
// entries with spare capacity.  Requires positive weights, and caps that
// can hold num_samples in total.
std::vector<std::pair<std::int64_t, std::int64_t>> weighted_sample_ranges(
    const std::vector<double>& weights, std::int64_t num_samples,
    const std::vector<std::int64_t>* max_samples = nullptr);

// The target_of_sample function for redistribute_cache built on the
// ranges above: ranks[i] trains the i-th contiguous range.  The elastic
// re-shard passes the survivors with their observed speed scales so a
// straggler keeps proportionally less of the cache.
std::function<int(std::int64_t)> weighted_sharding_over(
    std::vector<int> ranks, const std::vector<double>& weights,
    std::int64_t num_samples,
    const std::vector<std::int64_t>* max_samples = nullptr);

}  // namespace pac::cache
