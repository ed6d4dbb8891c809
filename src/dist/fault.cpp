#include "dist/fault.hpp"

#include <tuple>

#include "common/error.hpp"

namespace pac::dist {

FaultInjector::FaultInjector(FaultPlan plan, int world_size)
    : plan_(std::move(plan)),
      ops_by_rank_(static_cast<std::size_t>(world_size), 0) {
  PAC_CHECK(plan_.delay_probability >= 0.0 && plan_.delay_probability <= 1.0,
            "delay_probability out of [0, 1]");
  PAC_CHECK(plan_.reorder_probability >= 0.0 &&
                plan_.reorder_probability <= 1.0,
            "reorder_probability out of [0, 1]");
  PAC_CHECK(plan_.send_failure_probability >= 0.0 &&
                plan_.send_failure_probability <= 1.0,
            "send_failure_probability out of [0, 1]");
  PAC_CHECK(plan_.delay_max_ms >= plan_.delay_min_ms,
            "delay_max_ms < delay_min_ms");
  for (const auto& [rank, ops] : plan_.death_after_ops) {
    PAC_CHECK(rank >= 0 && rank < world_size,
              "death scheduled for rank " << rank << " outside world of "
                                          << world_size);
    (void)ops;
  }
  PAC_CHECK(plan_.throttle_factor >= 1.0, "throttle_factor must be >= 1");
  for (const auto& [rank, ops] : plan_.throttle_after_ops) {
    PAC_CHECK(rank >= 0 && rank < world_size,
              "throttle scheduled for rank " << rank << " outside world of "
                                             << world_size);
    (void)ops;
  }
  PAC_CHECK(plan_.shape_bandwidth_bps >= 0.0,
            "shape_bandwidth_bps must be >= 0");
  PAC_CHECK(plan_.shape_burst_bytes > 0, "shape_burst_bytes must be > 0");
  for (const auto& [link, every] : plan_.tcp_cut_every_frames) {
    PAC_CHECK(link.first >= 0 && link.first < world_size && link.second >= 0 &&
                  link.second < world_size,
              "tcp cut scheduled on link " << link.first << " -> "
                                           << link.second
                                           << " outside world of "
                                           << world_size);
    PAC_CHECK(every > 0, "tcp_cut_every_frames interval must be > 0");
  }
}

std::uint64_t FaultInjector::event_hash(int from, int to, int tag,
                                        std::uint64_t seq,
                                        std::uint64_t salt) const {
  // SplitMix64 over a packed event id: stable across platforms and thread
  // interleavings (seq is per-link, not global).
  std::uint64_t z = plan_.seed;
  z ^= salt * 0x9e3779b97f4a7c15ULL;
  z ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 42) ^
       (static_cast<std::uint64_t>(static_cast<std::uint32_t>(to)) << 21) ^
       static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
  z += seq * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double FaultInjector::uniform01(std::uint64_t h) const {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double FaultInjector::delay_ms(int from, int to, int tag) {
  if (plan_.delay_probability <= 0.0) return 0.0;
  std::lock_guard<std::mutex> guard(mutex_);
  const std::uint64_t seq = links_[{from, to, tag}].seq;
  const std::uint64_t h = event_hash(from, to, tag, seq, /*salt=*/1);
  if (uniform01(h) >= plan_.delay_probability) return 0.0;
  const double frac = uniform01(event_hash(from, to, tag, seq, /*salt=*/2));
  return plan_.delay_min_ms +
         frac * (plan_.delay_max_ms - plan_.delay_min_ms);
}

bool FaultInjector::defer(int from, int to, int tag) {
  if (plan_.reorder_probability <= 0.0) return false;
  std::lock_guard<std::mutex> guard(mutex_);
  const std::uint64_t seq = links_[{from, to, tag}].seq;
  return uniform01(event_hash(from, to, tag, seq, /*salt=*/3)) <
         plan_.reorder_probability;
}

bool FaultInjector::send_fails(int from, int to, int tag) {
  if (plan_.send_failure_probability <= 0.0) return false;
  std::lock_guard<std::mutex> guard(mutex_);
  LinkState& link = links_[{from, to, tag}];
  if (link.failed_attempts >= plan_.max_transient_failures) return false;
  const std::uint64_t h = event_hash(
      from, to, tag, link.seq,
      /*salt=*/4 + static_cast<std::uint64_t>(link.failed_attempts));
  if (uniform01(h) < plan_.send_failure_probability) {
    ++link.failed_attempts;
    return true;
  }
  return false;
}

void FaultInjector::message_delivered(int from, int to, int tag) {
  if (!active()) return;
  std::lock_guard<std::mutex> guard(mutex_);
  LinkState& link = links_[{from, to, tag}];
  ++link.seq;
  link.failed_attempts = 0;
}

bool FaultInjector::op_kills_rank(int rank) {
  if (plan_.death_after_ops.empty() && plan_.throttle_after_ops.empty()) {
    return false;
  }
  const auto death = plan_.death_after_ops.find(rank);
  // Throttled ranks share the op counter so their trigger points can be
  // placed with the same ops_of_rank() bookkeeping as death schedules.
  if (death == plan_.death_after_ops.end() &&
      plan_.throttle_after_ops.find(rank) == plan_.throttle_after_ops.end()) {
    return false;
  }
  std::lock_guard<std::mutex> guard(mutex_);
  std::uint64_t& ops = ops_by_rank_[static_cast<std::size_t>(rank)];
  ++ops;
  return death != plan_.death_after_ops.end() && ops >= death->second;
}

double FaultInjector::throttle_of(int rank) {
  const auto it = plan_.throttle_after_ops.find(rank);
  if (it == plan_.throttle_after_ops.end()) return 1.0;
  std::lock_guard<std::mutex> guard(mutex_);
  return ops_by_rank_[static_cast<std::size_t>(rank)] >= it->second
             ? plan_.throttle_factor
             : 1.0;
}

std::uint64_t FaultInjector::ops_of_rank(int rank) {
  std::lock_guard<std::mutex> guard(mutex_);
  return ops_by_rank_[static_cast<std::size_t>(rank)];
}

double FaultInjector::shape_delay_s(int from, std::uint64_t bytes) {
  if (plan_.shape_bandwidth_bps <= 0.0) return 0.0;
  std::lock_guard<std::mutex> guard(mutex_);
  const auto now = std::chrono::steady_clock::now();
  ShapeState& s = shape_[from];
  const auto burst = static_cast<double>(plan_.shape_burst_bytes);
  if (!s.primed) {
    // A fresh bucket starts full: the first burst rides the configured
    // burst allowance, then the refill rate takes over.
    s.primed = true;
    s.tokens = burst;
  } else {
    const double dt = std::chrono::duration<double>(now - s.last).count();
    s.tokens = std::min(burst, s.tokens + dt * plan_.shape_bandwidth_bps / 8.0);
  }
  s.last = now;
  const auto need = static_cast<double>(bytes);
  if (need <= s.tokens) {
    s.tokens -= need;
    return 0.0;
  }
  const double deficit = need - s.tokens;
  s.tokens = 0.0;
  return deficit * 8.0 / plan_.shape_bandwidth_bps;
}

bool FaultInjector::tcp_cut_due(int from, int to) {
  const auto it = plan_.tcp_cut_every_frames.find({from, to});
  if (it == plan_.tcp_cut_every_frames.end()) return false;
  std::lock_guard<std::mutex> guard(mutex_);
  const std::uint64_t frames = ++cut_frames_[{from, to}];
  return frames % it->second == 0;
}

}  // namespace pac::dist
