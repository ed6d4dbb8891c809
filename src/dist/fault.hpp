// Seeded, reproducible fault injection for every transport backend.
//
// A FaultPlan describes *what* can go wrong on the simulated edge LAN:
// per-message delivery delays, deferred delivery (legal reordering — only
// messages with different (source, tag) keys may overtake each other, so
// the per-queue FIFO contract is preserved), transient send failures that
// succeed on retry, and rank death after a scheduled number of transport
// operations.  A FaultInjector turns the plan into per-event decisions.
//
// Determinism: every decision is a pure hash of (seed, link, tag, per-link
// sequence number), and each rank's death trigger counts only that rank's
// own transport operations — so the same plan produces the same faults
// regardless of thread interleaving.  The chaos tests rely on this.
//
// An injected death is announced: the dying endpoint closes its rank and
// tells its peers.  A real process death (SIGKILL) announces nothing; TCP
// detects it by itself (see the refusal rule in tcp_transport.hpp), and
// the forked-process chaos tests exercise that path.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

namespace pac::dist {

struct FaultPlan {
  std::uint64_t seed = 0x5eedF417;

  // Delivery delay: with `delay_probability`, a send sleeps for a uniform
  // duration in [delay_min_ms, delay_max_ms] before depositing.
  double delay_probability = 0.0;
  double delay_min_ms = 0.0;
  double delay_max_ms = 0.0;

  // Deferred delivery: with `reorder_probability`, a message is parked and
  // delivered after a later message to the same mailbox (cross-key
  // overtaking only; same-key sends and receivers flush parked messages
  // first, keeping per-(source, tag) FIFO intact).
  double reorder_probability = 0.0;

  // Transient send failures: with `send_failure_probability`, a send
  // throws TransientSendError up to `max_transient_failures` times before
  // the retried send goes through.
  double send_failure_probability = 0.0;
  int max_transient_failures = 2;

  // Rank death: rank r dies (RankDeathError) when its own transport
  // operation count reaches the mapped value.
  std::map<int, std::uint64_t> death_after_ops;

  // Rank slowdown (straggler injection): rank r's compute is dilated by
  // `throttle_factor` once its own transport operation count reaches the
  // mapped value — the degradation analogue of `death_after_ops`.  The
  // compute loops consult throttle_of() and sleep proportionally, so the
  // throughput ratio seen by the health monitor is ~1/throttle_factor
  // regardless of absolute machine speed.
  std::map<int, std::uint64_t> throttle_after_ops;
  double throttle_factor = 4.0;

  // WAN bandwidth shaping: a per-sender token bucket caps the modeled send
  // rate; a send that outruns the bucket sleeps off its deficit.  Timing
  // only — values and per-link ordering are untouched, so shaped runs stay
  // bit-identical to unshaped ones.
  double shape_bandwidth_bps = 0.0;  // 0 = off
  std::uint64_t shape_burst_bytes = 256 * 1024;

  // Forced link cut: the TCP socket of directed link (from, to) is dropped
  // every N wire frames, exercising the reconnect/resync path.  Interpreted
  // only by TcpTransport; the in-process oracle ignores it, so cut runs can
  // be compared bit-for-bit against it.
  std::map<std::pair<int, int>, std::uint64_t> tcp_cut_every_frames;

  bool any_faults() const {
    return delay_probability > 0.0 || reorder_probability > 0.0 ||
           send_failure_probability > 0.0 || !death_after_ops.empty() ||
           !throttle_after_ops.empty() || shape_bandwidth_bps > 0.0 ||
           !tcp_cut_every_frames.empty();
  }
};

// Per-transport runtime state for a FaultPlan.  Thread-safe; one instance
// lives inside each Transport.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan, int world_size);

  const FaultPlan& plan() const { return plan_; }
  bool active() const { return plan_.any_faults(); }

  // Decisions for the next message on link (from -> to, tag).  Each send
  // consumes one sequence number per link+tag; failed (transient) attempts
  // reuse the same number so the retried message sees a fresh decision
  // stream position only once it is actually delivered.

  // Milliseconds of injected delay for this message (0 = none).
  double delay_ms(int from, int to, int tag);
  // Whether to defer (reorder) delivery of this message.
  bool defer(int from, int to, int tag);
  // Whether this send attempt fails transiently.  Consecutive failures of
  // the same logical message are capped at plan.max_transient_failures.
  bool send_fails(int from, int to, int tag);
  // Marks the current logical message on the link as delivered (resets the
  // transient-failure attempt counter and advances the sequence).
  void message_delivered(int from, int to, int tag);

  // Counts one transport operation by `rank` (when the plan watches this
  // rank for death or throttle); returns true when the plan schedules this
  // rank's death at (or before) the new count.
  bool op_kills_rank(int rank);

  // Compute dilation factor currently in effect for `rank`: 1.0 until the
  // rank's scheduled throttle trigger fires, plan.throttle_factor after.
  double throttle_of(int rank);

  // Operations counted for `rank` so far (chaos tests use this to place
  // death and throttle schedules inside a specific training phase).
  std::uint64_t ops_of_rank(int rank);

  // Seconds the sender must sleep to fit `bytes` under the token-bucket
  // bandwidth cap (0 when shaping is off or the bucket has room).
  double shape_delay_s(int from, std::uint64_t bytes);

  // True when the wire frame about to go out on TCP link (from -> to) hits
  // a scheduled cut (the transport drops its socket first).  Every call
  // counts one frame.
  bool tcp_cut_due(int from, int to);

 private:
  struct LinkState {
    std::uint64_t seq = 0;       // delivered messages on this link+tag
    int failed_attempts = 0;     // transient failures of the current message
  };

  struct ShapeState {
    bool primed = false;
    double tokens = 0.0;
    std::chrono::steady_clock::time_point last{};
  };

  std::uint64_t event_hash(int from, int to, int tag, std::uint64_t seq,
                           std::uint64_t salt) const;
  double uniform01(std::uint64_t h) const;

  FaultPlan plan_;
  std::mutex mutex_;
  std::map<std::tuple<int, int, int>, LinkState> links_;
  std::vector<std::uint64_t> ops_by_rank_;
  std::map<int, ShapeState> shape_;  // token bucket per sending rank
  std::map<std::pair<int, int>, std::uint64_t> cut_frames_;
};

}  // namespace pac::dist
