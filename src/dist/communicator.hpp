// Rank-scoped communication handle with group collectives and an async
// point-to-point engine.
//
// Collectives operate over an explicit, sorted group of ranks (PAC's hybrid
// parallelism synchronizes adapters *within a stage's device group*, not
// across the world).
//
// Ring order: the payload splits into g chunks of ceil(n/g) elements, and
// chunk c is summed as x_c + x_{c+1} + ... + x_{c+g-1} (member indices in
// group order, mod g), folded left to right.  AllReduce fixes that order,
// not the messages that carry it, and runs one of two schedules:
//   * ring — reduce-scatter then all-gather, 2(g-1) hops of n/g elements,
//     costing 2(g-1)(a + N*b/g) for N payload bytes;
//   * direct — every member sends its whole buffer to every peer in one
//     hop and folds each chunk locally in ring order, costing
//     a + (g-1)*N*b.
// IEEE addition is commutative, so both schedules produce the same bits on
// every rank.  Below g elements each element is its own chunk, so a
// one-element payload (the epoch loss) sums x_0 + x_1 + ... + x_{g-1}.
// `allreduce_prefers_direct` picks the cheaper schedule from the
// transport's LinkModel (a = latency_s, b = 8 / bandwidth_bps seconds per
// byte); every member of a group must share that LinkModel so all of them
// choose the same schedule.
//
// Async engine: when the transport's sends can wait
// (Transport::send_may_wait: link sleeps, an active fault plan, or a
// wire), `isend` enqueues the message on a background sender thread
// (started lazily, one per Communicator — modelling the device's single
// uplink) that absorbs link-delay sleeps and transient-failure retries off
// the caller's critical path.  When they cannot wait (a property fixed for
// the transport's lifetime), `isend` always delivers the message on the
// calling thread, which saves a thread wake-up per message; such a
// Communicator never queues an isend and never starts a sender thread, as
// in a fault-free in-process run.  Either way per-link message order is
// exactly the posting order — a strictly stronger guarantee than the
// transport's per-(source, tag) FIFO contract.  `irecv` returns a
// PendingRecv future; because the transport mailbox buffers arrivals, a
// posted irecv needs no background thread — `wait()` performs the policy
// recv (timeouts, PeerDeadError presumption) at the consumption point,
// which keeps failure unwinding at a well-defined place in the schedule.
//
// Failures of an async delivery, on the sender thread or inline
// (exhausted transient retries, PeerDeadError, an injected RankDeathError)
// are deferred: `isend` itself never throws them, and the first one is
// rethrown from the next isend/send/recv/flush_sends call on the main
// thread, and EdgeCluster::run additionally consults deferred_death_rank()
// so an injected death never goes unreported.
//
// Tag discipline: a collective call consumes its `tag` for every internal
// message; callers must not run two collectives with the same tag
// concurrently on overlapping groups.  The trainers carve disjoint tag
// ranges per purpose (see pipeline/tags.hpp).
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "dist/transport.hpp"

namespace pac::dist {

// Failure-detection / retry knobs for a rank's communication handle.
struct CommPolicy {
  // recv: 0 disables timeouts (block until message, close, or peer death).
  // With a timeout, each recv waits recv_timeout_ms, then retries with
  // exponential backoff (doubling per attempt) up to max_recv_retries
  // waits before presuming the peer dead (PeerDeadError).
  double recv_timeout_ms = 0.0;
  int max_recv_retries = 4;
  // send: transient failures (TransientSendError) are retried with linear
  // backoff up to max_send_retries attempts, then rethrown.
  int max_send_retries = 8;
  double send_backoff_ms = 0.05;
};

// True when the direct schedule's modeled cost is no higher than the
// ring's for an N-byte payload over `group_size` members: the comparison
// in costmodel/device_spec.hpp that the planner and the simulator use, i.e.
// (g-1)(g-2)*N*b <= g(2g-3)*a.  Always true for g = 2; at the default
// 128 Mbps / 1 ms link, g = 4 goes direct up to about 53 KB.
bool allreduce_prefers_direct(const LinkModel& link, int group_size,
                              std::uint64_t bytes);

// The jittered backoff multiplier in [0.5, 1.5): a SplitMix64-style hash
// of (seed, rank, attempt).  Exposed for tests; returns 1.0 when seed = 0.
double backoff_jitter(std::uint64_t seed, int rank, int attempt);

class Communicator;

// Handle for a posted receive.  `wait()` blocks for the message (applying
// the communicator's recv policy) and is idempotent; transport errors
// (ChannelClosedError, PeerDeadError) surface from wait(), never from the
// post.  Movable, single-consumer.
class PendingRecv {
 public:
  PendingRecv() = default;

  bool valid() const { return comm_ != nullptr; }
  int source() const { return from_; }
  int tag() const { return tag_; }

  // Blocks until the message arrives (or a failure unwinds the link).
  Tensor wait();

 private:
  friend class Communicator;
  PendingRecv(Communicator* comm, int from, int tag)
      : comm_(comm), from_(from), tag_(tag) {}

  Communicator* comm_ = nullptr;
  int from_ = -1;
  int tag_ = 0;
  bool done_ = false;
  Tensor value_;
};

class Communicator {
 public:
  Communicator(Transport& transport, int rank)
      : transport_(&transport), rank_(rank) {}
  ~Communicator();

  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  int rank() const { return rank_; }
  int world_size() const { return transport_->world_size(); }

  void set_policy(const CommPolicy& policy) { policy_ = policy; }
  const CommPolicy& policy() const { return policy_; }

  // Retries transient link failures with backoff before giving up.  Waits
  // for queued isends on the same (to, tag) key first so a blocking send
  // can never overtake the async queue on its own link.
  void send(int to, int tag, Tensor payload);
  // Blocks for a matching message; with a recv timeout configured, retries
  // with backoff and presumes the peer dead once the budget is exhausted.
  Tensor recv(int from, int tag);

  // Compressed point-to-point (cache redistribution, prefetch): identical
  // retry/backoff/FIFO semantics, but the payload ships and is charged at
  // its compressed size.  recv_q of a plain fp32 send returns a bit-exact
  // kF32 repack; recv of a compressed send dequantizes.
  void send_q(int to, int tag, quant::QTensor payload);
  quant::QTensor recv_q(int from, int tag);

  // ---- async engine ----
  // Enqueues the message on the background sender thread and returns
  // immediately — or, when the transport's sends cannot wait, always
  // delivers it before returning.  Messages to the same destination are
  // delivered in posting order; a failed delivery is deferred, not thrown,
  // and rethrown here (and from every other comm entry point) on the next
  // call.
  void isend(int to, int tag, Tensor payload);
  // Posts a receive for (from, tag); the returned future's wait() performs
  // the actual (policy) recv.
  PendingRecv irecv(int from, int tag);
  // Blocks until every queued isend has been handed to the transport;
  // rethrows the first deferred sender failure.
  void flush_sends();
  // Queued + in-flight isends not yet delivered.
  std::size_t pending_sends() const;
  // Drops queued (not yet in-flight) isends without delivering them.  Used
  // by recovery paths that abandon an in-flight step.
  void abandon_sends();
  // Rank the async sender saw die via an injected RankDeathError, if any.
  // EdgeCluster::run uses this to report deaths the main thread unwound
  // past (e.g. it hit a PeerDeadError first).
  std::optional<int> deferred_death_rank() const;

  // Compute dilation currently injected for this rank by the transport's
  // fault plan (1.0 = none).  The pipeline's compute loops consult this to
  // apply a scheduled slowdown (see FaultPlan::throttle_after_ops).
  double compute_throttle() const;

  // All collectives require `group` sorted, unique, containing rank().
  // Returns the root's tensor on every rank (root passes its payload).
  Tensor broadcast(Tensor payload, int root, const std::vector<int>& group,
                   int tag);
  // In-place sum across the group, in ring order.
  void allreduce_sum(Tensor& t, const std::vector<int>& group, int tag);

 private:
  struct QueuedSend {
    int to;
    Message msg;
  };

  int group_index(const std::vector<int>& group) const;
  void allreduce_ring(Tensor& t, const std::vector<int>& group, int tag);
  void allreduce_direct(Tensor& t, const std::vector<int>& group, int tag);

  // The blocking send behind send and send_q: waits out queued isends on
  // (to, msg.tag), then sends with retry.
  void send_message(int to, const Message& msg);
  // The one retry/backoff send loop (blocking sends and async deliveries).
  void send_with_retry(int to, const Message& msg);
  // The one policy receive loop behind recv, recv_q and PendingRecv.
  Message recv_message(int from, int tag);
  // One async delivery (sender thread or isend's inline path): returns the
  // failure instead of throwing it, and sets `death` to the rank of an
  // injected RankDeathError.
  std::exception_ptr deliver(int to, const Message& msg, int& death);
  // Records a failed async delivery for the next comm call to rethrow
  // (first failure wins) and drops the queue behind it.
  void defer_failure_locked(std::exception_ptr error, int death);
  void sender_main();
  void rethrow_deferred_error() const;
  bool has_pending_locked(int to, int tag) const;

  Transport* transport_;
  int rank_;
  CommPolicy policy_;

  // ---- async sender state (guarded by async_mutex_) ----
  mutable std::mutex async_mutex_;
  std::condition_variable async_cv_;    // wakes the sender thread
  std::condition_variable drained_cv_;  // wakes flushers / blocked senders
  std::deque<QueuedSend> queue_;
  std::optional<std::pair<int, int>> inflight_key_;  // (to, tag) being sent
  std::exception_ptr deferred_error_;
  int death_rank_ = -1;
  bool sender_running_ = false;
  bool stop_ = false;
  std::thread sender_;
};

}  // namespace pac::dist
