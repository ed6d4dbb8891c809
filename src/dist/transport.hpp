// Message transport between edge devices — abstract contract plus the
// in-process reference backend.
//
// Cooperative message passing in the MPI style: a send deposits a message in
// the receiver's mailbox keyed by (source, tag); a recv blocks on a
// condition variable until a matching message arrives (CP.42: never wait
// without a predicate).  Per-link byte counters feed the communication
// model; `close()` wakes every blocked receiver with ChannelClosedError so
// one failing device cannot deadlock the cluster.
//
// Failure model (rank-scoped, identical across backends): `close_rank(r)`
// marks one device dead without touching the rest of the world.  Receivers
// blocked on the dead rank wake with PeerDeadError; messages the dead rank
// already delivered remain receivable (drain semantics); links between live
// ranks are unaffected.  `recv_for` adds a timeout so callers can detect
// silent stalls and presume a peer dead (Communicator's retry/backoff path).
//
// Fault injection: an optional FaultPlan makes the transport misbehave on
// purpose — seeded delays, legal reordering, transient send failures, and
// scheduled rank death — for the chaos tests (see dist/fault.hpp).  Fault
// decisions are pure hashes of (seed, link, tag, per-link sequence), so the
// same plan produces the same schedule on every backend.
//
// Backends:
//   * InProcTransport (this header) — shared-memory-in-one-process mailboxes;
//     the deterministic oracle every other backend must match.
//   * ShmTransport (shm_transport.hpp) — POSIX shared-memory rings between
//     processes on one host.
//   * TcpTransport (tcp_transport.hpp) — length-prefixed frames over TCP
//     sockets for cross-machine ranks.
//
// The optional LinkModel adds a real sleep proportional to message size,
// emulating the paper's 128 Mbps edge LAN for wall-clock demos; tests and
// trainers leave it off and use the analytic simulator for paper-scale
// timing instead.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "dist/fault.hpp"
#include "tensor/quant.hpp"
#include "tensor/tensor.hpp"

namespace pac::dist {

struct LinkModel {
  double bandwidth_bps = 128e6;  // paper testbed: 128 Mbps LAN
  double latency_s = 1e-3;
  bool simulate_delay = false;  // sleep sends to emulate the link in realtime

  double transfer_seconds(std::uint64_t bytes) const {
    return latency_s + static_cast<double>(bytes) * 8.0 / bandwidth_bps;
  }
};

struct Message {
  int source = -1;
  int tag = 0;
  Tensor payload;
  // Compressed payload (fp16/int8): set instead of `payload`, carried
  // verbatim through mailboxes and wire frames so a quantized tensor
  // round-trips bit-identically.  recv() dequantizes at the consumer.
  std::optional<quant::QTensor> q;

  std::uint64_t payload_bytes() const {
    if (q.has_value()) return q->byte_size();
    return payload.defined() ? payload.byte_size() : 0;
  }
};

struct LinkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

// Abstract transport contract.  All backends implement exactly these
// semantics; tests/transport_conformance_test.cpp holds them to it.
class Transport {
 public:
  Transport(int world_size, LinkModel link, FaultPlan faults);
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  int world_size() const { return world_size_; }
  const LinkModel& link() const { return link_; }

  virtual void send(int from, int to, int tag, Tensor payload) = 0;
  // Ships a compressed payload; the link is charged the compressed bytes.
  virtual void send_q(int from, int to, int tag, quant::QTensor payload) = 0;
  // Blocks until a message with (from, tag) arrives at `to`.  A compressed
  // message is dequantized here, at the consumption point.
  Tensor recv(int to, int from, int tag);
  // Bounded wait: nullopt on timeout (still throws on close / dead peer).
  std::optional<Tensor> recv_for(int to, int from, int tag,
                                 std::chrono::milliseconds timeout);
  // Compressed receive: returns the QTensor exactly as sent (a plain fp32
  // send arrives as a bit-exact kF32 repack).
  quant::QTensor recv_q(int to, int from, int tag);
  std::optional<quant::QTensor> recv_q_for(int to, int from, int tag,
                                           std::chrono::milliseconds timeout);

  // Wakes all blocked receivers with ChannelClosedError; subsequent sends
  // and recvs throw too.  Used on whole-cluster teardown.
  virtual void close() = 0;
  virtual bool closed() const = 0;

  // Marks one rank dead.  Receivers blocked on it wake with PeerDeadError;
  // already-delivered messages from it stay receivable until drained; all
  // other links keep working.  Idempotent.
  virtual void close_rank(int rank) = 0;
  virtual bool rank_dead(int rank) const = 0;

  // True while the link to `rank` is known-lost but still inside its
  // reconnect budget (TCP only; other backends never degrade).  The
  // Communicator freezes its death-presumption clock while this holds — a
  // slow reconnect must not be misread as a dead peer.
  virtual bool link_degraded(int rank) const {
    (void)rank;
    return false;
  }

  // True when a send can block or sleep before it returns: link sleeps,
  // fault-plan delays, shaping and transient retries, or wire
  // back-pressure.  The Communicator hands such sends to its sender thread
  // and delivers the rest inline on the calling rank thread.  Fixed for
  // the transport's lifetime.
  virtual bool send_may_wait() const { return true; }

  // Root-cause death bookkeeping.  Cascading failures mark several ranks
  // dead (a survivor that unwinds closes its own links); the *root* death is
  // the one recovery should absorb.  First report wins; -1 when none.
  // Reported by injected deaths, recv-timeout presumption, remote peer-dead
  // detection, and external process supervisors.
  virtual void report_root_death(int rank);
  virtual int first_dead_rank() const { return root_dead_.load(); }

  // Total traffic from `from` to `to` so far (send-side accounting).
  LinkStats stats(int from, int to) const;
  std::uint64_t total_bytes() const;

  // The transport's fault injector (chaos tests inspect op counters).
  FaultInjector& fault_injector() { return faults_; }

 protected:
  void check_rank(int rank, const char* what) const;
  // Records per-link stats and observability counters for a send.
  void record_send(int from, int to, std::uint64_t bytes);
  void record_recv(int from, int to, std::uint64_t bytes);
  // If the fault plan schedules `rank`'s death at this op, closes the rank
  // (via the backend's close_rank) and throws RankDeathError.
  void maybe_inject_death(int rank);
  // Runs the send-side fault pipeline shared by every backend: transient
  // failure, injected delay, modeled link sleep.  Caller has already done
  // closed/dead checks.  Throws TransientSendError as scheduled.
  void run_send_faults(int from, int to, int tag, std::uint64_t bytes);

  virtual std::optional<Message> recv_impl(
      int to, int from, int tag,
      const std::optional<std::chrono::milliseconds>& timeout) = 0;

  int world_size_;
  LinkModel link_;
  FaultInjector faults_;
  mutable std::mutex stats_mutex_;
  std::map<std::pair<int, int>, LinkStats> stats_;
  std::atomic<int> root_dead_{-1};
};

// The original single-process backend: every rank lives in one process and
// shares this object.  Deterministic oracle for the conformance suite.
class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(int world_size, LinkModel link = {},
                           FaultPlan faults = {});

  void send(int from, int to, int tag, Tensor payload) override;
  void send_q(int from, int to, int tag, quant::QTensor payload) override;
  void close() override;
  bool closed() const override;
  void close_rank(int rank) override;
  bool rank_dead(int rank) const override;
  // Only link sleeps and an active fault plan make an in-process send
  // wait; otherwise a send is one mailbox push under its mutex.
  bool send_may_wait() const override {
    return link_.simulate_delay || faults_.active();
  }

 private:
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable arrived;
    std::map<std::pair<int, int>, std::deque<Message>> queues;
    // Parked messages awaiting deferred (reordered) delivery.
    std::map<std::pair<int, int>, std::deque<Message>> deferred;
  };

  // Moves parked messages for `key` (or all keys) into the live queues.
  // Caller must hold box.mutex.
  static void flush_deferred(Mailbox& box,
                             const std::pair<int, int>* key_or_null);
  // Shared body of send/send_q: fault pipeline, stats, mailbox deposit.
  void send_message(int from, int to, int tag, Message msg,
                    std::uint64_t bytes);
  std::optional<Message> recv_impl(
      int to, int from, int tag,
      const std::optional<std::chrono::milliseconds>& timeout) override;

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::atomic<bool> closed_{false};
  std::vector<std::unique_ptr<std::atomic<bool>>> dead_;
};

}  // namespace pac::dist
