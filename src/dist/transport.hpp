// Message transport between edge devices — abstract contract, the mailbox
// every backend shares, and the in-process reference backend.
//
// Cooperative message passing in the MPI style: a send deposits a message in
// the receiver's mailbox keyed by (source, tag); a recv blocks on a
// condition variable until a matching message arrives (CP.42: never wait
// without a predicate).  Per-link byte counters feed the communication
// model; `close()` wakes every blocked receiver with ChannelClosedError so
// one failing device cannot deadlock the cluster.
//
// Shared by both backends, so the oracle and the backend it checks
// cannot drift apart: the Mailbox (per-(source, tag) queues, reorder
// parking, blocking and timed receive with drain semantics) and, in the
// Transport base, send admission, the closed and per-rank dead flags, and
// close / close_rank.  A backend only delivers an admitted message (a
// mailbox deposit, or an encoded frame on its wire) and picks the mailbox
// a receive waits on.
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
//   * TcpTransport (tcp_transport.hpp) — length-prefixed frames over TCP
//     sockets for ranks in other processes or on other machines.
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

// Converts a received message to the caller's representation.  A
// compressed payload is dequantized only at this fp32 consumption point;
// `message_to_q` hands a compressed payload back untouched and repacks a
// plain fp32 one as a bit-exact kF32 QTensor.
Tensor message_to_tensor(Message&& msg);
quant::QTensor message_to_q(Message&& msg);

// One rank's inbox, shared by every backend: per-(source, tag) FIFO queues,
// the FaultPlan's reorder parking, and the blocking or timed receive with
// drain semantics.  The in-process oracle keeps one per rank; a
// TcpTransport keeps one for its own rank, filled by its receive threads.
class Mailbox {
 public:
  explicit Mailbox(int rank) : rank_(rank) {}

  // Queues `msg` under (msg.source, msg.tag) and advances the link's fault
  // sequence.  When the plan defers it, the message is parked until a later
  // deposit (or a matching receiver) flushes it: a legal reorder, because
  // only messages on other keys can overtake it.
  void deposit(Message msg, FaultInjector& faults);
  // Waits for the next (from, tag) message, forever or up to `timeout`
  // (nullopt once it expires).  Throws ChannelClosedError once `closed`,
  // and PeerDeadError once the peer is gone with nothing left to drain:
  // gone means `peer_dead`, and also `*peer_drained` when the backend
  // passes one (a wire may still carry the dead peer's last messages).
  std::optional<Message> receive(
      int from, int tag,
      const std::optional<std::chrono::milliseconds>& timeout,
      const std::atomic<bool>& closed, const std::atomic<bool>& peer_dead,
      const std::atomic<bool>* peer_drained);
  // Wakes every blocked receiver so it re-evaluates its predicate.
  void wake();

 private:
  using Key = std::pair<int, int>;  // (source, tag)

  // Moves parked messages for `key` (or all keys) into the live queues.
  // Caller holds mutex_.
  void flush_deferred(const Key* key_or_null);

  const int rank_;
  std::mutex mutex_;
  std::condition_variable arrived_;
  std::map<Key, std::deque<Message>> queues_;
  std::map<Key, std::deque<Message>> deferred_;
};

// Abstract transport contract.  All backends implement exactly these
// semantics; tests/transport_conformance_test.cpp holds them to it.  The
// base owns everything the backends share: send admission, the closed and
// per-rank dead flags, and close / close_rank.  A backend supplies the
// delivery of an admitted message and the receive from its mailbox.
class Transport {
 public:
  Transport(int world_size, LinkModel link, FaultPlan faults);
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  int world_size() const { return world_size_; }
  const LinkModel& link() const { return link_; }

  void send(int from, int to, int tag, Tensor payload);
  // Ships a compressed payload; the link is charged the compressed bytes.
  void send_q(int from, int to, int tag, quant::QTensor payload);
  // Sends `msg` from msg.source to `to`.  Admission, shared by every
  // backend: closed check, injected death, dead-source and
  // dead-destination checks, the send-fault pipeline and the link stats;
  // then the backend delivers.
  void send_message(int to, Message msg);

  // Blocks until a message with (from, tag) arrives at `to` — or, with a
  // timeout, returns nullopt once it expires — and returns it as stored.
  // Throws ChannelClosedError on close and PeerDeadError once a dead
  // peer's delivered messages are drained.
  virtual std::optional<Message> recv_message(
      int to, int from, int tag,
      const std::optional<std::chrono::milliseconds>& timeout) = 0;
  // recv_message, dequantized to fp32.
  Tensor recv(int to, int from, int tag);
  std::optional<Tensor> recv_for(int to, int from, int tag,
                                 std::chrono::milliseconds timeout);
  // Compressed receive: returns the QTensor exactly as sent (a plain fp32
  // send arrives as a bit-exact kF32 repack).
  quant::QTensor recv_q(int to, int from, int tag);

  // Wakes all blocked receivers with ChannelClosedError; subsequent sends
  // and recvs throw too.  Used on whole-cluster teardown.
  void close();
  bool closed() const { return closed_.load(); }

  // Marks one rank dead.  Receivers blocked on it wake with PeerDeadError;
  // already-delivered messages from it stay receivable until drained; all
  // other links keep working.  Idempotent.
  void close_rank(int rank);
  bool rank_dead(int rank) const;

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
  // Reported by injected deaths, recv-timeout presumption and the wire's
  // own peer-death detection (TCP shares it with the other endpoints).
  virtual void report_root_death(int rank);
  int first_dead_rank() const { return root_dead_.load(); }

  // Total traffic from `from` to `to` so far (send-side accounting).
  LinkStats stats(int from, int to) const;
  std::uint64_t total_bytes() const;

  // The transport's fault injector (chaos tests inspect op counters).
  FaultInjector& fault_injector() { return faults_; }

 protected:
  // --- implemented by the backend ---------------------------------------
  // Delivers an admitted message to `to`.
  virtual void deliver(int to, Message msg) = 0;
  // Wakes every receiver blocked in this object's mailboxes.
  virtual void wake_receivers() = 0;
  // Propagation hooks for backends whose ranks live in other processes;
  // each runs once, on the first close / close_rank, before receivers wake.
  virtual void on_close() {}
  virtual void on_close_rank(int rank) { (void)rank; }

  void check_rank(int rank, const char* what) const;
  // The receive shared by every backend: injected death, the mailbox wait
  // (a dead `from` counts as gone once `*peer_drained` also holds, when
  // given), and the receive counters.
  std::optional<Message> receive(
      Mailbox& box, int to, int from, int tag,
      const std::optional<std::chrono::milliseconds>& timeout,
      const std::atomic<bool>* peer_drained);

  int world_size_;
  LinkModel link_;
  FaultInjector faults_;
  std::atomic<bool> closed_{false};
  std::vector<std::atomic<bool>> dead_;
  std::atomic<int> root_dead_{-1};

 private:
  // Records per-link stats and observability counters for a send.
  void record_send(int from, int to, std::uint64_t bytes);
  // If the fault plan schedules `rank`'s death at this op, closes the rank
  // and throws RankDeathError.
  void maybe_inject_death(int rank);
  // Runs the send-side fault pipeline: transient failure, injected delay,
  // WAN shaping, modeled link sleep.  Throws TransientSendError as
  // scheduled.
  void run_send_faults(int from, int to, int tag, std::uint64_t bytes);

  mutable std::mutex stats_mutex_;
  std::map<std::pair<int, int>, LinkStats> stats_;
};

// The original single-process backend: every rank lives in one process and
// shares this object.  Deterministic oracle for the conformance suite.
class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(int world_size, LinkModel link = {},
                           FaultPlan faults = {});

  std::optional<Message> recv_message(
      int to, int from, int tag,
      const std::optional<std::chrono::milliseconds>& timeout) override;
  // Only link sleeps and an active fault plan make an in-process send
  // wait; otherwise a send is one mailbox push under its mutex.
  bool send_may_wait() const override {
    return link_.simulate_delay || faults_.active();
  }

 private:
  void deliver(int to, Message msg) override;
  void wake_receivers() override;

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
};

}  // namespace pac::dist
