// What a wire adds to the Transport contract when ranks live in different
// processes; TcpTransport is the backend built on it.
//
// A RemoteEndpointBase is the Transport of exactly ONE rank.  Send
// admission, the closed/dead flags and the Mailbox (deposit with reorder
// parking, blocking and timed receive) are the Transport base's, shared
// with the in-process oracle; this class adds what a wire needs on top.
// Sends to other ranks are encoded and go out through the backend's wire
// (`wire_send`); receives block on this rank's Mailbox, which the
// backend's pump threads fill via `handle_frame`.  The fault pipeline runs
// sender-side for delays/transient failures/death and receiver-side for
// reorder decisions; because fault decisions are pure hashes of (seed,
// link, tag, per-link sequence) and each side observes the same sequence
// numbers, the schedule matches the in-process oracle exactly.
//
// Drain semantics across a real wire: InProcTransport can atomically decide
// "no more messages from rank r" the instant r is marked dead; a wire
// cannot — bytes may still be in flight.  So a blocked receiver is woken
// with PeerDeadError only once the backend also declares the link
// *drained* (its sockets quiesced after the death was observed).
// Messages that made it onto the wire before the death stay receivable,
// matching the oracle's drain guarantee.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "dist/transport.hpp"
#include "dist/wire.hpp"

namespace pac::dist {

class RemoteEndpointBase : public Transport {
 public:
  RemoteEndpointBase(int world_size, int rank, LinkModel link,
                     FaultPlan faults);

  std::optional<Message> recv_message(
      int to, int from, int tag,
      const std::optional<std::chrono::milliseconds>& timeout) override;

 protected:
  // --- implemented by the backend ---------------------------------------
  // Ships an encoded frame to `to`'s process, serializing writes per
  // destination (the main thread and the async sender may write the same
  // link concurrently).  Throws on wire failure.  The backend also
  // overrides on_close_rank / on_close to tell the other processes (best
  // effort) and arranges for a dead rank's link to drain.
  virtual void wire_send(int to, const std::vector<std::uint8_t>& frame) = 0;

  // --- called by backend pump threads ------------------------------------
  // Handles a decoded DATA or CLOSE frame; the backend intercepts every
  // other frame type before this, so anything else throws.
  void handle_frame(wire::Frame frame);
  // Marks `rank` dead without re-propagating (remote origin).
  void mark_dead_local(int rank);
  // Declares the inbound link from `rank` quiesced; blocked receivers on a
  // dead `rank` now wake with PeerDeadError.
  void set_drained(int rank);

  const int rank_;

 private:
  // A self-send deposits locally; anything else is encoded and shipped
  // with wire_send.
  void deliver(int to, Message msg) override;
  void wake_receivers() override { box_.wake(); }

  Mailbox box_;
  std::vector<std::atomic<bool>> drained_;
};

}  // namespace pac::dist
