// TCP socket transport backend: ranks on (potentially) different machines
// exchange length-prefixed wire frames over stream sockets.
//
// A TcpTransport is the Transport of exactly ONE rank.  Send admission, the
// closed/dead flags and the Mailbox (deposit with reorder parking, blocking
// and timed receive) are the Transport base's, shared with the in-process
// oracle.  Sends to other ranks are encoded and shipped over the link's
// socket; receives block on this rank's Mailbox, which the rx threads fill.
// The fault pipeline runs sender-side for delays/transient failures/death
// and receiver-side for reorder decisions; because fault decisions are pure
// hashes of (seed, link, tag, per-link sequence) and each side observes the
// same sequence numbers, the schedule matches the in-process oracle exactly.
//
// Drain semantics across a real wire: InProcTransport can atomically decide
// "no more messages from rank r" the instant r is marked dead; a wire
// cannot — bytes may still be in flight.  So a blocked receiver is woken
// with PeerDeadError only once the link from r is also *drained* (its
// sockets quiesced after the death was observed).  Messages that made it
// onto the wire before the death stay receivable, matching the oracle's
// drain guarantee.
//
// Connection model: every endpoint owns a listening socket; links are
// established lazily by the sender and identified by a HELLO frame carrying
// the source rank, so each directed link is one connection and per-(source,
// tag) FIFO follows from TCP's byte ordering plus the per-destination send
// serialization.  `close_rank` / `close` propagate as RANK_DEAD / CLOSE
// control frames (best effort).
//
// Link loss vs rank death (the reconnect state machine, DESIGN.md §5h): an
// unexpected EOF / connection reset marks the link DEGRADED, not the peer
// dead.  The sender keeps every un-acknowledged frame in a bounded
// retransmit buffer; on the next send it re-dials with seeded exponential
// backoff + jitter, re-HELLOs with a fresh per-link session *epoch*, and
// the receiver replies with the count of logical frames it has delivered
// from that link — the sender replays exactly the suffix the receiver never
// saw, so no frame is lost or duplicated and per-(source, tag) FIFO
// survives the reconnect.  Stale connections (an older epoch still
// draining) stop delivering the moment a newer epoch is adopted.  Only
// after the budget is exhausted — or a RANK_DEAD / ROOT_DEAD control frame
// names the peer, or the peer refuses a dial — does the link collapse into
// the ordinary PeerDeadError / recovery path.
//
// Refusal rule (the killed-rank detector, DESIGN.md §5h): an endpoint
// listens from construction to destruction and peer addresses come only
// from built endpoints, so ECONNREFUSED from a known address means the
// peer's process is gone.  It is checked on a link's first dial, on each
// reconnect attempt, by a probe when an inbound link hits EOF, and by a
// probe after each timed-out receive window.  A refusal marks the peer
// dead at once; the drained flag still waits for the rx quiesce rule.
//
// Frame authentication: with an AuthKey configured every outbound frame is
// MAC-tagged (SipHash-2-4 over header+body, see wire.hpp) and every inbound
// decoder requires a valid tag — a tampered or unauthenticated frame
// poisons that connection's decoder and never reaches a mailbox.
//
// Rendezvous: construct with the world's peer list, or install a peer
// resolver that maps rank -> address on demand (the rendezvous client in
// dist/rendezvous.hpp).  Ports may be 0 at construction (kernel-assigned);
// read the actual one back with `port()`.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/transport.hpp"
#include "dist/wire.hpp"

namespace pac::dist {

struct TcpPeer {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = unknown yet
};

// Survivability knobs for a TCP endpoint.
struct TcpTuning {
  // Reconnect attempts per link loss before the link collapses into the
  // rank-death path; at least 1.
  int reconnect_budget = 4;
  // Exponential backoff between attempts: base * 2^attempt, capped, then
  // scaled by a seeded backoff_jitter factor in [0.5, 1.5).
  double backoff_base_ms = 5.0;
  double backoff_max_ms = 200.0;
  // Dial deadline for the FIRST connection on a link (the peer may still
  // be binding its listener).
  int connect_timeout_ms = 5000;
  // Per-attempt deadline for a reconnect dial + resync reply.
  int reconnect_timeout_ms = 500;
  // Frame-auth key; all frames on all links of this endpoint are tagged
  // and verified when set (distributed out of band or via rendezvous).
  std::optional<wire::AuthKey> auth_key;
};

class TcpTransport final : public Transport {
 public:
  // Binds `bind_port` (0 for kernel-assigned) on 127.0.0.1 and starts
  // accepting.  Peer addresses can be provided now or later via set_peer.
  TcpTransport(int world_size, int rank, std::uint16_t bind_port = 0,
               LinkModel link = {}, FaultPlan faults = {},
               TcpTuning tuning = {});
  ~TcpTransport() override;

  // The port this endpoint actually listens on.
  std::uint16_t port() const { return port_; }
  // The address must be that of an endpoint that is already built (and so
  // listening): a refused dial to it reads as the peer's death.
  void set_peer(int rank, TcpPeer peer);
  // Lazy address resolution: consulted (with retry, under the dial
  // deadline) whenever a link must be established and no address is known,
  // and once per liveness probe.  It must return only addresses of built
  // endpoints; the rendezvous factory installs a client lookup here.
  using PeerResolver = std::function<std::optional<TcpPeer>(int rank)>;
  void set_peer_resolver(PeerResolver resolver);

  // True while the link to `rank` is lost but within its reconnect budget.
  bool link_degraded(int rank) const override;

  // A timed receive whose window expires probes `from` once: a refused
  // dial marks it dead, and the receive then throws PeerDeadError as soon
  // as the link has drained.
  std::optional<Message> recv_message(
      int to, int from, int tag,
      const std::optional<std::chrono::milliseconds>& timeout) override;

  // First report wins locally, then gossips a ROOT_DEAD control frame so
  // every endpoint converges on the same root-cause record (the endpoints
  // share no memory).
  void report_root_death(int rank) override;

 protected:
  void on_close_rank(int rank) override;
  void on_close() override;

 private:
  struct Connection {
    int fd = -1;
    std::atomic<int> peer{-1};  // set once the HELLO frame arrives
    std::uint32_t epoch = 0;    // session epoch adopted for this connection
    std::atomic<bool> done{false};  // rx thread has exited
    std::thread rx;
  };

  // Sender-side per-destination state, guarded by the matching io_mutex_.
  struct OutLink {
    int fd = -1;
    bool ever_connected = false;
    std::uint32_t epoch = 0;   // last session epoch announced to the peer
    std::uint64_t tx_seq = 0;  // logical frames appended to the stream
    std::uint64_t acked = 0;   // receiver-confirmed cumulative deliveries
    // (seq, frame bytes) awaiting acknowledgement, oldest first.
    std::deque<std::pair<std::uint64_t, std::vector<std::uint8_t>>> unacked;
    wire::FrameDecoder acks{0};  // parses ack frames read back from fd
  };

  // Receiver-side per-source state, guarded by rx_mutex_.
  struct RxState {
    std::uint64_t delivered = 0;  // logical frames deposited from this src
    std::uint32_t epoch = 0;      // newest adopted session epoch
    Connection* live = nullptr;   // the connection allowed to deliver
  };

  // A self-send deposits locally; anything else is encoded and shipped
  // with wire_send.
  void deliver(int to, Message msg) override;
  void wake_receivers() override { box_.wake(); }
  // Ships an encoded frame to `to`'s process under the link's io mutex
  // (the main thread and the async sender may write the same link
  // concurrently); throws PeerDeadError once the link is lost for good.
  void wire_send(int to, std::vector<std::uint8_t> bytes);

  wire::FrameDecoder make_decoder() const;

  void accept_main();
  void rx_main(Connection* conn);
  void rx_loop(Connection* conn);
  // Adopt `conn` as the live connection for `src` (epoch 0 = initial
  // connection, >0 = resync).  Returns the delivered count snapshot, or
  // nullopt when the connection is stale and must be dropped.
  std::optional<std::uint64_t> adopt_connection(Connection* conn, int src,
                                                std::uint32_t epoch);
  // Count + dispatch one logical frame from the live connection; false when
  // the connection went stale (caller exits its rx loop).
  bool deliver_logical(Connection* conn, int src, wire::Frame frame);
  // Push a cumulative-delivery ack / resync reply back to the sender
  // (best effort; the socket is non-blocking).
  void send_ack(Connection* conn, std::uint64_t delivered);

  // The known address of `to`, else one resolver lookup (stored when it
  // answers).
  std::optional<TcpPeer> peer_address(int to);
  // Raw dial (no HELLO): resolves the peer address (via resolver when
  // unknown) and connects within `deadline_ms`.  -1 on failure, with
  // `*refused` set when the known address refused (the peer is gone).
  int dial(int to, int deadline_ms, bool* refused);
  // One probe dial: true when `to`'s known address refuses.
  bool peer_refuses(int to);
  // First connection on a link: dial + HELLO.  False when the peer refuses
  // (it is gone); throws TransportError when no route exists.
  bool establish_fresh_locked(OutLink& l, int to);
  // Reconnect + resync + replay.  False once the budget is exhausted or
  // the peer refuses.
  bool reconnect_locked(OutLink& l, int to);
  std::optional<std::uint64_t> await_resync_reply(int fd, int to,
                                                  std::uint32_t epoch);
  // Opportunistically consume acks the receiver pushed back on this link.
  void drain_acks_locked(OutLink& l, int to);
  bool wait_buffer_space_locked(OutLink& l, int to, bool allow_reconnect);
  // Buffer + transmit one logical frame (everything in the per-link
  // stream: data AND control).  False = the link is lost for good.
  bool send_logical_locked(OutLink& l, int to, std::vector<std::uint8_t> bytes,
                           bool allow_reconnect);

  // Best-effort control broadcast to every peer but `skip_rank`.  Callers
  // hold no io mutex: the broadcast locks each link's in turn.
  void send_control_everywhere(const std::vector<std::uint8_t>& frame,
                               int skip_rank = -1);
  // Marks `rank` dead (remote origin: nothing is re-propagated); sets
  // drained immediately when no inbound link from it exists (nothing can
  // be in flight).
  void note_dead_rank(int rank);
  // Sets drained(rank) once no live rx thread for it remains; blocked
  // receivers on a dead `rank` then wake with PeerDeadError.
  void maybe_set_drained(int rank);
  // Collapse: a refusal or an exhausted budget marks the peer dead and
  // records it as the root cause when nobody has been declared dead yet.
  void observe_peer_gone(int peer);
  // EOF on an inbound connection: death when the peer refuses a probe
  // dial, a degraded link otherwise.
  void observe_link_eof(Connection* conn);

  const int rank_;
  Mailbox box_;
  std::vector<std::atomic<bool>> drained_;
  TcpTuning tuning_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::thread acceptor_;

  std::mutex peers_mutex_;
  std::vector<TcpPeer> peers_;
  PeerResolver resolver_;
  // Outbound link state per destination, guarded by the matching io_mutex_
  // entry, which serializes every write (data and control) on that link.
  std::vector<std::unique_ptr<OutLink>> out_;
  std::vector<std::unique_ptr<std::mutex>> io_mutex_;

  std::mutex rx_mutex_;
  std::vector<RxState> rx_;
  std::vector<std::unique_ptr<std::atomic<bool>>> degraded_;

  std::mutex conns_mutex_;
  std::vector<std::unique_ptr<Connection>> conns_;
};

}  // namespace pac::dist
