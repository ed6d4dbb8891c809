#include "dist/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <linux/sockios.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/error.hpp"
#include "dist/communicator.hpp"  // backoff_jitter
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace pac::dist {

namespace {

// Seed of the reconnect backoff jitter (dist::backoff_jitter).
constexpr std::uint64_t kBackoffSeed = 0xF1A5EEDULL;
// Sender-side in-flight bound: frames kept for retransmission until the
// receiver acknowledges them.  A full buffer blocks the sender on acks.
constexpr std::size_t kRetransmitBufferFrames = 256;
// The receiver acks its cumulative delivery count every this many logical
// frames.
constexpr std::uint64_t kAckInterval = 8;

bool send_all(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// send_all for a non-blocking socket (the receiver-side ack path): waits
// for writability up to `timeout_ms` per stall instead of failing on
// EAGAIN.
bool send_all_poll(int fd, const std::uint8_t* data, std::size_t len,
                   int timeout_ms) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
      continue;
    }
    return false;
  }
  return true;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Closes an outbound link without losing its tail: a close with unread
// acks in the receive buffer resets the connection and drops the frames
// still queued for sending.  So FIN after them, discard acks until the
// peer's kernel holds every byte (or `timeout_ms` passes), then close.
void close_gracefully(int fd, int timeout_ms) {
  ::shutdown(fd, SHUT_WR);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::uint8_t sink[4096];
  int unsent = 0;
  while (::ioctl(fd, SIOCOUTQ, &unsent) == 0 && unsent > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 1) > 0 &&
        ::recv(fd, sink, sizeof(sink), MSG_DONTWAIT) == 0) {
      break;  // the peer closed: nothing more can be delivered
    }
  }
  ::close(fd);
}

// One connect to `peer`: the socket, or -1 with `*refused` set when the
// host answered that nothing listens on the port.
int connect_once(const TcpPeer& peer, bool* refused) {
  *refused = false;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(peer.port);
  if (::inet_pton(AF_INET, peer.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    set_nodelay(fd);
    return fd;
  }
  *refused = errno == ECONNREFUSED;
  ::close(fd);
  return -1;
}

}  // namespace

TcpTransport::TcpTransport(int world_size, int rank, std::uint16_t bind_port,
                           LinkModel link, FaultPlan faults, TcpTuning tuning)
    : Transport(world_size, link, std::move(faults)),
      rank_(rank),
      box_(rank),
      drained_(static_cast<std::size_t>(world_size)),
      tuning_(std::move(tuning)),
      peers_(static_cast<std::size_t>(world_size)),
      rx_(static_cast<std::size_t>(world_size)) {
  check_rank(rank, "endpoint");
  PAC_CHECK(tuning_.reconnect_budget >= 1,
            "tcp: reconnect budget must be at least 1");
  for (int i = 0; i < world_size; ++i) {
    io_mutex_.push_back(std::make_unique<std::mutex>());
    out_.push_back(std::make_unique<OutLink>());
    out_.back()->acks = make_decoder();
    degraded_.push_back(std::make_unique<std::atomic<bool>>(false));
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw TransportError("tcp: socket: " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(bind_port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    throw TransportError("tcp: bind port " + std::to_string(bind_port) +
                         ": " + why);
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, world_size + 4) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    throw TransportError("tcp: listen: " + why);
  }
  acceptor_ = std::thread([this] { accept_main(); });
}

TcpTransport::~TcpTransport() {
  stop_.store(true);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  {
    std::lock_guard<std::mutex> guard(conns_mutex_);
    for (auto& conn : conns_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (auto& conn : conns_) {
    if (conn->rx.joinable()) conn->rx.join();
    if (conn->fd >= 0) ::close(conn->fd);
  }
  for (int p = 0; p < world_size(); ++p) {
    std::lock_guard<std::mutex> guard(*io_mutex_[static_cast<std::size_t>(p)]);
    OutLink& l = *out_[static_cast<std::size_t>(p)];
    if (l.fd >= 0) {
      close_gracefully(l.fd, tuning_.connect_timeout_ms);
      l.fd = -1;
    }
  }
}

void TcpTransport::set_peer(int rank, TcpPeer peer) {
  check_rank(rank, "set_peer");
  std::lock_guard<std::mutex> guard(peers_mutex_);
  peers_[static_cast<std::size_t>(rank)] = std::move(peer);
}

void TcpTransport::set_peer_resolver(PeerResolver resolver) {
  std::lock_guard<std::mutex> guard(peers_mutex_);
  resolver_ = std::move(resolver);
}

wire::FrameDecoder TcpTransport::make_decoder() const {
  wire::FrameDecoder decoder(world_size());
  if (tuning_.auth_key.has_value()) decoder.set_auth_key(*tuning_.auth_key);
  return decoder;
}

bool TcpTransport::link_degraded(int rank) const {
  if (rank < 0 || rank >= world_size()) return false;
  return degraded_[static_cast<std::size_t>(rank)]->load() &&
         !rank_dead(rank);
}

void TcpTransport::accept_main() {
  while (!stop_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 50);
    if (pr <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stop_.load()) break;
      continue;
    }
    set_nodelay(fd);
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> guard(conns_mutex_);
      conns_.push_back(std::move(conn));
    }
    raw->rx = std::thread([this, raw] { rx_main(raw); });
  }
}

void TcpTransport::observe_peer_gone(int peer) {
  // The link is gone for good (a refusal or a spent budget): whoever
  // nobody declared dead yet becomes the root-cause record.
  if (peer < 0 || peer >= world_size()) return;
  if (!rank_dead(peer) && !closed() && !stop_.load()) {
    report_root_death(peer);
  }
  degraded_[static_cast<std::size_t>(peer)]->store(false);
  note_dead_rank(peer);
}

void TcpTransport::observe_link_eof(Connection* conn) {
  const int peer = conn->peer.load();
  if (peer < 0 || peer >= world_size()) return;
  {
    std::lock_guard<std::mutex> guard(rx_mutex_);
    // Losing a stale (already superseded) connection is not news.
    if (rx_[static_cast<std::size_t>(peer)].live != conn) return;
  }
  if (rank_dead(peer) || closed() || stop_.load()) return;
  if (peer_refuses(peer)) {
    // Nothing listens at the peer's address: its process is gone, not
    // just this connection.
    observe_peer_gone(peer);
    return;
  }
  // Link loss: freeze judgement until the sender either resyncs (adoption
  // clears the flag) or collapses the link (death clears it).
  degraded_[static_cast<std::size_t>(peer)]->store(true);
}

// ---------------------------------------------------------------------------
// Receive path

void TcpTransport::rx_main(Connection* conn) {
  rx_loop(conn);
  const int peer = conn->peer.load();
  // Publication order matters: `done` must be visible before the dead-rank
  // check so note_dead_rank and this exit path can't both skip the drain.
  conn->done.store(true);
  if (peer >= 0 && peer < world_size() && rank_dead(peer)) {
    maybe_set_drained(peer);
  }
}

void TcpTransport::rx_loop(Connection* conn) {
  wire::FrameDecoder decoder = make_decoder();
  std::uint8_t buf[64 * 1024];
  bool hello_done = false;
  bool adopted = false;
  bool death_seen = false;
  int quiet_polls = 0;
  while (!stop_.load() && !closed()) {
    const int peer = conn->peer.load();
    if (hello_done && rank_dead(peer)) {
      // Peer is dead: two empty polls in a row ≈ the loopback wire has
      // quiesced; everything it sent beforehand has been deposited.  The
      // count starts at the first poll issued AFTER the death is known —
      // quiet stretches before that (e.g. death arrived as gossip on
      // another connection during an idle period) prove nothing about
      // bytes still sitting in this socket's buffer.  rx_main flips the
      // world's drained bit once every connection from the peer has
      // quiesced this way.
      if (!death_seen) {
        death_seen = true;
        quiet_polls = 0;
      }
      if (quiet_polls >= 2) return;
    }
    pollfd pfd{conn->fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 2);
    if (pr <= 0) {
      ++quiet_polls;
      continue;
    }
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR)) {
      if (hello_done) observe_link_eof(conn);
      return;
    }
    if (n < 0) {
      ++quiet_polls;
      continue;
    }
    quiet_polls = 0;
    try {
      decoder.feed(buf, static_cast<std::size_t>(n));
      while (auto frame = decoder.next()) {
        if (!hello_done) {
          if (frame->type != wire::FrameType::kHello) {
            throw TransportError("tcp: connection did not start with HELLO");
          }
          conn->peer.store(frame->src);
          hello_done = true;
          continue;
        }
        const int src = conn->peer.load();
        if (frame->type == wire::FrameType::kResync) {
          // Reconnect handshake: adopt (or reject) this connection for the
          // proposed epoch and tell the sender how much already arrived.
          const auto delivered =
              adopt_connection(conn, src, frame->resync_epoch);
          if (!delivered.has_value()) return;  // stale epoch: drop it
          adopted = true;
          send_ack(conn, *delivered);
          continue;
        }
        if (!adopted) {
          // First logical frame on a fresh link: implicit epoch-0 adoption
          // (initial connections carry no RESYNC preamble).
          if (!adopt_connection(conn, src, 0).has_value()) return;
          adopted = true;
        }
        if (!deliver_logical(conn, src, std::move(*frame))) return;
      }
    } catch (const Error&) {
      // Malformed (or tamper-poisoned) stream: the connection cannot be
      // trusted past this point; drop it and let the sender re-earn the
      // link through a resync.
      if (hello_done) observe_link_eof(conn);
      return;
    }
  }
}

std::optional<std::uint64_t> TcpTransport::adopt_connection(
    Connection* conn, int src, std::uint32_t epoch) {
  if (src < 0 || src >= world_size()) return std::nullopt;
  std::lock_guard<std::mutex> guard(rx_mutex_);
  RxState& rx = rx_[static_cast<std::size_t>(src)];
  if (rx.live == conn) {
    // Duplicate resync on the connection we already adopted: re-reply.
    return rx.delivered;
  }
  const bool initial = rx.live == nullptr && rx.epoch == 0 && epoch == 0;
  if (initial || epoch > rx.epoch) {
    // Strictly-greater epochs only: a sender retry that lost the reply
    // bumps its epoch per attempt, so anything ≤ the adopted epoch is a
    // leftover (or replayed) connection that must never deliver.
    rx.live = conn;
    rx.epoch = epoch;
    conn->epoch = epoch;
    degraded_[static_cast<std::size_t>(src)]->store(false);
    return rx.delivered;
  }
  return std::nullopt;
}

bool TcpTransport::deliver_logical(Connection* conn, int src,
                                   wire::Frame frame) {
  const wire::FrameType type = frame.type;
  std::uint64_t delivered = 0;
  bool ack_due = false;
  {
    std::lock_guard<std::mutex> guard(rx_mutex_);
    RxState& rx = rx_[static_cast<std::size_t>(src)];
    if (rx.live != conn) return false;  // superseded mid-buffer
    delivered = ++rx.delivered;
    ack_due = delivered % kAckInterval == 0;
    if (type == wire::FrameType::kData) {
      // The count and the mailbox deposit must be atomic against a
      // concurrent resync snapshot, or a reconnect could replay
      // (duplicate) or skip (lose) exactly this frame.
      Message msg;
      msg.source = frame.src;
      msg.tag = frame.tag;
      if (frame.qpayload.has_value()) {
        msg.q = std::move(*frame.qpayload);
      } else if (frame.payload_defined) {
        msg.payload = std::move(frame.payload);
      }
      box_.deposit(std::move(msg), faults_);
    }
  }
  // Control frames dispatch outside rx_mutex_: death gossip re-broadcasts
  // over the send links, and holding a receive lock across send mutexes
  // invites cross-endpoint lock cycles.  The count-then-dispatch gap is
  // safe — these handlers are idempotent.
  switch (type) {
    case wire::FrameType::kData:
      break;
    case wire::FrameType::kRankDead:
      note_dead_rank(frame.src);
      break;
    case wire::FrameType::kRootDead:
      // Re-gossips only if this is news here (CAS guard), so the
      // propagation terminates after one round.  Every reporter already
      // treats the rank as dead, so mark it here too: a survivor with no
      // link from it would otherwise wait out a whole receive window.
      report_root_death(frame.src);
      note_dead_rank(frame.src);
      break;
    case wire::FrameType::kClose:
      if (!closed_.exchange(true)) box_.wake();
      break;
    default:
      throw TransportError("unhandled frame type " +
                           std::to_string(static_cast<int>(type)));
  }
  if (ack_due) send_ack(conn, delivered);
  return true;
}

void TcpTransport::send_ack(Connection* conn, std::uint64_t delivered) {
  auto ack = wire::encode_resync(rank_, conn->epoch, delivered);
  if (tuning_.auth_key.has_value()) {
    wire::authenticate(ack, *tuning_.auth_key);
  }
  // Best effort: a lost ack only delays retransmit-buffer trimming; the
  // resync handshake is the authoritative recovery point.
  send_all_poll(conn->fd, ack.data(), ack.size(), 50);
}

void TcpTransport::note_dead_rank(int rank) {
  if (rank < 0 || rank >= world_size()) return;
  if (!dead_[static_cast<std::size_t>(rank)].exchange(true)) box_.wake();
  maybe_set_drained(rank);
}

void TcpTransport::maybe_set_drained(int rank) {
  {
    std::lock_guard<std::mutex> guard(conns_mutex_);
    for (const auto& conn : conns_) {
      if (conn->peer.load() == rank && !conn->done.load()) {
        return;  // a live rx thread will drain and re-check on exit
      }
    }
  }
  // No inbound link from that rank still running: nothing can be in
  // flight.
  if (!drained_[static_cast<std::size_t>(rank)].exchange(true)) box_.wake();
}

// ---------------------------------------------------------------------------
// Send path

std::optional<TcpPeer> TcpTransport::peer_address(int to) {
  PeerResolver resolver;
  {
    std::lock_guard<std::mutex> guard(peers_mutex_);
    const TcpPeer& known = peers_[static_cast<std::size_t>(to)];
    if (known.port != 0) return known;
    resolver = resolver_;
  }
  if (!resolver) return std::nullopt;
  auto found = resolver(to);
  if (!found.has_value() || found->port == 0) return std::nullopt;
  set_peer(to, *found);
  return found;
}

int TcpTransport::dial(int to, int deadline_ms, bool* refused) {
  *refused = false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (true) {
    if (const auto peer = peer_address(to)) {
      const int fd = connect_once(*peer, refused);
      if (fd >= 0 || *refused) return fd;
    } else {
      std::lock_guard<std::mutex> guard(peers_mutex_);
      if (!resolver_) return -1;  // nothing will ever resolve this rank
    }
    if (std::chrono::steady_clock::now() >= deadline || stop_.load() ||
        closed() || rank_dead(to)) {
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

bool TcpTransport::peer_refuses(int to) {
  const auto peer = peer_address(to);
  if (!peer.has_value()) return false;  // never announced: no evidence
  bool refused = false;
  const int fd = connect_once(*peer, &refused);
  if (fd >= 0) ::close(fd);
  return refused;
}

std::optional<Message> TcpTransport::recv_message(
    int to, int from, int tag,
    const std::optional<std::chrono::milliseconds>& timeout) {
  check_rank(to, "recv destination");
  check_rank(from, "recv source");
  PAC_CHECK(to == rank_, "endpoint of rank " << rank_
                             << " cannot recv as rank " << to);
  std::atomic<bool>* drained = &drained_[static_cast<std::size_t>(from)];
  auto msg = receive(box_, to, from, tag, timeout, drained);
  if (msg.has_value() || from == rank_ || rank_dead(from) ||
      !peer_refuses(from)) {
    return msg;
  }
  observe_peer_gone(from);
  // Dead now: what it delivered before dying is still returned; once the
  // link has drained this throws PeerDeadError.
  return receive(box_, to, from, tag, std::chrono::milliseconds(0), drained);
}

bool TcpTransport::establish_fresh_locked(OutLink& l, int to) {
  bool refused = false;
  const int fd = dial(to, tuning_.connect_timeout_ms, &refused);
  if (refused) return false;
  if (fd < 0) {
    throw TransportError("tcp: no route to rank " + std::to_string(to));
  }
  auto hello = wire::encode_control(wire::FrameType::kHello, rank_);
  if (tuning_.auth_key.has_value()) {
    wire::authenticate(hello, *tuning_.auth_key);
  }
  if (!send_all(fd, hello.data(), hello.size())) {
    ::close(fd);
    throw TransportError("tcp: no route to rank " + std::to_string(to));
  }
  l.fd = fd;
  l.ever_connected = true;
  l.acks = make_decoder();
  return true;
}

std::optional<std::uint64_t> TcpTransport::await_resync_reply(
    int fd, int to, std::uint32_t epoch) {
  wire::FrameDecoder decoder = make_decoder();
  std::uint8_t buf[4096];
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(tuning_.reconnect_timeout_ms);
  while (std::chrono::steady_clock::now() < deadline && !stop_.load() &&
         !closed()) {
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 10);
    if (pr <= 0) continue;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) return std::nullopt;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return std::nullopt;
    }
    try {
      decoder.feed(buf, static_cast<std::size_t>(n));
      while (auto frame = decoder.next()) {
        if (frame->type != wire::FrameType::kResync) return std::nullopt;
        if (frame->src == to && frame->resync_epoch == epoch) {
          return frame->resync_delivered;
        }
        // An ack for an older epoch raced in; keep waiting for ours.
      }
    } catch (const Error&) {
      return std::nullopt;
    }
  }
  return std::nullopt;
}

bool TcpTransport::reconnect_locked(OutLink& l, int to) {
  if (l.fd >= 0) {
    ::close(l.fd);
    l.fd = -1;
  }
  degraded_[static_cast<std::size_t>(to)]->store(true);
  PAC_TRACE_SCOPE("wire_reconnect", rank_, to);
  auto& counters = obs::CounterRegistry::instance();
  for (int attempt = 0; attempt < tuning_.reconnect_budget; ++attempt) {
    if (stop_.load() || closed() || rank_dead(to)) break;
    const double capped_ms = std::min(
        tuning_.backoff_max_ms, tuning_.backoff_base_ms * std::pow(2.0, attempt));
    const double sleep_ms =
        capped_ms * backoff_jitter(kBackoffSeed, to, attempt);
    if (sleep_ms > 0.0) {
      counters.add("wire.backoff_sleep_us",
                   static_cast<std::int64_t>(sleep_ms * 1000.0));
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sleep_ms));
    }
    bool refused = false;
    const int fd = dial(to, tuning_.reconnect_timeout_ms, &refused);
    if (refused) break;  // the peer's process is gone: no budget helps
    if (fd < 0) continue;
    // A fresh epoch per ATTEMPT: if the receiver adopted an earlier try
    // but the reply got lost, retrying under the same epoch would be
    // rejected as stale forever.
    const std::uint32_t epoch = ++l.epoch;
    auto hello = wire::encode_control(wire::FrameType::kHello, rank_);
    auto resync = wire::encode_resync(rank_, epoch, 0);
    if (tuning_.auth_key.has_value()) {
      wire::authenticate(hello, *tuning_.auth_key);
      wire::authenticate(resync, *tuning_.auth_key);
    }
    if (!send_all(fd, hello.data(), hello.size()) ||
        !send_all(fd, resync.data(), resync.size())) {
      ::close(fd);
      continue;
    }
    const auto delivered = await_resync_reply(fd, to, epoch);
    if (!delivered.has_value()) {
      ::close(fd);
      continue;
    }
    // The receiver kept everything below `delivered`; replay the rest.
    while (!l.unacked.empty() && l.unacked.front().first < *delivered) {
      l.unacked.pop_front();
    }
    if (*delivered > l.acked) l.acked = *delivered;
    if (!l.unacked.empty() && l.unacked.front().first > *delivered) {
      // The receiver missed frames the bounded buffer no longer holds —
      // exactly-once is unrecoverable; collapse instead of corrupting.
      ::close(fd);
      break;
    }
    bool replay_ok = true;
    std::size_t replayed = 0;
    for (const auto& [seq, bytes] : l.unacked) {
      if (!send_all(fd, bytes.data(), bytes.size())) {
        replay_ok = false;
        break;
      }
      ++replayed;
    }
    if (!replay_ok) {
      ::close(fd);
      continue;
    }
    l.fd = fd;
    l.acks = make_decoder();
    counters.add("wire.reconnects", 1);
    counters.add("wire.retransmit_frames",
                 static_cast<std::int64_t>(replayed));
    degraded_[static_cast<std::size_t>(to)]->store(false);
    return true;
  }
  degraded_[static_cast<std::size_t>(to)]->store(false);
  return false;
}

void TcpTransport::drain_acks_locked(OutLink& l, int to) {
  if (l.fd < 0) return;
  std::uint8_t buf[4096];
  while (true) {
    const ssize_t n = ::recv(l.fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // EOF / hard error on the ack channel: the socket is dying; drop it
      // so the caller's reconnect path takes over.
      ::close(l.fd);
      l.fd = -1;
      l.acks = make_decoder();
      return;
    }
    try {
      l.acks.feed(buf, static_cast<std::size_t>(n));
      while (auto frame = l.acks.next()) {
        if (frame->type != wire::FrameType::kResync || frame->src != to) {
          throw TransportError("tcp: unexpected frame on the ack channel");
        }
        if (frame->resync_delivered > l.acked) {
          l.acked = frame->resync_delivered;
        }
      }
    } catch (const Error&) {
      ::close(l.fd);
      l.fd = -1;
      l.acks = make_decoder();
      return;
    }
  }
  while (!l.unacked.empty() && l.unacked.front().first < l.acked) {
    l.unacked.pop_front();
  }
}

bool TcpTransport::wait_buffer_space_locked(OutLink& l, int to,
                                            bool allow_reconnect) {
  // Bound forced-reconnect rounds that make no trimming progress so a
  // receiver whose rx thread is wedged cannot spin us forever.
  int stalls = 0;
  while (l.unacked.size() >= kRetransmitBufferFrames) {
    if (stop_.load() || closed()) return false;
    const std::size_t before = l.unacked.size();
    if (l.fd < 0) {
      if (!allow_reconnect || !reconnect_locked(l, to)) return false;
    } else {
      pollfd pfd{l.fd, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, tuning_.reconnect_timeout_ms);
      if (pr > 0) {
        drain_acks_locked(l, to);
      } else {
        // No ack inside a whole reconnect window: treat the link as
        // wedged and force a resync (its reply carries the authoritative
        // delivered count, which trims the buffer).
        ::close(l.fd);
        l.fd = -1;
      }
    }
    if (l.unacked.size() >= before) {
      if (++stalls > tuning_.reconnect_budget + 1) return false;
    } else {
      stalls = 0;
    }
  }
  return true;
}

bool TcpTransport::send_logical_locked(OutLink& l, int to,
                                       std::vector<std::uint8_t> bytes,
                                       bool allow_reconnect) {
  if (l.fd < 0) {
    if (!l.ever_connected) {
      // Throws when no route exists; false when the peer refuses.
      if (!establish_fresh_locked(l, to)) return false;
    } else if (!allow_reconnect || !reconnect_locked(l, to)) {
      return false;
    }
  }
  drain_acks_locked(l, to);
  if (l.fd < 0 && (!allow_reconnect || !reconnect_locked(l, to))) {
    return false;
  }
  if (!wait_buffer_space_locked(l, to, allow_reconnect)) return false;
  l.unacked.emplace_back(l.tx_seq, std::move(bytes));
  ++l.tx_seq;
  const auto& frame = l.unacked.back().second;
  if (!send_all(l.fd, frame.data(), frame.size())) {
    ::close(l.fd);
    l.fd = -1;
    // reconnect_locked replays the whole unacked suffix — including the
    // frame we just buffered — so success here means it is on the wire.
    if (!allow_reconnect || !reconnect_locked(l, to)) return false;
  }
  if (l.fd >= 0 && faults_.active() && faults_.tcp_cut_due(rank_, to)) {
    // Injected link cut, applied AFTER the frame went out: the receiver
    // sees a clean EOF (degraded link), and the next send reconnects.
    ::close(l.fd);
    l.fd = -1;
  }
  return true;
}

void TcpTransport::deliver(int to, Message msg) {
  PAC_CHECK(msg.source == rank_, "endpoint of rank "
                                     << rank_ << " cannot send as rank "
                                     << msg.source);
  if (to == rank_) {
    // Self-send: deposit locally; the deposit advances the fault sequence.
    box_.deposit(std::move(msg), faults_);
    return;
  }
  wire_send(to, msg.q.has_value()
                    ? wire::encode_data_q(msg.source, msg.tag, *msg.q)
                    : wire::encode_data(msg.source, msg.tag, msg.payload));
  faults_.message_delivered(msg.source, to, msg.tag);
}

void TcpTransport::wire_send(int to, std::vector<std::uint8_t> bytes) {
  if (tuning_.auth_key.has_value()) {
    wire::authenticate(bytes, *tuning_.auth_key);
  }
  bool sent = false;
  {
    std::lock_guard<std::mutex> guard(
        *io_mutex_[static_cast<std::size_t>(to)]);
    sent = send_logical_locked(*out_[static_cast<std::size_t>(to)], to,
                               std::move(bytes), /*allow_reconnect=*/true);
  }
  if (!sent) {
    // Outside the io mutex: the root-death gossip locks the other links.
    observe_peer_gone(to);
    throw PeerDeadError(to, "send to dead rank " + std::to_string(to) +
                                " (connection lost)");
  }
}

void TcpTransport::report_root_death(int rank) {
  check_rank(rank, "report_root_death");
  int expected = -1;
  if (root_dead_.compare_exchange_strong(expected, rank)) {
    // We hold the first report: share it (the dead rank has nothing to
    // learn).
    send_control_everywhere(
        wire::encode_control(wire::FrameType::kRootDead, rank), rank);
  }
}

void TcpTransport::send_control_everywhere(
    const std::vector<std::uint8_t>& frame, int skip_rank) {
  for (int p = 0; p < world_size(); ++p) {
    if (p == rank_ || p == skip_rank) continue;
    std::lock_guard<std::mutex> guard(
        *io_mutex_[static_cast<std::size_t>(p)]);
    OutLink& l = *out_[static_cast<std::size_t>(p)];
    std::vector<std::uint8_t> bytes = frame;
    if (tuning_.auth_key.has_value()) {
      wire::authenticate(bytes, *tuning_.auth_key);
    }
    try {
      // Best effort, and no reconnect loops during shutdown gossip; the
      // frame still joins the logical stream (and the retransmit buffer),
      // so a later data send's resync replays it.
      send_logical_locked(l, p, std::move(bytes), /*allow_reconnect=*/false);
    } catch (const Error&) {
      // Unreachable peer: best effort only.
    }
  }
}

void TcpTransport::on_close_rank(int rank) {
  send_control_everywhere(
      wire::encode_control(wire::FrameType::kRankDead, rank));
  note_dead_rank(rank);
}

void TcpTransport::on_close() {
  send_control_everywhere(wire::encode_control(wire::FrameType::kClose, rank_));
}

}  // namespace pac::dist
