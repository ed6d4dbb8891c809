#include "dist/transport.hpp"

#include <chrono>
#include <thread>

#include "common/error.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace pac::dist {

namespace {

// Counter names are built per link ("comm.sent_bytes.0>2"); callers guard
// on obs::enabled() so the string assembly never runs when idle.
std::string link_counter(const char* what, int from, int to) {
  return std::string("comm.") + what + "." + std::to_string(from) + ">" +
         std::to_string(to);
}

}  // namespace

// ---------------------------------------------------------------------------
// Transport (shared machinery)

Transport::Transport(int world_size, LinkModel link, FaultPlan faults)
    : world_size_(world_size),
      link_(link),
      faults_(std::move(faults), world_size) {
  PAC_CHECK(world_size > 0, "transport needs at least one rank");
  dead_ = std::vector<std::atomic<bool>>(static_cast<std::size_t>(world_size));
}

void Transport::check_rank(int rank, const char* what) const {
  PAC_CHECK(rank >= 0 && rank < world_size_,
            what << " rank " << rank << " out of range [0, " << world_size_
                 << ")");
}

void Transport::report_root_death(int rank) {
  check_rank(rank, "report_root_death");
  int expected = -1;
  root_dead_.compare_exchange_strong(expected, rank);
}

void Transport::maybe_inject_death(int rank) {
  if (!faults_.active()) return;
  if (faults_.op_kills_rank(rank)) {
    report_root_death(rank);
    close_rank(rank);
    throw RankDeathError(rank);
  }
}

void Transport::close() {
  if (closed_.exchange(true)) return;
  on_close();
  wake_receivers();
}

void Transport::close_rank(int rank) {
  check_rank(rank, "close_rank");
  if (dead_[static_cast<std::size_t>(rank)].exchange(true)) return;
  on_close_rank(rank);
  wake_receivers();
}

bool Transport::rank_dead(int rank) const {
  check_rank(rank, "rank_dead");
  return dead_[static_cast<std::size_t>(rank)].load();
}

void Transport::send(int from, int to, int tag, Tensor payload) {
  send_message(to, Message{from, tag, std::move(payload), std::nullopt});
}

void Transport::send_q(int from, int to, int tag, quant::QTensor payload) {
  send_message(to, Message{from, tag, Tensor(), std::move(payload)});
}

void Transport::send_message(int to, Message msg) {
  const int from = msg.source;
  check_rank(from, "send source");
  check_rank(to, "send destination");
  if (closed_.load()) {
    throw ChannelClosedError("send on closed transport");
  }
  maybe_inject_death(from);
  if (dead_[static_cast<std::size_t>(from)].load()) {
    throw PeerDeadError(from, "send from dead rank " + std::to_string(from));
  }
  if (dead_[static_cast<std::size_t>(to)].load()) {
    throw PeerDeadError(to, "send to dead rank " + std::to_string(to));
  }
  const std::uint64_t bytes = msg.payload_bytes();
  run_send_faults(from, to, msg.tag, bytes);
  record_send(from, to, bytes);
  deliver(to, std::move(msg));
}

void Transport::run_send_faults(int from, int to, int tag,
                                std::uint64_t bytes) {
  if (faults_.active() && faults_.send_fails(from, to, tag)) {
    throw TransientSendError("injected transient send failure on link " +
                             std::to_string(from) + " -> " +
                             std::to_string(to));
  }
  if (faults_.active()) {
    const double ms = faults_.delay_ms(from, to, tag);
    if (ms > 0.0) {
      PAC_TRACE_SCOPE("fault_delay", from, to);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(ms));
    }
  }
  if (faults_.active() && from != to) {
    // Token-bucket WAN shaping: sleep off the bandwidth deficit.  Timing
    // only, so shaped trajectories stay bit-identical to unshaped ones.
    const double s = faults_.shape_delay_s(from, bytes);
    if (s > 0.0) {
      PAC_TRACE_SCOPE("wan_shape", from, to);
      obs::CounterRegistry::instance().add(
          "wire.shape_sleep_us", static_cast<std::int64_t>(s * 1e6));
      std::this_thread::sleep_for(std::chrono::duration<double>(s));
    }
  }
  if (link_.simulate_delay && from != to) {
    PAC_TRACE_SCOPE("link_sleep", from, to);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(link_.transfer_seconds(bytes)));
  }
}

void Transport::record_send(int from, int to, std::uint64_t bytes) {
  if (obs::enabled()) {
    auto& counters = obs::CounterRegistry::instance();
    counters.add(link_counter("sent_bytes", from, to),
                 static_cast<std::int64_t>(bytes));
    counters.add(link_counter("sent_msgs", from, to), 1);
    // Aggregate data bytes on the wire (payload bytes as charged to the
    // link — compressed sends count their compressed size), so one counter
    // shows the whole-run traffic and the quantization win.
    counters.add("wire.data_bytes_tx", static_cast<std::int64_t>(bytes));
  }
  std::lock_guard<std::mutex> stats_guard(stats_mutex_);
  LinkStats& s = stats_[{from, to}];
  ++s.messages;
  s.bytes += bytes;
}

std::optional<Message> Transport::receive(
    Mailbox& box, int to, int from, int tag,
    const std::optional<std::chrono::milliseconds>& timeout,
    const std::atomic<bool>* peer_drained) {
  maybe_inject_death(to);
  std::optional<Message> msg =
      box.receive(from, tag, timeout, closed_,
                  dead_[static_cast<std::size_t>(from)], peer_drained);
  if (msg.has_value() && obs::enabled()) {
    obs::CounterRegistry::instance().add(
        link_counter("recv_bytes", from, to),
        static_cast<std::int64_t>(msg->payload_bytes()));
  }
  return msg;
}

Tensor message_to_tensor(Message&& msg) {
  if (msg.q.has_value()) return quant::dequantize(*msg.q);
  return std::move(msg.payload);
}

quant::QTensor message_to_q(Message&& msg) {
  if (msg.q.has_value()) return std::move(*msg.q);
  PAC_CHECK(msg.payload.defined(),
            "recv_q on a message with an undefined payload");
  return quant::quantize(msg.payload, quant::Dtype::kF32);
}

// An untimed receive returns only with a message or by throwing.
Tensor Transport::recv(int to, int from, int tag) {
  return message_to_tensor(recv_message(to, from, tag, std::nullopt).value());
}

std::optional<Tensor> Transport::recv_for(int to, int from, int tag,
                                          std::chrono::milliseconds timeout) {
  auto result = recv_message(to, from, tag, timeout);
  if (!result.has_value()) return std::nullopt;
  return message_to_tensor(std::move(*result));
}

quant::QTensor Transport::recv_q(int to, int from, int tag) {
  return message_to_q(recv_message(to, from, tag, std::nullopt).value());
}

LinkStats Transport::stats(int from, int to) const {
  std::lock_guard<std::mutex> stats_guard(stats_mutex_);
  auto it = stats_.find({from, to});
  return it == stats_.end() ? LinkStats{} : it->second;
}

std::uint64_t Transport::total_bytes() const {
  std::lock_guard<std::mutex> stats_guard(stats_mutex_);
  std::uint64_t total = 0;
  for (const auto& [edge, s] : stats_) {
    if (edge.first != edge.second) total += s.bytes;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Mailbox

void Mailbox::flush_deferred(const Key* key_or_null) {
  if (deferred_.empty()) return;
  if (key_or_null != nullptr) {
    auto it = deferred_.find(*key_or_null);
    if (it == deferred_.end()) return;
    auto& queue = queues_[*key_or_null];
    for (auto& msg : it->second) queue.push_back(std::move(msg));
    deferred_.erase(it);
    return;
  }
  for (auto& [key, parked] : deferred_) {
    auto& queue = queues_[key];
    for (auto& msg : parked) queue.push_back(std::move(msg));
  }
  deferred_.clear();
}

void Mailbox::deposit(Message msg, FaultInjector& faults) {
  const int from = msg.source;
  const int tag = msg.tag;
  const bool park = faults.active() && faults.defer(from, rank_, tag);
  const Key key{from, tag};
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (park) {
      deferred_[key].push_back(std::move(msg));
    } else {
      // Same-key parked messages must keep their FIFO position.
      flush_deferred(&key);
      queues_[key].push_back(std::move(msg));
      // Everything parked on other keys has now been overtaken; deliver.
      flush_deferred(nullptr);
    }
  }
  faults.message_delivered(from, rank_, tag);
  arrived_.notify_all();
}

std::optional<Message> Mailbox::receive(
    int from, int tag,
    const std::optional<std::chrono::milliseconds>& timeout,
    const std::atomic<bool>& closed, const std::atomic<bool>& peer_dead,
    const std::atomic<bool>* peer_drained) {
  std::unique_lock<std::mutex> lock(mutex_);
  const Key key{from, tag};
  const auto ready = [&] {
    if (closed.load()) return true;
    flush_deferred(&key);
    auto it = queues_.find(key);
    if (it != queues_.end() && !it->second.empty()) return true;
    return peer_dead.load() &&
           (peer_drained == nullptr || peer_drained->load());
  };
  if (timeout.has_value()) {
    if (!arrived_.wait_for(lock, *timeout, ready)) return std::nullopt;
  } else {
    arrived_.wait(lock, ready);
  }
  if (closed.load()) {
    throw ChannelClosedError("recv aborted: transport closed");
  }
  auto it = queues_.find(key);
  if (it != queues_.end() && !it->second.empty()) {
    // Drain semantics: messages a now-dead peer already delivered are
    // still handed out so receivers can finish in-flight work.
    Message msg = std::move(it->second.front());
    it->second.pop_front();
    return msg;
  }
  throw PeerDeadError(from, "recv aborted: rank " + std::to_string(from) +
                                " is dead");
}

void Mailbox::wake() {
  // Lock/unlock pairs with waiting receivers to avoid lost wakeups.
  { std::lock_guard<std::mutex> guard(mutex_); }
  arrived_.notify_all();
}

// ---------------------------------------------------------------------------
// InProcTransport

InProcTransport::InProcTransport(int world_size, LinkModel link,
                                 FaultPlan faults)
    : Transport(world_size, link, std::move(faults)) {
  mailboxes_.reserve(static_cast<std::size_t>(world_size));
  for (int i = 0; i < world_size; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>(i));
  }
}

void InProcTransport::deliver(int to, Message msg) {
  mailboxes_[static_cast<std::size_t>(to)]->deposit(std::move(msg), faults_);
}

std::optional<Message> InProcTransport::recv_message(
    int to, int from, int tag,
    const std::optional<std::chrono::milliseconds>& timeout) {
  check_rank(to, "recv destination");
  check_rank(from, "recv source");
  return receive(*mailboxes_[static_cast<std::size_t>(to)], to, from, tag,
                 timeout, /*peer_drained=*/nullptr);
}

void InProcTransport::wake_receivers() {
  for (auto& box : mailboxes_) box->wake();
}

}  // namespace pac::dist
