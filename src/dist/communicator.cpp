#include "dist/communicator.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "costmodel/device_spec.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace pac::dist {

namespace {

// Seed for the multiplicative backoff jitter.  Pure doubling/linear
// backoff synchronizes retry bursts when several ranks hit the same
// transient-failure window; each wait is instead scaled by a factor in
// [0.5, 1.5) that is a deterministic function of (seed, rank, attempt),
// so per-rank schedules diverge but stay reproducible.
constexpr std::uint64_t kBackoffJitterSeed = 0xBAC0FF5EEDULL;
// A recv timeout that expires while the transport reports the link
// *degraded* (mid-reconnect) does not consume a retry attempt: link loss
// under an active reconnect budget is not evidence of a dead peer.  The
// cap bounds how many frozen windows a wedged reconnect can buy before
// the normal presumption clock resumes.
constexpr int kMaxDegradedWindows = 64;

}  // namespace

double backoff_jitter(std::uint64_t seed, int rank, int attempt) {
  if (seed == 0) return 1.0;
  // SplitMix64 over (seed, rank, attempt): matches the fault injector's
  // event hashing so jitter is stable across platforms and interleavings.
  std::uint64_t z = seed;
  z ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)) << 32) ^
       static_cast<std::uint64_t>(static_cast<std::uint32_t>(attempt));
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return 0.5 + static_cast<double>(z >> 11) * 0x1.0p-53;
}

bool allreduce_prefers_direct(const LinkModel& link, int group_size,
                              std::uint64_t bytes) {
  return costmodel::direct_allreduce_is_cheaper(static_cast<double>(bytes),
                                                group_size, link.latency_s,
                                                link.bandwidth_bps);
}

double Communicator::compute_throttle() const {
  FaultInjector& faults = transport_->fault_injector();
  return faults.active() ? faults.throttle_of(rank_) : 1.0;
}

Communicator::~Communicator() {
  std::unique_lock<std::mutex> lk(async_mutex_);
  if (!sender_running_) return;
  // Best-effort drain: deliver what we can, but never hang teardown — if
  // the sender already faulted the queue is cleared, and if the transport
  // is closed the next attempt fails fast.
  stop_ = true;
  async_cv_.notify_all();
  lk.unlock();
  sender_.join();
}

void Communicator::rethrow_deferred_error() const {
  // Caller holds async_mutex_.
  if (deferred_error_) std::rethrow_exception(deferred_error_);
}

bool Communicator::has_pending_locked(int to, int tag) const {
  if (inflight_key_ && *inflight_key_ == std::make_pair(to, tag)) return true;
  for (const QueuedSend& q : queue_) {
    if (q.to == to && q.msg.tag == tag) return true;
  }
  return false;
}

void Communicator::send_with_retry(int to, const Message& msg) {
  for (int attempt = 0;; ++attempt) {
    try {
      // Each attempt ships a copy, so a failed one leaves `msg` intact for
      // the retry (a Tensor copy shares storage; a QTensor copy is deep).
      transport_->send_message(to, msg);
      return;
    } catch (const TransientSendError&) {
      if (attempt >= policy_.max_send_retries) throw;
      obs::CounterRegistry::instance().add("comm.transient_retries", 1);
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          policy_.send_backoff_ms * static_cast<double>(attempt + 1) *
          backoff_jitter(kBackoffJitterSeed, rank_, attempt)));
    }
  }
}

void Communicator::send_message(int to, const Message& msg) {
  {
    std::unique_lock<std::mutex> lk(async_mutex_);
    rethrow_deferred_error();
    // Preserve per-(to, tag) FIFO: a blocking send must not overtake isends
    // already queued for the same key.
    drained_cv_.wait(lk, [&] {
      return deferred_error_ || !has_pending_locked(to, msg.tag);
    });
    rethrow_deferred_error();
  }
  send_with_retry(to, msg);
}

void Communicator::send(int to, int tag, Tensor payload) {
  send_message(to, Message{rank_, tag, std::move(payload), std::nullopt});
}

void Communicator::send_q(int to, int tag, quant::QTensor payload) {
  send_message(to, Message{rank_, tag, Tensor(), std::move(payload)});
}

Message Communicator::recv_message(int from, int tag) {
  {
    std::lock_guard<std::mutex> lk(async_mutex_);
    rethrow_deferred_error();
  }
  if (policy_.recv_timeout_ms <= 0.0) {
    // An untimed receive returns only with a message or by throwing.
    return transport_->recv_message(rank_, from, tag, std::nullopt).value();
  }
  double wait_ms = policy_.recv_timeout_ms;
  int degraded_windows = 0;
  for (int attempt = 0; attempt <= policy_.max_recv_retries;) {
    // The doubling base stays deterministic; only the waited duration is
    // jittered, so the retry *budget* is unchanged while concurrent ranks
    // de-synchronize their probes.
    const double jittered =
        wait_ms * backoff_jitter(kBackoffJitterSeed, rank_,
                                 attempt + degraded_windows);
    auto result = transport_->recv_message(
        rank_, from, tag,
        std::chrono::milliseconds(
            std::max<std::int64_t>(1, static_cast<std::int64_t>(jittered))));
    if (result.has_value()) return std::move(*result);
    if (transport_->link_degraded(from) &&
        degraded_windows < kMaxDegradedWindows) {
      // A degraded link is mid-reconnect: this window proves nothing about
      // the peer being dead, so it does not consume a retry attempt.
      ++degraded_windows;
      continue;
    }
    ++attempt;
    wait_ms *= 2.0;  // backoff: give a slow or congested link more time
  }
  // Record the presumption as the root-cause death so cascading unwinds
  // on other ranks (and other processes) absorb the same dead rank.
  transport_->report_root_death(from);
  throw PeerDeadError(from, "rank " + std::to_string(from) +
                                " presumed dead: recv(tag " +
                                std::to_string(tag) + ") timed out after " +
                                std::to_string(policy_.max_recv_retries + 1) +
                                " attempts");
}

Tensor Communicator::recv(int from, int tag) {
  return message_to_tensor(recv_message(from, tag));
}

quant::QTensor Communicator::recv_q(int from, int tag) {
  return message_to_q(recv_message(from, tag));
}

void Communicator::isend(int to, int tag, Tensor payload) {
  std::lock_guard<std::mutex> lk(async_mutex_);
  rethrow_deferred_error();
  if (!transport_->send_may_wait()) {
    // This transport's sends never wait, so a sender-thread hop would only
    // add a wake-up: deliver here.  Such a Communicator never queues an
    // isend, so nothing can be ahead of this message, and the lock stays
    // held, so no other comm call sees it half-sent.
    int death = -1;
    std::exception_ptr error = deliver(
        to, Message{rank_, tag, std::move(payload), std::nullopt},
        death);
    if (error) defer_failure_locked(error, death);
    return;
  }
  queue_.push_back(QueuedSend{
      to, Message{rank_, tag, std::move(payload), std::nullopt}});
  if (obs::enabled()) {
    obs::CounterRegistry::instance().high_water(
        "comm.isend_queue_depth.rank" + std::to_string(rank_),
        static_cast<std::int64_t>(queue_.size() + (inflight_key_ ? 1 : 0)));
  }
  if (!sender_running_) {
    sender_running_ = true;
    sender_ = std::thread([this] { sender_main(); });
  }
  async_cv_.notify_one();
}

PendingRecv Communicator::irecv(int from, int tag) {
  {
    std::lock_guard<std::mutex> lk(async_mutex_);
    rethrow_deferred_error();
  }
  return PendingRecv(this, from, tag);
}

Tensor PendingRecv::wait() {
  PAC_CHECK(comm_ != nullptr, "wait() on an invalid PendingRecv");
  if (!done_) {
    value_ = comm_->recv(from_, tag_);
    done_ = true;
  }
  return value_;
}

void Communicator::flush_sends() {
  std::unique_lock<std::mutex> lk(async_mutex_);
  drained_cv_.wait(lk, [&] {
    return deferred_error_ || (queue_.empty() && !inflight_key_);
  });
  rethrow_deferred_error();
}

std::size_t Communicator::pending_sends() const {
  std::lock_guard<std::mutex> lk(async_mutex_);
  return queue_.size() + (inflight_key_ ? 1 : 0);
}

void Communicator::abandon_sends() {
  std::lock_guard<std::mutex> lk(async_mutex_);
  queue_.clear();
  drained_cv_.notify_all();
}

std::optional<int> Communicator::deferred_death_rank() const {
  std::lock_guard<std::mutex> lk(async_mutex_);
  if (death_rank_ < 0) return std::nullopt;
  return death_rank_;
}

std::exception_ptr Communicator::deliver(int to, const Message& msg,
                                         int& death) {
  try {
    send_with_retry(to, msg);
  } catch (const RankDeathError& e) {
    death = e.rank();
    return std::current_exception();
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

void Communicator::defer_failure_locked(std::exception_ptr error, int death) {
  // First failure wins; everything still queued is undeliverable state the
  // owner will abandon during recovery.
  if (!deferred_error_) {
    deferred_error_ = std::move(error);
    death_rank_ = death;
  }
  queue_.clear();
  drained_cv_.notify_all();
}

void Communicator::sender_main() {
  obs::set_thread_name("rank" + std::to_string(rank_) + "/sender", rank_);
  std::unique_lock<std::mutex> lk(async_mutex_);
  for (;;) {
    {
      PAC_TRACE_SCOPE("sender_wait", rank_);
      async_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
    }
    if (queue_.empty()) break;  // stop requested and nothing left to send
    QueuedSend next = std::move(queue_.front());
    queue_.pop_front();
    inflight_key_ = std::make_pair(next.to, next.msg.tag);
    lk.unlock();

    std::exception_ptr error;
    int death = -1;
    {
      PAC_TRACE_SCOPE("sender_send", next.to, next.msg.tag);
      error = deliver(next.to, next.msg, death);
    }

    lk.lock();
    inflight_key_.reset();
    if (error) {
      defer_failure_locked(error, death);
      break;
    }
    // Wake flushers and blocked same-key senders after every delivery —
    // a send waiting on its (to, tag) key must not wait for the whole
    // queue to drain.
    drained_cv_.notify_all();
  }
  drained_cv_.notify_all();
}

int Communicator::group_index(const std::vector<int>& group) const {
  PAC_CHECK(!group.empty(), "empty collective group");
  PAC_CHECK(std::is_sorted(group.begin(), group.end()),
            "collective group must be sorted");
  PAC_CHECK(std::adjacent_find(group.begin(), group.end()) == group.end(),
            "collective group has duplicates");
  auto it = std::find(group.begin(), group.end(), rank_);
  PAC_CHECK(it != group.end(), "rank " << rank_
                                       << " not a member of the group");
  return static_cast<int>(it - group.begin());
}

Tensor Communicator::broadcast(Tensor payload, int root,
                               const std::vector<int>& group, int tag) {
  group_index(group);
  PAC_CHECK(std::find(group.begin(), group.end(), root) != group.end(),
            "broadcast root " << root << " not in group");
  if (rank_ == root) {
    for (int peer : group) {
      if (peer == root) continue;
      send(peer, tag, payload.clone());
    }
    return payload;
  }
  return recv(root, tag);
}

void Communicator::allreduce_sum(Tensor& t, const std::vector<int>& group,
                                 int tag) {
  group_index(group);
  if (group.size() == 1) return;
  PAC_CHECK(t.defined(), "allreduce on undefined tensor");
  if (allreduce_prefers_direct(transport_->link(),
                               static_cast<int>(group.size()),
                               t.byte_size())) {
    allreduce_direct(t, group, tag);
  } else {
    allreduce_ring(t, group, tag);
  }
}

namespace {

// Bounds of chunk c when n elements split into g ring chunks.
std::pair<std::int64_t, std::int64_t> ring_chunk(std::int64_t n,
                                                 std::int64_t g,
                                                 std::int64_t c) {
  const std::int64_t chunk = (n + g - 1) / g;
  const std::int64_t begin = std::min<std::int64_t>(n, c * chunk);
  const std::int64_t end = std::min<std::int64_t>(n, begin + chunk);
  return {begin, end};
}

}  // namespace

void Communicator::allreduce_ring(Tensor& t, const std::vector<int>& group,
                                  int tag) {
  const int g = static_cast<int>(group.size());
  const int me = group_index(group);
  const int next = group[static_cast<std::size_t>((me + 1) % g)];
  const int prev = group[static_cast<std::size_t>((me - 1 + g) % g)];
  const std::int64_t n = t.numel();
  Tensor flat = t.reshape({n});
  auto chunk_range = [&](int c) { return ring_chunk(n, g, c); };

  // Reduce-scatter: after g-1 steps, chunk (me+1) mod g holds the full sum.
  for (int step = 0; step < g - 1; ++step) {
    const int send_chunk = ((me - step) % g + g) % g;
    const int recv_chunk = ((me - step - 1) % g + g) % g;
    auto [sb, se] = chunk_range(send_chunk);
    send(next, tag, flat.slice0(sb, se).clone());
    Tensor in = recv(prev, tag);
    auto [rb, re] = chunk_range(recv_chunk);
    Tensor dst = flat.slice0(rb, re);
    PAC_CHECK(in.numel() == dst.numel(), "ring allreduce chunk mismatch");
    if (in.numel() > 0) dst.add_(in);
  }
  // All-gather the reduced chunks.
  for (int step = 0; step < g - 1; ++step) {
    const int send_chunk = ((me + 1 - step) % g + g) % g;
    const int recv_chunk = ((me - step) % g + g) % g;
    auto [sb, se] = chunk_range(send_chunk);
    send(next, tag, flat.slice0(sb, se).clone());
    Tensor in = recv(prev, tag);
    auto [rb, re] = chunk_range(recv_chunk);
    Tensor dst = flat.slice0(rb, re);
    PAC_CHECK(in.numel() == dst.numel(), "ring allgather chunk mismatch");
    if (in.numel() > 0) dst.copy_from(in);
  }
}

void Communicator::allreduce_direct(Tensor& t, const std::vector<int>& group,
                                    int tag) {
  const std::size_t g = group.size();
  const auto me = static_cast<std::size_t>(group_index(group));
  const std::int64_t n = t.numel();
  Tensor flat = t.reshape({n});
  // One snapshot of this rank's terms goes to every peer (receivers only
  // read it) and stays this rank's own operand in the fold.
  std::vector<Tensor> terms(g);
  terms[me] = flat.clone();
  for (std::size_t i = 0; i < g; ++i) {
    if (i != me) send(group[i], tag, terms[me]);
  }
  for (std::size_t i = 0; i < g; ++i) {
    if (i == me) continue;
    Tensor in = recv(group[i], tag);
    PAC_CHECK(in.numel() == n, "direct allreduce payload mismatch");
    terms[i] = in.reshape({n});
  }
  // Chunk c in ring order: x_c, then x_{c+1}, ..., x_{c+g-1}.  The ring's
  // reduce-scatter forms x_{c+k} + acc where this forms acc + x_{c+k}; IEEE
  // addition is commutative, so the bits agree.
  for (std::size_t c = 0; c < g; ++c) {
    const auto [b, e] = ring_chunk(n, static_cast<std::int64_t>(g),
                                   static_cast<std::int64_t>(c));
    if (b == e) continue;
    Tensor dst = flat.slice0(b, e);
    if (c != me) dst.copy_from(terms[c].slice0(b, e));
    for (std::size_t k = 1; k < g; ++k) {
      dst.add_(terms[(c + k) % g].slice0(b, e));
    }
  }
}

}  // namespace pac::dist
