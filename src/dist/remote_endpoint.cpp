#include "dist/remote_endpoint.hpp"

#include <string>

#include "common/error.hpp"

namespace pac::dist {

RemoteEndpointBase::RemoteEndpointBase(int world_size, int rank,
                                       LinkModel link, FaultPlan faults)
    : Transport(world_size, link, std::move(faults)),
      rank_(rank),
      box_(rank),
      drained_(static_cast<std::size_t>(world_size)) {
  check_rank(rank, "endpoint");
  for (int i = 0; i < world_size; ++i) {
    send_mutex_.push_back(std::make_unique<std::mutex>());
  }
}

void RemoteEndpointBase::deliver(int to, Message msg) {
  PAC_CHECK(msg.source == rank_, "endpoint of rank "
                                     << rank_ << " cannot send as rank "
                                     << msg.source);
  if (to == rank_) {
    // Self-send: deposit locally; the deposit advances the fault sequence.
    box_.deposit(std::move(msg), faults_);
    return;
  }
  const auto frame = msg.q.has_value()
                         ? wire::encode_data_q(msg.source, msg.tag, *msg.q)
                         : wire::encode_data(msg.source, msg.tag, msg.payload);
  {
    std::lock_guard<std::mutex> guard(
        *send_mutex_[static_cast<std::size_t>(to)]);
    wire_send(to, frame);
  }
  faults_.message_delivered(msg.source, to, msg.tag);
}

std::optional<Message> RemoteEndpointBase::recv_message(
    int to, int from, int tag,
    const std::optional<std::chrono::milliseconds>& timeout) {
  check_rank(to, "recv destination");
  check_rank(from, "recv source");
  PAC_CHECK(to == rank_, "endpoint of rank " << rank_
                             << " cannot recv as rank " << to);
  // A dead peer unblocks the receiver only once the inbound wire has
  // quiesced, so messages already on the wire keep drain semantics.
  return receive(box_, to, from, tag, timeout,
                 &drained_[static_cast<std::size_t>(from)]);
}

void RemoteEndpointBase::handle_frame(wire::Frame frame) {
  switch (frame.type) {
    case wire::FrameType::kData: {
      Message msg;
      msg.source = frame.src;
      msg.tag = frame.tag;
      if (frame.qpayload.has_value()) {
        msg.q = std::move(*frame.qpayload);
      } else if (frame.payload_defined) {
        msg.payload = std::move(frame.payload);
      }
      box_.deposit(std::move(msg), faults_);
      break;
    }
    case wire::FrameType::kRankDead:
      mark_dead_local(frame.src);
      break;
    case wire::FrameType::kClose:
      mark_closed_local();
      break;
    case wire::FrameType::kRootDead:
      // Backends that gossip root-death in-band (TCP) intercept this before
      // handle_frame; any other route still lands on the shared recorder so
      // a valid frame is never silently dropped.
      report_root_death(frame.src);
      break;
    case wire::FrameType::kHello:
      throw TransportError("unexpected HELLO frame past the handshake");
    case wire::FrameType::kResync:
      // Resync/ack frames are connection-scoped (TCP intercepts them in its
      // rx loop); one reaching the shared dispatcher is a protocol bug.
      throw TransportError("unexpected RESYNC frame past the handshake");
    default:
      throw TransportError("unhandled frame type " +
                           std::to_string(static_cast<int>(frame.type)));
  }
}

void RemoteEndpointBase::mark_dead_local(int rank) {
  check_rank(rank, "mark_dead_local");
  if (dead_[static_cast<std::size_t>(rank)].exchange(true)) return;
  box_.wake();
}

void RemoteEndpointBase::set_drained(int rank) {
  check_rank(rank, "set_drained");
  if (drained_[static_cast<std::size_t>(rank)].exchange(true)) return;
  box_.wake();
}

bool RemoteEndpointBase::drained(int rank) const {
  return drained_[static_cast<std::size_t>(rank)].load();
}

void RemoteEndpointBase::mark_closed_local() {
  if (closed_.exchange(true)) return;
  box_.wake();
}

}  // namespace pac::dist
