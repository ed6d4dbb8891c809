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
  wire_send(to, frame);
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
    case wire::FrameType::kClose:
      if (!closed_.exchange(true)) box_.wake();
      break;
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

}  // namespace pac::dist
