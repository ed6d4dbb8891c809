// Error types and checking macros used across all PAC libraries.
//
// Every precondition violation throws a typed exception derived from
// pac::Error; nothing in the library calls abort() or exit().  Device
// out-of-memory conditions get their own type because the planner treats
// them as "this configuration is infeasible" rather than as a bug.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace pac {

// Base class for all PAC exceptions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// Invalid argument / shape mismatch / bad configuration.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

// A simulated edge device exceeded its memory budget.  Carries the device id
// and the number of bytes that were requested past the budget so the planner
// can report infeasibility precisely.
class DeviceOomError : public Error {
 public:
  DeviceOomError(int device_id, std::uint64_t requested_bytes,
                 std::uint64_t budget_bytes)
      : Error(make_what(device_id, requested_bytes, budget_bytes)),
        device_id_(device_id),
        requested_bytes_(requested_bytes),
        budget_bytes_(budget_bytes) {}

  int device_id() const noexcept { return device_id_; }
  std::uint64_t requested_bytes() const noexcept { return requested_bytes_; }
  std::uint64_t budget_bytes() const noexcept { return budget_bytes_; }

 private:
  static std::string make_what(int device_id, std::uint64_t requested,
                               std::uint64_t budget) {
    std::ostringstream os;
    os << "device " << device_id << " out of memory: requested " << requested
       << " bytes with budget " << budget << " bytes";
    return os.str();
  }

  int device_id_;
  std::uint64_t requested_bytes_;
  std::uint64_t budget_bytes_;
};

// A communication channel was closed while a peer was blocked on it.
class ChannelClosedError : public Error {
 public:
  explicit ChannelClosedError(const std::string& what) : Error(what) {}
};

// A rank is lost: a peer's death (PeerDeadError) or this rank's own
// injected death (RankDeathError).  A recovery that only needs to know
// which rank to drop catches this base.
class RankLostError : public Error {
 public:
  RankLostError(int rank, const std::string& what)
      : Error(what), rank_(rank) {}

  // The rank that died (or is presumed dead).
  int rank() const noexcept { return rank_; }

 private:
  int rank_;
};

// A specific peer rank is dead (crashed, powered off, or presumed dead
// after recv timeouts).  Distinct from ChannelClosedError: only links that
// touch the dead rank are affected; the rest of the world keeps running.
class PeerDeadError : public RankLostError {
 public:
  PeerDeadError(int rank, const std::string& what)
      : RankLostError(rank, what) {}
};

// A send failed transiently (injected link glitch); retrying the same send
// is expected to succeed.  Communicator::send retries with backoff.
class TransientSendError : public Error {
 public:
  explicit TransientSendError(const std::string& what) : Error(what) {}
};

// Raised on the dying rank's own thread when a scheduled fault kills it.
// EdgeCluster::run converts this into a rank-scoped close so survivors
// unwind with PeerDeadError instead of ChannelClosedError.
class RankDeathError : public RankLostError {
 public:
  explicit RankDeathError(int rank)
      : RankLostError(rank, "rank " + std::to_string(rank) +
                                " died (injected fault)") {}
};

// A cooperative cancellation request was honored: the operation stopped
// at a safe boundary (between phases / at an epoch commit) and its partial
// results were discarded.  Raised by core::Session when the cancellation
// flag wired through SessionConfig::cancel is set, and by the service
// dispatcher's job runners.
class OperationCancelledError : public Error {
 public:
  explicit OperationCancelledError(const std::string& what) : Error(what) {}
};

// Requested activation-cache entry does not exist.
class CacheMissError : public Error {
 public:
  explicit CacheMissError(const std::string& what) : Error(what) {}
};

// A transport backend failed at the wire level: malformed frame, shared
// memory segment mismatch, socket setup failure.  Distinct from the
// rank-scoped failure types above — a TransportError means the machinery
// itself misbehaved, not that a peer died.
class TransportError : public Error {
 public:
  explicit TransportError(const std::string& what) : Error(what) {}
};

namespace detail {

[[noreturn]] inline void throw_check_failure(const char* cond,
                                             const char* file, int line,
                                             const std::string& msg) {
  std::ostringstream os;
  os << "PAC_CHECK failed: (" << cond << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw InvalidArgument(os.str());
}

}  // namespace detail
}  // namespace pac

// Checks a precondition; throws pac::InvalidArgument on failure.  The message
// argument is a streamable expression, e.g.
//   PAC_CHECK(a.rows() == b.cols(), "matmul shape mismatch: " << a.rows());
#define PAC_CHECK(cond, ...)                                              \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::ostringstream pac_check_os_;                                   \
      pac_check_os_ << "" __VA_OPT__(<< __VA_ARGS__);                     \
      ::pac::detail::throw_check_failure(#cond, __FILE__, __LINE__,       \
                                         pac_check_os_.str());            \
    }                                                                     \
  } while (0)
