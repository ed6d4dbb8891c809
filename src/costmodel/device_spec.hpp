// Hardware model of the paper's testbed.
//
// The paper evaluates on a cluster of NVIDIA Jetson Nano boards (4 GB DRAM,
// ~472 GFLOPS fp16 peak) connected by a 128 Mbps LAN.  We do not have that
// hardware; these constants parameterize the analytic cost model and the
// discrete-event simulator instead.  They are the only hand-calibrated
// numbers in the reproduction:
//
//   effective_flops — sustained fp32 training throughput.  Calibrated from
//       Table 2: Standalone/Adapters/T5-Base takes 1.21 h for 3 MRPC epochs
//       (11 004 samples -> ~0.40 s/sample at ~59 GFLOP/sample), implying
//       ~150 GFLOPS sustained.
//   os_reserved_bytes — DRAM the OS and runtime keep from the 4 GB total
//       (the paper notes 4-12 GB devices must also run system software).
//   flash read bandwidth — activation-cache reload path ("no more than tens
//       of milliseconds per micro-batch on embedded flash", §5.2).
#pragma once

#include <algorithm>
#include <cstdint>

namespace pac::costmodel {

struct DeviceModel {
  double effective_flops = 150e9;       // sustained fp32 FLOP/s
  std::uint64_t dram_bytes = 4ULL << 30;
  std::uint64_t os_reserved_bytes = 1288490188;  // ~1.2 GiB
  double flash_read_bps = 400e6 * 8;    // 400 MB/s embedded flash

  std::uint64_t usable_bytes() const {
    return dram_bytes - os_reserved_bytes;
  }
};

// The two schedules of a ring-ordered AllReduce of a `bytes`-byte payload
// over `group` members, on links costing a = latency_s per message and
// b = 8 / bandwidth_bps seconds per byte (dist/communicator.hpp):
//   ring   — reduce-scatter then all-gather, 2(g-1) hops of N/g bytes;
//   direct — every member sends its whole buffer to every peer at once.
// The runtime's schedule choice and the planner's price both read these.
inline double ring_allreduce_seconds(double bytes, int group,
                                     double latency_s, double bandwidth_bps) {
  const double g = static_cast<double>(group);
  return 2.0 * (g - 1.0) * (latency_s + bytes / g * 8.0 / bandwidth_bps);
}

inline double direct_allreduce_seconds(double bytes, int group,
                                       double latency_s,
                                       double bandwidth_bps) {
  const double g = static_cast<double>(group);
  return latency_s + (g - 1.0) * bytes * 8.0 / bandwidth_bps;
}

struct NetworkModel {
  double bandwidth_bps = 128e6;  // paper: 128 Mbps LAN
  // Effective per-message overhead: LAN RTT plus userspace TCP
  // serialization on Jetson-class hosts (tens of ms in practice — this is
  // what makes deep pipelines pay for their extra hops).
  double latency_s = 20e-3;
  // Gradients are shipped fp16 on the wire (standard edge-training
  // compression; the paper calls the adapter AllReduce "swift").
  double allreduce_wire_factor = 0.5;

  double transfer_seconds(std::uint64_t bytes) const {
    return latency_s + static_cast<double>(bytes) * 8.0 / bandwidth_bps;
  }

  // AllReduce of `bytes` (fp32 gradient bytes) across `group` devices,
  // priced as the schedule the runtime picks (dist::allreduce_sum runs
  // the cheaper of ring and direct; see allreduce_prefers_direct).
  double allreduce_seconds(std::uint64_t bytes, int group) const {
    if (group <= 1 || bytes == 0) return 0.0;
    const double wire = static_cast<double>(bytes) * allreduce_wire_factor;
    return std::min(
        ring_allreduce_seconds(wire, group, latency_s, bandwidth_bps),
        direct_allreduce_seconds(wire, group, latency_s, bandwidth_bps));
  }
};

inline DeviceModel jetson_nano() { return DeviceModel{}; }
inline NetworkModel edge_lan() { return NetworkModel{}; }

// Network model for executed in-process clusters (device threads sharing
// one address space): message passing is effectively a memcpy.
inline NetworkModel in_process_network() {
  NetworkModel net;
  net.bandwidth_bps = 100e9;
  net.latency_s = 50e-6;
  net.allreduce_wire_factor = 1.0;
  return net;
}

}  // namespace pac::costmodel
