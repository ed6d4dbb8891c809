// Ready-made TransportFactory builders for TCP endpoints.  The loopback
// factory runs every rank of a world inside ONE process over real sockets
// — the cross-backend conformance suite and the loopback benchmarks use it
// to swap the in-process mailbox for TCP without touching any call sites;
// the rendezvous factory wires ranks in different processes or machines.
//
// Both factories detect run boundaries from the rank sequence (EdgeCluster
// calls the factory in ascending rank order once per run), so one factory
// instance serves any number of cluster.run() calls, giving each run a
// fresh socket mesh.
#pragma once

#include <string>

#include "dist/cluster.hpp"
#include "dist/tcp_transport.hpp"

namespace pac::dist {

// Endpoints bind kernel-assigned loopback ports; the factory exchanges
// them in-memory as endpoints are created, so the mesh is fully wired
// before cluster.run spawns any rank thread.  `tuning` applies to every
// endpoint (reconnect budget, frame auth, ...).
TransportFactory make_tcp_loopback_factory(TcpTuning tuning = {});

// Cross-machine wiring through a rendezvous service (dist/rendezvous.hpp):
// each endpoint binds a kernel-assigned port, announces itself under
// "<run_id>_g<generation>" once it listens, and resolves peers lazily through the service
// the first time it dials them — no shared filesystem or in-memory
// exchange needed, so the same factory works in every process of a
// multi-machine run.
struct TcpRendezvousOptions {
  std::string server_host = "127.0.0.1";
  std::uint16_t server_port = 0;
  // Address peers should dial to reach THIS process (the host carried in
  // the announcement).
  std::string advertise_host = "127.0.0.1";
  std::string run_id = "pac";
  // Fetch the run's shared frame-auth key from the service and enable MAC
  // verification on every endpoint.
  bool fetch_auth_key = false;
  TcpTuning tuning;
};
TransportFactory make_tcp_rendezvous_factory(TcpRendezvousOptions options);

}  // namespace pac::dist
