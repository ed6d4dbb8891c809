#include "dist/transport_factories.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "dist/rendezvous.hpp"
#include "dist/tcp_transport.hpp"

namespace pac::dist {

// EdgeCluster::run destroys the previous run's endpoints, then calls the
// factory once per live local rank in ascending order — so a rank that is
// not strictly greater than the previous call's marks a new run (the next
// run's first live rank can never exceed the previous run's last).

TransportFactory make_tcp_loopback_factory(TcpTuning tuning) {
  struct State {
    TcpTuning tuning;
    int last_rank = -1;
    // Endpoints created so far this run; raw pointers stay valid because
    // the cluster owns them for the whole run.
    std::vector<std::pair<int, TcpTransport*>> made;
  };
  auto state = std::make_shared<State>();
  state->tuning = std::move(tuning);
  return [state](int world, int rank, const LinkModel& link,
                 const FaultPlan& faults) -> std::unique_ptr<Transport> {
    if (!state->made.empty() && rank <= state->last_rank) state->made.clear();
    state->last_rank = rank;
    auto endpoint =
        std::make_unique<TcpTransport>(world, rank, /*bind_port=*/0, link,
                                       faults, state->tuning);
    for (auto& [peer_rank, peer] : state->made) {
      peer->set_peer(rank, TcpPeer{"127.0.0.1", endpoint->port()});
      endpoint->set_peer(peer_rank, TcpPeer{"127.0.0.1", peer->port()});
    }
    state->made.emplace_back(rank, endpoint.get());
    return endpoint;
  };
}

TransportFactory make_tcp_rendezvous_factory(TcpRendezvousOptions options) {
  struct State {
    TcpRendezvousOptions opts;
    int generation = -1;
    int last_rank = -1;
  };
  auto state = std::make_shared<State>();
  state->opts = std::move(options);
  return [state](int world, int rank, const LinkModel& link,
                 const FaultPlan& faults) -> std::unique_ptr<Transport> {
    if (state->generation < 0 || rank <= state->last_rank) {
      ++state->generation;
    }
    state->last_rank = rank;
    const std::string run = state->opts.run_id + "_g" +
                            std::to_string(state->generation);
    RendezvousClient client(state->opts.server_host,
                            state->opts.server_port);
    TcpTuning tuning = state->opts.tuning;
    if (state->opts.fetch_auth_key) {
      tuning.auth_key = client.fetch_key(run);
    }
    auto endpoint = std::make_unique<TcpTransport>(
        world, rank, /*bind_port=*/0, link, faults, std::move(tuning));
    client.announce(run, rank,
                    TcpPeer{state->opts.advertise_host, endpoint->port()});
    // Peers resolve lazily at first dial — a rank that is already dead by
    // then is simply never looked up, and the dial deadline bounds how
    // long we wait for a straggler to announce.
    const auto opts = state->opts;
    endpoint->set_peer_resolver(
        [opts, run](int peer) -> std::optional<TcpPeer> {
          RendezvousClient resolver(opts.server_host, opts.server_port);
          return resolver.lookup(run, peer);
        });
    return endpoint;
  };
}

}  // namespace pac::dist
