// Multi-process rank launcher: runs a core::Session with every rank in its
// own OS process, wired through TCP loopback instead of the in-process
// mailbox.
//
// Launcher mode (default) forks one child per rank *before any threads
// exist*, then supervises: it can SIGKILL a chosen rank mid-run (the
// proc-chaos harness).  Nobody tells the survivors: their TCP endpoints
// detect the death themselves (a dial to the corpse's address is refused,
// see dist/tcp_transport.hpp).  Each surviving child writes a small
// key/value report (epoch losses, eval metric, deaths absorbed) that the
// test suite compares against an in-process oracle run.
//
//   multiproc_ranks --world N --workdir DIR [--epochs E]
//                   [--kill-rank R --kill-phase 1|2] [--link-delay-ms D]
//                   [--auth] [--verbose]
//
// Wiring goes through the rendezvous service: the launcher binds the
// server socket before forking, runs the serve loop in a dedicated child
// process, and every rank announces/resolves through it — the same flow a
// true multi-machine launch uses (point the ranks at a shared rendezvous
// host instead of the forked one).  --auth additionally fetches the run's
// shared frame-auth key so every frame is MAC-verified.
//
// Internal: --child-rank R re-enters the same binary as rank R's process.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cache/activation_cache.hpp"
#include "common/logging.hpp"
#include "core/session.hpp"
#include "dist/rendezvous.hpp"
#include "dist/tcp_transport.hpp"
#include "dist/transport_factories.hpp"

namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

struct Options {
  int world = 4;
  std::string workdir;
  int epochs = 3;
  int kill_rank = -1;
  int kill_phase = 1;
  double link_delay_ms = 0.0;  // >0: emulate link latency in realtime
  bool auth = false;           // MAC-verify every frame
  bool verbose = false;
  int child_rank = -1;  // >= 0: this process is a rank, not the launcher
  std::string base;     // rendezvous namespace (set by launcher)
  std::uint16_t rdv_port = 0;  // rendezvous server port (set by launcher)
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--world") {
      o.world = std::stoi(next());
    } else if (a == "--workdir") {
      o.workdir = next();
    } else if (a == "--epochs") {
      o.epochs = std::stoi(next());
    } else if (a == "--kill-rank") {
      o.kill_rank = std::stoi(next());
    } else if (a == "--kill-phase") {
      o.kill_phase = std::stoi(next());
    } else if (a == "--link-delay-ms") {
      o.link_delay_ms = std::stod(next());
    } else if (a == "--auth") {
      o.auth = true;
    } else if (a == "--verbose") {
      o.verbose = true;
    } else if (a == "--child-rank") {
      o.child_rank = std::stoi(next());
    } else {
      std::cerr << "unknown flag " << a << "\n";
      std::exit(2);
    }
  }
  if (o.workdir.empty()) {
    std::cerr << "--workdir is required\n";
    std::exit(2);
  }
  return o;
}

// Same tiny deterministic workload as the in-process chaos tests, so a
// multi-process run is directly comparable to an in-process oracle.
pac::data::SyntheticGlueDataset make_dataset() {
  pac::data::DatasetConfig cfg;
  cfg.task = pac::data::GlueTask::kSst2;
  cfg.train_samples = 24;
  cfg.eval_samples = 12;
  cfg.seq_len = 8;
  cfg.vocab = 32;
  return pac::data::SyntheticGlueDataset(cfg);
}

std::vector<pac::planner::BlockProfile> fixed_profiles(std::int64_t n) {
  std::vector<pac::planner::BlockProfile> blocks;
  for (std::int64_t i = 0; i < n; ++i) {
    pac::planner::BlockProfile b;
    b.name = "block" + std::to_string(i);
    b.t_fwd = 1e-4;
    b.t_bwd = 2e-4;
    b.param_bytes = 64 * 1024;
    b.trainable_bytes = 4 * 1024;
    b.activation_bytes = 8 * 1024;
    b.fwd_msg_bytes = 4 * 1024;
    b.bwd_msg_bytes = 512;
    blocks.push_back(b);
  }
  return blocks;
}

pac::core::SessionConfig make_session_config(const Options& o) {
  pac::core::SessionConfig cfg;
  cfg.model = pac::model::tiny(4, 16, 2, 32, 8);
  cfg.technique.technique = pac::model::Technique::kParallelAdapters;
  cfg.technique.pa_reduction = 4;
  cfg.batch_size = 8;
  cfg.num_micro_batches = 4;
  cfg.epochs = o.epochs;
  cfg.lr = 5e-3F;
  cfg.profile_override = fixed_profiles(4 + 2);
  cfg.cache_disk_backed = true;
  cfg.cache_directory = o.workdir + "/cache";
  return cfg;
}

// ---- child (one rank) ---------------------------------------------------

int child_main(const Options& o) {
  if (o.verbose) pac::set_log_level(pac::LogLevel::kInfo);
  auto ds = make_dataset();
  pac::dist::LinkModel link;
  if (o.link_delay_ms > 0.0) {
    // Realtime link emulation: stretches the run so an external SIGKILL
    // has a wide mid-epoch window to land in (values are unaffected —
    // delays change timing only).
    link.latency_s = o.link_delay_ms / 1000.0;
    link.simulate_delay = true;
  }
  pac::dist::EdgeCluster cluster(
      o.world, std::numeric_limits<std::uint64_t>::max(), link);
  cluster.set_local_ranks({o.child_rank});

  // One transport generation per cluster.run() call.  Control flow is
  // deterministic across processes (same session decisions everywhere), so
  // every process counts the same generations and rendezvouses on the same
  // run ids: the factory announces and resolves under
  // "<base>_g<generation>".  Peer addresses are looked up lazily at first
  // dial, so dead ranks are never waited on.
  pac::dist::TcpRendezvousOptions ropts;
  ropts.server_host = "127.0.0.1";
  ropts.server_port = o.rdv_port;
  ropts.run_id = o.base;
  ropts.fetch_auth_key = o.auth;
  cluster.set_transport_factory(pac::dist::make_tcp_rendezvous_factory(ropts));

  // Timed receives: each expired window probes the awaited peer (a refused
  // dial proves it dead), and a peer that never answers is presumed dead
  // after these windows instead of hanging the rank forever.
  pac::dist::CommPolicy policy;
  policy.recv_timeout_ms = 1500.0;
  policy.max_recv_retries = 3;
  cluster.set_comm_policy(policy);

  pac::core::Session session(cluster, ds, make_session_config(o));
  pac::core::SessionReport report = session.run();

  const std::string path =
      o.workdir + "/report_rank" + std::to_string(o.child_rank);
  std::ofstream out(path + ".tmp");
  out.precision(17);
  out << "epochs " << report.epoch_losses.size() << "\n";
  for (double l : report.epoch_losses) out << "loss " << l << "\n";
  out << "eval " << report.eval_metric << "\n";
  out << "deaths " << report.rank_deaths << "\n";
  for (int r : report.dead_ranks) out << "dead " << r << "\n";
  out.close();
  fs::rename(path + ".tmp", path);
  return 0;
}

// ---- launcher -----------------------------------------------------------

// True once the spill log in `dir` holds a complete record, i.e. salvaging
// it would recover at least one sample.
bool spill_log_has_record(const std::string& dir,
                          const pac::core::SessionConfig& cfg) {
  pac::cache::CacheConfig probe;
  probe.num_blocks = cfg.model.encoder_layers + 1;
  probe.dtype = cfg.cache_dtype;
  return pac::cache::ActivationCache(probe).absorb_spilled_directory(dir) > 0;
}

int launcher_main(Options o) {
  fs::create_directories(o.workdir);
  fs::create_directories(o.workdir + "/cache");
  // Children are forked (never exec'd), so the Options copy — including
  // this pid-derived namespace — rides into every rank's process.
  o.base = "pac_mp_" + std::to_string(static_cast<long>(getpid()));

  // Bind the rendezvous socket BEFORE forking (no listen race), then serve
  // it from a dedicated child process — the single-threaded poll loop is
  // fork-safe by construction.
  pac::dist::RendezvousServer rdv;
  o.rdv_port = rdv.port();
  const pid_t rdv_pid = fork();
  if (rdv_pid < 0) {
    std::cerr << "fork (rendezvous) failed: " << std::strerror(errno)
              << "\n";
    return 1;
  }
  if (rdv_pid == 0) {
    rdv.serve_forever();
    _exit(0);
  }

  std::vector<pid_t> pids(static_cast<std::size_t>(o.world), -1);
  for (int r = 0; r < o.world; ++r) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::cerr << "fork failed: " << std::strerror(errno) << "\n";
      return 1;
    }
    if (pid == 0) {
      Options child = o;
      child.child_rank = r;
      try {
        _exit(child_main(child));
      } catch (const std::exception& e) {
        std::cerr << "rank " << r << " failed: " << e.what() << "\n";
        _exit(1);
      }
    }
    pids[static_cast<std::size_t>(r)] = pid;
  }

  if (o.kill_rank >= 0) {
    // Phase-sensitive kill trigger, observed from outside the children:
    //   phase 1 — the first complete record in the victim's cache spill
    //   log (its first spill happens strictly during phase-1 recording);
    //   phase 2 — the victim announcing its endpoint of the third
    //   transport generation (run order is phase1 = g0, redistribution =
    //   g1, phase2 = g2), so its redistribution has fully finished.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    const std::string victim_cache =
        o.workdir + "/cache/device_" + std::to_string(o.kill_rank);
    pac::dist::RendezvousClient rdv_client("127.0.0.1", o.rdv_port);
    const pac::core::SessionConfig session_cfg = make_session_config(o);
    for (;;) {
      const bool ready =
          o.kill_phase == 1
              ? spill_log_has_record(victim_cache, session_cfg)
              : rdv_client.lookup(o.base + "_g2", o.kill_rank).has_value();
      if (ready) break;
      if (std::chrono::steady_clock::now() > deadline) {
        std::cerr << "kill trigger never fired\n";
        break;
      }
      // Each lookup is one rendezvous connection: poll phase 2 gently.
      std::this_thread::sleep_for(o.kill_phase == 1 ? 1ms : 5ms);
    }
    if (o.kill_phase == 2) {
      // Let phase 2 get past its starting barrier so the kill lands
      // mid-epoch (the caller stretches the run with --link-delay-ms).
      std::this_thread::sleep_for(20ms);
    }
    const pid_t victim = pids[static_cast<std::size_t>(o.kill_rank)];
    kill(victim, SIGKILL);
    waitpid(victim, nullptr, 0);
  }

  int failures = 0;
  for (int r = 0; r < o.world; ++r) {
    if (r == o.kill_rank) continue;
    int status = 0;
    waitpid(pids[static_cast<std::size_t>(r)], &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::cerr << "rank " << r << " exited abnormally (status " << status
                << ")\n";
      ++failures;
    }
  }
  kill(rdv_pid, SIGKILL);
  waitpid(rdv_pid, nullptr, 0);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o = parse(argc, argv);
  if (o.child_rank >= 0) {
    try {
      return child_main(o);
    } catch (const std::exception& e) {
      std::cerr << "rank " << o.child_rank << " failed: " << e.what()
                << "\n";
      return 1;
    }
  }
  return launcher_main(o);
}
