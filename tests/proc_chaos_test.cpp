// Process-level chaos tests: real OS processes, real IPC, real SIGKILL.
//
// These tests exec the examples/multiproc_ranks launcher, which forks one
// process per rank wired through TCP loopback, and compare the surviving
// ranks' reported loss trajectories against an in-process oracle Session
// running the identical workload.  Nobody tells the survivors about a
// kill: their TCP endpoints must detect it on their own.
//
//   * a clean multi-process run must match the in-process trajectory
//     exactly — determinism survives the backend;
//   * SIGKILL of a rank during phase 1 must recover onto the survivors
//     with the same trajectory as a run where that rank was dead from the
//     start (phase-1 restart discards nothing of value);
//   * SIGKILL during phase 2 must salvage the corpse's disk-spilled cache
//     shard, re-shard, resume, and still converge — the kill lands at a
//     nondeterministic instruction, so this asserts structural invariants
//     (every epoch accounted for, finite, decreasing, exactly one death)
//     rather than an exact trajectory.
//
// The launcher binary path is injected by CMake as PAC_MULTIPROC_BIN.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/session.hpp"

#if defined(__SANITIZE_THREAD__)
#define PAC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PAC_TSAN 1
#endif
#endif
#ifndef PAC_TSAN
#define PAC_TSAN 0
#endif

namespace pac {
namespace {

namespace fs = std::filesystem;

// ---- the workload, mirroring examples/multiproc_ranks.cpp exactly ----

data::SyntheticGlueDataset make_dataset() {
  data::DatasetConfig cfg;
  cfg.task = data::GlueTask::kSst2;
  cfg.train_samples = 24;
  cfg.eval_samples = 12;
  cfg.seq_len = 8;
  cfg.vocab = 32;
  return data::SyntheticGlueDataset(cfg);
}

std::vector<planner::BlockProfile> fixed_profiles(std::int64_t n) {
  std::vector<planner::BlockProfile> blocks;
  for (std::int64_t i = 0; i < n; ++i) {
    planner::BlockProfile b;
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

core::SessionConfig make_session_config(int epochs,
                                        const std::string& cache_dir) {
  core::SessionConfig cfg;
  cfg.model = model::tiny(4, 16, 2, 32, 8);
  cfg.technique.technique = model::Technique::kParallelAdapters;
  cfg.technique.pa_reduction = 4;
  cfg.batch_size = 8;
  cfg.num_micro_batches = 4;
  cfg.epochs = epochs;
  cfg.lr = 5e-3F;
  cfg.profile_override = fixed_profiles(4 + 2);
  cfg.cache_disk_backed = true;
  cfg.cache_directory = cache_dir;
  return cfg;
}

core::SessionReport oracle_run(int world, int epochs,
                               const std::vector<int>& pre_dead,
                               const std::string& cache_dir) {
  auto ds = make_dataset();
  dist::EdgeCluster cluster(world,
                            std::numeric_limits<std::uint64_t>::max());
  for (int r : pre_dead) cluster.mark_dead(r);
  core::Session session(cluster, ds, make_session_config(epochs, cache_dir));
  return session.run();
}

// ---- driver plumbing ----

struct ScopedDir {
  fs::path path;
  explicit ScopedDir(const std::string& stem) {
    static int counter = 0;
    path = fs::temp_directory_path() /
           (stem + "_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~ScopedDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

// Runs the launcher; returns its exit code and leaves stdout/stderr in
// <workdir>/driver.log for failure diagnostics.
int run_driver(const std::string& args, const fs::path& workdir) {
  const std::string cmd = std::string(PAC_MULTIPROC_BIN) + " " + args +
                          " --workdir " + workdir.string() + " > " +
                          (workdir / "driver.log").string() + " 2>&1";
  const int rc = std::system(cmd.c_str());
  if (rc == -1) return -1;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

std::string driver_log(const fs::path& workdir) {
  std::ifstream in(workdir / "driver.log");
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct ProcReport {
  std::vector<double> losses;
  double eval = 0.0;
  int deaths = 0;
  std::vector<int> dead;
};

ProcReport parse_report(const fs::path& path) {
  ProcReport r;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing report " << path;
  std::string key;
  while (in >> key) {
    if (key == "epochs") {
      std::size_t n = 0;
      in >> n;
      r.losses.reserve(n);
    } else if (key == "loss") {
      double v = 0.0;
      in >> v;
      r.losses.push_back(v);
    } else if (key == "eval") {
      in >> r.eval;
    } else if (key == "deaths") {
      in >> r.deaths;
    } else if (key == "dead") {
      int d = 0;
      in >> d;
      r.dead.push_back(d);
    }
  }
  return r;
}

void expect_matches_oracle(const ProcReport& got,
                           const core::SessionReport& oracle, double tol) {
  ASSERT_EQ(got.losses.size(), oracle.epoch_losses.size());
  for (std::size_t e = 0; e < oracle.epoch_losses.size(); ++e) {
    EXPECT_NEAR(got.losses[e], oracle.epoch_losses[e], tol) << "epoch " << e;
  }
  EXPECT_NEAR(got.eval, oracle.eval_metric, tol);
}

// ---- clean multi-process runs match the in-process oracle ----

TEST(ProcChaosTest, CleanTcpWorldMatchesInProcOracle) {
  ScopedDir work("pac_proc_tcp");
  ASSERT_EQ(run_driver("--world 2 --epochs 3", work.path), 0)
      << driver_log(work.path);
  const ProcReport r0 = parse_report(work.path / "report_rank0");
  const ProcReport r1 = parse_report(work.path / "report_rank1");
  // Every rank reports the identical trajectory (losses are allreduced).
  ASSERT_EQ(r0.losses, r1.losses);
  EXPECT_EQ(r0.deaths, 0);

  ScopedDir oracle_cache("pac_proc_tcp_oracle");
  const auto oracle =
      oracle_run(2, 3, {}, (oracle_cache.path / "cache").string());
  expect_matches_oracle(r0, oracle, 1e-9);
}

// ---- SIGKILL during phase 1: restart on survivors ----

TEST(ProcChaosTest, Phase1KillRecoversLikePreDeadOracle) {
  ScopedDir work("pac_proc_kill1");
  ASSERT_EQ(run_driver(
                "--world 4 --epochs 3 --kill-rank 2 --kill-phase 1",
                work.path),
            0)
      << driver_log(work.path);
  const ProcReport r0 = parse_report(work.path / "report_rank0");
  EXPECT_EQ(r0.deaths, 1);
  ASSERT_EQ(r0.dead, (std::vector<int>{2}));

  // Phase 1 restarts from scratch on the survivors, so the trajectory must
  // equal a run where rank 2 was dead from the beginning.
  ScopedDir oracle_cache("pac_proc_kill1_oracle");
  const auto oracle =
      oracle_run(4, 3, {2}, (oracle_cache.path / "cache").string());
  expect_matches_oracle(r0, oracle, 1e-6);
}

// ---- SIGKILL during phase 2: salvage the disk shard and resume ----

TEST(ProcChaosTest, Phase2KillSalvagesCacheAndConverges) {
  if (PAC_TSAN) {
    GTEST_SKIP() << "kill-timing window depends on realtime link emulation";
  }
  ScopedDir work("pac_proc_kill2");
  // --link-delay-ms stretches phase 2 in realtime so the external SIGKILL
  // lands mid-epoch instead of after the whole session finished.
  ASSERT_EQ(run_driver(
                "--world 4 --epochs 6 --kill-rank 3 --kill-phase 2 "
                "--link-delay-ms 1",
                work.path),
            0)
      << driver_log(work.path);
  const ProcReport r0 = parse_report(work.path / "report_rank0");
  EXPECT_EQ(r0.deaths, 1);
  ASSERT_EQ(r0.dead, (std::vector<int>{3}));

  // The kill lands at a nondeterministic point inside phase 2, so the
  // resumed trajectory depends on which epoch was interrupted; assert the
  // structural invariants instead of exact values.
  ASSERT_EQ(r0.losses.size(), 6U);
  for (double l : r0.losses) {
    EXPECT_TRUE(std::isfinite(l)) << l;
    EXPECT_GT(l, 0.0);
  }
  EXPECT_LT(r0.losses.back(), r0.losses.front());
}

}  // namespace
}  // namespace pac
