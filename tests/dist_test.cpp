#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "costmodel/device_spec.hpp"
#include "dist/cluster.hpp"
#include "dist/rendezvous.hpp"
#include "dist/transport_factories.hpp"
#include "tensor/ops.hpp"

namespace pac::dist {
namespace {

TEST(MemoryLedgerTest, TracksCurrentAndPeak) {
  MemoryLedger ledger(0, 1000);
  ledger.allocate(MemClass::kWeights, 400);
  ledger.allocate(MemClass::kActivations, 300);
  EXPECT_EQ(ledger.current_total(), 700U);
  ledger.release(MemClass::kActivations, 300);
  EXPECT_EQ(ledger.current_total(), 400U);
  EXPECT_EQ(ledger.peak_total(), 700U);
  EXPECT_EQ(ledger.peak(MemClass::kActivations), 300U);
}

TEST(MemoryLedgerTest, OomThrowsWithDetails) {
  MemoryLedger ledger(3, 100);
  ledger.allocate(MemClass::kWeights, 90);
  try {
    ledger.allocate(MemClass::kGradients, 20);
    FAIL() << "expected OOM";
  } catch (const DeviceOomError& e) {
    EXPECT_EQ(e.device_id(), 3);
    EXPECT_EQ(e.requested_bytes(), 110U);
    EXPECT_EQ(e.budget_bytes(), 100U);
  }
  // Failed allocation must not be recorded.
  EXPECT_EQ(ledger.current_total(), 90U);
}

TEST(MemoryLedgerTest, UnderflowThrows) {
  MemoryLedger ledger(0, 100);
  ledger.allocate(MemClass::kComm, 10);
  EXPECT_THROW(ledger.release(MemClass::kComm, 20), InvalidArgument);
}

TEST(MemoryLedgerTest, ScopedAllocReleasesOnScopeExit) {
  MemoryLedger ledger(0, 100);
  {
    ScopedAlloc a(ledger, MemClass::kActivations, 60);
    EXPECT_EQ(ledger.current_total(), 60U);
  }
  EXPECT_EQ(ledger.current_total(), 0U);
  EXPECT_EQ(ledger.peak_total(), 60U);
  ledger.reset_peaks();
  EXPECT_EQ(ledger.peak_total(), 0U);
}

TEST(MemoryLedgerTest, EveryClassHasItsOwnName) {
  // OOM messages and the benchmark's per-class peak rows key on these.
  std::vector<std::string> names;
  for (int c = 0; c < static_cast<int>(MemClass::kNumClasses); ++c) {
    names.emplace_back(mem_class_name(static_cast<MemClass>(c)));
    EXPECT_NE(names.back(), "?") << c;
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(TransportTest, PointToPointDelivery) {
  InProcTransport t(2);
  t.send(0, 1, 7, Tensor::from_vector({2}, {1.0F, 2.0F}));
  Tensor r = t.recv(1, 0, 7);
  EXPECT_FLOAT_EQ(r.at({0}), 1.0F);
  EXPECT_EQ(t.stats(0, 1).messages, 1U);
  EXPECT_EQ(t.stats(0, 1).bytes, 2U * sizeof(float));
}

TEST(TransportTest, TagAndSourceIsolation) {
  InProcTransport t(3);
  t.send(0, 2, 1, Tensor::full({1}, 10.0F));
  t.send(1, 2, 1, Tensor::full({1}, 20.0F));
  t.send(0, 2, 9, Tensor::full({1}, 30.0F));
  EXPECT_FLOAT_EQ(t.recv(2, 1, 1).at({0}), 20.0F);
  EXPECT_FLOAT_EQ(t.recv(2, 0, 9).at({0}), 30.0F);
  EXPECT_FLOAT_EQ(t.recv(2, 0, 1).at({0}), 10.0F);
}

TEST(TransportTest, FifoPerEdgeAndTag) {
  InProcTransport t(2);
  for (int i = 0; i < 5; ++i) {
    t.send(0, 1, 0, Tensor::full({1}, static_cast<float>(i)));
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_FLOAT_EQ(t.recv(1, 0, 0).at({0}), static_cast<float>(i));
  }
}

TEST(TransportTest, CloseWakesBlockedReceiver) {
  InProcTransport t(2);
  std::atomic<bool> threw{false};
  std::thread receiver([&] {
    try {
      t.recv(1, 0, 0);
    } catch (const ChannelClosedError&) {
      threw.store(true);
    }
  });
  t.close();
  receiver.join();
  EXPECT_TRUE(threw.load());
  EXPECT_THROW(t.send(0, 1, 0, Tensor::zeros({1})), ChannelClosedError);
}

TEST(TransportTest, RankRangeChecks) {
  InProcTransport t(2);
  EXPECT_THROW(t.send(0, 5, 0, Tensor::zeros({1})), InvalidArgument);
  EXPECT_THROW(t.recv(2, 0, 0), InvalidArgument);
}

// The AllReduce schedule a test forces through the cluster's LinkModel
// (simulate_delay off, so nothing sleeps): a near-free byte cost sends
// every payload direct; a 1 bps link sends every payload of g >= 3 round
// the ring (g = 2 always goes direct).
enum class Schedule { kRing, kDirect };

LinkModel forcing_link(Schedule schedule) {
  return schedule == Schedule::kRing ? LinkModel{1.0, 1e-3, false}
                                     : LinkModel{1e30, 1e-3, false};
}

class CollectiveTest
    : public ::testing::TestWithParam<std::tuple<int, Schedule>> {};

TEST_P(CollectiveTest, AllReduceSumsAcrossGroup) {
  const auto [n, schedule] = GetParam();
  EdgeCluster cluster(n, std::numeric_limits<std::uint64_t>::max(),
                      forcing_link(schedule));
  std::vector<int> group(static_cast<std::size_t>(n));
  std::iota(group.begin(), group.end(), 0);
  std::vector<float> results(static_cast<std::size_t>(n), 0.0F);
  cluster.run([&](DeviceContext& ctx) {
    // Each rank contributes rank+1 in every element.
    Tensor t = Tensor::full({13}, static_cast<float>(ctx.rank + 1));
    ctx.comm.allreduce_sum(t, group, 100);
    results[static_cast<std::size_t>(ctx.rank)] = t.at({5});
  });
  const float expect = static_cast<float>(n * (n + 1) / 2);
  for (float r : results) EXPECT_FLOAT_EQ(r, expect);
}

TEST_P(CollectiveTest, AllReduceOnSubgroup) {
  const auto [n, schedule] = GetParam();
  if (n < 3) GTEST_SKIP();
  EdgeCluster cluster(n, std::numeric_limits<std::uint64_t>::max(),
                      forcing_link(schedule));
  // Group = even ranks only.
  std::vector<int> group;
  for (int r = 0; r < n; r += 2) group.push_back(r);
  std::vector<float> results(static_cast<std::size_t>(n), -1.0F);
  cluster.run([&](DeviceContext& ctx) {
    if (ctx.rank % 2 != 0) return;  // not a member
    Tensor t = Tensor::full({8}, 1.0F);
    ctx.comm.allreduce_sum(t, group, 100);
    results[static_cast<std::size_t>(ctx.rank)] = t.at({0});
  });
  for (int r = 0; r < n; ++r) {
    if (r % 2 == 0) {
      EXPECT_FLOAT_EQ(results[static_cast<std::size_t>(r)],
                      static_cast<float>(group.size()));
    } else {
      EXPECT_FLOAT_EQ(results[static_cast<std::size_t>(r)], -1.0F);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndAlgos, CollectiveTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 8),
                       ::testing::Values(Schedule::kRing,
                                         Schedule::kDirect)),
    [](const auto& info) {
      return std::string(std::get<1>(info.param) == Schedule::kRing
                             ? "Ring"
                             : "Direct") +
             std::to_string(std::get<0>(info.param));
    });

TEST(CollectiveTest, RingHandlesTensorSmallerThanGroup) {
  EdgeCluster cluster(4, std::numeric_limits<std::uint64_t>::max(),
                      forcing_link(Schedule::kRing));
  std::vector<int> group{0, 1, 2, 3};
  std::vector<float> results(4, 0.0F);
  cluster.run([&](DeviceContext& ctx) {
    Tensor t = Tensor::full({2}, 1.0F);  // numel < group size
    ctx.comm.allreduce_sum(t, group, 100);
    results[static_cast<std::size_t>(ctx.rank)] = t.at({1});
  });
  for (float r : results) EXPECT_FLOAT_EQ(r, 4.0F);
}

TEST(CollectiveTest, BroadcastFromNonZeroRoot) {
  EdgeCluster cluster(3, std::numeric_limits<std::uint64_t>::max());
  std::vector<int> group{0, 1, 2};
  std::vector<float> results(3, 0.0F);
  cluster.run([&](DeviceContext& ctx) {
    Tensor t = ctx.rank == 2 ? Tensor::full({4}, 42.0F) : Tensor();
    Tensor out = ctx.comm.broadcast(std::move(t), 2, group, 50);
    results[static_cast<std::size_t>(ctx.rank)] = out.at({0});
  });
  for (float r : results) EXPECT_FLOAT_EQ(r, 42.0F);
}

TEST(CollectiveTest, GroupValidation) {
  EdgeCluster cluster(2, std::numeric_limits<std::uint64_t>::max());
  EXPECT_THROW(cluster.run([&](DeviceContext& ctx) {
    Tensor t = Tensor::zeros({4});
    ctx.comm.allreduce_sum(t, {1, 0}, 80);  // unsorted
  }),
               InvalidArgument);
  EXPECT_THROW(cluster.run([&](DeviceContext& ctx) {
    if (ctx.rank == 0) {
      Tensor t = Tensor::zeros({4});
      ctx.comm.allreduce_sum(t, {1}, 81);  // not a member
    }
  }),
               InvalidArgument);
}

// Property test: for random sorted groups, tags and shapes, both
// AllReduce schedules must equal a single-threaded reference reduction
// bit for bit.  Contributions are small integers, so every summation
// order yields the identical float — any deviation is a routing bug, not
// rounding.
TEST(CollectiveTest, PropertyAllReduceMatchesReferenceBitForBit) {
  std::mt19937_64 rng(0xA11CE);
  for (int trial = 0; trial < 24; ++trial) {
    const int world = 2 + static_cast<int>(rng() % 7);  // 2..8 ranks
    std::vector<int> group;
    for (int r = 0; r < world; ++r) {
      if (rng() % 10 < 6) group.push_back(r);
    }
    while (group.size() < 2) {
      const int r = static_cast<int>(rng() % world);
      if (std::find(group.begin(), group.end(), r) == group.end()) {
        group.push_back(r);
      }
    }
    std::sort(group.begin(), group.end());
    const int tag = 100 + static_cast<int>(rng() % 1900);
    const std::int64_t rows = 1 + static_cast<std::int64_t>(rng() % 9);
    const std::int64_t cols = 1 + static_cast<std::int64_t>(rng() % 17);
    const std::int64_t numel = rows * cols;

    // Integer-valued per-rank contributions and their exact sum.
    std::vector<std::vector<float>> contrib(
        static_cast<std::size_t>(world));
    std::vector<float> reference(static_cast<std::size_t>(numel), 0.0F);
    for (int r : group) {
      auto& mine = contrib[static_cast<std::size_t>(r)];
      mine.resize(static_cast<std::size_t>(numel));
      for (auto& v : mine) {
        v = static_cast<float>(static_cast<int>(rng() % 33) - 16);
      }
      for (std::int64_t i = 0; i < numel; ++i) {
        reference[static_cast<std::size_t>(i)] +=
            mine[static_cast<std::size_t>(i)];
      }
    }

    for (Schedule schedule : {Schedule::kRing, Schedule::kDirect}) {
      EdgeCluster cluster(world, std::numeric_limits<std::uint64_t>::max(),
                          forcing_link(schedule));
      std::vector<std::vector<float>> results(
          static_cast<std::size_t>(world));
      cluster.run([&](DeviceContext& ctx) {
        if (std::find(group.begin(), group.end(), ctx.rank) == group.end()) {
          return;
        }
        Tensor t = Tensor::from_vector(
            {rows, cols}, contrib[static_cast<std::size_t>(ctx.rank)]);
        ctx.comm.allreduce_sum(t, group, tag);
        auto& out = results[static_cast<std::size_t>(ctx.rank)];
        out.assign(t.data(), t.data() + numel);
      });
      for (int r : group) {
        const auto& out = results[static_cast<std::size_t>(r)];
        ASSERT_EQ(out.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
          ASSERT_EQ(out[i], reference[i])
              << "trial " << trial << " schedule "
              << (schedule == Schedule::kRing ? "ring" : "direct")
              << " rank " << r << " elem " << i;
        }
      }
    }
  }
}

// The ring-order sum of per-member contributions x[0..g-1]
// (communicator.hpp): chunk c of ceil(n/g) elements is the left fold
// x_c + x_{c+1} + ... + x_{c+g-1}, member indices mod g.
std::vector<float> ring_order_sum(const std::vector<std::vector<float>>& x) {
  const int g = static_cast<int>(x.size());
  const auto n = static_cast<std::int64_t>(x[0].size());
  const std::int64_t chunk = (n + g - 1) / g;
  std::vector<float> out(x[0].size());
  for (std::int64_t i = 0; i < n; ++i) {
    const auto c = static_cast<int>(i / chunk);
    float acc = x[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)];
    for (int k = 1; k < g; ++k) {
      acc += x[static_cast<std::size_t>((c + k) % g)]
              [static_cast<std::size_t>(i)];
    }
    out[static_cast<std::size_t>(i)] = acc;
  }
  return out;
}

TEST(CollectiveTest, DirectScheduleCrossover) {
  const LinkModel link;  // 128 Mbps, 1 ms
  // g = 2: one direct hop always beats two ring hops.
  for (std::uint64_t bytes : {4ULL, 6400ULL, 1ULL << 40}) {
    EXPECT_TRUE(allreduce_prefers_direct(link, 2, bytes)) << bytes;
  }
  // g = 4: direct iff 6 * N * b <= 20 * a, i.e. N <= 53333 bytes.
  EXPECT_TRUE(allreduce_prefers_direct(link, 4, 6400));  // adapter grads
  EXPECT_TRUE(allreduce_prefers_direct(link, 4, 53332));
  EXPECT_FALSE(allreduce_prefers_direct(link, 4, 53336));
  EXPECT_FALSE(allreduce_prefers_direct(link, 4, 1 << 16));
  // The crossover scales with latency and shrinks as the group grows.
  EXPECT_TRUE(allreduce_prefers_direct(LinkModel{128e6, 2e-3, false}, 4,
                                       100000));
  EXPECT_FALSE(allreduce_prefers_direct(link, 8, 53332));
  EXPECT_FALSE(allreduce_prefers_direct(LinkModel{128e6, 0.0, false}, 3, 4));
}

TEST(CollectiveTest, PlannerPricesTheScheduleTheRuntimePicks) {
  // The planner's AllReduce price is the cheaper of the two schedules
  // allreduce_sum can run, written out here from first principles:
  //   ring   2(g-1)(a + N*b/g),   direct   a + (g-1)*N*b,
  // with N the wire bytes, a the latency and b = 8 / bandwidth.
  const std::vector<std::pair<double, double>> links{
      {128e6, 1e-3}, {128e6, 20e-3}, {100e9, 50e-6}, {1e9, 0.0}};
  for (const auto& [bw, lat] : links) {
    for (double wire : {1.0, 0.5}) {
      costmodel::NetworkModel net;
      net.bandwidth_bps = bw;
      net.latency_s = lat;
      net.allreduce_wire_factor = wire;
      for (int g : {2, 3, 4, 8}) {
        for (std::uint64_t bytes :
             {4ULL, 6400ULL, 53332ULL, 53336ULL, 1ULL << 16, 1ULL << 20,
              1ULL << 30}) {
          const double n = static_cast<double>(bytes) * wire;
          const double b = 8.0 / bw;
          const double ring = 2.0 * (g - 1) * (lat + n * b / g);
          const double direct = lat + (g - 1) * n * b;
          const double price = net.allreduce_seconds(bytes, g);
          EXPECT_NEAR(price, std::min(ring, direct),
                      1e-12 * std::min(ring, direct))
              << "g " << g << " bytes " << bytes << " bw " << bw;
          if (wire == 1.0) {
            // The runtime's choice prices at exactly the planner's figure.
            const bool go_direct =
                allreduce_prefers_direct(LinkModel{bw, lat, false}, g, bytes);
            EXPECT_EQ(price, go_direct ? costmodel::direct_allreduce_seconds(
                                             n, g, lat, bw)
                                       : costmodel::ring_allreduce_seconds(
                                             n, g, lat, bw))
                << "g " << g << " bytes " << bytes << " bw " << bw;
            if (std::abs(ring - direct) > 1e-9 * ring) {
              EXPECT_EQ(go_direct, direct < ring)
                  << "g " << g << " bytes " << bytes << " bw " << bw;
            }
          }
        }
      }
      EXPECT_EQ(net.allreduce_seconds(1 << 20, 1), 0.0);
      EXPECT_EQ(net.allreduce_seconds(0, 4), 0.0);
    }
  }
}

TEST(CollectiveTest, PropertyDirectAndRingSchedulesKeepRingOrderBitForBit) {
  // Non-integer contributions spread over 2^-8..2^8: float addition is not
  // associative on them, so a schedule that summed in another order would
  // change bits.  Each forcing_link forces one schedule.
  std::mt19937_64 rng(0x0DE5);
  std::uniform_real_distribution<float> unit(-1.0F, 1.0F);
  bool order_visible = false;
  for (int trial = 0; trial < 28; ++trial) {
    const int g = 2 + trial % 7;
    const int world = g + static_cast<int>(rng() % 3);
    std::vector<int> group(static_cast<std::size_t>(world));
    std::iota(group.begin(), group.end(), 0);
    std::shuffle(group.begin(), group.end(), rng);
    group.resize(static_cast<std::size_t>(g));
    std::sort(group.begin(), group.end());
    std::int64_t n = 0;
    switch ((trial / 7) % 4) {
      case 0: n = 1 + static_cast<std::int64_t>(rng() % (g - 1)); break;
      case 1: n = g * (1 + static_cast<std::int64_t>(rng() % 6)); break;
      case 2:
        n = g * (1 + static_cast<std::int64_t>(rng() % 6)) + 1 +
            static_cast<std::int64_t>(rng() % (g - 1));
        break;
      default: n = 500 + static_cast<std::int64_t>(rng() % 700); break;
    }

    std::vector<std::vector<float>> x(static_cast<std::size_t>(g));
    for (auto& member : x) {
      member.resize(static_cast<std::size_t>(n));
      for (float& v : member) {
        v = std::ldexp(unit(rng), static_cast<int>(rng() % 17) - 8);
      }
    }
    const std::vector<float> reference = ring_order_sum(x);
    for (std::int64_t i = 0; i < n && !order_visible; ++i) {
      float left = x[0][static_cast<std::size_t>(i)];
      for (int k = 1; k < g; ++k) left += x[static_cast<std::size_t>(k)]
                                           [static_cast<std::size_t>(i)];
      order_visible = left != reference[static_cast<std::size_t>(i)];
    }

    for (Schedule schedule : {Schedule::kDirect, Schedule::kRing}) {
      const bool ring = schedule == Schedule::kRing && g >= 3;
      EdgeCluster cluster(world, std::numeric_limits<std::uint64_t>::max(),
                          forcing_link(schedule));
      std::vector<std::vector<float>> results(static_cast<std::size_t>(g));
      cluster.run([&](DeviceContext& ctx) {
        const auto it = std::find(group.begin(), group.end(), ctx.rank);
        if (it == group.end()) return;
        const auto me = static_cast<std::size_t>(it - group.begin());
        Tensor t = Tensor::from_vector({n}, x[me]);
        ctx.comm.allreduce_sum(t, group, 100 + trial);
        results[me].assign(t.data(), t.data() + n);
      });
      // The message count tells the schedules apart: the ring sends
      // 2(g-1) messages per member, direct g-1.
      std::uint64_t sent = 0;
      for (int peer : group) {
        sent += cluster.last_transport()->stats(group[0], peer).messages;
      }
      EXPECT_EQ(sent, static_cast<std::uint64_t>(ring ? 2 * (g - 1) : g - 1))
          << "trial " << trial;
      for (int m = 0; m < g; ++m) {
        const auto& out = results[static_cast<std::size_t>(m)];
        ASSERT_EQ(out.size(), reference.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
          ASSERT_EQ(out[i], reference[i])
              << "trial " << trial << " g " << g << " n " << n << " "
              << (ring ? "ring" : "direct") << " member " << m
              << " elem " << i;
        }
      }
    }
  }
  EXPECT_TRUE(order_visible)
      << "inputs never made summation order visible; the test is vacuous";
}

TEST(TransportTest, CloseDiscardsQueuedMessages) {
  // close() is whole-world teardown: even messages that were already
  // queued are no longer handed out — every recv reports the closure.
  InProcTransport t(2);
  t.send(0, 1, 4, Tensor::full({1}, 5.0F));
  t.close();
  EXPECT_THROW(t.recv(1, 0, 4), ChannelClosedError);
}

TEST(TransportTest, CloseWakesAllConcurrentReceivers) {
  InProcTransport t(4);
  std::atomic<int> woke{0};
  std::vector<std::thread> receivers;
  for (int r = 1; r < 4; ++r) {
    receivers.emplace_back([&t, &woke, r] {
      try {
        t.recv(r, 0, r);  // blocks: rank 0 never sends
      } catch (const ChannelClosedError&) {
        ++woke;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.close();
  for (auto& th : receivers) th.join();
  EXPECT_EQ(woke.load(), 3);
}

TEST(TransportTest, SendAndRecvAfterCloseThrow) {
  InProcTransport t(2);
  t.close();
  EXPECT_TRUE(t.closed());
  EXPECT_THROW(t.send(0, 1, 0, Tensor::zeros({1})), ChannelClosedError);
  EXPECT_THROW(t.recv(1, 0, 0), ChannelClosedError);
  // Bounded waits report the closure the same way, not as a timeout.
  EXPECT_THROW(t.recv_for(1, 0, 0, std::chrono::milliseconds(1)),
               ChannelClosedError);
}

TEST(TransportTest, CloseIsIdempotent) {
  InProcTransport t(2);
  t.close();
  t.close();
  EXPECT_TRUE(t.closed());
}

TEST(ClusterTest, DeviceFailurePropagatesAndUnblocksPeers) {
  EdgeCluster cluster(3, std::numeric_limits<std::uint64_t>::max());
  EXPECT_THROW(cluster.run([&](DeviceContext& ctx) {
    if (ctx.rank == 0) {
      // Simulated OOM on device 0 while peers wait on a collective.
      ctx.ledger.allocate(MemClass::kWeights, 1);  // fine
      throw DeviceOomError(0, 100, 50);
    }
    Tensor t = Tensor::zeros({8});
    ctx.comm.allreduce_sum(t, {1, 2}, 90);
    // Ranks 1/2 then block forever on a message that never comes.
    ctx.comm.recv(0, 91);
  }),
               DeviceOomError);
}

TEST(ClusterTest, DeathOnTheSenderThreadIsReportedAndStaysDead) {
  // The injected death fires on rank 0's sender thread (an active fault
  // plan sends every isend through it), and rank 0's function returns
  // normally: run() must still report the death as the root cause and
  // keep the rank dead for later runs.
  EdgeCluster cluster(2, std::numeric_limits<std::uint64_t>::max());
  FaultPlan death;
  death.death_after_ops = {{0, 1}};
  cluster.set_fault_plan(death);
  EXPECT_THROW(cluster.run([](DeviceContext& ctx) {
    if (ctx.rank != 0) return;
    ctx.comm.isend(1, 5, Tensor::full({1}, 1.0F));
    while (!ctx.comm.deferred_death_rank().has_value()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }),
               RankDeathError);
  EXPECT_TRUE(cluster.is_dead(0));
  EXPECT_FALSE(cluster.is_dead(1));
}

TEST(ClusterTest, LedgerBudgetEnforcedInsideRun) {
  EdgeCluster cluster(2, /*memory_budget_bytes=*/1024);
  EXPECT_THROW(cluster.run([&](DeviceContext& ctx) {
    if (ctx.rank == 1) {
      ctx.ledger.allocate(MemClass::kActivations, 4096);
    } else {
      ctx.comm.recv(1, 99);  // would deadlock without close-on-failure
    }
  }),
               DeviceOomError);
}

TEST(ClusterTest, HeterogeneousSpecsAccessible) {
  std::vector<DeviceSpec> specs{{1.0, 100}, {0.5, 200}};
  EdgeCluster cluster(specs);
  EXPECT_EQ(cluster.size(), 2);
  EXPECT_DOUBLE_EQ(cluster.spec(1).compute_scale, 0.5);
  EXPECT_EQ(cluster.ledger(1).budget(), 200U);
  EXPECT_THROW(cluster.spec(5), InvalidArgument);
}

TEST(ClusterTest, TrafficStatsAvailableAfterRun) {
  EdgeCluster cluster(2, std::numeric_limits<std::uint64_t>::max());
  cluster.run([&](DeviceContext& ctx) {
    if (ctx.rank == 0) {
      ctx.comm.send(1, 5, Tensor::zeros({100}));
    } else {
      ctx.comm.recv(0, 5);
    }
  });
  ASSERT_NE(cluster.last_transport(), nullptr);
  EXPECT_EQ(cluster.last_transport()->stats(0, 1).bytes, 400U);
  EXPECT_EQ(cluster.last_transport()->total_bytes(), 400U);
}

TEST(LinkModelTest, TransferTimeFollowsBandwidth) {
  LinkModel link;  // 128 Mbps, 1 ms latency
  // 16 MB at 128 Mbps = 1 s (+ latency).
  EXPECT_NEAR(link.transfer_seconds(16'000'000), 1.001, 1e-3);
  EXPECT_NEAR(link.transfer_seconds(0), 0.001, 1e-9);
}

// ---- rendezvous service (cross-machine peer discovery) ----

TEST(RendezvousTest, AnnounceLookupRoundTrip) {
  RendezvousServer server;
  server.start();
  RendezvousClient client("127.0.0.1", server.port());
  EXPECT_FALSE(client.lookup("runA", 0).has_value());
  client.announce("runA", 0, TcpPeer{"10.0.0.7", 4242});
  const auto peer = client.lookup("runA", 0);
  ASSERT_TRUE(peer.has_value());
  EXPECT_EQ(peer->host, "10.0.0.7");
  EXPECT_EQ(peer->port, 4242);
  // Runs are isolated namespaces.
  EXPECT_FALSE(client.lookup("runB", 0).has_value());
  // PUT upserts: a restarted rank re-announces on a new port.
  client.announce("runA", 0, TcpPeer{"10.0.0.7", 4243});
  EXPECT_EQ(client.lookup("runA", 0)->port, 4243);
  server.stop();
}

TEST(RendezvousTest, WaitPeerBlocksUntilAnnounced) {
  RendezvousServer server;
  server.start();
  RendezvousClient client("127.0.0.1", server.port());
  EXPECT_FALSE(client.wait_peer("run", 1, /*timeout_ms=*/60).has_value());
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    RendezvousClient other("127.0.0.1", server.port());
    other.announce("run", 1, TcpPeer{"127.0.0.1", 9999});
  });
  const auto peer = client.wait_peer("run", 1, /*timeout_ms=*/5000);
  late.join();
  ASSERT_TRUE(peer.has_value());
  EXPECT_EQ(peer->port, 9999);
  server.stop();
}

TEST(RendezvousTest, KeyIsStablePerRunAndSeedDeterministic) {
  RendezvousServer server(/*port=*/0, /*key_seed=*/0xABCDEF);
  server.start();
  RendezvousClient client("127.0.0.1", server.port());
  const auto k1 = client.fetch_key("run1");
  const auto k1_again = client.fetch_key("run1");
  const auto k2 = client.fetch_key("run2");
  EXPECT_EQ(k1, k1_again);  // one shared secret per run
  EXPECT_NE(k1, k2);        // distinct runs get distinct keys
  server.stop();

  // Same seed, fresh server: the same key is minted for the same run.
  RendezvousServer replay(/*port=*/0, /*key_seed=*/0xABCDEF);
  replay.start();
  RendezvousClient rclient("127.0.0.1", replay.port());
  EXPECT_EQ(rclient.fetch_key("run1"), k1);
  replay.stop();
}

TEST(RendezvousTest, UnreachableServerThrowsFromAnnounce) {
  // Bind-then-close to get a port that is very likely unbound.
  std::uint16_t dead_port = 0;
  {
    RendezvousServer probe;
    dead_port = probe.port();
  }
  RendezvousClient client("127.0.0.1", dead_port);
  EXPECT_THROW(
      client.announce("run", 0, TcpPeer{"127.0.0.1", 1}, /*timeout_ms=*/100),
      TransportError);
  EXPECT_FALSE(client.lookup("run", 0).has_value());
}

TEST(RendezvousTest, BindingATakenPortThrows) {
  RendezvousServer first;
  EXPECT_THROW(RendezvousServer second(first.port()), TransportError);
}

TEST(RendezvousTest, MalformedRequestsGetErrNotCrash) {
  RendezvousServer server;
  server.start();
  RendezvousClient client("127.0.0.1", server.port());
  // A run id with whitespace breaks the line protocol: the server answers
  // ERR and announce rejects immediately instead of retrying a hopeless
  // request until its deadline.
  EXPECT_THROW(client.announce("has space", 0, TcpPeer{"127.0.0.1", 1}),
               TransportError);
  // ...and a healthy request still works after garbage hit the server.
  client.announce("ok", 0, TcpPeer{"127.0.0.1", 1});
  EXPECT_TRUE(client.lookup("ok", 0).has_value());
  server.stop();
}

// End-to-end: a full TCP mesh wired through the rendezvous service (with
// frame auth fetched from it) runs real collectives. ("Tcp" in the name
// keeps it off the TSan pass with the other socket tests.)
TEST(RendezvousTest, TcpRendezvousFactoryRunsCollectives) {
  RendezvousServer server(/*port=*/0, /*key_seed=*/0x5EED);
  server.start();
  EdgeCluster cluster(3, std::numeric_limits<std::uint64_t>::max());
  TcpRendezvousOptions opts;
  opts.server_port = server.port();
  opts.run_id = "rdv_e2e";
  opts.fetch_auth_key = true;
  cluster.set_transport_factory(make_tcp_rendezvous_factory(opts));
  std::vector<float> sums(3, 0.0F);
  cluster.run([&](DeviceContext& ctx) {
    Tensor t = Tensor::full({4}, static_cast<float>(ctx.rank + 1));
    ctx.comm.allreduce_sum(t, {0, 1, 2}, 7);
    sums[static_cast<std::size_t>(ctx.rank)] = t.at({0});
  });
  for (float s : sums) EXPECT_FLOAT_EQ(s, 6.0F);  // 1+2+3
  server.stop();
}

}  // namespace
}  // namespace pac::dist
