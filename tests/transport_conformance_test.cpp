// Cross-backend Transport conformance suite.
//
// Every semantic test here runs against both backends — the in-process
// mailbox (the deterministic oracle) and TCP loopback — through one
// parameterized fixture.  The point is the contract
// in dist/transport.hpp: if a behavior differs between backends it is a
// transport bug, not a scheduling quirk, because recovery and elastic
// re-planning are written against the contract, not a backend.
//
// Remote backends observe control-plane changes (close, close_rank)
// asynchronously via their pump / rx threads, so tests that assert a
// *subsequent* call throws first poll the observing endpoint until the
// state change lands; blocked receivers need no polling — waking them is
// exactly the semantics under test.
//
// Param names are InProc / Tcp; every TCP-only case carries "Tcp" in its
// name too, so --gtest_filter=*Tcp* selects the whole real-wire share.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "dist/cluster.hpp"
#include "dist/tcp_transport.hpp"
#include "dist/transport_factories.hpp"
#include "dist/wire.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace pac::dist {
namespace {

// gtest prints the raw enum value in each test's full name, so the values
// stay fixed.
enum class Backend { kInProc = 0, kTcp = 2 };

std::string backend_name(Backend b) {
  return b == Backend::kInProc ? "InProc" : "Tcp";
}

// One world's endpoints for a backend.  `at(r)` is the transport rank r
// must use — the shared object for in-proc, rank r's own endpoint for the
// remote backends (whose send() enforces from == endpoint rank).
class World {
 public:
  World(Backend backend, int n, LinkModel link = {}, FaultPlan faults = {}) {
    switch (backend) {
      case Backend::kInProc:
        shared_ = std::make_unique<InProcTransport>(n, link, faults);
        break;
      case Backend::kTcp: {
        std::vector<TcpTransport*> raw;
        for (int r = 0; r < n; ++r) {
          auto t = std::make_unique<TcpTransport>(n, r, /*bind_port=*/0, link,
                                                  faults);
          raw.push_back(t.get());
          endpoints_.push_back(std::move(t));
        }
        for (int a = 0; a < n; ++a) {
          for (int b = 0; b < n; ++b) {
            if (a == b) continue;
            raw[static_cast<std::size_t>(a)]->set_peer(
                b, TcpPeer{"127.0.0.1", raw[static_cast<std::size_t>(b)]->port()});
          }
        }
        break;
      }
    }
  }

  Transport& at(int rank) {
    return shared_ ? *shared_ : *endpoints_[static_cast<std::size_t>(rank)];
  }

  // Polls until `pred` holds on some endpoint — remote backends propagate
  // control-plane state asynchronously.
  static bool eventually(const std::function<bool()>& pred,
                         int timeout_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!pred()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

 private:
  std::unique_ptr<InProcTransport> shared_;
  std::vector<std::unique_ptr<Transport>> endpoints_;
};

void install_backend(EdgeCluster& cluster, Backend backend) {
  switch (backend) {
    case Backend::kInProc:
      break;  // default path: one shared InProcTransport
    case Backend::kTcp:
      cluster.set_transport_factory(make_tcp_loopback_factory());
      break;
  }
}

class ConformanceTest : public ::testing::TestWithParam<Backend> {};

// ---- point-to-point contract ----

TEST_P(ConformanceTest, PointToPointRoundTrip) {
  World w(GetParam(), 2);
  w.at(0).send(0, 1, 7, Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6}));
  Tensor r = w.at(1).recv(1, 0, 7);
  ASSERT_EQ(r.shape(), (std::vector<std::int64_t>{2, 3}));
  for (std::int64_t i = 0; i < 2; ++i) {
    for (std::int64_t j = 0; j < 3; ++j) {
      EXPECT_FLOAT_EQ(r.at({i, j}), static_cast<float>(i * 3 + j + 1));
    }
  }
  // Payload-byte accounting is part of the contract (the comm model and
  // BENCH numbers depend on it being backend-independent).
  EXPECT_EQ(w.at(0).stats(0, 1).messages, 1U);
  EXPECT_EQ(w.at(0).stats(0, 1).bytes, 6U * sizeof(float));
}

TEST_P(ConformanceTest, ScalarAndUndefinedPayloadsRoundTrip) {
  // Rank-0 tensors (numel 1) and undefined payloads are legal on the
  // in-process oracle; the wire encodes them as ndim = 0 and an empty body
  // respectively, and every backend must deliver them identically.
  World w(GetParam(), 2);
  w.at(0).send(0, 1, 3, Tensor::full({}, 2.5F));
  w.at(0).send(0, 1, 4, Tensor());
  Tensor scalar = w.at(1).recv(1, 0, 3);
  ASSERT_TRUE(scalar.defined());
  EXPECT_EQ(scalar.shape(), Shape{});
  ASSERT_EQ(scalar.numel(), 1);
  EXPECT_FLOAT_EQ(scalar.data()[0], 2.5F);
  Tensor undef = w.at(1).recv(1, 0, 4);
  EXPECT_FALSE(undef.defined());
}

TEST_P(ConformanceTest, QuantizedPayloadsRoundTripBitIdentical) {
  // Compressed cache frames (fp16 / int8 + per-row scales) must cross
  // every backend byte-exactly: the redistribution contract is that a
  // shipped block is the SAME bytes the sender's shard stored, so moving
  // a block never requantizes.
  World w(GetParam(), 2);
  Rng rng(6406);
  Tensor src = Tensor::randn({5, 7}, rng);
  for (auto dt : {quant::Dtype::kF16, quant::Dtype::kI8}) {
    const quant::QTensor q = quant::quantize(src, dt);
    w.at(0).send_q(0, 1, 11, q);
    const quant::QTensor got = w.at(1).recv_q(1, 0, 11);
    EXPECT_EQ(got.dtype, q.dtype);
    EXPECT_EQ(got.shape, q.shape);
    EXPECT_EQ(got.scales, q.scales);
    EXPECT_EQ(got.data, q.data);
    // recv of a compressed send dequantizes at the consumption point.
    w.at(0).send_q(0, 1, 12, q);
    Tensor deq = w.at(1).recv(1, 0, 12);
    EXPECT_EQ(ops::max_abs_diff(deq, quant::dequantize(q)), 0.0F);
  }
  // recv_q of a plain fp32 send is a bit-exact kF32 repack.
  w.at(0).send(0, 1, 13, src.clone());
  const quant::QTensor asq = w.at(1).recv_q(1, 0, 13);
  EXPECT_EQ(asq.dtype, quant::Dtype::kF32);
  EXPECT_EQ(asq.shape, src.shape());
  EXPECT_EQ(ops::max_abs_diff(quant::dequantize(asq), src), 0.0F);
  // Byte accounting charges the compressed size, uniformly per backend.
  const quant::QTensor half = quant::quantize(src, quant::Dtype::kF16);
  const std::uint64_t before = w.at(0).stats(0, 1).bytes;
  w.at(0).send_q(0, 1, 14, half);
  EXPECT_EQ(w.at(0).stats(0, 1).bytes - before, half.byte_size());
  w.at(1).recv_q(1, 0, 14);
}

TEST_P(ConformanceTest, QuantizedCloseRankDrainsDeliveredMessagesFirst) {
  // Death-drain semantics hold for compressed frames too: blocks the dead
  // rank already shipped survive bit-exactly, then the link reports death.
  World w(GetParam(), 3);
  Rng rng(6407);
  const quant::QTensor q1 =
      quant::quantize(Tensor::randn({3, 4}, rng), quant::Dtype::kI8);
  const quant::QTensor q2 =
      quant::quantize(Tensor::randn({3, 4}, rng), quant::Dtype::kF16);
  w.at(2).send_q(2, 1, 5, q1);
  w.at(2).send_q(2, 1, 5, q2);
  w.at(2).close_rank(2);
  ASSERT_TRUE(World::eventually([&] { return w.at(1).rank_dead(2); }));
  const quant::QTensor g1 = w.at(1).recv_q(1, 2, 5);
  EXPECT_EQ(g1.dtype, q1.dtype);
  EXPECT_EQ(g1.scales, q1.scales);
  EXPECT_EQ(g1.data, q1.data);
  const quant::QTensor g2 = w.at(1).recv_q(1, 2, 5);
  EXPECT_EQ(g2.dtype, q2.dtype);
  EXPECT_EQ(g2.data, q2.data);
  EXPECT_THROW(w.at(1).recv_q(1, 2, 5), PeerDeadError);
}

TEST_P(ConformanceTest, TagAndSourceIsolation) {
  World w(GetParam(), 3);
  w.at(0).send(0, 2, 1, Tensor::full({1}, 10.0F));
  w.at(1).send(1, 2, 1, Tensor::full({1}, 20.0F));
  w.at(0).send(0, 2, 9, Tensor::full({1}, 30.0F));
  // Receive in an order unrelated to arrival: keyed by (source, tag).
  EXPECT_FLOAT_EQ(w.at(2).recv(2, 1, 1).at({0}), 20.0F);
  EXPECT_FLOAT_EQ(w.at(2).recv(2, 0, 9).at({0}), 30.0F);
  EXPECT_FLOAT_EQ(w.at(2).recv(2, 0, 1).at({0}), 10.0F);
}

TEST_P(ConformanceTest, FifoPerLinkAndTag) {
  World w(GetParam(), 2);
  for (int i = 0; i < 32; ++i) {
    const int tag = 3 + (i % 2);
    w.at(0).send(0, 1, tag, Tensor::full({1}, static_cast<float>(i)));
  }
  // Per-(source, tag) order is arrival order even with two interleaved
  // tags on the link.
  for (int tag : {3, 4}) {
    float prev = -1.0F;
    for (int i = 0; i < 16; ++i) {
      const float v = w.at(1).recv(1, 0, tag).at({0});
      EXPECT_GT(v, prev);
      EXPECT_EQ(static_cast<int>(v) % 2, tag - 3);
      prev = v;
    }
  }
}

TEST_P(ConformanceTest, ReorderingPreservesPerKeyFifo) {
  // With reordering armed, a (src, tag) queue must still deliver its own
  // messages in send order — only cross-key overtaking is legal.  Messages
  // are parked where they land: in the oracle's mailbox for rank 1, or in
  // rank 1's endpoint mailbox as its pump deposits them.
  FaultPlan plan;
  plan.seed = 0xF1F0;
  plan.reorder_probability = 0.6;
  World w(GetParam(), 2, LinkModel{}, plan);
  constexpr int kMessages = 40;
  for (int i = 0; i < kMessages; ++i) {
    w.at(0).send(0, 1, /*tag=*/1, Tensor::full({1}, static_cast<float>(i)));
    w.at(0).send(0, 1, /*tag=*/2,
                 Tensor::full({1}, static_cast<float>(100 + i)));
  }
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_FLOAT_EQ(w.at(1).recv(1, 0, 1).at({0}), static_cast<float>(i));
    EXPECT_FLOAT_EQ(w.at(1).recv(1, 0, 2).at({0}),
                    static_cast<float>(100 + i));
  }
  // Not vacuous: replaying the plan's defer decisions over the same
  // per-(link, tag) sequence shows that the deposits above parked messages.
  FaultInjector replay(plan, 2);
  int parked = 0;
  for (int i = 0; i < kMessages; ++i) {
    for (int tag : {1, 2}) {
      parked += replay.defer(0, 1, tag) ? 1 : 0;
      replay.message_delivered(0, 1, tag);
    }
  }
  EXPECT_GT(parked, 0);
}

TEST_P(ConformanceTest, RecvForTimesOutThenDelivers) {
  World w(GetParam(), 2);
  EXPECT_FALSE(
      w.at(1).recv_for(1, 0, 5, std::chrono::milliseconds(30)).has_value());
  w.at(0).send(0, 1, 5, Tensor::full({1}, 3.5F));
  auto got = w.at(1).recv_for(1, 0, 5, std::chrono::milliseconds(5000));
  ASSERT_TRUE(got.has_value());
  EXPECT_FLOAT_EQ(got->at({0}), 3.5F);
}

TEST_P(ConformanceTest, RankRangeChecks) {
  World w(GetParam(), 2);
  EXPECT_THROW(w.at(0).send(0, 5, 0, Tensor::zeros({1})), InvalidArgument);
  EXPECT_THROW(w.at(1).recv(1, 7, 0), InvalidArgument);
}

// ---- whole-world close ----

TEST_P(ConformanceTest, CloseWakesBlockedReceiverEverywhere) {
  World w(GetParam(), 2);
  std::atomic<bool> threw{false};
  std::thread receiver([&] {
    try {
      w.at(1).recv(1, 0, 0);
    } catch (const ChannelClosedError&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  w.at(0).close();
  receiver.join();
  EXPECT_TRUE(threw.load());
  // Every endpoint observes the close, not just the one that called it.
  EXPECT_TRUE(World::eventually([&] { return w.at(1).closed(); }));
  EXPECT_THROW(w.at(1).send(1, 0, 0, Tensor::zeros({1})), ChannelClosedError);
  EXPECT_THROW(w.at(1).recv(1, 0, 0), ChannelClosedError);
}

// ---- rank-scoped death ----

TEST_P(ConformanceTest, CloseRankDrainsDeliveredMessagesFirst) {
  World w(GetParam(), 3);
  w.at(2).send(2, 1, 5, Tensor::full({1}, 1.0F));
  w.at(2).send(2, 1, 5, Tensor::full({1}, 2.0F));
  w.at(2).close_rank(2);  // the dying rank closes its own links
  ASSERT_TRUE(World::eventually([&] { return w.at(1).rank_dead(2); }));
  // Messages the dead rank already delivered drain in order...
  EXPECT_FLOAT_EQ(w.at(1).recv(1, 2, 5).at({0}), 1.0F);
  EXPECT_FLOAT_EQ(w.at(1).recv(1, 2, 5).at({0}), 2.0F);
  // ...then the link reports the death.
  EXPECT_THROW(w.at(1).recv(1, 2, 5), PeerDeadError);
  // Links between live ranks are untouched.
  w.at(0).send(0, 1, 8, Tensor::full({1}, 9.0F));
  EXPECT_FLOAT_EQ(w.at(1).recv(1, 0, 8).at({0}), 9.0F);
}

TEST_P(ConformanceTest, CloseRankWakesBlockedReceiverWithPeerDead) {
  World w(GetParam(), 3);
  std::atomic<int> dead_rank{-1};
  std::thread receiver([&] {
    try {
      w.at(1).recv(1, 2, 6);
    } catch (const PeerDeadError& e) {
      dead_rank.store(e.rank());
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  w.at(2).close_rank(2);
  receiver.join();
  EXPECT_EQ(dead_rank.load(), 2);
}

TEST_P(ConformanceTest, SendToDeadRankThrowsOnEveryEndpoint) {
  World w(GetParam(), 3);
  w.at(2).close_rank(2);
  ASSERT_TRUE(World::eventually([&] { return w.at(0).rank_dead(2); }));
  EXPECT_THROW(w.at(0).send(0, 2, 1, Tensor::zeros({1})), PeerDeadError);
  // close_rank is idempotent, from any endpoint.
  w.at(0).close_rank(2);
  w.at(2).close_rank(2);
  EXPECT_TRUE(w.at(0).rank_dead(2));
}

TEST_P(ConformanceTest, RootDeathRecordIsSharedAndFirstWins) {
  World w(GetParam(), 3);
  EXPECT_EQ(w.at(0).first_dead_rank(), -1);
  w.at(1).report_root_death(1);
  ASSERT_TRUE(World::eventually([&] { return w.at(0).first_dead_rank() == 1; }));
  // Rank 1's report must have reached rank 2's endpoint before rank 2
  // reports its own death, or rank 2 would legitimately record itself.
  ASSERT_TRUE(World::eventually([&] { return w.at(2).first_dead_rank() == 1; }));
  w.at(2).report_root_death(2);  // too late: first report wins
  EXPECT_EQ(w.at(0).first_dead_rank(), 1);
  EXPECT_EQ(w.at(2).first_dead_rank(), 1);
}

// ---- failure detection through the Communicator (policy layer) ----

TEST_P(ConformanceTest, RecvTimeoutPresumesPeerDead) {
  World w(GetParam(), 2);
  Communicator comm(w.at(1), 1);
  CommPolicy policy;
  policy.recv_timeout_ms = 20.0;
  policy.max_recv_retries = 2;
  comm.set_policy(policy);
  try {
    comm.recv(0, 99);
    FAIL() << "expected PeerDeadError";
  } catch (const PeerDeadError& e) {
    EXPECT_EQ(e.rank(), 0);
  }
  // The presumption is recorded as the root-cause death (recovery absorbs
  // it); closing the links is the cluster's unwind job, not the policy's.
  EXPECT_EQ(w.at(1).first_dead_rank(), 0);
}

TEST_P(ConformanceTest, TransientSendFaultsAreRetriedToDelivery) {
  FaultPlan faults;
  faults.send_failure_probability = 1.0;  // every message glitches...
  faults.max_transient_failures = 2;      // ...twice, then goes through
  World w(GetParam(), 2, LinkModel{}, faults);
  Communicator sender(w.at(0), 0);
  for (int i = 0; i < 4; ++i) {
    sender.send(1, 3, Tensor::full({2}, static_cast<float>(i)));
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(w.at(1).recv(1, 0, 3).at({0}), static_cast<float>(i));
  }
}

// ---- async engine over each backend ----

TEST_P(ConformanceTest, AsyncSendAndPostedRecv) {
  World w(GetParam(), 2);
  Communicator sender(w.at(0), 0);
  Communicator receiver(w.at(1), 1);
  PendingRecv posted = receiver.irecv(0, 11);
  sender.isend(1, 11, Tensor::full({1}, 42.0F));
  EXPECT_FLOAT_EQ(posted.wait().at({0}), 42.0F);
  // FIFO: async deliveries to one destination keep posting order.
  for (int i = 0; i < 16; ++i) {
    sender.isend(1, 12, Tensor::full({1}, static_cast<float>(i)));
  }
  sender.flush_sends();
  for (int i = 0; i < 16; ++i) {
    EXPECT_FLOAT_EQ(receiver.recv(0, 12).at({0}), static_cast<float>(i));
  }
}

// ---- concurrent all-pairs traffic ----

TEST_P(ConformanceTest, ConcurrentAllToAllKeepsEveryLinkOrdered) {
  constexpr int kWorld = 4;
  constexpr int kMessages = 8;
  World w(GetParam(), kWorld);
  std::vector<std::string> errors(kWorld);
  std::vector<std::thread> ranks;
  for (int r = 0; r < kWorld; ++r) {
    ranks.emplace_back([&, r] {
      try {
        for (int i = 0; i < kMessages; ++i) {
          for (int to = 0; to < kWorld; ++to) {
            if (to == r) continue;
            // Value encodes (from, sequence) so both routing and order are
            // checkable at the receiver.
            w.at(r).send(r, to, 21,
                         Tensor::full({1}, static_cast<float>(r * 100 + i)));
          }
        }
        for (int from = 0; from < kWorld; ++from) {
          if (from == r) continue;
          for (int i = 0; i < kMessages; ++i) {
            const float v = w.at(r).recv(r, from, 21).at({0});
            if (v != static_cast<float>(from * 100 + i)) {
              errors[static_cast<std::size_t>(r)] =
                  "rank " + std::to_string(r) + " from " +
                  std::to_string(from) + " msg " + std::to_string(i) +
                  " got " + std::to_string(v);
              return;
            }
          }
        }
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(r)] = e.what();
      }
    });
  }
  for (auto& t : ranks) t.join();
  for (const auto& e : errors) EXPECT_EQ(e, "");
}

// ---- cluster-level conformance ----

TEST_P(ConformanceTest, CollectivesMatchAcrossBackends) {
  constexpr int kWorld = 4;
  EdgeCluster cluster(kWorld, std::numeric_limits<std::uint64_t>::max());
  install_backend(cluster, GetParam());
  std::vector<int> group(kWorld);
  std::iota(group.begin(), group.end(), 0);

  std::vector<float> reduced(kWorld), naive(kWorld), bcast(kWorld);
  cluster.run([&](DeviceContext& ctx) {
    Tensor t = Tensor::full({13}, static_cast<float>(ctx.rank + 1));
    ctx.comm.allreduce_sum(t, group, 100, AllReduceAlgo::kRing);
    reduced[static_cast<std::size_t>(ctx.rank)] = t.at({5});

    Tensor u = Tensor::full({5}, static_cast<float>(10 * (ctx.rank + 1)));
    ctx.comm.allreduce_sum(u, group, 200, AllReduceAlgo::kNaive);
    naive[static_cast<std::size_t>(ctx.rank)] = u.at({0});

    Tensor b = ctx.rank == 2 ? Tensor::full({3}, 7.0F) : Tensor();
    b = ctx.comm.broadcast(std::move(b), 2, group, 300);
    bcast[static_cast<std::size_t>(ctx.rank)] = b.at({1});
  });

  for (int r = 0; r < kWorld; ++r) {
    EXPECT_FLOAT_EQ(reduced[static_cast<std::size_t>(r)], 10.0F);
    EXPECT_FLOAT_EQ(naive[static_cast<std::size_t>(r)], 100.0F);
    EXPECT_FLOAT_EQ(bcast[static_cast<std::size_t>(r)], 7.0F);
  }

  // One payload on each side of the g = 4 crossover at the default link
  // (53333 bytes): 13333 floats go direct, 13334 round the ring.  Both
  // schedules must produce the ring-order sum, bit for bit, on every
  // backend; rank 0's message count shows which schedule ran.
  for (const std::int64_t n : {std::int64_t{13333}, std::int64_t{13334}}) {
    std::vector<std::vector<float>> x(kWorld);
    for (int r = 0; r < kWorld; ++r) {
      Rng rng(0xC0 + static_cast<std::uint64_t>(r));
      for (std::int64_t i = 0; i < n; ++i) {
        x[static_cast<std::size_t>(r)].push_back(
            std::ldexp(rng.uniform(-1.0F, 1.0F),
                       static_cast<int>(rng.integer(-8, 8))));
      }
    }
    std::vector<std::vector<float>> out(kWorld);
    cluster.run([&](DeviceContext& ctx) {
      const auto me = static_cast<std::size_t>(ctx.rank);
      Tensor t = Tensor::from_vector({n}, x[me]);
      ctx.comm.allreduce_sum(t, group, 600);
      out[me].assign(t.data(), t.data() + n);
    });
    const bool direct = allreduce_prefers_direct(
        LinkModel{}, kWorld, static_cast<std::uint64_t>(n) * sizeof(float));
    EXPECT_EQ(direct, n == 13333);
    std::uint64_t sent = 0;
    for (int peer = 1; peer < kWorld; ++peer) {
      sent += cluster.last_transport()->stats(0, peer).messages;
    }
    EXPECT_EQ(sent, direct ? 3U : 6U) << "n " << n;
    const std::int64_t chunk = (n + kWorld - 1) / kWorld;
    for (std::int64_t i = 0; i < n; ++i) {
      const auto c = static_cast<int>(i / chunk);
      const auto e = static_cast<std::size_t>(i);
      float want = x[static_cast<std::size_t>(c)][e];
      for (int k = 1; k < kWorld; ++k) {
        want += x[static_cast<std::size_t>((c + k) % kWorld)][e];
      }
      for (int r = 0; r < kWorld; ++r) {
        ASSERT_EQ(out[static_cast<std::size_t>(r)][e], want)
            << "n " << n << " rank " << r << " elem " << i;
      }
    }
  }
}

// The strongest statement in the suite: a multi-round SPMD program (local
// update + ring allreduce each round, like an epoch of DP adapter sync)
// must be *bit-for-bit* identical on every backend, because ring order is
// rank-structured and no backend may perturb arithmetic.
TEST_P(ConformanceTest, MultiRoundSpmdTrajectoryIsBitIdenticalToOracle) {
  constexpr int kWorld = 3;
  constexpr int kRounds = 5;
  constexpr std::int64_t kDim = 16;
  std::vector<int> group(kWorld);
  std::iota(group.begin(), group.end(), 0);

  auto run_world = [&](EdgeCluster& cluster) {
    std::vector<std::vector<float>> finals(kWorld);
    cluster.run([&](DeviceContext& ctx) {
      Tensor state = Tensor::full({kDim}, 0.1F * static_cast<float>(ctx.rank));
      for (int round = 0; round < kRounds; ++round) {
        for (std::int64_t i = 0; i < kDim; ++i) {
          state.at({i}) = state.at({i}) * 0.9F +
                          0.01F * static_cast<float>(ctx.rank + round + 1);
        }
        ctx.comm.allreduce_sum(state, group, 1000 + round);
        for (std::int64_t i = 0; i < kDim; ++i) {
          state.at({i}) /= static_cast<float>(kWorld);
        }
      }
      for (std::int64_t i = 0; i < kDim; ++i) {
        finals[static_cast<std::size_t>(ctx.rank)].push_back(state.at({i}));
      }
    });
    return finals;
  };

  EdgeCluster oracle_cluster(kWorld, std::numeric_limits<std::uint64_t>::max());
  const auto oracle = run_world(oracle_cluster);

  EdgeCluster backend_cluster(kWorld,
                              std::numeric_limits<std::uint64_t>::max());
  install_backend(backend_cluster, GetParam());
  const auto got = run_world(backend_cluster);

  for (int r = 0; r < kWorld; ++r) {
    ASSERT_EQ(got[static_cast<std::size_t>(r)].size(),
              oracle[static_cast<std::size_t>(r)].size());
    for (std::size_t i = 0; i < oracle[static_cast<std::size_t>(r)].size();
         ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(r)][i],
                oracle[static_cast<std::size_t>(r)][i])
          << "rank " << r << " elem " << i;
    }
  }
}

// Same statement for the compressed path: a multi-round SPMD program that
// ships quantized state ring-wise each round (like phase-2 cache traffic)
// must be bit-for-bit identical on every backend — quantize, the wire, and
// dequantize are all deterministic, so the backend cannot perturb a bit.
TEST_P(ConformanceTest, QuantizedMultiRoundSpmdTrajectoryIsBitIdentical) {
  constexpr int kWorld = 3;
  constexpr int kRounds = 5;
  constexpr std::int64_t kRowsDim = 4;
  constexpr std::int64_t kColsDim = 8;

  auto run_world = [&](EdgeCluster& cluster) {
    std::vector<std::vector<float>> finals(kWorld);
    cluster.run([&](DeviceContext& ctx) {
      const int next = (ctx.rank + 1) % kWorld;
      const int prev = (ctx.rank + kWorld - 1) % kWorld;
      Tensor state = Tensor::full({kRowsDim, kColsDim},
                                  0.3F * static_cast<float>(ctx.rank + 1));
      for (int round = 0; round < kRounds; ++round) {
        // Alternate element precisions round-to-round so both wire body
        // formats sit inside the same trajectory.
        const auto dt = (round % 2 == 0) ? quant::Dtype::kI8
                                         : quant::Dtype::kF16;
        ctx.comm.send_q(next, 2000 + round, quant::quantize(state, dt));
        const Tensor incoming =
            quant::dequantize(ctx.comm.recv_q(prev, 2000 + round));
        for (std::int64_t i = 0; i < state.numel(); ++i) {
          state.data()[i] =
              0.5F * (state.data()[i] + incoming.data()[i]) +
              0.01F * static_cast<float>(round + 1);
        }
      }
      for (std::int64_t i = 0; i < state.numel(); ++i) {
        finals[static_cast<std::size_t>(ctx.rank)].push_back(state.data()[i]);
      }
    });
    return finals;
  };

  EdgeCluster oracle_cluster(kWorld, std::numeric_limits<std::uint64_t>::max());
  const auto oracle = run_world(oracle_cluster);

  EdgeCluster backend_cluster(kWorld,
                              std::numeric_limits<std::uint64_t>::max());
  install_backend(backend_cluster, GetParam());
  const auto got = run_world(backend_cluster);

  for (int r = 0; r < kWorld; ++r) {
    ASSERT_EQ(got[static_cast<std::size_t>(r)].size(),
              oracle[static_cast<std::size_t>(r)].size());
    for (std::size_t i = 0; i < oracle[static_cast<std::size_t>(r)].size();
         ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(r)][i],
                oracle[static_cast<std::size_t>(r)][i])
          << "rank " << r << " elem " << i;
    }
  }
}

// Re-plan flow: a factory-backed cluster must survive a rank death and a
// shrunken re-run, exactly like the in-process transport does for the
// recovery paths.
TEST_P(ConformanceTest, ClusterSurvivesDeathAndRerunsOnSurvivors) {
  constexpr int kWorld = 3;
  EdgeCluster cluster(kWorld, std::numeric_limits<std::uint64_t>::max());
  install_backend(cluster, GetParam());
  FaultPlan faults;
  faults.death_after_ops[1] = 3;  // rank 1 dies on its 3rd transport op
  cluster.set_fault_plan(faults);

  std::vector<int> group(kWorld);
  std::iota(group.begin(), group.end(), 0);
  try {
    cluster.run([&](DeviceContext& ctx) {
      for (int round = 0; round < 10; ++round) {
        Tensor t = Tensor::full({4}, 1.0F);
        ctx.comm.allreduce_sum(t, group, 700 + round);
      }
    });
    FAIL() << "expected the injected death to surface";
  } catch (const RankDeathError& e) {
    EXPECT_EQ(e.rank(), 1);
  } catch (const PeerDeadError& e) {
    EXPECT_EQ(e.rank(), 1);
  }
  cluster.mark_dead(1);
  cluster.set_fault_plan(FaultPlan{});

  // Survivors re-plan and re-run on the same cluster (fresh transports).
  const std::vector<int> survivors = cluster.alive_ranks();
  ASSERT_EQ(survivors, (std::vector<int>{0, 2}));
  std::vector<float> results(kWorld, 0.0F);
  cluster.run([&](DeviceContext& ctx) {
    Tensor t = Tensor::full({4}, static_cast<float>(ctx.rank + 1));
    ctx.comm.allreduce_sum(t, survivors, 900);
    results[static_cast<std::size_t>(ctx.rank)] = t.at({0});
  });
  EXPECT_FLOAT_EQ(results[0], 4.0F);
  EXPECT_FLOAT_EQ(results[2], 4.0F);
  EXPECT_FLOAT_EQ(results[1], 0.0F);  // dead rank never ran
}

// ---- link survivability (reconnect / resync) ----

// A forced mid-SPMD link cut must be *invisible* to the program: the TCP
// backend reconnects within its budget, resyncs, and the final trajectory
// is bit-for-bit the oracle's.  The cut plan is a TCP-layer fault, so the
// other backends run it as a plain no-fault conformance pass.
TEST_P(ConformanceTest, LinkCutMidSpmdKeepsTrajectoryBitIdentical) {
  constexpr int kWorld = 3;
  constexpr int kRounds = 5;
  constexpr std::int64_t kDim = 16;
  std::vector<int> group(kWorld);
  std::iota(group.begin(), group.end(), 0);

  auto run_world = [&](EdgeCluster& cluster) {
    std::vector<std::vector<float>> finals(kWorld);
    cluster.run([&](DeviceContext& ctx) {
      Tensor state = Tensor::full({kDim}, 0.1F * static_cast<float>(ctx.rank));
      for (int round = 0; round < kRounds; ++round) {
        for (std::int64_t i = 0; i < kDim; ++i) {
          state.at({i}) = state.at({i}) * 0.9F +
                          0.01F * static_cast<float>(ctx.rank + round + 1);
        }
        ctx.comm.allreduce_sum(state, group, 1000 + round);
        for (std::int64_t i = 0; i < kDim; ++i) {
          state.at({i}) /= static_cast<float>(kWorld);
        }
      }
      for (std::int64_t i = 0; i < kDim; ++i) {
        finals[static_cast<std::size_t>(ctx.rank)].push_back(state.at({i}));
      }
    });
    return finals;
  };

  EdgeCluster oracle_cluster(kWorld, std::numeric_limits<std::uint64_t>::max());
  const auto oracle = run_world(oracle_cluster);

  obs::TraceSession trace;  // arms the wire.* counters
  auto& counters = obs::CounterRegistry::instance();
  const std::int64_t reconnects_before = counters.value("wire.reconnects");
  const std::int64_t retransmit_before =
      counters.value("wire.retransmit_frames");

  EdgeCluster backend_cluster(kWorld,
                              std::numeric_limits<std::uint64_t>::max());
  install_backend(backend_cluster, GetParam());
  FaultPlan faults;
  faults.tcp_cut_every_frames[{0, 1}] = 4;  // ring edge, cut repeatedly
  faults.tcp_cut_every_frames[{2, 0}] = 6;  // wrap-around edge too
  backend_cluster.set_fault_plan(faults);
  const auto got = run_world(backend_cluster);

  for (int r = 0; r < kWorld; ++r) {
    ASSERT_EQ(got[static_cast<std::size_t>(r)].size(),
              oracle[static_cast<std::size_t>(r)].size());
    for (std::size_t i = 0; i < oracle[static_cast<std::size_t>(r)].size();
         ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(r)][i],
                oracle[static_cast<std::size_t>(r)][i])
          << "rank " << r << " elem " << i;
    }
  }
  if (GetParam() == Backend::kTcp) {
    // The cuts actually happened and were healed, with zero frame loss
    // (the bit-identical trajectory above) and zero duplicates (FIFO recv
    // would have surfaced them as wrong values).
    EXPECT_GE(counters.value("wire.reconnects") - reconnects_before, 1);
    EXPECT_GE(counters.value("wire.retransmit_frames") - retransmit_before,
              0);
  }
}

// Reconnects must preserve the per-(source, tag) FIFO contract even with
// interleaved tags sharing the cut link.
TEST_P(ConformanceTest, ReconnectPreservesPerLinkAndTagFifo) {
  FaultPlan faults;
  faults.tcp_cut_every_frames[{0, 1}] = 5;
  World w(GetParam(), 2, LinkModel{}, faults);
  for (int i = 0; i < 40; ++i) {
    const int tag = 3 + (i % 2);
    w.at(0).send(0, 1, tag, Tensor::full({1}, static_cast<float>(i)));
  }
  for (int tag : {3, 4}) {
    float prev = -1.0F;
    for (int i = 0; i < 20; ++i) {
      const float v = w.at(1).recv(1, 0, tag).at({0});
      EXPECT_GT(v, prev);
      EXPECT_EQ(static_cast<int>(v) % 2, tag - 3);
      prev = v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ConformanceTest,
                         ::testing::Values(Backend::kInProc, Backend::kTcp),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return backend_name(info.param);
                         });

// ---- TCP-only robustness (suite name carries "Tcp" for the TSan filter) --

// Raw socket helper for protocol-level attacks: connect to an endpoint's
// listener and push arbitrary bytes.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool raw_send(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

struct TcpPair {
  std::unique_ptr<TcpTransport> a;  // rank 0
  std::unique_ptr<TcpTransport> b;  // rank 1
  TcpPair(TcpTuning tuning, FaultPlan faults = {}) {
    a = std::make_unique<TcpTransport>(2, 0, /*bind_port=*/0, LinkModel{},
                                       faults, tuning);
    b = std::make_unique<TcpTransport>(2, 1, /*bind_port=*/0, LinkModel{},
                                       faults, tuning);
    a->set_peer(1, TcpPeer{"127.0.0.1", b->port()});
    b->set_peer(0, TcpPeer{"127.0.0.1", a->port()});
  }
};

TcpTuning fast_tuning() {
  TcpTuning t;
  t.reconnect_budget = 2;
  t.backoff_base_ms = 1.0;
  t.backoff_max_ms = 2.0;
  t.connect_timeout_ms = 2000;
  t.reconnect_timeout_ms = 100;
  return t;
}

TEST(TcpRobustness, ReconnectBudgetExhaustionCollapsesToPeerDead) {
  TcpPair pair(fast_tuning());
  pair.a->send(0, 1, 1, Tensor::full({1}, 1.0F));
  EXPECT_FLOAT_EQ(pair.b->recv(1, 0, 1).at({0}), 1.0F);
  // Kill the receiver endpoint outright: its listener vanishes, so the
  // first reconnect attempt is refused and the link collapses without
  // spending the rest of the budget.
  pair.b.reset();
  bool dead = false;
  for (int i = 0; i < 50 && !dead; ++i) {
    try {
      pair.a->send(0, 1, 1, Tensor::full({1}, 2.0F));
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    } catch (const PeerDeadError& e) {
      EXPECT_EQ(e.rank(), 1);
      dead = true;
    }
  }
  EXPECT_TRUE(dead);
  EXPECT_TRUE(pair.a->rank_dead(1));
  // Budget exhaustion lands in the ordinary root-cause death record, so
  // the standard recovery path takes over from here.
  EXPECT_EQ(pair.a->first_dead_rank(), 1);
  EXPECT_FALSE(pair.a->link_degraded(1));
}

// The refusal rule: an endpoint listens until it is destroyed, so a dial
// refused at a known address means the peer's process is gone.  The three
// cases below are the places a survivor can first meet that refusal.

TEST(TcpRobustness, FirstSendToGoneEndpointThrowsPeerDeadAtOnce) {
  TcpPair pair(TcpTuning{});  // default 5 s first-dial deadline
  pair.b.reset();             // rank 1's process is gone before any traffic
  const auto start = std::chrono::steady_clock::now();
  try {
    pair.a->send(0, 1, 1, Tensor::full({1}, 1.0F));
    FAIL() << "expected PeerDeadError";
  } catch (const PeerDeadError& e) {
    EXPECT_EQ(e.rank(), 1);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(1));
  EXPECT_TRUE(pair.a->rank_dead(1));
  EXPECT_EQ(pair.a->first_dead_rank(), 1);
}

TEST(TcpRobustness, TimedRecvFromGoneEndpointThatNeverConnectedThrows) {
  TcpPair pair(fast_tuning());
  pair.b.reset();  // never sent a byte, so no inbound link can hit EOF
  Communicator comm(*pair.a, 0);
  CommPolicy policy;
  policy.recv_timeout_ms = 200.0;  // first window at most 300 ms (jitter)
  policy.max_recv_retries = 3;     // presumption alone: 1.5 s at least
  comm.set_policy(policy);
  const auto start = std::chrono::steady_clock::now();
  try {
    comm.recv(1, 4);
    FAIL() << "expected PeerDeadError";
  } catch (const PeerDeadError& e) {
    EXPECT_EQ(e.rank(), 1);
  }
  // One window plus the probe: the refusal, not the presumption budget.
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(1000));
  EXPECT_TRUE(pair.a->rank_dead(1));
}

TEST(TcpRobustness, MessageSentBeforeEndpointDiesIsStillReceived) {
  TcpPair pair(fast_tuning());
  pair.b->send(1, 0, 4, Tensor::full({1}, 7.0F));
  pair.b.reset();
  // The inbound link's EOF probe finds nothing listening: rank 1 is dead.
  ASSERT_TRUE(World::eventually([&] { return pair.a->rank_dead(1); }));
  // Death does not discard what already crossed the wire...
  EXPECT_FLOAT_EQ(pair.a->recv(0, 1, 4).at({0}), 7.0F);
  // ...and only the next receive learns of it.
  EXPECT_THROW(pair.a->recv_for(0, 1, 4, std::chrono::milliseconds(2000)),
               PeerDeadError);
}

TEST(TcpRobustness, RootDeadGossipWakesReceiverWithNoLinkFromVictim) {
  // Rank 2 (the victim) only ever dials rank 0, so rank 1 holds no link
  // from it that could hit EOF.  Rank 0 detects the death on its inbound
  // link and gossips ROOT_DEAD; that frame alone must end rank 1's
  // receive, long before its window expires and its own probe runs.
  std::vector<std::unique_ptr<TcpTransport>> ep;
  for (int r = 0; r < 3; ++r) {
    ep.push_back(std::make_unique<TcpTransport>(3, r, /*bind_port=*/0,
                                                LinkModel{}, FaultPlan{},
                                                fast_tuning()));
  }
  for (int r = 0; r < 3; ++r) {
    for (int p = 0; p < 3; ++p) {
      if (p != r) ep[r]->set_peer(p, TcpPeer{"127.0.0.1", ep[p]->port()});
    }
  }
  ep[2]->send(2, 0, 4, Tensor::full({1}, 1.0F));
  EXPECT_FLOAT_EQ(ep[0]->recv(0, 2, 4).at({0}), 1.0F);
  ep[2].reset();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(ep[1]->recv_for(1, 2, 4, std::chrono::seconds(10)),
               PeerDeadError);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(2));
  EXPECT_TRUE(ep[1]->rank_dead(2));
  EXPECT_EQ(ep[1]->first_dead_rank(), 2);
}

TEST(TcpRobustness, ZeroReconnectBudgetRejectedAtConstruction) {
  TcpTuning tuning = fast_tuning();
  tuning.reconnect_budget = 0;
  EXPECT_THROW(TcpTransport(2, 0, /*bind_port=*/0, LinkModel{}, FaultPlan{},
                            tuning),
               InvalidArgument);
}

TEST(TcpRobustness, MacTamperedFrameNeverReachesMailbox) {
  obs::TraceSession trace;  // arms wire.auth_fail
  auto& counters = obs::CounterRegistry::instance();
  const std::int64_t fails_before = counters.value("wire.auth_fail");

  wire::AuthKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(0xA0 + i);
  }
  TcpTuning tuning = fast_tuning();
  tuning.auth_key = key;
  TcpPair pair(tuning);
  // Authenticated traffic round-trips.
  pair.a->send(0, 1, 7, Tensor::full({1}, 5.0F));
  EXPECT_FLOAT_EQ(pair.b->recv(1, 0, 7).at({0}), 5.0F);

  // Attack 1: a connection speaking the legacy unauthenticated protocol is
  // rejected at its very first frame (tags cannot be stripped).
  {
    const int fd = raw_connect(pair.b->port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(raw_send(fd, wire::encode_control(wire::FrameType::kHello, 0)));
    raw_send(fd, wire::encode_data(0, 99, Tensor::full({1}, 666.0F)));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::close(fd);
  }
  // Attack 2: a correctly keyed HELLO followed by a tampered (bit-flipped)
  // data frame — the MAC check poisons the decoder before the body parses.
  {
    const int fd = raw_connect(pair.b->port());
    ASSERT_GE(fd, 0);
    auto hello = wire::encode_control(wire::FrameType::kHello, 0);
    wire::authenticate(hello, key);
    ASSERT_TRUE(raw_send(fd, hello));
    auto frame = wire::encode_data(0, 99, Tensor::full({1}, 666.0F));
    wire::authenticate(frame, key);
    frame[wire::kHeaderBytes + 2] ^= 0x01;  // flip one body bit
    raw_send(fd, frame);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::close(fd);
  }
  // Neither forged frame reached the mailbox...
  EXPECT_FALSE(
      pair.b->recv_for(1, 0, 99, std::chrono::milliseconds(100)).has_value());
  EXPECT_GE(counters.value("wire.auth_fail") - fails_before, 1);
  // ...and the genuine link is unharmed.
  pair.a->send(0, 1, 8, Tensor::full({1}, 6.0F));
  EXPECT_FLOAT_EQ(pair.b->recv(1, 0, 8).at({0}), 6.0F);
  EXPECT_FALSE(pair.b->rank_dead(0));
}

TEST(TcpRobustness, StaleEpochResyncConnectionRejected) {
  FaultPlan faults;
  faults.tcp_cut_every_frames[{0, 1}] = 3;
  TcpPair pair(fast_tuning(), faults);
  // Frames 1..4: the cut after frame 3 forces a real reconnect, bumping
  // the link's session epoch to >= 1.
  for (int i = 0; i < 4; ++i) {
    pair.a->send(0, 1, 5, Tensor::full({1}, static_cast<float>(i)));
  }
  // Replay a RESYNC for an already-adopted epoch: the connection must be
  // rejected as stale (strictly-greater epochs only), not hijack the link.
  {
    const int fd = raw_connect(pair.b->port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(raw_send(fd, wire::encode_control(wire::FrameType::kHello, 0)));
    ASSERT_TRUE(raw_send(fd, wire::encode_resync(0, 1, 0)));
    // A data frame on the stale connection must never deliver.
    raw_send(fd, wire::encode_data(0, 5, Tensor::full({1}, 666.0F)));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::close(fd);
  }
  // The genuine link still delivers, in order, exactly once.
  for (int i = 4; i < 8; ++i) {
    pair.a->send(0, 1, 5, Tensor::full({1}, static_cast<float>(i)));
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(pair.b->recv(1, 0, 5).at({0}), static_cast<float>(i));
  }
  EXPECT_FALSE(
      pair.b->recv_for(1, 0, 5, std::chrono::milliseconds(50)).has_value());
}

// Regression (recv_for timeout semantics): windows that expire while the
// link is degraded must NOT count toward the peer-death presumption — link
// loss under an active reconnect budget is not evidence of a dead peer.
TEST(TcpRobustness, DegradedLinkWindowsDoNotCountTowardPresumption) {
  FaultPlan faults;
  faults.tcp_cut_every_frames[{0, 1}] = 1;  // cut after EVERY frame
  TcpPair pair(fast_tuning(), faults);

  std::thread sender([&] {
    pair.a->send(0, 1, 9, Tensor::full({1}, 1.0F));
    // The link is now down (cut landed right after the frame); hold it
    // down well past the receiver's presumption budget before the next
    // send triggers the reconnect.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    pair.a->send(0, 1, 9, Tensor::full({1}, 2.0F));
  });

  Communicator comm(*pair.b, 1);
  CommPolicy policy;
  policy.recv_timeout_ms = 40.0;
  policy.max_recv_retries = 1;  // without the degraded freeze: dead at ~120ms
  comm.set_policy(policy);
  EXPECT_FLOAT_EQ(comm.recv(0, 9).at({0}), 1.0F);
  EXPECT_FLOAT_EQ(comm.recv(0, 9).at({0}), 2.0F);
  sender.join();
  EXPECT_EQ(pair.b->first_dead_rank(), -1);
  EXPECT_FALSE(pair.b->rank_dead(0));
}

}  // namespace
}  // namespace pac::dist
