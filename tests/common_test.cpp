#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"

namespace pac {
namespace {

TEST(ErrorTest, CheckMacroThrowsInvalidArgument) {
  EXPECT_THROW(PAC_CHECK(1 == 2, "one is not two"), InvalidArgument);
  EXPECT_NO_THROW(PAC_CHECK(1 == 1));
}

TEST(ErrorTest, CheckMessageContainsContext) {
  try {
    PAC_CHECK(false, "shape was " << 42);
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("shape was 42"), std::string::npos);
  }
}

TEST(ErrorTest, DeviceOomCarriesDetails) {
  DeviceOomError err(3, 1000, 512);
  EXPECT_EQ(err.device_id(), 3);
  EXPECT_EQ(err.requested_bytes(), 1000U);
  EXPECT_EQ(err.budget_bytes(), 512U);
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.normal(), b.normal());
    EXPECT_EQ(a.integer(0, 1000), b.integer(0, 1000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.normal() != b.normal()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng parent(7);
  const std::uint64_t s1 = parent.fork();
  const std::uint64_t s2 = parent.fork();
  EXPECT_NE(s1, s2);
}

TEST(RngTest, UniformRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(-2.0F, 3.0F);
    EXPECT_GE(v, -2.0F);
    EXPECT_LT(v, 3.0F);
  }
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(10000, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SmallRangeRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(5, [&](std::int64_t b, std::int64_t e) {
    total += static_cast<int>(e - b);
  });
  EXPECT_EQ(total.load(), 5);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, NestedParallelForFromWorkerRunsInline) {
  // Regression: a parallel_for issued from inside a pool task used to
  // enqueue chunks on the same queue the worker was supposed to drain and
  // then block on them — with every worker doing so, the pool deadlocked.
  // Nested calls must run inline and still cover their range exactly once.
  ThreadPool pool(4);
  constexpr std::int64_t kOuter = 4096;
  constexpr std::int64_t kInner = 4096;
  std::vector<std::atomic<int>> hits(kOuter);
  pool.parallel_for(
      kOuter,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          std::atomic<int> inner_hits{0};
          // Large enough that, un-nested, this would dispatch.
          pool.parallel_for(
              kInner,
              [&](std::int64_t b, std::int64_t e) {
                inner_hits += static_cast<int>(e - b);
              },
              /*grain=*/1);
          EXPECT_EQ(inner_hits.load(), kInner);
          hits[static_cast<std::size_t>(i)]++;
        }
      },
      /*grain=*/1);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, GrainBoundsChunkSize) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::int64_t> sizes;
  pool.parallel_for(
      130,
      [&](std::int64_t begin, std::int64_t end) {
        std::lock_guard<std::mutex> lock(mu);
        sizes.push_back(end - begin);
      },
      /*grain=*/30);
  std::int64_t total = 0;
  for (const std::int64_t s : sizes) {
    total += s;
    EXPECT_GE(s, 30) << "chunk smaller than grain";
  }
  EXPECT_EQ(total, 130);
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  std::int64_t total = 0;
  pool.parallel_for(100000, [&](std::int64_t b, std::int64_t e) {
    // With one thread everything runs inline, so plain accumulation is safe.
    total += e - b;
  });
  EXPECT_EQ(total, 100000);
}

// Many short dispatches from several callers at once: every parallel_for
// returns while its last worker may still be finishing the completion
// handshake, which used to touch the caller's already-destroyed mutex and
// condvar (an abort, or a TSan report).
TEST(ThreadPoolTest, ConcurrentShortDispatchesFromManyCallers) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kCallsEach = 2500;
  std::atomic<std::int64_t> total{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      for (int i = 0; i < kCallsEach; ++i) {
        pool.parallel_for(
            8,
            [&](std::int64_t b, std::int64_t e) {
              total.fetch_add(e - b, std::memory_order_relaxed);
            },
            /*grain=*/1);
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(total.load(), std::int64_t{kCallers} * kCallsEach * 8);
}

TEST(SerializeTest, RoundTripScalars) {
  std::stringstream ss;
  {
    BinaryWriter w(ss);
    w.write_u32(123U);
    w.write_u64(456ULL);
    w.write_i64(-789);
    w.write_f32(1.5F);
    w.write_string("hello pac");
  }
  BinaryReader r(ss);
  EXPECT_EQ(r.read_u32(), 123U);
  EXPECT_EQ(r.read_u64(), 456ULL);
  EXPECT_EQ(r.read_i64(), -789);
  EXPECT_EQ(r.read_f32(), 1.5F);
  EXPECT_EQ(r.read_string(), "hello pac");
}

TEST(SerializeTest, RoundTripBlocks) {
  std::stringstream ss;
  const std::vector<float> fs{1.0F, -2.0F, 3.5F};
  const std::vector<std::int64_t> is{10, -20, 30};
  {
    BinaryWriter w(ss);
    w.write_floats(fs.data(), fs.size());
    w.write_i64s(is.data(), is.size());
  }
  BinaryReader r(ss);
  std::vector<float> fs2(3);
  std::vector<std::int64_t> is2(3);
  r.read_floats(fs2.data(), 3);
  r.read_i64s(is2.data(), 3);
  EXPECT_EQ(fs, fs2);
  EXPECT_EQ(is, is2);
}

TEST(SerializeTest, TruncatedStreamThrows) {
  std::stringstream ss;
  {
    BinaryWriter w(ss);
    w.write_u32(1U);
  }
  BinaryReader r(ss);
  EXPECT_EQ(r.read_u32(), 1U);
  EXPECT_THROW(r.read_u64(), Error);
}

TEST(TimerTest, MeasuresNonNegativeTime) {
  WallTimer t;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_GE(t.millis(), 0.0);
}

}  // namespace
}  // namespace pac
