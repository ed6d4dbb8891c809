#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <thread>

#include "cache/activation_cache.hpp"
#include "cache/redistribution.hpp"
#include "tensor/ops.hpp"

namespace pac::cache {
namespace {

CacheConfig mem_cfg(std::int64_t num_blocks,
                    dist::MemoryLedger* ledger = nullptr) {
  CacheConfig cfg;
  cfg.num_blocks = num_blocks;
  cfg.ledger = ledger;
  return cfg;
}

CacheConfig disk_cfg(std::int64_t num_blocks, const std::string& dir) {
  CacheConfig cfg;
  cfg.num_blocks = num_blocks;
  cfg.disk_backed = true;
  cfg.directory = dir;
  return cfg;
}

Tensor make_block(std::int64_t t, std::int64_t h, float base) {
  Tensor x({t, h});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = base + static_cast<float>(i);
  }
  return x;
}

TEST(ActivationCacheTest, RecordAndFetchRoundTrip) {
  ActivationCache cache(mem_cfg(3));
  // Record a micro-batch of 2 samples for each of 3 blocks.
  Rng rng(5);
  std::vector<Tensor> blocks;
  for (std::int64_t b = 0; b < 3; ++b) {
    Tensor hidden = Tensor::randn({2, 4, 8}, rng);
    blocks.push_back(hidden);
    cache.record({10, 20}, b, hidden);
  }
  EXPECT_TRUE(cache.complete(10));
  EXPECT_TRUE(cache.complete(20));
  auto fetched = cache.fetch({20, 10});
  ASSERT_EQ(fetched.size(), 3U);
  for (std::int64_t b = 0; b < 3; ++b) {
    // Row 0 of the fetch is sample 20 = row 1 of the recorded batch.
    Tensor want0 = blocks[static_cast<std::size_t>(b)].slice0(1, 2);
    Tensor got0 = fetched[static_cast<std::size_t>(b)].slice0(0, 1);
    EXPECT_LT(ops::max_abs_diff(want0, got0), 1e-7F);
  }
}

TEST(ActivationCacheTest, MissAndIncompleteThrow) {
  ActivationCache cache(mem_cfg(2));
  cache.put_block(5, 0, make_block(2, 2, 0.0F));
  EXPECT_FALSE(cache.complete(5));
  EXPECT_THROW(cache.fetch({5}), InvalidArgument);   // incomplete
  EXPECT_THROW(cache.fetch({99}), CacheMissError);   // absent
  EXPECT_THROW(cache.get_block(5, 1), CacheMissError);
  EXPECT_THROW(cache.fetch({}), InvalidArgument);
}

TEST(ActivationCacheTest, DuplicateRecordThrows) {
  ActivationCache cache(mem_cfg(2));
  cache.put_block(1, 0, make_block(2, 2, 0.0F));
  EXPECT_THROW(cache.put_block(1, 0, make_block(2, 2, 1.0F)),
               InvalidArgument);
}

TEST(ActivationCacheTest, LedgerChargesAndRefunds) {
  dist::MemoryLedger ledger(0, 1U << 20);
  ActivationCache cache(mem_cfg(1, &ledger));
  cache.put_block(1, 0, make_block(4, 4, 0.0F));
  EXPECT_EQ(ledger.current(dist::MemClass::kCache), 64U);
  EXPECT_EQ(cache.memory_bytes(), 64U);
  cache.drop_sample(1);
  EXPECT_EQ(ledger.current(dist::MemClass::kCache), 0U);
}

TEST(ActivationCacheTest, LedgerBudgetTriggersOom) {
  dist::MemoryLedger ledger(2, 100);
  ActivationCache cache(mem_cfg(1, &ledger));
  EXPECT_THROW(cache.put_block(1, 0, make_block(10, 10, 0.0F)),
               DeviceOomError);
}

TEST(ActivationCacheTest, DiskSpillEvictsRamAndReloads) {
  const std::string dir = "/tmp/pac_cache_test_spill";
  std::filesystem::remove_all(dir);
  ActivationCache cache(disk_cfg(2, dir));
  Tensor b0 = make_block(3, 4, 0.0F);
  Tensor b1 = make_block(3, 4, 100.0F);
  cache.put_block(7, 0, b0.clone());
  EXPECT_GT(cache.memory_bytes(), 0U);
  cache.put_block(7, 1, b1.clone());  // completes -> spills
  EXPECT_EQ(cache.memory_bytes(), 0U);
  EXPECT_GT(cache.total_bytes(), 0U);
  EXPECT_TRUE(cache.complete(7));

  auto fetched = cache.fetch({7});
  EXPECT_LT(ops::max_abs_diff(fetched[0].reshape({3, 4}), b0), 1e-7F);
  EXPECT_LT(ops::max_abs_diff(fetched[1].reshape({3, 4}), b1), 1e-7F);
  // get_block also reloads.
  EXPECT_LT(ops::max_abs_diff(cache.get_block(7, 1), b1), 1e-7F);

  // The spill went to the shard's one log; clear() removes it.
  std::vector<std::string> files;
  for (const auto& f : std::filesystem::directory_iterator(dir)) {
    files.push_back(f.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{kSpillLogName});
  cache.clear();
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  EXPECT_EQ(cache.total_bytes(), 0U);
}

// ---- spill log ------------------------------------------------------------
// Every case runs once per payload format: the fp32 layout and the
// compressed (int8) one.

namespace fs = std::filesystem;

class SpillLogTest : public ::testing::TestWithParam<quant::Dtype> {
 protected:
  void SetUp() override {
    // ctest runs each case in its own process, concurrently: one directory
    // per case.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    root_ = (fs::temp_directory_path() / ("pac_spill_log_" + name)).string();
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string dir(const std::string& shard) const {
    return root_ + "/" + shard;
  }
  std::string log(const std::string& shard) const {
    return dir(shard) + "/" + kSpillLogName;
  }
  CacheConfig shard_cfg(const std::string& shard) const {
    CacheConfig cfg = disk_cfg(2, dir(shard));
    cfg.dtype = GetParam();
    return cfg;
  }
  // Both blocks of a sample; storing the second completes (spills) it.
  static Tensor block(std::int64_t id, std::int64_t b, float version) {
    return make_block(3, 4, static_cast<float>(id * 10 + b) + version);
  }
  static void put_sample(ActivationCache& cache, std::int64_t id,
                         float version = 0.0F) {
    for (std::int64_t b = 0; b < 2; ++b) {
      cache.put_block(id, b, block(id, b, version));
    }
  }
  // What fetch() must return for a block stored at the shard's dtype.
  Tensor stored(std::int64_t id, std::int64_t b, float version) const {
    return quant::dequantize(quant::quantize(block(id, b, version),
                                             GetParam()));
  }
  // Replays `shard_dir`'s log into a fresh in-memory shard.
  std::unique_ptr<ActivationCache> salvage(const std::string& shard_dir) {
    CacheConfig cfg = mem_cfg(2);
    cfg.dtype = GetParam();
    auto out = std::make_unique<ActivationCache>(cfg);
    out->absorb_spilled_directory(shard_dir);
    return out;
  }
  static std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  static void expect_same_bytes(const ActivationCache& want,
                                const ActivationCache& got,
                                std::int64_t id) {
    for (std::int64_t b = 0; b < 2; ++b) {
      const quant::QTensor w = want.get_block_q(id, b);
      const quant::QTensor g = got.get_block_q(id, b);
      EXPECT_EQ(w.shape, g.shape) << "sample " << id << " block " << b;
      EXPECT_EQ(w.scales, g.scales) << "sample " << id << " block " << b;
      EXPECT_EQ(w.data, g.data) << "sample " << id << " block " << b;
    }
  }

  std::string root_;
};

TEST_P(SpillLogTest, ManySpillsLeaveOneFileAndClearRemovesIt) {
  ActivationCache cache(shard_cfg("a"));
  for (std::int64_t id = 0; id < 6; ++id) put_sample(cache, id);
  EXPECT_EQ(cache.memory_bytes(), 0U);
  std::vector<std::string> files;
  for (const auto& f : fs::directory_iterator(dir("a"))) {
    files.push_back(f.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{kSpillLogName});
  auto fetched = cache.fetch({5, 0});
  EXPECT_EQ(ops::max_abs_diff(fetched[1].slice0(0, 1).reshape({3, 4}),
                              stored(5, 1, 0.0F)),
            0.0F);
  cache.clear();
  EXPECT_TRUE(fs::is_empty(dir("a")));
  // The shard stays usable: the next spill starts a fresh log.
  put_sample(cache, 9);
  EXPECT_EQ(cache.sample_ids(), std::vector<std::int64_t>{9});
  EXPECT_EQ(ops::max_abs_diff(cache.get_block(9, 0), stored(9, 0, 0.0F)),
            0.0F);
  EXPECT_EQ(salvage(dir("a"))->sample_ids(), std::vector<std::int64_t>{9});
}

TEST_P(SpillLogTest, TornLastRecordSalvagesExactlyTheEarlierSamples) {
  ActivationCache cache(shard_cfg("a"));
  std::vector<std::uintmax_t> ends;
  for (std::int64_t id = 0; id < 3; ++id) {
    put_sample(cache, id);
    ends.push_back(fs::file_size(log("a")));
  }
  const std::string bytes = read_file(log("a"));
  ASSERT_EQ(bytes.size(), ends[2]);
  fs::create_directories(dir("torn"));
  // Every cut inside the last record (its header included) loses exactly
  // that record; the complete log salvages everything.
  for (std::uintmax_t cut = ends[1]; cut <= ends[2]; ++cut) {
    {
      std::ofstream out(log("torn"), std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    auto salvaged = salvage(dir("torn"));
    const std::vector<std::int64_t> want =
        cut == ends[2] ? std::vector<std::int64_t>{0, 1, 2}
                       : std::vector<std::int64_t>{0, 1};
    ASSERT_EQ(salvaged->sample_ids(), want) << "cut at byte " << cut;
    for (std::int64_t id : want) expect_same_bytes(cache, *salvaged, id);
  }
}

TEST_P(SpillLogTest, DroppedSampleIsNotSalvaged) {
  ActivationCache cache(shard_cfg("a"));
  for (std::int64_t id = 0; id < 3; ++id) put_sample(cache, id);
  const std::string before = read_file(log("a"));
  cache.drop_sample(1);
  // A drop appends a record and rewrites nothing.
  const std::string after = read_file(log("a"));
  EXPECT_GT(after.size(), before.size());
  EXPECT_EQ(after.substr(0, before.size()), before);
  auto salvaged = salvage(dir("a"));
  EXPECT_EQ(salvaged->sample_ids(), (std::vector<std::int64_t>{0, 2}));
  expect_same_bytes(cache, *salvaged, 0);
  expect_same_bytes(cache, *salvaged, 2);
}

TEST_P(SpillLogTest, RespilledSampleSalvagesItsNewestBytes) {
  ActivationCache cache(shard_cfg("a"));
  put_sample(cache, 4, 0.0F);
  put_sample(cache, 5, 0.0F);
  cache.drop_sample(4);
  put_sample(cache, 4, 0.5F);  // same id, new bytes, a second record
  EXPECT_EQ(ops::max_abs_diff(cache.get_block(4, 1), stored(4, 1, 0.5F)),
            0.0F);
  auto salvaged = salvage(dir("a"));
  EXPECT_EQ(salvaged->sample_ids(), (std::vector<std::int64_t>{4, 5}));
  expect_same_bytes(cache, *salvaged, 4);
  expect_same_bytes(cache, *salvaged, 5);
  EXPECT_EQ(ops::max_abs_diff(salvaged->get_block(4, 0), stored(4, 0, 0.5F)),
            0.0F);
}

TEST_P(SpillLogTest, PrefetchRacingSpillsReadsCorrectBytes) {
  // The prefetch thread and fetch's miss path pread the log while another
  // thread keeps appending to it.
  ActivationCache cache(shard_cfg("a"));
  constexpr std::int64_t kOld = 8;
  constexpr std::int64_t kNew = 64;
  for (std::int64_t id = 0; id < kOld; ++id) put_sample(cache, id);
  std::atomic<std::int64_t> spilled{kOld};
  std::thread writer([&] {
    for (std::int64_t id = kOld; id < kOld + kNew; ++id) {
      put_sample(cache, id);
      spilled.store(id + 1);
    }
  });
  for (int i = 0; i < 200; ++i) {
    const std::int64_t newest = spilled.load() - 1;
    const std::vector<std::int64_t> ids = {i % kOld, newest};
    cache.prefetch(ids);
    const std::vector<Tensor> got = cache.fetch(ids);
    for (std::int64_t b = 0; b < 2; ++b) {
      for (std::int64_t r = 0; r < 2; ++r) {
        const std::int64_t id = ids[static_cast<std::size_t>(r)];
        EXPECT_EQ(ops::max_abs_diff(
                      got[static_cast<std::size_t>(b)].slice0(r, r + 1)
                          .reshape({3, 4}),
                      stored(id, b, 0.0F)),
                  0.0F)
            << "sample " << id << " block " << b;
      }
    }
  }
  writer.join();
  EXPECT_EQ(salvage(dir("a"))->sample_ids().size(),
            static_cast<std::size_t>(kOld + kNew));
}

INSTANTIATE_TEST_SUITE_P(Formats, SpillLogTest,
                         ::testing::Values(quant::Dtype::kF32,
                                           quant::Dtype::kI8),
                         [](const auto& info) {
                           return std::string(quant::dtype_name(info.param));
                         });

TEST(ActivationCacheTest, HeldBlocksEnumeration) {
  ActivationCache cache(mem_cfg(3));
  cache.put_block(1, 0, make_block(2, 2, 0.0F));
  cache.put_block(1, 2, make_block(2, 2, 0.0F));
  cache.put_block(4, 1, make_block(2, 2, 0.0F));
  auto held = cache.held_blocks();
  EXPECT_EQ(held.size(), 3U);
  EXPECT_EQ(cache.sample_ids(), (std::vector<std::int64_t>{1, 4}));
}

TEST(RedistributionTest, ShardsConvergeToTargets) {
  // 3 devices; initially each device holds *one block* of every sample
  // (as if each ran one pipeline stage).  After redistribution, device
  // (sample % 3) holds the complete entry.
  const int world = 3;
  const std::int64_t num_blocks = 3;
  const std::int64_t num_samples = 7;
  dist::EdgeCluster cluster(world,
                            std::numeric_limits<std::uint64_t>::max());
  std::vector<std::unique_ptr<ActivationCache>> shards;
  for (int r = 0; r < world; ++r) {
    shards.push_back(
        std::make_unique<ActivationCache>(mem_cfg(num_blocks)));
    for (std::int64_t s = 0; s < num_samples; ++s) {
      shards.back()->put_block(
          s, r, make_block(2, 2, static_cast<float>(s * 10 + r)));
    }
  }
  std::vector<RedistStats> stats(world);
  const std::vector<int> everyone = cluster.alive_ranks();
  const auto sharding = modulo_sharding_over(everyone);
  cluster.run([&](dist::DeviceContext& ctx) {
    stats[static_cast<std::size_t>(ctx.rank)] = redistribute_cache(
        ctx, *shards[static_cast<std::size_t>(ctx.rank)], sharding,
        everyone);
  });

  for (std::int64_t s = 0; s < num_samples; ++s) {
    const int target = static_cast<int>(s % world);
    for (int r = 0; r < world; ++r) {
      if (r == target) {
        EXPECT_TRUE(shards[static_cast<std::size_t>(r)]->complete(s))
            << "sample " << s << " incomplete on target " << r;
        // Content check: block b carries base s*10+b.
        for (std::int64_t b = 0; b < num_blocks; ++b) {
          EXPECT_FLOAT_EQ(shards[static_cast<std::size_t>(r)]
                              ->get_block(s, b)
                              .at({0, 0}),
                          static_cast<float>(s * 10 + b));
        }
      } else {
        EXPECT_FALSE(shards[static_cast<std::size_t>(r)]->complete(s));
        EXPECT_FALSE(shards[static_cast<std::size_t>(r)]->has_block(s, r));
      }
    }
  }
  // Conservation: items sent == items received overall.
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  for (const auto& st : stats) {
    sent += st.items_sent;
    received += st.items_received;
  }
  EXPECT_EQ(sent, received);
  EXPECT_GT(sent, 0U);
}

TEST(RedistributionTest, SelfTargetedSamplesStayPut) {
  dist::EdgeCluster cluster(2, std::numeric_limits<std::uint64_t>::max());
  std::vector<std::unique_ptr<ActivationCache>> shards;
  for (int r = 0; r < 2; ++r) {
    shards.push_back(std::make_unique<ActivationCache>(mem_cfg(1)));
  }
  // Device 0 holds sample 0 (target 0) and sample 1 (target 1).
  shards[0]->put_block(0, 0, make_block(2, 2, 1.0F));
  shards[0]->put_block(1, 0, make_block(2, 2, 2.0F));
  cluster.run([&](dist::DeviceContext& ctx) {
    redistribute_cache(ctx, *shards[static_cast<std::size_t>(ctx.rank)],
                       modulo_sharding_over({0, 1}), {0, 1});
  });
  EXPECT_TRUE(shards[0]->complete(0));
  EXPECT_FALSE(shards[0]->complete(1));
  EXPECT_TRUE(shards[1]->complete(1));
  EXPECT_FLOAT_EQ(shards[1]->get_block(1, 0).at({0, 0}), 2.0F);
}

// A rank killed after its peers finished a redistribution, but before it
// wrote the tombstones of the samples it shipped, still lists them in its
// spill log while their new owners hold them.  Salvage must take only the
// samples the completed sharding gave the dead rank: absorbing the others
// makes the survivors' redistribution store a sample twice ("put_block on
// spilled sample").
TEST(RedistributionTest, SalvageSkipsSamplesTheDeadRankHadShipped) {
  namespace fs = std::filesystem;
  const std::string root =
      (fs::temp_directory_path() / "pac_salvage_shipped").string();
  fs::remove_all(root);
  auto dir = [&](int r) { return root + "/device_" + std::to_string(r); };
  dist::EdgeCluster cluster(3, std::numeric_limits<std::uint64_t>::max());
  std::vector<std::unique_ptr<ActivationCache>> shards;
  for (int r = 0; r < 3; ++r) {
    shards.push_back(std::make_unique<ActivationCache>(disk_cfg(1, dir(r))));
  }
  // Rank 2 recorded (and spilled) every sample.
  for (std::int64_t s = 0; s < 6; ++s) {
    shards[2]->put_block(s, 0, make_block(2, 2, static_cast<float>(s)));
  }
  const std::string victim_log = dir(2) + "/" + kSpillLogName;
  const std::string unfinished_log = root + "/victim_before_tombstones";
  fs::copy_file(victim_log, unfinished_log);
  const auto sharding = modulo_sharding_over({0, 1, 2});
  cluster.run([&](dist::DeviceContext& ctx) {
    redistribute_cache(ctx, *shards[static_cast<std::size_t>(ctx.rank)],
                       sharding, {0, 1, 2});
  });
  // The kill: rank 2's shard is gone, and its log lacks the tombstones of
  // samples 0, 1, 3 and 4, which ranks 0 and 1 now hold.
  shards[2].reset();
  fs::copy_file(unfinished_log, victim_log);
  cluster.mark_dead(2);

  EXPECT_EQ(shards[0]->absorb_spilled_directory(
                dir(2), [&](std::int64_t s) { return sharding(s) == 2; }),
            2);  // samples 2 and 5
  const auto survivors = modulo_sharding_over({0, 1});
  cluster.run([&](dist::DeviceContext& ctx) {
    redistribute_cache(ctx, *shards[static_cast<std::size_t>(ctx.rank)],
                       survivors, {0, 1});
  });
  for (std::int64_t s = 0; s < 6; ++s) {
    const auto owner = static_cast<std::size_t>(survivors(s));
    ASSERT_TRUE(shards[owner]->complete(s)) << "sample " << s;
    EXPECT_FALSE(shards[1 - owner]->has_block(s, 0)) << "sample " << s;
    EXPECT_FLOAT_EQ(shards[owner]->get_block(s, 0).at({0, 0}),
                    static_cast<float>(s));
  }
  shards.clear();
  fs::remove_all(root);
}

TEST(RedistributionTest, BadTargetThrows) {
  dist::EdgeCluster cluster(2, std::numeric_limits<std::uint64_t>::max());
  std::vector<std::unique_ptr<ActivationCache>> shards;
  for (int r = 0; r < 2; ++r) {
    shards.push_back(std::make_unique<ActivationCache>(mem_cfg(1)));
    shards.back()->put_block(r, 0, make_block(2, 2, 0.0F));
  }
  EXPECT_THROW(
      cluster.run([&](dist::DeviceContext& ctx) {
        redistribute_cache(ctx, *shards[static_cast<std::size_t>(ctx.rank)],
                           [](std::int64_t) { return 99; }, {0, 1});
      }),
      InvalidArgument);
}

}  // namespace
}  // namespace pac::cache
