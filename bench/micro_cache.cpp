// Activation-cache micro-benchmarks (google-benchmark): record, fetch,
// disk spill/reload, and redistribution throughput.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <numeric>

#include "cache/activation_cache.hpp"
#include "cache/redistribution.hpp"

namespace {

using namespace pac;

cache::CacheConfig mem_cfg(std::int64_t blocks) {
  cache::CacheConfig cfg;
  cfg.num_blocks = blocks;
  return cfg;
}

void BM_CacheRecord(benchmark::State& state) {
  const std::int64_t blocks = 5;
  const std::int64_t t = 16;
  const std::int64_t h = state.range(0);
  Rng rng(1);
  Tensor hidden = Tensor::randn({8, t, h}, rng);
  std::vector<std::int64_t> ids(8);
  std::int64_t next_id = 0;
  for (auto _ : state) {
    cache::ActivationCache cache(mem_cfg(blocks));
    std::iota(ids.begin(), ids.end(), next_id);
    next_id += 8;
    for (std::int64_t b = 0; b < blocks; ++b) {
      cache.record(ids, b, hidden);
    }
    benchmark::DoNotOptimize(cache.memory_bytes());
  }
  state.SetBytesProcessed(state.iterations() * blocks * hidden.numel() * 4);
}
BENCHMARK(BM_CacheRecord)->Arg(32)->Arg(128);

void BM_CacheFetch(benchmark::State& state) {
  const std::int64_t blocks = 5;
  const std::int64_t h = state.range(0);
  Rng rng(2);
  cache::ActivationCache cache(mem_cfg(blocks));
  Tensor hidden = Tensor::randn({16, 8, h}, rng);
  std::vector<std::int64_t> ids(16);
  std::iota(ids.begin(), ids.end(), 0);
  for (std::int64_t b = 0; b < blocks; ++b) cache.record(ids, b, hidden);
  for (auto _ : state) {
    auto got = cache.fetch(ids);
    benchmark::DoNotOptimize(got[0].data());
  }
  state.SetBytesProcessed(state.iterations() * blocks * hidden.numel() * 4);
}
BENCHMARK(BM_CacheFetch)->Arg(32)->Arg(128);

void BM_CacheDiskSpillReload(benchmark::State& state) {
  const std::string dir = "/tmp/pac_bench_cache_spill";
  std::filesystem::remove_all(dir);
  cache::CacheConfig cfg;
  cfg.num_blocks = 5;
  cfg.disk_backed = true;
  cfg.directory = dir;
  cache::ActivationCache cache(cfg);
  Rng rng(3);
  Tensor hidden = Tensor::randn({4, 8, 64}, rng);
  std::vector<std::int64_t> ids{0, 1, 2, 3};
  for (std::int64_t b = 0; b < 5; ++b) cache.record(ids, b, hidden);
  for (auto _ : state) {
    auto got = cache.fetch(ids);  // reload from disk every time
    benchmark::DoNotOptimize(got[0].data());
  }
  state.SetBytesProcessed(state.iterations() * 5 * hidden.numel() * 4);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CacheDiskSpillReload);

void BM_Redistribution(benchmark::State& state) {
  const int world = static_cast<int>(state.range(0));
  const std::int64_t samples = 32;
  for (auto _ : state) {
    state.PauseTiming();
    dist::EdgeCluster cluster(world,
                              std::numeric_limits<std::uint64_t>::max());
    std::vector<std::unique_ptr<cache::ActivationCache>> shards;
    Rng rng(4);
    for (int r = 0; r < world; ++r) {
      shards.push_back(
          std::make_unique<cache::ActivationCache>(mem_cfg(world)));
      Tensor block = Tensor::randn({8, 32}, rng);
      for (std::int64_t s = 0; s < samples; ++s) {
        shards.back()->put_block(s, r, block.clone());
      }
    }
    const std::vector<int> everyone = cluster.alive_ranks();
    const auto sharding = cache::modulo_sharding_over(everyone);
    state.ResumeTiming();
    cluster.run([&](dist::DeviceContext& ctx) {
      cache::redistribute_cache(
          ctx, *shards[static_cast<std::size_t>(ctx.rank)], sharding,
          everyone);
    });
  }
}
BENCHMARK(BM_Redistribution)->Arg(2)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
