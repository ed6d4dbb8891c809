// Activation-cache micro-benchmarks (google-benchmark): record, fetch and
// disk spill/reload throughput (redistribution is in micro_dist).
#include <benchmark/benchmark.h>

#include <filesystem>
#include <numeric>

#include "cache/activation_cache.hpp"

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

}  // namespace

BENCHMARK_MAIN();
