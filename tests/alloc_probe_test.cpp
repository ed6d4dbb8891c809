// Allocation probe: heap bytes a rank really holds, next to what it is
// charged for.
//
// This binary replaces the global operator new / delete (only here, so the
// library's hot path carries no counter).  Each allocation gets a 16-byte
// header naming its size and the thread that allocated it; that thread's
// slot counts live bytes, their high-water mark and the cumulative total,
// and a free on any thread is taken back from the allocating thread's slot.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "cache/activation_cache.hpp"
#include "data/dataset.hpp"
#include "model/model.hpp"
#include "pipeline/runners.hpp"

namespace {

struct Slot {
  std::atomic<std::int64_t> live{0};
  std::atomic<std::int64_t> peak{0};
  std::atomic<std::int64_t> total{0};
};

constexpr int kSlots = 4096;
Slot g_slots[kSlots];
std::atomic<int> g_next_slot{0};
// Threads past kSlots share the last slot, which no test reads.
thread_local int t_slot = -1;

int this_slot() {
  if (t_slot < 0) t_slot = std::min(g_next_slot.fetch_add(1), kSlots - 1);
  return t_slot;
}

struct Header {
  std::size_t size;
  int slot;
};
constexpr std::size_t kHeader = 16;
static_assert(sizeof(Header) <= kHeader);

void count_alloc(void* user, std::size_t size) {
  const int slot = this_slot();
  auto* h = reinterpret_cast<Header*>(static_cast<char*>(user) - kHeader);
  h->size = size;
  h->slot = slot;
  Slot& s = g_slots[slot];
  const auto bytes = static_cast<std::int64_t>(size);
  s.total.fetch_add(bytes, std::memory_order_relaxed);
  const std::int64_t live =
      s.live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (live > s.peak.load(std::memory_order_relaxed)) {
    s.peak.store(live, std::memory_order_relaxed);
  }
}

void count_free(void* user) {
  const auto* h =
      reinterpret_cast<const Header*>(static_cast<char*>(user) - kHeader);
  g_slots[h->slot].live.fetch_sub(static_cast<std::int64_t>(h->size),
                                  std::memory_order_relaxed);
}

void* probe_new(std::size_t size) {
  void* base = std::malloc(size + kHeader);
  if (base == nullptr) throw std::bad_alloc();
  void* user = static_cast<char*>(base) + kHeader;
  count_alloc(user, size);
  return user;
}

void probe_delete(void* user) noexcept {
  if (user == nullptr) return;
  count_free(user);
  std::free(static_cast<char*>(user) - kHeader);
}

// Over-aligned blocks put the header in the alignment padding in front of
// the user pointer.
std::size_t pad_for(std::align_val_t al) {
  return std::max(kHeader, static_cast<std::size_t>(al));
}

void* probe_new_aligned(std::size_t size, std::align_val_t al) {
  const std::size_t pad = pad_for(al);
  const std::size_t align = static_cast<std::size_t>(al);
  const std::size_t bytes = (size + pad + align - 1) / align * align;
  void* base = std::aligned_alloc(align, bytes);
  if (base == nullptr) throw std::bad_alloc();
  void* user = static_cast<char*>(base) + pad;
  count_alloc(user, size);
  return user;
}

void probe_delete_aligned(void* user, std::align_val_t al) noexcept {
  if (user == nullptr) return;
  count_free(user);
  std::free(static_cast<char*>(user) - pad_for(al));
}

}  // namespace

void* operator new(std::size_t size) { return probe_new(size); }
void* operator new[](std::size_t size) { return probe_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return probe_new(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return probe_new(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { probe_delete(p); }
void operator delete[](void* p) noexcept { probe_delete(p); }
void operator delete(void* p, std::size_t) noexcept { probe_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { probe_delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  probe_delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  probe_delete(p);
}
void* operator new(std::size_t size, std::align_val_t al) {
  return probe_new_aligned(size, al);
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return probe_new_aligned(size, al);
}
void operator delete(void* p, std::align_val_t al) noexcept {
  probe_delete_aligned(p, al);
}
void operator delete[](void* p, std::align_val_t al) noexcept {
  probe_delete_aligned(p, al);
}
void operator delete(void* p, std::size_t, std::align_val_t al) noexcept {
  probe_delete_aligned(p, al);
}
void operator delete[](void* p, std::size_t, std::align_val_t al) noexcept {
  probe_delete_aligned(p, al);
}

namespace pac {
namespace {

// What the calling thread's slot shows over one scope: the high-water mark
// and the cumulative bytes above the live bytes it started from.
class ThreadWindow {
 public:
  ThreadWindow() : slot_(g_slots[this_slot()]) {
    start_ = slot_.live.load();
    total_start_ = slot_.total.load();
    slot_.peak.store(start_);
  }
  std::int64_t peak() const { return slot_.peak.load() - start_; }
  std::int64_t live() const { return slot_.live.load() - start_; }
  std::int64_t allocated() const { return slot_.total.load() - total_start_; }

 private:
  Slot& slot_;
  std::int64_t start_ = 0;
  std::int64_t total_start_ = 0;
};

// Bytes a build allocates besides the parameter values: module objects,
// parameter names, the tensors' control blocks and shapes, each module's
// context queue, the dropout engines.  On this shape that is 77-79 KB for
// a hybrid_live stage and 124-168 KB for a whole model; a gradient buffer
// for every weight would add the values' size again (696-732 KB).
constexpr std::int64_t kBuildSlack = 192 * 1024;

// hybrid_live's shape (perfbench/workloads.json): model::tiny(6, 48, 4, 64,
// 16) under Parallel Adapters, S0[blocks 0..3; devs 0 1] | S1[blocks 4..7;
// devs 2 3], 4 micro-batches of a 16-row batch, 0.5 MB per device.
model::ModelConfig live_config() { return model::tiny(6, 48, 4, 64, 16); }
constexpr std::uint64_t kSeed = 42;
constexpr std::uint64_t kBudget = 524288;

model::TechniqueConfig technique_config(model::Technique t) {
  model::TechniqueConfig tc;
  tc.technique = t;
  return tc;
}

struct Bytes {
  std::int64_t values = 0;
  std::int64_t trainable_grads = 0;
};

Bytes charge_of(const nn::ParameterList& params) {
  Bytes b;
  for (const nn::Parameter* p : params) {
    b.values += static_cast<std::int64_t>(p->value_bytes());
    b.trainable_grads += static_cast<std::int64_t>(p->grad_bytes());
  }
  return b;
}

TEST(AllocProbeTest, EachStageBuildPeaksAtItsOwnValuesAndGrads) {
  model::Model whole(live_config(),
                     technique_config(model::Technique::kParallelAdapters),
                     model::TaskSpec{}, kSeed);
  const auto blocks = whole.blocks();
  for (const auto& [begin, end] :
       std::vector<std::pair<std::int64_t, std::int64_t>>{{0, 4}, {4, 8}}) {
    nn::ParameterList stage_params;
    for (std::int64_t b = begin; b < end; ++b) {
      blocks[static_cast<std::size_t>(b)]->collect_parameters(stage_params);
    }
    const Bytes want = charge_of(stage_params);
    std::int64_t peak = 0;
    {
      ThreadWindow window;
      model::Model stage(live_config(),
                         technique_config(model::Technique::kParallelAdapters),
                         model::TaskSpec{}, kSeed,
                         model::ModelParts::blocks(begin, end));
      peak = window.peak();
    }
    std::printf("[ probe    ] stage blocks %lld..%lld: build peak %lld B, "
                "values %lld B + trainable grads %lld B\n",
                static_cast<long long>(begin), static_cast<long long>(end),
                static_cast<long long>(peak),
                static_cast<long long>(want.values),
                static_cast<long long>(want.trainable_grads));
    EXPECT_LE(peak, want.values + want.trainable_grads + kBuildSlack)
        << "blocks " << begin << ".." << end;
  }
}

TEST(AllocProbeTest, BuildingAModelAllocatesNoGradient) {
  for (model::Technique t :
       {model::Technique::kFull, model::Technique::kAdapters,
        model::Technique::kLora, model::Technique::kParallelAdapters,
        model::Technique::kInference}) {
    SCOPED_TRACE(model::technique_name(t));
    ThreadWindow window;
    model::Model m(live_config(), technique_config(t), model::TaskSpec{},
                   kSeed);
    const Bytes held = charge_of(m.parameters());
    // Every byte allocated while building, freed or not: the values and
    // the bookkeeping, but no grad buffer, frozen or trainable.
    EXPECT_LE(window.allocated(), held.values + kBuildSlack);
  }
}

TEST(AllocProbeTest, SpilledSamplesKeepNoBlockSlots) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("pac_alloc_probe_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  constexpr std::int64_t kBlocks = 7;  // hybrid_live's b_0 .. b_6
  constexpr std::int64_t kSamples = 256;
  // A spilled sample's map node: its id and an Entry with an empty slot
  // vector.  The parent also kept 7 emptied optional<QTensor> slots.
  constexpr std::int64_t kPerSampleBytes = 160;
  {
    cache::CacheConfig cfg;
    cfg.num_blocks = kBlocks;
    cfg.disk_backed = true;
    cfg.directory = dir.string();
    cfg.dtype = quant::Dtype::kI8;
    cache::ActivationCache shard(cfg);
    Rng rng(7);
    const Tensor hidden = Tensor::randn({1, 16, 48}, rng);
    auto spill = [&](std::int64_t first) {
      for (std::int64_t s = first; s < first + kSamples; ++s) {
        for (std::int64_t b = 0; b < kBlocks; ++b) {
          shard.record({s}, b, hidden);
        }
      }
    };
    spill(0);  // the log, the reused record buffer, counters: fixed costs
    ThreadWindow window;
    spill(kSamples);
    const std::int64_t per_sample = window.live() / kSamples;
    std::printf("[ probe    ] spilled sample: %lld B of heap each\n",
                static_cast<long long>(per_sample));
    EXPECT_LE(per_sample, kPerSampleBytes);
    EXPECT_EQ(shard.memory_bytes(), 0U);
  }
  fs::remove_all(dir);
}

// Tags the rank threads: run_training calls record() on the thread of the
// rank it belongs to.
class RankTagger : public pipeline::ActivationRecorder {
 public:
  void record(const std::vector<std::int64_t>& /*sample_ids*/,
              std::int64_t /*block_index*/, const Tensor& /*hidden*/) override {
    slot_.store(this_slot());
  }
  int slot() const { return slot_.load(); }

 private:
  std::atomic<int> slot_{-1};
};

// Each rank's measured high-water mark next to its ledger peak.  The gap
// is what the ledger does not charge (model bookkeeping, transient
// activations, the GEMM pack workspaces).  When every rank built the whole
// model with a grad buffer per weight, the build alone peaked at
// 1,574,924 B, 3.7-4.3x the ledger peak.
TEST(AllocProbeTest, LiveRanksPeakWithinTwiceTheirLedgerPeak) {
  data::DatasetConfig dcfg;
  dcfg.train_samples = 64;
  dcfg.eval_samples = 16;
  dcfg.seed = 1003;
  const data::SyntheticGlueDataset ds(dcfg);
  dist::EdgeCluster cluster(4, kBudget);
  pipeline::RunConfig cfg;
  cfg.plan.stages = {pipeline::StageAssignment{0, 4, {0, 1}, {}},
                     pipeline::StageAssignment{4, 8, {2, 3}, {}}};
  cfg.plan.num_micro_batches = 4;
  cfg.batch_size = 16;
  cfg.epochs = 2;
  const model::TaskSpec task{ds.info().kind, ds.info().num_classes};
  const pipeline::ModelFactory factory =
      [task](const model::ModelParts& parts) {
        return std::make_unique<model::Model>(
            live_config(),
            technique_config(model::Technique::kParallelAdapters), task,
            kSeed, parts);
      };
  std::vector<RankTagger> taggers(4);
  std::vector<pipeline::ActivationRecorder*> recorders;
  for (RankTagger& t : taggers) recorders.push_back(&t);
  const pipeline::RunResult result =
      pipeline::run_training(cluster, ds, factory, cfg, &recorders);
  ASSERT_EQ(result.epoch_losses.size(), 2U);
  for (int r = 0; r < 4; ++r) {
    const int slot = taggers[static_cast<std::size_t>(r)].slot();
    ASSERT_GE(slot, 0) << "rank " << r << " never recorded";
    ASSERT_LT(slot, kSlots - 1) << "rank " << r << " shares the spare slot";
    const std::int64_t peak = g_slots[slot].peak.load();
    std::printf("[ probe    ] rank %d: measured peak %lld B, ledger peak "
                "%llu B, budget %llu B\n",
                r, static_cast<long long>(peak),
                static_cast<unsigned long long>(cluster.ledger(r).peak_total()),
                static_cast<unsigned long long>(kBudget));
    EXPECT_LE(peak,
              2 * static_cast<std::int64_t>(cluster.ledger(r).peak_total()))
        << "rank " << r;
  }
}

}  // namespace
}  // namespace pac
