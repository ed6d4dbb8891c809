// PAC activation cache (paper §4.2).
//
// Because the backbone is frozen, the activations [b_0 .. b_L] for a given
// sample never change; epoch 1 records them and later epochs train the side
// network without any backbone forward.  One cache instance is one device's
// shard.  Two backends:
//   memory — everything held in RAM, charged to the device ledger (kCache);
//   disk   — completed samples are appended to the shard's spill log and
//            evicted from RAM; fetch() reloads them on demand.  This models
//            the paper's flash-storage cache ("reloaded from disk per
//            micro-batch", storage §5.2) and keeps the DRAM ledger honest.
//
// The spill log, <directory>/spill.log, is append-only: a spill is one
// record (a fixed header {magic, sample id, payload length}, then the
// sample's serialized blocks), a reload is one pread of a recorded extent,
// and dropping a spilled sample appends a tombstone (a header with a
// reserved length and no payload).  Records are never rewritten; clear()
// removes the whole file.
//
// Storage dtype (CacheConfig::dtype): every block is stored as a
// quant::QTensor in the shard's dtype, written on insert and dequantized on
// fetch (see tensor/quant.hpp for the formats).  A kF32 block is a
// bit-exact copy of the recorded floats; fp16/int8 shrink RAM, the ledger
// charge, the spill log and redistribution traffic 2-4x.  take_sample/
// put_block_q move blocks between shards in their stored representation —
// redistribution never requantizes, so shipping a block is lossless, and
// never copies: a RAM shard refunds a block's bytes as it ships, and a
// spilled sample is read from the log once.
//
// Disk-backed shards additionally support prefetch(): a background reader
// thread reloads the announced samples into a staging buffer while the
// trainer computes the current step, and the next fetch() consumes the
// staged entries instead of touching disk (double buffering: at any time
// one batch is being consumed while the next is being loaded).  prefetch
// is purely advisory — a fetch for ids that were never announced, or whose
// staging failed, falls back to the synchronous reload.  All public
// methods are thread-safe.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dist/memory_ledger.hpp"
#include "pipeline/activation_io.hpp"
#include "tensor/quant.hpp"

namespace pac::cache {

// File name of a disk-backed shard's spill log inside its directory.
inline constexpr char kSpillLogName[] = "spill.log";

struct CacheConfig {
  std::int64_t num_blocks = 0;  // activations per sample (= L + 1)
  bool disk_backed = false;
  std::string directory;  // required when disk_backed
  // Storage precision for cached activations.  kF32 stores the recorded
  // floats bit-exactly; kF16/kI8 quantize on insert.
  quant::Dtype dtype = quant::Dtype::kF32;
  // Optional ledger to charge in-memory cache bytes against.
  dist::MemoryLedger* ledger = nullptr;
};

class ActivationCache : public pipeline::ActivationRecorder,
                        public pipeline::ActivationSource {
 public:
  explicit ActivationCache(CacheConfig config);
  ~ActivationCache() override;

  ActivationCache(const ActivationCache&) = delete;
  ActivationCache& operator=(const ActivationCache&) = delete;

  // ---- recording (phase 1) ----
  void record(const std::vector<std::int64_t>& sample_ids,
              std::int64_t block_index, const Tensor& hidden) override;

  // ---- serving (phase 2) ----
  std::vector<Tensor> fetch(
      const std::vector<std::int64_t>& sample_ids) const override;
  // Starts reloading the given (spilled) samples in the background; the
  // next fetch covering them consumes the staged copies.  Coalescing: a
  // new announcement replaces an unstarted one.  No-op for memory-backed
  // shards.
  void prefetch(const std::vector<std::int64_t>& sample_ids) const override;

  // ---- shard management / redistribution ----
  bool has_block(std::int64_t sample_id, std::int64_t block_index) const;
  bool complete(std::int64_t sample_id) const;
  std::vector<std::int64_t> sample_ids() const;
  // (sample, block) pairs currently held (complete or not).
  std::vector<std::pair<std::int64_t, std::int64_t>> held_blocks() const;
  // Single cached activation [T, H] as fp32 (dequantized when the shard is
  // compressed); throws CacheMissError if absent.
  Tensor get_block(std::int64_t sample_id, std::int64_t block_index) const;
  // Stores an fp32 activation [T, H] in the shard dtype.
  void put_block(std::int64_t sample_id, std::int64_t block_index,
                 const Tensor& activation);
  // The stored representation of a block, verbatim (a copy; a spilled
  // block is read from the log outside the shard's lock).
  quant::QTensor get_block_q(std::int64_t sample_id,
                             std::int64_t block_index) const;
  // Moves a sample's held blocks out of the shard in their stored
  // representation, indexed by block (nullopt where none is held); throws
  // CacheMissError if the sample is absent.  The lossless source of
  // shard-to-shard moves (redistribution, salvage).  A RAM entry gives up
  // its blocks and refunds their bytes (ledger kCache included); a spilled
  // entry is read from the log once, outside the lock.  Either way the
  // entry stays until drop_sample, which writes a spilled one's tombstone.
  std::vector<std::optional<quant::QTensor>> take_sample(
      std::int64_t sample_id);
  // Stores a block in its wire representation.  A payload matching the
  // shard dtype is stored verbatim; another dtype is converted through
  // fp32 once.
  void put_block_q(std::int64_t sample_id, std::int64_t block_index,
                   quant::QTensor payload);
  // Drops a sample's blocks from this shard (after shipping them away).
  void drop_sample(std::int64_t sample_id);
  // Salvage: replays the spill log in `directory` (another shard's on-disk
  // cache — e.g. a dead device's flash store) and loads the samples it
  // still holds and `wanted` accepts (all when empty) into this shard, in
  // ascending id order, skipping samples already held.  The last record
  // for a sample wins and a tombstone removes it; replay stops at the
  // first invalid record, so a writer killed mid-append loses only that
  // sample.  Blocks spilled in another dtype are converted as put_block_q
  // does.  Returns samples absorbed.
  std::int64_t absorb_spilled_directory(
      const std::string& directory,
      const std::function<bool(std::int64_t)>& wanted = {});

  std::int64_t num_blocks() const { return config_.num_blocks; }
  std::uint64_t memory_bytes() const;  // resident RAM bytes
  std::uint64_t total_bytes() const;   // RAM + spilled
  void clear();

 private:
  struct Entry {
    // Per-block activations [T, H] in the shard dtype (an entry parsed
    // from a salvaged log keeps the dtype it was spilled in).
    std::vector<std::optional<quant::QTensor>> blocks;
    std::int64_t present = 0;  // how many blocks are defined
    bool spilled = false;      // on disk, RAM copy evicted
    std::uint64_t spilled_bytes = 0;
    std::uint64_t offset = 0;  // payload extent in the spill log
    std::uint64_t bytes = 0;
  };

  // An open spill log; closed once neither the shard nor a reader holds it,
  // so a read that started before clear() never sees a reused descriptor.
  struct LogFile;
  // One record's payload, pinned to the log it was written to.  Captured
  // under mutex_; the read itself runs unlocked.
  struct Extent {
    std::shared_ptr<const LogFile> log;
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    bool operator==(const Extent&) const = default;
  };

  // Background reader state (guarded by mutex_ like everything else; the
  // disk reads themselves run unlocked).
  struct PrefetchState {
    std::condition_variable work;          // wakes the reader thread
    std::condition_variable staged_ready;  // wakes fetches waiting on it
    std::vector<std::int64_t> request;     // coalescing announcement slot
    bool has_request = false;
    std::vector<std::int64_t> inflight;    // ids currently being staged
    bool busy = false;
    std::map<std::int64_t, Entry> staged;  // loaded, awaiting consumption
    bool stop = false;
    bool running = false;
    std::thread thread;
  };

  std::string log_path() const;
  void maybe_spill(std::int64_t sample_id, Entry& entry);
  // Appends bytes to the spill log (opening it on first use); returns the
  // offset they were written at.
  std::uint64_t append_locked(const void* data, std::size_t size);
  Extent extent_locked(const Entry& entry) const {
    return {log_, entry.offset, entry.bytes};
  }
  static Entry load_spilled(std::int64_t sample_id, const Extent& extent);
  // Parses one spill record's payload into a RAM entry.
  static Entry read_spilled_entry(std::istream& in);
  void charge(std::uint64_t bytes);
  void refund(std::uint64_t bytes);

  void put_locked(std::int64_t sample_id, std::int64_t block_index,
                  quant::QTensor q);
  void drop_sample_locked(std::int64_t sample_id);
  // Forgets an entry: refunds its RAM and its spilled-byte accounting.
  void release_locked(std::map<std::int64_t, Entry>::iterator it);
  void prefetch_main() const;
  void stop_prefetcher();

  CacheConfig config_;
  // Guards entries_/memory_bytes_/spilled_bytes_/pf_ and the log state
  // (all public methods lock it; internal *_locked helpers expect it held).
  mutable std::mutex mutex_;
  std::map<std::int64_t, Entry> entries_;
  std::uint64_t memory_bytes_ = 0;
  std::uint64_t spilled_bytes_ = 0;
  mutable PrefetchState pf_;
  std::shared_ptr<LogFile> log_;   // opened by the first spill
  std::uint64_t log_end_ = 0;      // append offset
  std::vector<char> spill_buf_;    // one record, reused across spills
};

}  // namespace pac::cache
