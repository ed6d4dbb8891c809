#include "cache/activation_cache.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <istream>
#include <ostream>
#include <streambuf>

#include "common/serialize.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace pac::cache {

namespace {

// Spill log record header, in host byte order (the log is temporary
// storage of one run on one host).  A tombstone is a header with
// kTombstone as its length and no payload.
constexpr std::uint64_t kRecordMagic = 0x50414353504C4F47ull;  // PACSPLOG
constexpr std::uint64_t kTombstone = ~0ull;
struct RecordHeader {
  std::uint64_t magic = kRecordMagic;
  std::int64_t sample_id = 0;
  std::uint64_t bytes = 0;  // payload length, or kTombstone
};

// Let BinaryWriter/BinaryReader write into, and parse out of, a plain
// byte buffer (BinaryWriter only ever calls write(), i.e. xsputn).
struct AppendBuf : std::streambuf {
  explicit AppendBuf(std::vector<char>& out) : out(out) {}
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    out.insert(out.end(), s, s + n);
    return n;
  }
  std::vector<char>& out;
};

struct SpanBuf : std::streambuf {
  SpanBuf(char* data, std::size_t size) { setg(data, data, data + size); }
};

}  // namespace

struct ActivationCache::LogFile {
  explicit LogFile(int fd) : fd(fd) {}
  ~LogFile() { ::close(fd); }
  LogFile(const LogFile&) = delete;
  LogFile& operator=(const LogFile&) = delete;
  const int fd;
};

ActivationCache::ActivationCache(CacheConfig config)
    : config_(std::move(config)) {
  PAC_CHECK(config_.num_blocks > 0, "cache needs num_blocks > 0");
  if (config_.disk_backed) {
    PAC_CHECK(!config_.directory.empty(),
              "disk-backed cache needs a directory");
    std::filesystem::create_directories(config_.directory);
  }
}

ActivationCache::~ActivationCache() {
  stop_prefetcher();
  // clear() refunds the ledger and removes the spill log.
  try {
    clear();
  } catch (...) {
    // Destructor must not throw; ledger refunds cannot fail here in
    // practice (we only release what we charged).
  }
}

std::string ActivationCache::log_path() const {
  return config_.directory + "/" + kSpillLogName;
}

void ActivationCache::charge(std::uint64_t bytes) {
  if (config_.ledger != nullptr) {
    config_.ledger->allocate(dist::MemClass::kCache, bytes);
  }
  memory_bytes_ += bytes;
  obs::CounterRegistry::instance().high_water(
      "cache.bytes_resident", static_cast<std::int64_t>(memory_bytes_));
}

void ActivationCache::refund(std::uint64_t bytes) {
  if (config_.ledger != nullptr) {
    config_.ledger->release(dist::MemClass::kCache, bytes);
  }
  memory_bytes_ -= bytes;
}

void ActivationCache::record(const std::vector<std::int64_t>& sample_ids,
                             std::int64_t block_index, const Tensor& hidden) {
  PAC_CHECK(hidden.dim() == 3, "record expects [n, T, H] activations");
  PAC_CHECK(hidden.size(0) == static_cast<std::int64_t>(sample_ids.size()),
            "record: " << sample_ids.size() << " ids for " << hidden.size(0)
                       << " rows");
  PAC_TRACE_SCOPE("cache_store", block_index);
  const std::int64_t t = hidden.size(1);
  const std::int64_t h = hidden.size(2);
  std::lock_guard<std::mutex> lk(mutex_);
  for (std::size_t r = 0; r < sample_ids.size(); ++r) {
    // Stored straight off the batch row (for kF32 that is the one copy).
    const float* row = hidden.data() + static_cast<std::int64_t>(r) * t * h;
    put_locked(sample_ids[r], block_index,
               quant::quantize_rows(row, {t, h}, config_.dtype));
  }
}

void ActivationCache::put_block(std::int64_t sample_id,
                                std::int64_t block_index,
                                const Tensor& activation) {
  std::lock_guard<std::mutex> lk(mutex_);
  put_locked(sample_id, block_index,
             quant::quantize(activation, config_.dtype));
}

void ActivationCache::put_block_q(std::int64_t sample_id,
                                  std::int64_t block_index,
                                  quant::QTensor payload) {
  std::lock_guard<std::mutex> lk(mutex_);
  put_locked(sample_id, block_index, std::move(payload));
}

void ActivationCache::put_locked(std::int64_t sample_id,
                                 std::int64_t block_index, quant::QTensor q) {
  PAC_CHECK(block_index >= 0 && block_index < config_.num_blocks,
            "block index " << block_index << " out of range");
  PAC_CHECK(q.shape.size() == 2, "cached blocks are [T, H] activations");
  if (q.dtype != config_.dtype) {
    // Another dtype goes through fp32 exactly once (bit-exact into kF32).
    q = quant::quantize(quant::dequantize(q), config_.dtype);
  }
  Entry& entry = entries_[sample_id];
  if (entry.blocks.empty()) {
    entry.blocks.resize(static_cast<std::size_t>(config_.num_blocks));
  }
  PAC_CHECK(!entry.spilled, "put_block on spilled sample " << sample_id);
  auto& slot = entry.blocks[static_cast<std::size_t>(block_index)];
  PAC_CHECK(!slot.has_value(), "duplicate record for sample "
                                   << sample_id << " block " << block_index);
  const std::uint64_t fp32_bytes = static_cast<std::uint64_t>(q.numel()) * 4;
  charge(q.byte_size());
  if (fp32_bytes != q.byte_size()) {  // kF32 saves nothing
    obs::CounterRegistry::instance().add(
        "cache.bytes_quantized_saved",
        static_cast<std::int64_t>(fp32_bytes - q.byte_size()));
  }
  slot = std::move(q);
  ++entry.present;
  maybe_spill(sample_id, entry);
}

void ActivationCache::maybe_spill(std::int64_t sample_id, Entry& entry) {
  if (!config_.disk_backed || entry.present < config_.num_blocks) return;
  PAC_TRACE_SCOPE("cache_spill", sample_id);
  obs::CounterRegistry::instance().add("cache.spills", 1);
  // One record: the header (its length patched in below), then the
  // payload.
  RecordHeader header;
  header.sample_id = sample_id;
  spill_buf_.assign(sizeof(header), 0);
  AppendBuf sink(spill_buf_);
  std::ostream out(&sink);
  BinaryWriter w(out);
  // Payload: dtype, block count, then per block its dims, scales and raw
  // element bytes.
  std::uint64_t freed = 0;
  w.write_u32(static_cast<std::uint32_t>(config_.dtype));
  w.write_u64(static_cast<std::uint64_t>(config_.num_blocks));
  for (auto& slot : entry.blocks) {
    const quant::QTensor& q = *slot;
    w.write_u64(static_cast<std::uint64_t>(q.shape[0]));
    w.write_u64(static_cast<std::uint64_t>(q.shape[1]));
    w.write_u64(static_cast<std::uint64_t>(q.scales.size()));
    w.write_floats(q.scales.data(), q.scales.size());
    w.write_u64(static_cast<std::uint64_t>(q.data.size()));
    w.write_bytes(q.data.data(), q.data.size());
    freed += q.byte_size();
    slot.reset();
  }
  header.bytes = spill_buf_.size() - sizeof(header);
  std::memcpy(spill_buf_.data(), &header, sizeof(header));
  entry.offset = append_locked(spill_buf_.data(), spill_buf_.size()) +
                 sizeof(header);
  entry.bytes = header.bytes;
  refund(freed);
  entry.spilled = true;
  entry.spilled_bytes = freed;
  spilled_bytes_ += freed;
}

std::uint64_t ActivationCache::append_locked(const void* data,
                                             std::size_t size) {
  if (log_ == nullptr) {
    const int fd = ::open(log_path().c_str(),
                          O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    PAC_CHECK(fd >= 0, "cannot open spill log " << log_path() << ": "
                                                << std::strerror(errno));
    log_ = std::make_shared<LogFile>(fd);
    log_end_ = 0;
  }
  const ssize_t wrote =
      ::pwrite(log_->fd, data, size, static_cast<off_t>(log_end_));
  PAC_CHECK(wrote == static_cast<ssize_t>(size),
            "short write to spill log " << log_path() << " (" << wrote
                                        << " of " << size << " bytes)");
  const std::uint64_t at = log_end_;
  log_end_ += size;
  return at;
}

ActivationCache::Entry ActivationCache::read_spilled_entry(std::istream& in) {
  BinaryReader r(in);
  const auto dtype = static_cast<quant::Dtype>(r.read_u32());
  PAC_CHECK(dtype == quant::Dtype::kF32 || dtype == quant::Dtype::kF16 ||
                dtype == quant::Dtype::kI8,
            "spill record with bad dtype");
  const std::uint64_t blocks = r.read_u64();
  Entry entry;
  entry.blocks.resize(blocks);
  for (auto& slot : entry.blocks) {
    quant::QTensor q;
    q.dtype = dtype;
    const std::int64_t t = static_cast<std::int64_t>(r.read_u64());
    const std::int64_t h = static_cast<std::int64_t>(r.read_u64());
    q.shape = {t, h};
    const std::uint64_t nscales = r.read_u64();
    q.scales.resize(nscales);
    r.read_floats(q.scales.data(), q.scales.size());
    const std::uint64_t nbytes = r.read_u64();
    // A torn file can carry a bogus length; cap the resize to what the
    // shape implies so we fail via the stream, not a huge allocation.
    PAC_CHECK(nbytes == static_cast<std::uint64_t>(q.numel()) *
                            quant::element_bytes(dtype),
              "spill block length mismatch");
    q.data.resize(nbytes);
    r.read_bytes(q.data.data(), q.data.size());
    slot = std::move(q);
  }
  entry.present = static_cast<std::int64_t>(blocks);
  return entry;
}

ActivationCache::Entry ActivationCache::load_spilled(std::int64_t sample_id,
                                                    const Extent& extent) {
  PAC_TRACE_SCOPE("cache_load", sample_id);
  auto bytes = std::make_unique_for_overwrite<char[]>(extent.bytes);
  const ssize_t got =
      extent.log == nullptr
          ? -1
          : ::pread(extent.log->fd, bytes.get(), extent.bytes,
                    static_cast<off_t>(extent.offset));
  if (got != static_cast<ssize_t>(extent.bytes)) {
    throw CacheMissError("spill log read failed for sample " +
                         std::to_string(sample_id));
  }
  SpanBuf span(bytes.get(), extent.bytes);
  std::istream in(&span);
  return read_spilled_entry(in);
}

// ---- background prefetcher ---------------------------------------------

void ActivationCache::prefetch(
    const std::vector<std::int64_t>& sample_ids) const {
  if (!config_.disk_backed || sample_ids.empty()) return;
  std::lock_guard<std::mutex> lk(mutex_);
  if (pf_.stop) return;
  // Coalesce: a fresh announcement supersedes one the reader has not
  // picked up yet (the runner announces exactly the next step's batch).
  pf_.request = sample_ids;
  pf_.has_request = true;
  obs::CounterRegistry::instance().add("cache.prefetch_requests", 1);
  if (!pf_.running) {
    pf_.running = true;
    pf_.thread = std::thread([this] { prefetch_main(); });
  }
  pf_.work.notify_one();
}

void ActivationCache::prefetch_main() const {
  const int device =
      config_.ledger != nullptr ? config_.ledger->device_id() : 0;
  obs::set_thread_name("cache/prefetch", device);
  std::unique_lock<std::mutex> lk(mutex_);
  for (;;) {
    pf_.work.wait(lk, [&] { return pf_.stop || pf_.has_request; });
    if (pf_.stop) break;
    const std::vector<std::int64_t> ids = std::move(pf_.request);
    pf_.request.clear();
    pf_.has_request = false;
    // Only spilled samples that are not already staged need disk reads.
    std::map<std::int64_t, Extent> to_load;
    pf_.inflight.clear();
    for (std::int64_t id : ids) {
      auto it = entries_.find(id);
      if (it != entries_.end() && it->second.spilled &&
          pf_.staged.find(id) == pf_.staged.end()) {
        to_load.emplace(id, extent_locked(it->second));
        pf_.inflight.push_back(id);
      }
    }
    pf_.busy = true;
    lk.unlock();

    std::map<std::int64_t, Entry> fresh;
    {
      PAC_TRACE_SCOPE("cache_prefetch",
                      static_cast<std::int64_t>(to_load.size()));
      for (const auto& [id, extent] : to_load) {
        try {
          fresh[id] = load_spilled(id, extent);
        } catch (...) {
          // Advisory only: a failed staging read falls back to the
          // synchronous path inside fetch(), which reports the error.
        }
      }
    }

    lk.lock();
    if (!pf_.stop) {
      for (auto& [id, entry] : fresh) {
        // Re-validate: the sample may have been dropped (or dropped and
        // spilled again) while we read.
        auto it = entries_.find(id);
        if (it != entries_.end() && it->second.spilled &&
            extent_locked(it->second) == to_load.at(id)) {
          pf_.staged[id] = std::move(entry);
        }
      }
    }
    pf_.busy = false;
    pf_.inflight.clear();
    pf_.staged_ready.notify_all();
  }
}

void ActivationCache::stop_prefetcher() {
  std::unique_lock<std::mutex> lk(mutex_);
  if (!pf_.running) return;
  pf_.stop = true;
  pf_.work.notify_all();
  lk.unlock();
  pf_.thread.join();
  lk.lock();
  pf_.running = false;
  pf_.staged.clear();
}

// ---- serving ------------------------------------------------------------

std::vector<Tensor> ActivationCache::fetch(
    const std::vector<std::int64_t>& sample_ids) const {
  PAC_CHECK(!sample_ids.empty(), "fetch with no sample ids");
  PAC_TRACE_SCOPE("cache_fetch",
                  static_cast<std::int64_t>(sample_ids.size()));
  std::unique_lock<std::mutex> lk(mutex_);

  // Pass 1: materialize every spilled sample — from the prefetcher's
  // staging buffer when possible, reloading synchronously otherwise.
  std::map<std::int64_t, Entry> loaded;
  for (std::int64_t id : sample_ids) {
    auto it = entries_.find(id);
    if (it == entries_.end()) {
      throw CacheMissError("sample " + std::to_string(id) +
                           " not in this cache shard");
    }
    if (!it->second.spilled || loaded.find(id) != loaded.end()) {
      if (!it->second.spilled) {
        obs::CounterRegistry::instance().add("cache.hits", 1);
      }
      continue;
    }
    if (pf_.busy && std::find(pf_.inflight.begin(), pf_.inflight.end(),
                              id) != pf_.inflight.end()) {
      // The reader is staging exactly this sample; wait instead of racing
      // it to the disk.
      pf_.staged_ready.wait(lk, [&] { return !pf_.busy || pf_.stop; });
    }
    auto staged = pf_.staged.find(id);
    if (staged != pf_.staged.end()) {
      loaded[id] = std::move(staged->second);
      pf_.staged.erase(staged);
      obs::CounterRegistry::instance().add("cache.prefetch_hits", 1);
      continue;
    }
    obs::CounterRegistry::instance().add("cache.misses", 1);
    const Extent extent = extent_locked(it->second);
    lk.unlock();
    Entry entry = load_spilled(id, extent);
    lk.lock();
    loaded[id] = std::move(entry);
  }

  // Pass 2 (lock held throughout): assemble per-block batches [n, T, H],
  // dequantizing every entry straight into the batch rows.
  std::vector<const Entry*> sources;
  for (std::int64_t id : sample_ids) {
    auto it = entries_.find(id);
    if (it == entries_.end()) {
      throw CacheMissError("sample " + std::to_string(id) +
                           " not in this cache shard");
    }
    if (it->second.spilled) {
      sources.push_back(&loaded.at(id));
    } else {
      PAC_CHECK(it->second.present == config_.num_blocks,
                "sample " << id << " is incomplete ("
                          << it->second.present << "/" << config_.num_blocks
                          << " blocks)");
      sources.push_back(&it->second);
    }
  }
  std::vector<Tensor> out;
  const std::int64_t n = static_cast<std::int64_t>(sample_ids.size());
  for (std::int64_t b = 0; b < config_.num_blocks; ++b) {
    const Shape& shape = sources[0]->blocks[static_cast<std::size_t>(b)]->shape;
    const std::int64_t bt = shape[0];
    const std::int64_t bh = shape[1];
    Tensor batch({n, bt, bh});
    for (std::int64_t r = 0; r < n; ++r) {
      const auto& q = sources[static_cast<std::size_t>(r)]
                          ->blocks[static_cast<std::size_t>(b)];
      PAC_CHECK(q->numel() == bt * bh,
                "inconsistent cached shapes across samples");
      quant::dequantize_into(*q, batch.data() + r * bt * bh);
    }
    out.push_back(std::move(batch));
  }
  return out;
}

bool ActivationCache::has_block(std::int64_t sample_id,
                                std::int64_t block_index) const {
  std::lock_guard<std::mutex> lk(mutex_);
  auto it = entries_.find(sample_id);
  if (it == entries_.end()) return false;
  if (it->second.spilled) return true;  // spill implies complete
  if (block_index < 0 || block_index >= config_.num_blocks) return false;
  return it->second.blocks[static_cast<std::size_t>(block_index)].has_value();
}

bool ActivationCache::complete(std::int64_t sample_id) const {
  std::lock_guard<std::mutex> lk(mutex_);
  auto it = entries_.find(sample_id);
  return it != entries_.end() &&
         (it->second.spilled || it->second.present == config_.num_blocks);
}

std::vector<std::int64_t> ActivationCache::sample_ids() const {
  std::lock_guard<std::mutex> lk(mutex_);
  std::vector<std::int64_t> out;
  out.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) out.push_back(id);
  return out;
}

std::vector<std::pair<std::int64_t, std::int64_t>>
ActivationCache::held_blocks() const {
  std::lock_guard<std::mutex> lk(mutex_);
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  for (const auto& [id, entry] : entries_) {
    if (entry.spilled) {
      for (std::int64_t b = 0; b < config_.num_blocks; ++b) {
        out.emplace_back(id, b);
      }
      continue;
    }
    for (std::int64_t b = 0; b < config_.num_blocks; ++b) {
      if (entry.blocks[static_cast<std::size_t>(b)].has_value()) {
        out.emplace_back(id, b);
      }
    }
  }
  return out;
}

Tensor ActivationCache::get_block(std::int64_t sample_id,
                                  std::int64_t block_index) const {
  return quant::dequantize(get_block_q(sample_id, block_index));
}

quant::QTensor ActivationCache::get_block_q(std::int64_t sample_id,
                                            std::int64_t block_index) const {
  std::lock_guard<std::mutex> lk(mutex_);
  auto it = entries_.find(sample_id);
  if (it == entries_.end()) {
    throw CacheMissError("sample " + std::to_string(sample_id) +
                         " not in this cache shard");
  }
  PAC_CHECK(block_index >= 0 && block_index < config_.num_blocks,
            "block index out of range");
  Entry loaded;
  const Entry* entry = &it->second;
  if (entry->spilled) {
    // Spilled blocks are handed out exactly as stored on disk.
    loaded = load_spilled(sample_id, extent_locked(*entry));
    entry = &loaded;
  }
  const auto& q = entry->blocks[static_cast<std::size_t>(block_index)];
  if (!q.has_value()) {
    throw CacheMissError("block " + std::to_string(block_index) +
                         " of sample " + std::to_string(sample_id) +
                         " not recorded");
  }
  return *q;
}

void ActivationCache::drop_sample(std::int64_t sample_id) {
  std::lock_guard<std::mutex> lk(mutex_);
  drop_sample_locked(sample_id);
}

void ActivationCache::drop_sample_locked(std::int64_t sample_id) {
  auto it = entries_.find(sample_id);
  if (it == entries_.end()) return;
  if (it->second.spilled) {
    // A salvager replaying the log must not bring the sample back.
    RecordHeader tombstone;
    tombstone.sample_id = sample_id;
    tombstone.bytes = kTombstone;
    append_locked(&tombstone, sizeof(tombstone));
  }
  release_locked(it);
}

void ActivationCache::release_locked(
    std::map<std::int64_t, Entry>::iterator it) {
  std::uint64_t resident = 0;
  for (const auto& q : it->second.blocks) {
    if (q.has_value()) resident += q->byte_size();
  }
  refund(resident);
  if (it->second.spilled) spilled_bytes_ -= it->second.spilled_bytes;
  pf_.staged.erase(it->first);
  entries_.erase(it);
}

std::int64_t ActivationCache::absorb_spilled_directory(
    const std::string& directory,
    const std::function<bool(std::int64_t)>& wanted) {
  const std::string path = directory + "/" + kSpillLogName;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0;
  const auto log = std::make_shared<const LogFile>(fd);
  struct stat st {};
  if (::fstat(fd, &st) != 0) return 0;
  const auto size = static_cast<std::uint64_t>(st.st_size);

  // Replay in write order; std::map then absorbs in ascending id order, so
  // every salvager (and every run) absorbs the same way.
  std::map<std::int64_t, Entry> survivors;
  RecordHeader header;
  for (std::uint64_t at = 0;
       ::pread(fd, &header, sizeof(header), static_cast<off_t>(at)) ==
           static_cast<ssize_t>(sizeof(header)) &&
       header.magic == kRecordMagic;) {
    at += sizeof(header);
    if (header.bytes == kTombstone) {
      survivors.erase(header.sample_id);
      continue;
    }
    // A torn tail (a writer killed mid-append) ends the log.  (The file
    // may have grown past `size` if its writer is still alive.)
    if (at > size || header.bytes > size - at) break;
    try {
      Entry loaded = load_spilled(header.sample_id, {log, at, header.bytes});
      survivors[header.sample_id] = std::move(loaded);
    } catch (...) {
      break;
    }
    at += header.bytes;
  }

  std::lock_guard<std::mutex> lk(mutex_);
  std::int64_t absorbed = 0;
  for (auto& [id, loaded] : survivors) {
    if (entries_.find(id) != entries_.end() || (wanted && !wanted(id))) {
      continue;
    }
    // A block spilled in another dtype is converted on the way in.
    for (std::size_t b = 0; b < loaded.blocks.size(); ++b) {
      put_locked(id, static_cast<std::int64_t>(b),
                 std::move(*loaded.blocks[b]));
    }
    ++absorbed;
  }
  return absorbed;
}

std::uint64_t ActivationCache::memory_bytes() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return memory_bytes_;
}

std::uint64_t ActivationCache::total_bytes() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return memory_bytes_ + spilled_bytes_;
}

void ActivationCache::clear() {
  std::lock_guard<std::mutex> lk(mutex_);
  while (!entries_.empty()) release_locked(entries_.begin());
  if (log_ != nullptr) {
    // Readers still holding an extent keep the descriptor open.
    log_.reset();
    std::filesystem::remove(log_path());
  }
}

}  // namespace pac::cache
