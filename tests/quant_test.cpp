// Quantized activation storage: the fp16/int8 codecs in tensor/quant.hpp,
// the compressed wire format, the cache's quantized entries + spill log,
// and the end-to-end session behaviour (compressed redistribution and the
// int8 quality gate).
//
// Bit-exactness contracts under test:
//   - the vector (AVX2/AVX-512) encode paths match the scalar reference
//     bit-for-bit, so results never depend on the host ISA mix;
//   - shipping a block (wire, redistribution, salvage) moves the stored
//     bytes verbatim — compression happens exactly once, on insert;
//   - an fp32 QTensor encodes byte-identically to the legacy fp32 frame.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>

#include "cache/activation_cache.hpp"
#include "cache/redistribution.hpp"
#include "core/session.hpp"
#include "dist/cluster.hpp"
#include "dist/wire.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "tensor/quant.hpp"

namespace pac {
namespace {

using quant::Dtype;
using quant::QTensor;

// ---- fp16 codec ---------------------------------------------------------

TEST(QuantTest, F16KnownValues) {
  EXPECT_EQ(quant::f32_to_f16(0.0F), 0x0000);
  EXPECT_EQ(quant::f32_to_f16(-0.0F), 0x8000);
  EXPECT_EQ(quant::f32_to_f16(1.0F), 0x3C00);
  EXPECT_EQ(quant::f32_to_f16(-2.0F), 0xC000);
  EXPECT_EQ(quant::f32_to_f16(65504.0F), 0x7BFF);  // max finite half
  EXPECT_EQ(quant::f32_to_f16(65536.0F), 0x7C00);  // overflow -> inf
  EXPECT_EQ(quant::f32_to_f16(std::numeric_limits<float>::infinity()),
            0x7C00);
  EXPECT_EQ(quant::f32_to_f16(-std::numeric_limits<float>::infinity()),
            0xFC00);
  EXPECT_EQ(quant::f32_to_f16(std::numeric_limits<float>::quiet_NaN()) &
                0x7E00,
            0x7E00);
  // Smallest subnormal half and below-half-of-it underflow to zero.
  EXPECT_EQ(quant::f32_to_f16(5.960464478e-8F), 0x0001);
  EXPECT_EQ(quant::f32_to_f16(1e-12F), 0x0000);
  // Round-to-nearest-even at the mantissa boundary: 1 + 2^-11 is exactly
  // between 0x3C00 and 0x3C01 and must round to the even code.
  EXPECT_EQ(quant::f32_to_f16(1.0F + 0.00048828125F), 0x3C00);
  EXPECT_EQ(quant::f32_to_f16(1.0F + 3 * 0.00048828125F), 0x3C02);
  EXPECT_FLOAT_EQ(quant::f16_to_f32(0x3C00), 1.0F);
  EXPECT_FLOAT_EQ(quant::f16_to_f32(0xC000), -2.0F);
  EXPECT_FLOAT_EQ(quant::f16_to_f32(0x7BFF), 65504.0F);
}

TEST(QuantTest, F16AllCodesRoundTripExactly) {
  // decode(encode(decode(h))) == decode(h) for every half-precision code:
  // every representable half survives the fp32 round trip bit-exactly.
  for (std::uint32_t h = 0; h < 0x10000; ++h) {
    const auto code = static_cast<std::uint16_t>(h);
    const float f = quant::f16_to_f32(code);
    if (std::isnan(f)) {
      // NaNs canonicalize but stay NaN with the sign preserved.
      const std::uint16_t back = quant::f32_to_f16(f);
      EXPECT_EQ(back & 0x8000, code & 0x8000);
      EXPECT_EQ(back & 0x7E00, 0x7E00);
      continue;
    }
    EXPECT_EQ(quant::f32_to_f16(f), code) << "code " << h;
  }
}

TEST(QuantTest, VectorEncodeMatchesScalarReferenceBitExactly) {
  // Buffer long enough to exercise the widest SIMD path plus a ragged
  // scalar tail; values spanning subnormals, normals, and huge magnitudes.
  Rng rng(77001);
  std::vector<float> src(1031);
  for (std::size_t i = 0; i < src.size(); ++i) {
    const float mag = std::pow(10.0F, rng.uniform(-9.0F, 6.0F));
    src[i] = rng.uniform(-1.0F, 1.0F) * mag;
  }
  const QTensor q = quant::quantize_rows(
      src.data(), {static_cast<std::int64_t>(src.size())}, Dtype::kF16);
  ASSERT_EQ(q.data.size(), src.size() * 2);
  for (std::size_t i = 0; i < src.size(); ++i) {
    std::uint16_t got;
    std::memcpy(&got, q.data.data() + 2 * i, 2);
    EXPECT_EQ(got, quant::f32_to_f16(src[i])) << "elem " << i;
  }
}

// ---- int8 codec ---------------------------------------------------------

TEST(QuantTest, I8PerRowErrorBoundedByHalfScale) {
  // 200-trial property: for every row, dequantized error is bounded by the
  // half-ULP envelope of the row's scale (scale = absmax / 127).
  Rng rng(424201);
  for (int trial = 0; trial < 200; ++trial) {
    const std::int64_t rows = rng.integer(1, 12);
    const std::int64_t cols = rng.integer(1, 40);
    Tensor x({rows, cols});
    const float mag = std::pow(10.0F, rng.uniform(-6.0F, 5.0F));
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x.data()[i] = rng.uniform(-1.0F, 1.0F) * mag;
    }
    if (rng.bernoulli(0.1)) {
      // All-zero rows must encode losslessly with scale 0.
      for (std::int64_t j = 0; j < cols; ++j) x.at({0, j}) = 0.0F;
    }
    const QTensor q = quant::quantize(x, Dtype::kI8);
    ASSERT_EQ(q.scales.size(), static_cast<std::size_t>(rows));
    const Tensor back = quant::dequantize(q);
    for (std::int64_t r = 0; r < rows; ++r) {
      const float scale = q.scales[static_cast<std::size_t>(r)];
      float absmax = 0.0F;
      for (std::int64_t j = 0; j < cols; ++j) {
        absmax = std::max(absmax, std::fabs(x.at({r, j})));
      }
      if (absmax == 0.0F) {
        EXPECT_EQ(scale, 0.0F);
      } else {
        EXPECT_FLOAT_EQ(scale, absmax / 127.0F);
      }
      // Half-ULP envelope: |x - q*scale| <= scale * (0.5 + eps), the eps
      // covering the float rounding in x * (127/absmax) and q * scale.
      const float bound = scale * 0.5F * (1.0F + 1e-4F) + absmax * 1e-6F;
      for (std::int64_t j = 0; j < cols; ++j) {
        EXPECT_LE(std::fabs(x.at({r, j}) - back.at({r, j})), bound)
            << "trial " << trial << " row " << r << " col " << j
            << " scale " << scale;
      }
    }
  }
}

TEST(QuantTest, QuantizeShapesAndScalars) {
  // Rank-0 scalar: one row of length one.
  Tensor scalar = Tensor::full({}, -3.25F);
  const QTensor qs = quant::quantize(scalar, Dtype::kI8);
  EXPECT_EQ(qs.rows(), 1);
  EXPECT_EQ(qs.scales.size(), 1U);
  EXPECT_NEAR(quant::dequantize(qs).data()[0], -3.25F, 3.25F / 127.0F);
  // fp32 passthrough is bit-exact and carries no scales.
  Rng rng(5);
  Tensor x = Tensor::randn({3, 5}, rng);
  const QTensor qf = quant::quantize(x, Dtype::kF32);
  EXPECT_TRUE(qf.scales.empty());
  EXPECT_EQ(qf.byte_size(), x.byte_size());
  EXPECT_EQ(ops::max_abs_diff(quant::dequantize(qf), x), 0.0F);
}

// ---- wire format --------------------------------------------------------

TEST(QuantTest, F32QTensorEncodesByteIdenticallyToLegacyFrame) {
  Rng rng(99);
  Tensor x = Tensor::randn({4, 6}, rng);
  const auto legacy = dist::wire::encode_data(2, 17, x);
  const auto viaq =
      dist::wire::encode_data_q(2, 17, quant::quantize(x, Dtype::kF32));
  ASSERT_EQ(viaq.size(), legacy.size());
  EXPECT_EQ(std::memcmp(viaq.data(), legacy.data(), legacy.size()), 0);
}

TEST(QuantTest, CompressedFramesRoundTripThroughDecoder) {
  Rng rng(100);
  Tensor x = Tensor::randn({3, 9}, rng);
  for (auto dt : {Dtype::kF16, Dtype::kI8}) {
    const QTensor q = quant::quantize(x, dt);
    const auto bytes = dist::wire::encode_data_q(1, 44, q);
    // Compressed bodies are materially smaller than the fp32 frame.
    EXPECT_LT(bytes.size(), dist::wire::encode_data(1, 44, x).size());
    dist::wire::FrameDecoder dec(4);
    dec.feed(bytes.data(), bytes.size());
    auto f = dec.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->src, 1);
    EXPECT_EQ(f->tag, 44);
    EXPECT_EQ(f->dtype, dt);
    ASSERT_TRUE(f->qpayload.has_value());
    EXPECT_EQ(f->qpayload->shape, q.shape);
    EXPECT_EQ(f->qpayload->scales, q.scales);
    EXPECT_EQ(f->qpayload->data, q.data);
    EXPECT_FALSE(dec.next().has_value());
    EXPECT_EQ(dec.pending_bytes(), 0U);
  }
}

// ---- quantized cache ----------------------------------------------------

TEST(QuantTest, QuantizedCacheStoresFetchesAndCharges) {
  for (auto dt : {Dtype::kF16, Dtype::kI8}) {
    dist::MemoryLedger ledger(0, std::numeric_limits<std::uint64_t>::max());
    cache::CacheConfig cc;
    cc.num_blocks = 3;
    cc.dtype = dt;
    cc.ledger = &ledger;
    cache::ActivationCache shard(cc);

    Rng rng(314);
    const std::int64_t t = 4, h = 16;
    std::vector<Tensor> rows;
    Tensor batch({2, t, h});
    for (std::int64_t b = 0; b < 3; ++b) {
      Tensor hidden = Tensor::randn({2, t, h}, rng);
      shard.record({0, 1}, b, hidden);
      rows.push_back(hidden.clone());
    }
    // Ledger and resident bytes are the compressed size, not fp32.
    const std::uint64_t fp32_bytes = 2ULL * 3 * t * h * 4;
    EXPECT_LT(shard.memory_bytes(), fp32_bytes / 2 + 1);
    EXPECT_EQ(ledger.current(dist::MemClass::kCache), shard.memory_bytes());

    // fetch dequantizes to exactly what a standalone round trip gives.
    auto fetched = shard.fetch({0, 1});
    ASSERT_EQ(fetched.size(), 3U);
    for (std::int64_t b = 0; b < 3; ++b) {
      for (std::int64_t r = 0; r < 2; ++r) {
        Tensor row =
            rows[static_cast<std::size_t>(b)].slice0(r, r + 1).reshape(
                {t, h});
        Tensor expect = quant::dequantize(quant::quantize(row, dt));
        Tensor got = fetched[static_cast<std::size_t>(b)]
                         .slice0(r, r + 1)
                         .reshape({t, h});
        EXPECT_EQ(ops::max_abs_diff(got, expect), 0.0F)
            << "dtype " << quant::dtype_name(dt) << " block " << b;
      }
    }
    // get_block_q returns stored bytes; get_block their dequantization.
    const QTensor q = shard.get_block_q(0, 0);
    EXPECT_EQ(q.dtype, dt);
    EXPECT_EQ(ops::max_abs_diff(shard.get_block(0, 0), quant::dequantize(q)),
              0.0F);
    shard.clear();
    EXPECT_EQ(ledger.current(dist::MemClass::kCache), 0U);
  }
}

TEST(QuantTest, QuantizedSpillFilesRoundTripAndSalvage) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "pac_quant_spill_test").string();
  fs::remove_all(dir);

  cache::CacheConfig cc;
  cc.num_blocks = 2;
  cc.dtype = Dtype::kI8;
  cc.disk_backed = true;
  cc.directory = dir + "/shard0";
  cache::ActivationCache shard(cc);

  Rng rng(271);
  std::vector<QTensor> stored;
  for (std::int64_t sid = 0; sid < 3; ++sid) {
    for (std::int64_t b = 0; b < 2; ++b) {
      shard.put_block(sid, b, Tensor::randn({4, 8}, rng));
    }
  }
  for (std::int64_t b = 0; b < 2; ++b) stored.push_back(shard.get_block_q(1, b));
  // Complete samples spilled: RAM empty, compressed bytes on disk.
  EXPECT_EQ(shard.memory_bytes(), 0U);
  EXPECT_GT(shard.total_bytes(), 0U);
  EXPECT_LT(shard.total_bytes(), 3ULL * 2 * 4 * 8 * 4 / 2);

  // fetch reloads from the compressed files; values match the stored
  // representation exactly.
  auto fetched = shard.fetch({1});
  ASSERT_EQ(fetched.size(), 2U);
  for (std::int64_t b = 0; b < 2; ++b) {
    Tensor got =
        fetched[static_cast<std::size_t>(b)].slice0(0, 1).reshape({4, 8});
    EXPECT_EQ(ops::max_abs_diff(
                  got, quant::dequantize(stored[static_cast<std::size_t>(b)])),
              0.0F);
  }

  // Salvage into a same-dtype shard: bytes absorbed verbatim.
  cache::CacheConfig cc2 = cc;
  cc2.directory = dir + "/shard1";
  cache::ActivationCache other(cc2);
  EXPECT_EQ(other.absorb_spilled_directory(cc.directory), 3);
  for (std::int64_t b = 0; b < 2; ++b) {
    const QTensor q = other.get_block_q(1, b);
    EXPECT_EQ(q.scales, stored[static_cast<std::size_t>(b)].scales);
    EXPECT_EQ(q.data, stored[static_cast<std::size_t>(b)].data);
  }

  // Salvage into an fp32 shard: entries are dequantized on absorb.
  cache::CacheConfig cc3;
  cc3.num_blocks = 2;
  cc3.directory = dir + "/shard2";
  cache::ActivationCache plain(cc3);
  EXPECT_EQ(plain.absorb_spilled_directory(cc.directory), 3);
  EXPECT_EQ(ops::max_abs_diff(plain.get_block(1, 0),
                              quant::dequantize(stored[0])),
            0.0F);

  // An fp32 spill log salvaged into an int8 shard: quantized once on
  // absorb, to exactly the bytes a direct int8 insert stores.
  cache::CacheConfig f32cfg;
  f32cfg.num_blocks = 2;
  f32cfg.disk_backed = true;
  f32cfg.directory = dir + "/f32";
  cache::ActivationCache f32shard(f32cfg);
  std::vector<Tensor> originals;
  for (std::int64_t b = 0; b < 2; ++b) {
    originals.push_back(Tensor::randn({4, 8}, rng));
    f32shard.put_block(0, b, originals.back());
  }
  EXPECT_EQ(f32shard.memory_bytes(), 0U);  // spilled as fp32
  cache::CacheConfig i8cfg = cc;
  i8cfg.directory = dir + "/shard5";
  cache::ActivationCache i8shard(i8cfg);
  EXPECT_EQ(i8shard.absorb_spilled_directory(f32cfg.directory), 1);
  for (std::int64_t b = 0; b < 2; ++b) {
    const QTensor want =
        quant::quantize(originals[static_cast<std::size_t>(b)], Dtype::kI8);
    const QTensor got = i8shard.get_block_q(0, b);
    EXPECT_EQ(got.dtype, Dtype::kI8);
    EXPECT_EQ(got.scales, want.scales);
    EXPECT_EQ(got.data, want.data);
  }

  // A torn compressed record (writer killed mid-append) is dropped
  // cleanly, together with nothing before it.  The shard's log holds three
  // equal-sized records, one per sample.
  std::vector<char> bytes;
  {
    std::ifstream in(cc.directory + "/" + cache::kSpillLogName,
                     std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(bytes.size() % 3, 0U);
  const std::size_t record = bytes.size() / 3;
  fs::create_directories(dir + "/torn");
  auto salvage_prefix = [&](std::size_t keep, const std::string& name) {
    {
      std::ofstream out(dir + "/torn/" + cache::kSpillLogName,
                        std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(keep));
    }
    cache::CacheConfig cfg = cc;
    cfg.directory = dir + "/" + name;
    auto salvager = std::make_unique<cache::ActivationCache>(cfg);
    salvager->absorb_spilled_directory(dir + "/torn");
    return salvager;
  };
  EXPECT_EQ(salvage_prefix(record / 2, "shard3")->sample_ids().size(), 0U);
  auto two = salvage_prefix(2 * record + record / 2, "shard4");
  EXPECT_EQ(two->sample_ids(), (std::vector<std::int64_t>{0, 1}));
  for (std::int64_t b = 0; b < 2; ++b) {
    const QTensor q = two->get_block_q(1, b);
    EXPECT_EQ(q.scales, stored[static_cast<std::size_t>(b)].scales);
    EXPECT_EQ(q.data, stored[static_cast<std::size_t>(b)].data);
  }

  fs::remove_all(dir);
}

TEST(QuantTest, PutBlockQConvertsAcrossDtypes) {
  Rng rng(888);
  Tensor x = Tensor::randn({3, 6}, rng);

  // fp32 payload into an fp32 shard: bit-exact unwrap.
  cache::CacheConfig plain;
  plain.num_blocks = 1;
  cache::ActivationCache fshard(plain);
  fshard.put_block_q(0, 0, quant::quantize(x, Dtype::kF32));
  EXPECT_EQ(ops::max_abs_diff(fshard.get_block(0, 0), x), 0.0F);

  // fp16 payload into an fp16 shard: stored verbatim.
  cache::CacheConfig halfcfg;
  halfcfg.num_blocks = 1;
  halfcfg.dtype = Dtype::kF16;
  cache::ActivationCache hshard(halfcfg);
  const QTensor qh = quant::quantize(x, Dtype::kF16);
  hshard.put_block_q(0, 0, qh);
  EXPECT_EQ(hshard.get_block_q(0, 0).data, qh.data);

  // fp16 payload into an int8 shard: one conversion through fp32.
  cache::CacheConfig i8cfg;
  i8cfg.num_blocks = 1;
  i8cfg.dtype = Dtype::kI8;
  cache::ActivationCache ishard(i8cfg);
  ishard.put_block_q(0, 0, qh);
  const Tensor expect = quant::dequantize(
      quant::quantize(quant::dequantize(qh), Dtype::kI8));
  EXPECT_EQ(ops::max_abs_diff(ishard.get_block(0, 0), expect), 0.0F);
}

TEST(QuantTest, QuantizedCountersTrackResidencyAndSavings) {
  obs::TraceSession session;  // enables obs recording
  auto& counters = obs::CounterRegistry::instance();
  counters.reset();

  cache::CacheConfig cc;
  cc.num_blocks = 1;
  cc.dtype = Dtype::kF16;
  cache::ActivationCache shard(cc);
  Rng rng(1212);
  shard.record({0, 1, 2}, 0, Tensor::randn({3, 4, 32}, rng));

  const std::int64_t resident = counters.gauges().at("cache.bytes_resident");
  EXPECT_EQ(resident, static_cast<std::int64_t>(shard.memory_bytes()));
  // fp16 halves every element: saved == stored for scale-free entries.
  EXPECT_EQ(counters.value("cache.bytes_quantized_saved"), resident);

  // Compressed sends are charged at wire size on the tx counter.
  dist::InProcTransport transport(2);
  const QTensor q = shard.get_block_q(0, 0);
  transport.send_q(0, 1, 5, q);
  EXPECT_EQ(counters.value("wire.data_bytes_tx"),
            static_cast<std::int64_t>(q.byte_size()));
}

// ---- redistribution -----------------------------------------------------

TEST(QuantTest, RedistributionShipsCompressedBytes) {
  for (auto dt : {Dtype::kF32, Dtype::kF16, Dtype::kI8}) {
    constexpr int kWorld = 2;
    constexpr std::int64_t kBlocks = 2, kT = 4, kH = 24;
    dist::EdgeCluster cluster(kWorld,
                              std::numeric_limits<std::uint64_t>::max());
    std::vector<std::unique_ptr<cache::ActivationCache>> shards;
    for (int r = 0; r < kWorld; ++r) {
      cache::CacheConfig cc;
      cc.num_blocks = kBlocks;
      cc.dtype = dt;
      shards.push_back(std::make_unique<cache::ActivationCache>(cc));
    }
    // All six samples start on rank 0; the new owner map sends half away.
    Rng rng(5150);
    for (std::int64_t sid = 0; sid < 6; ++sid) {
      for (std::int64_t b = 0; b < kBlocks; ++b) {
        shards[0]->put_block(sid, b, Tensor::randn({kT, kH}, rng));
      }
    }
    std::vector<QTensor> originals;
    for (std::int64_t sid = 3; sid < 6; ++sid) {
      originals.push_back(shards[0]->get_block_q(sid, 0));
    }
    std::vector<cache::RedistStats> stats(kWorld);
    cluster.run([&](dist::DeviceContext& ctx) {
      stats[static_cast<std::size_t>(ctx.rank)] = cache::redistribute_cache(
          ctx, *shards[static_cast<std::size_t>(ctx.rank)],
          [](std::int64_t sid) { return sid < 3 ? 0 : 1; }, {0, 1});
    });
    // Payload accounting is the stored size: exactly the fp32 bytes for
    // kF32, strictly under half (or ~a quarter for int8) of them for the
    // compressed dtypes, for the 3 shipped samples.
    const std::uint64_t fp32_bytes = 3ULL * kBlocks * kT * kH * 4;
    EXPECT_EQ(stats[0].items_sent, 3ULL * kBlocks);
    if (dt == Dtype::kF32) {
      EXPECT_EQ(stats[0].payload_bytes_sent, fp32_bytes);
    } else {
      EXPECT_LT(stats[0].payload_bytes_sent, fp32_bytes / 2 + 1);
    }
    if (dt == Dtype::kI8) {
      EXPECT_LT(stats[0].payload_bytes_sent, fp32_bytes / 3);
    }
    // The move was lossless: rank 1 now holds the sender's exact bytes.
    for (std::int64_t sid = 3; sid < 6; ++sid) {
      const QTensor& orig = originals[static_cast<std::size_t>(sid - 3)];
      const QTensor got = shards[1]->get_block_q(sid, 0);
      EXPECT_EQ(got.dtype, orig.dtype);
      EXPECT_EQ(got.scales, orig.scales);
      EXPECT_EQ(got.data, orig.data);
      EXPECT_FALSE(shards[0]->complete(sid));
    }
  }
}

// ---- end-to-end sessions ------------------------------------------------

data::SyntheticGlueDataset quant_dataset() {
  data::DatasetConfig cfg;
  cfg.task = data::GlueTask::kSst2;
  cfg.train_samples = 24;
  cfg.eval_samples = 12;
  cfg.seq_len = 8;
  cfg.vocab = 32;
  return data::SyntheticGlueDataset(cfg);
}

core::SessionConfig quant_session_config() {
  core::SessionConfig cfg;
  cfg.model = model::tiny(4, 16, 2, 32, 8);
  cfg.technique.technique = model::Technique::kParallelAdapters;
  cfg.technique.pa_reduction = 4;
  cfg.batch_size = 8;
  cfg.num_micro_batches = 4;
  cfg.epochs = 3;
  cfg.lr = 5e-3F;
  return cfg;
}

TEST(QuantTest, SessionRunsWithEveryCacheDtype) {
  // Full PAC workflow (profile/plan/phase1/redistribution/phase2) with a
  // compressed cache: must complete and actually train at every dtype.
  for (auto dt : {Dtype::kF32, Dtype::kF16, Dtype::kI8}) {
    auto ds = quant_dataset();
    dist::EdgeCluster cluster(4, std::numeric_limits<std::uint64_t>::max());
    core::SessionConfig cfg = quant_session_config();
    cfg.cache_dtype = dt;
    core::SessionReport report = core::Session(cluster, ds, cfg).run();
    EXPECT_TRUE(report.cache_used) << quant::dtype_name(dt);
    ASSERT_EQ(report.epoch_losses.size(), 3U);
    EXPECT_LT(report.epoch_losses.back(), report.epoch_losses.front())
        << quant::dtype_name(dt);
  }
}

TEST(QuantTest, Int8SessionPassesQualityGate) {
  // The table3-style gate: an int8 cache must land within a small margin
  // of the fp32 run on the same seeds — the quality cost of quantizing
  // frozen-backbone activations is noise at adapter fine-tuning scale.
  auto ds = quant_dataset();
  core::SessionConfig base = quant_session_config();

  dist::EdgeCluster c1(4, std::numeric_limits<std::uint64_t>::max());
  core::SessionReport fp32 = core::Session(c1, ds, base).run();

  for (auto dt : {Dtype::kF16, Dtype::kI8}) {
    core::SessionConfig cfg = base;
    cfg.cache_dtype = dt;
    dist::EdgeCluster c2(4, std::numeric_limits<std::uint64_t>::max());
    core::SessionReport got = core::Session(c2, ds, cfg).run();
    EXPECT_NEAR(got.eval_metric, fp32.eval_metric, 0.1)
        << quant::dtype_name(dt);
    ASSERT_EQ(got.epoch_losses.size(), fp32.epoch_losses.size());
    EXPECT_NEAR(got.epoch_losses.back(), fp32.epoch_losses.back(), 0.05)
        << quant::dtype_name(dt);
  }
}

}  // namespace
}  // namespace pac
