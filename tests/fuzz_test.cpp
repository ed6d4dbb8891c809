// Randomized property tests across the pipeline engine, the event
// simulator, the planner, and the cache.
//
// The key shared property: for ANY valid plan (random contiguous stage
// splits, random non-uniform device groups, random micro counts) both the
// simulator and the executed engine must complete — the generalized 1F1B
// warmup makes every such plan deadlock-free — and the executed engine
// must still produce the single-device gradients.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>

#include "cache/activation_cache.hpp"
#include "data/dataset.hpp"
#include "dist/wire.hpp"
#include "pipeline/runners.hpp"
#include "planner/planner.hpp"
#include "sim/event_sim.hpp"
#include "tensor/ops.hpp"

namespace pac {
namespace {

// Random valid plan: contiguous stages covering `blocks`, disjoint groups
// over a random subset of `world` devices, random micro count.
pipeline::ParallelPlan random_plan(Rng& rng, std::int64_t blocks,
                                   int world) {
  const std::int64_t max_stages =
      std::min<std::int64_t>({blocks, world, 4});
  const std::int64_t s = rng.integer(1, max_stages);
  // Random stage boundaries.
  std::vector<std::int64_t> cuts{0, blocks};
  while (static_cast<std::int64_t>(cuts.size()) < s + 1) {
    const std::int64_t c = rng.integer(1, blocks - 1);
    if (std::find(cuts.begin(), cuts.end(), c) == cuts.end()) {
      cuts.push_back(c);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  // Random group sizes summing to <= world, >= 1 each.
  std::vector<std::int64_t> sizes(static_cast<std::size_t>(s), 1);
  std::int64_t budget = world - s;
  for (std::int64_t i = 0; i < s && budget > 0; ++i) {
    const std::int64_t extra = rng.integer(0, budget);
    sizes[static_cast<std::size_t>(i)] += extra;
    budget -= extra;
  }
  pipeline::ParallelPlan plan;
  int rank = 0;
  for (std::int64_t i = 0; i < s; ++i) {
    pipeline::StageAssignment st;
    st.block_begin = cuts[static_cast<std::size_t>(i)];
    st.block_end = cuts[static_cast<std::size_t>(i + 1)];
    for (std::int64_t j = 0; j < sizes[static_cast<std::size_t>(i)]; ++j) {
      st.devices.push_back(rank++);
    }
    plan.stages.push_back(std::move(st));
  }
  plan.num_micro_batches = rng.integer(1, 8);
  return plan;
}

TEST(FuzzTest, RandomPlansNeverDeadlockInSimulator) {
  Rng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    const std::int64_t blocks = rng.integer(2, 12);
    const int world = static_cast<int>(rng.integer(1, 8));
    pipeline::ParallelPlan plan = random_plan(rng, blocks, world);
    planner::PlannerInput input;
    input.num_devices = world;
    input.num_micro_batches = plan.num_micro_batches;
    for (std::int64_t b = 0; b < blocks; ++b) {
      planner::BlockProfile p;
      p.name = "b" + std::to_string(b);
      p.t_fwd = rng.uniform(0.01F, 0.2F);
      p.t_bwd = rng.uniform(0.01F, 0.4F);
      p.fwd_msg_bytes = static_cast<std::uint64_t>(rng.integer(0, 1 << 16));
      p.bwd_msg_bytes = static_cast<std::uint64_t>(rng.integer(0, 1 << 14));
      input.blocks.push_back(std::move(p));
    }
    if (rng.bernoulli(0.3)) {
      for (int r = 0; r < world; ++r) {
        input.device_scales.push_back(rng.uniform(0.25F, 2.0F));
      }
    }
    sim::SimConfig cfg;
    cfg.input = input;
    cfg.plan = plan;
    cfg.input.schedule = rng.bernoulli(0.5)
                             ? pipeline::ScheduleKind::k1F1B
                             : pipeline::ScheduleKind::kGPipe;
    sim::SimResult r = sim::simulate_minibatch(cfg);  // must not throw
    ASSERT_FALSE(r.oom);
    ASSERT_GT(r.minibatch_seconds, 0.0) << plan.to_string();
    // Makespan can never beat the critical path through the bottleneck
    // stage's serial compute (normalized by the fastest device's speed).
    double max_scale = 1.0;
    for (double sc : input.device_scales) max_scale = std::max(max_scale, sc);
    double min_serial = 0.0;
    for (const auto& st : plan.stages) {
      double stage_t = 0.0;
      for (std::int64_t b = st.block_begin; b < st.block_end; ++b) {
        stage_t += input.blocks[static_cast<std::size_t>(b)].t_fwd +
                   input.blocks[static_cast<std::size_t>(b)].t_bwd;
      }
      min_serial = std::max(min_serial, stage_t);  // >= one micro's time
    }
    EXPECT_GE(r.minibatch_seconds + 1e-9, min_serial / max_scale)
        << plan.to_string();
    EXPECT_GE(r.bubble_fraction, -1e-9);
    EXPECT_LT(r.bubble_fraction, 1.0);
  }
}

TEST(FuzzTest, RandomPlansTrainCorrectlyExecuted) {
  // Executed engine: random plans must produce the single-device result.
  data::DatasetConfig dcfg;
  dcfg.task = data::GlueTask::kSst2;
  dcfg.train_samples = 16;
  dcfg.eval_samples = 4;
  dcfg.seq_len = 8;
  dcfg.vocab = 32;
  data::SyntheticGlueDataset ds(dcfg);

  auto factory = [] {
    model::TechniqueConfig tc;
    tc.technique = model::Technique::kParallelAdapters;
    tc.pa_reduction = 4;
    return std::make_unique<model::Model>(model::tiny(4, 16, 2, 32, 8), tc,
                                          model::TaskSpec{}, 777);
  };

  // Reference: single device.
  pipeline::RunConfig ref_cfg;
  ref_cfg.plan = pipeline::ParallelPlan::standalone(6, 2);
  ref_cfg.batch_size = 8;
  ref_cfg.epochs = 1;
  ref_cfg.run_eval = false;
  dist::EdgeCluster ref_cluster(1,
                                std::numeric_limits<std::uint64_t>::max());
  auto ref = run_training(ref_cluster, ds, factory, ref_cfg);

  Rng rng(909);
  for (int trial = 0; trial < 8; ++trial) {
    const int world = static_cast<int>(rng.integer(2, 5));
    pipeline::ParallelPlan plan = random_plan(rng, 6, world);
    dist::EdgeCluster cluster(world,
                              std::numeric_limits<std::uint64_t>::max());
    pipeline::RunConfig cfg = ref_cfg;
    cfg.plan = plan;
    auto got = run_training(cluster, ds, factory, cfg);
    ASSERT_EQ(got.trainable_values.size(), ref.trainable_values.size())
        << plan.to_string();
    for (const auto& [name, value] : ref.trainable_values) {
      auto it = got.trainable_values.find(name);
      ASSERT_NE(it, got.trainable_values.end()) << name;
      EXPECT_LT(ops::max_abs_diff(value, it->second), 5e-3F)
          << name << " under " << plan.to_string();
    }
  }
}

TEST(FuzzTest, PlannerOutputsAlwaysValidAndFeasibleOrHonest) {
  Rng rng(515);
  for (int trial = 0; trial < 60; ++trial) {
    const std::int64_t blocks = rng.integer(2, 20);
    const int world = static_cast<int>(rng.integer(1, 10));
    planner::PlannerInput input;
    input.num_devices = world;
    input.num_micro_batches = rng.integer(1, 16);
    input.device_budget_bytes =
        static_cast<std::uint64_t>(rng.integer(1 << 16, 64 << 20));
    for (std::int64_t b = 0; b < blocks; ++b) {
      planner::BlockProfile p;
      p.name = "b" + std::to_string(b);
      p.t_fwd = rng.uniform(0.001F, 0.1F);
      p.t_bwd = rng.uniform(0.001F, 0.2F);
      p.param_bytes = static_cast<std::uint64_t>(rng.integer(0, 4 << 20));
      p.trainable_bytes = p.param_bytes / 50;
      p.activation_bytes =
          static_cast<std::uint64_t>(rng.integer(0, 1 << 18));
      input.blocks.push_back(std::move(p));
    }
    planner::PlanEstimate est = planner::plan_hybrid(input);
    if (!est.feasible) {
      EXPECT_FALSE(est.note.empty());
      continue;
    }
    est.plan.validate(blocks, world);
    // The reported stage memory must respect the budget, and the sim must
    // agree the plan is runnable.
    for (std::uint64_t mem : est.stage_memory_bytes) {
      EXPECT_LE(mem, input.device_budget_bytes);
    }
    sim::SimConfig cfg;
    cfg.input = input;
    cfg.plan = est.plan;
    sim::SimResult r = sim::simulate_minibatch(cfg);
    EXPECT_FALSE(r.oom) << r.oom_reason;
    // The closed-form estimate should be in the ballpark of the simulated
    // makespan (it ignores partial overlap, so allow a wide band).
    EXPECT_LT(est.minibatch_seconds, 3.0 * r.minibatch_seconds + 1.0);
    EXPECT_GT(3.0 * est.minibatch_seconds + 1.0, r.minibatch_seconds);
  }
}

TEST(FuzzTest, CacheRandomizedRoundTrip) {
  Rng rng(31415);
  for (int trial = 0; trial < 20; ++trial) {
    const std::int64_t num_blocks = rng.integer(1, 6);
    cache::CacheConfig cc;
    cc.num_blocks = num_blocks;
    cache::ActivationCache cache(cc);
    const std::int64_t t = rng.integer(1, 6);
    const std::int64_t h = rng.integer(1, 8);
    std::map<std::int64_t, std::vector<Tensor>> expect;
    const std::int64_t samples = rng.integer(1, 10);
    for (std::int64_t sid = 0; sid < samples; ++sid) {
      for (std::int64_t b = 0; b < num_blocks; ++b) {
        Tensor block = Tensor::randn({t, h}, rng);
        expect[sid].push_back(block.clone());
        cache.put_block(sid, b, std::move(block));
      }
    }
    // Fetch in random order and verify content.
    std::vector<std::int64_t> ids(static_cast<std::size_t>(samples));
    std::iota(ids.begin(), ids.end(), 0);
    std::shuffle(ids.begin(), ids.end(), rng.engine());
    auto fetched = cache.fetch(ids);
    ASSERT_EQ(fetched.size(), static_cast<std::size_t>(num_blocks));
    for (std::size_t r = 0; r < ids.size(); ++r) {
      for (std::int64_t b = 0; b < num_blocks; ++b) {
        Tensor row = fetched[static_cast<std::size_t>(b)]
                         .slice0(static_cast<std::int64_t>(r),
                                 static_cast<std::int64_t>(r) + 1)
                         .reshape({t, h});
        EXPECT_EQ(ops::max_abs_diff(
                      row, expect[ids[r]][static_cast<std::size_t>(b)]),
                  0.0F);
      }
    }
  }
}

TEST(FuzzTest, CollectivesRandomShapesAndGroups) {
  Rng rng(2718);
  for (int trial = 0; trial < 10; ++trial) {
    const int world = static_cast<int>(rng.integer(2, 6));
    // Random subgroup containing at least 2 ranks.
    std::vector<int> group;
    for (int r = 0; r < world; ++r) {
      if (rng.bernoulli(0.7)) group.push_back(r);
    }
    if (static_cast<int>(group.size()) < 2) group = {0, world - 1};
    const std::int64_t n = rng.integer(1, 500);
    // A near-free byte cost sends every payload direct; a 1 bps link sends
    // every payload of g >= 3 round the ring (simulate_delay off).
    const dist::LinkModel link = rng.bernoulli(0.5)
                                     ? dist::LinkModel{1e30, 1e-3, false}
                                     : dist::LinkModel{1.0, 1e-3, false};
    dist::EdgeCluster cluster(
        world, std::numeric_limits<std::uint64_t>::max(), link);
    std::vector<double> sums(static_cast<std::size_t>(world), -1.0);
    cluster.run([&](dist::DeviceContext& ctx) {
      if (std::find(group.begin(), group.end(), ctx.rank) == group.end()) {
        return;
      }
      Tensor t = Tensor::full({n}, static_cast<float>(ctx.rank + 1));
      ctx.comm.allreduce_sum(t, group, 100);
      sums[static_cast<std::size_t>(ctx.rank)] = t.at({n / 2});
    });
    double expect = 0.0;
    for (int r : group) expect += r + 1;
    for (int r : group) {
      EXPECT_DOUBLE_EQ(sums[static_cast<std::size_t>(r)], expect)
          << "world=" << world << " n=" << n;
    }
  }
}

// ---- wire frame decoder fuzzing (dist/wire.hpp) -------------------------
//
// The decoder sits on the trust boundary of the multi-process transports:
// whatever a ring or socket delivers — truncated, split, concatenated,
// corrupted — must either decode exactly or raise a clean TransportError.
// Never UB (these tests are part of the sanitizer CI runs).

using dist::wire::Frame;
using dist::wire::FrameDecoder;
using dist::wire::FrameType;

// A random valid frame; records the expectation in `expect`.
std::vector<std::uint8_t> random_wire_frame(Rng& rng, int world,
                                            std::vector<Frame>& expect) {
  Frame f;
  f.src = static_cast<int>(rng.integer(0, world - 1));
  if (rng.bernoulli(0.6)) {
    f.type = FrameType::kData;
    f.tag = static_cast<int>(rng.integer(0, 5000));
    if (rng.bernoulli(0.85)) {
      // ndim 0 is a rank-0 scalar: legal payload, must survive the wire.
      const std::int64_t ndim = rng.integer(0, 3);
      Shape shape;
      for (std::int64_t i = 0; i < ndim; ++i) shape.push_back(rng.integer(1, 5));
      Tensor payload = Tensor::randn(shape, rng);
      if (rng.bernoulli(0.4)) {
        // Compressed frame: fp16 or int8 body with per-row scales.
        const auto dt = rng.bernoulli(0.5) ? quant::Dtype::kF16
                                           : quant::Dtype::kI8;
        f.dtype = dt;
        f.qpayload = quant::quantize(payload, dt);
        auto bytes = dist::wire::encode_data_q(f.src, f.tag, *f.qpayload);
        expect.push_back(std::move(f));
        return bytes;
      }
      f.payload = std::move(payload);
      f.payload_defined = true;
    }
    auto bytes = dist::wire::encode_data(f.src, f.tag, f.payload);
    expect.push_back(std::move(f));
    return bytes;
  }
  const FrameType controls[] = {FrameType::kHello, FrameType::kRankDead,
                                FrameType::kClose, FrameType::kRootDead};
  f.type = controls[rng.integer(0, 3)];
  auto bytes = dist::wire::encode_control(f.type, f.src);
  expect.push_back(std::move(f));
  return bytes;
}

TEST(FuzzTest, WireDecoderReassemblesArbitrarySplits) {
  Rng rng(424242);
  for (int trial = 0; trial < 60; ++trial) {
    const int world = static_cast<int>(rng.integer(1, 8));
    std::vector<Frame> sent;
    std::vector<std::uint8_t> stream;
    const std::int64_t frames = rng.integer(1, 10);
    for (std::int64_t i = 0; i < frames; ++i) {
      const auto bytes = random_wire_frame(rng, world, sent);
      stream.insert(stream.end(), bytes.begin(), bytes.end());
    }
    FrameDecoder dec(world);
    std::vector<Frame> got;
    std::size_t pos = 0;
    while (pos < stream.size()) {
      // Feed in adversarially small random chunks: frames arrive split
      // mid-header, mid-dims, mid-payload.
      const std::size_t n = std::min<std::size_t>(
          stream.size() - pos, static_cast<std::size_t>(rng.integer(1, 37)));
      dec.feed(stream.data() + pos, n);
      pos += n;
      while (auto f = dec.next()) got.push_back(std::move(*f));
    }
    ASSERT_EQ(got.size(), sent.size());
    EXPECT_EQ(dec.pending_bytes(), 0U);
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(got[i].type, sent[i].type);
      EXPECT_EQ(got[i].src, sent[i].src);
      if (sent[i].type == FrameType::kData) {
        EXPECT_EQ(got[i].tag, sent[i].tag);
        EXPECT_EQ(got[i].dtype, sent[i].dtype);
        ASSERT_EQ(got[i].qpayload.has_value(), sent[i].qpayload.has_value());
        if (sent[i].qpayload.has_value()) {
          // Compressed frames must reassemble byte-exactly: same dtype,
          // shape, scales, and element bytes.
          EXPECT_EQ(got[i].qpayload->dtype, sent[i].qpayload->dtype);
          EXPECT_EQ(got[i].qpayload->shape, sent[i].qpayload->shape);
          EXPECT_EQ(got[i].qpayload->scales, sent[i].qpayload->scales);
          EXPECT_EQ(got[i].qpayload->data, sent[i].qpayload->data);
          continue;
        }
        ASSERT_EQ(got[i].payload_defined, sent[i].payload_defined);
        if (sent[i].payload_defined) {
          ASSERT_EQ(got[i].payload.shape(), sent[i].payload.shape());
          EXPECT_EQ(ops::max_abs_diff(got[i].payload, sent[i].payload), 0.0F);
        }
      }
    }
  }
}

TEST(FuzzTest, WireDecoderTruncationYieldsExactPrefix) {
  Rng rng(515253);
  for (int trial = 0; trial < 60; ++trial) {
    const int world = static_cast<int>(rng.integer(1, 6));
    std::vector<Frame> sent;
    std::vector<std::uint8_t> stream;
    std::vector<std::size_t> boundaries;  // cumulative end offset per frame
    const std::int64_t frames = rng.integer(1, 8);
    for (std::int64_t i = 0; i < frames; ++i) {
      const auto bytes = random_wire_frame(rng, world, sent);
      stream.insert(stream.end(), bytes.begin(), bytes.end());
      boundaries.push_back(stream.size());
    }
    // Cut the stream anywhere (a peer SIGKILLed mid-write): the decoder
    // yields every complete frame and silently holds the tail.
    const auto cut =
        static_cast<std::size_t>(rng.integer(0, static_cast<std::int64_t>(
                                                    stream.size())));
    std::size_t expect_frames = 0;
    while (expect_frames < boundaries.size() &&
           boundaries[expect_frames] <= cut) {
      ++expect_frames;
    }
    FrameDecoder dec(world);
    dec.feed(stream.data(), cut);
    std::size_t got = 0;
    while (dec.next()) ++got;
    EXPECT_EQ(got, expect_frames);
    const std::size_t consumed =
        expect_frames == 0 ? 0 : boundaries[expect_frames - 1];
    EXPECT_EQ(dec.pending_bytes(), cut - consumed);
  }
}

TEST(FuzzTest, WireDecoderRejectsMalformedHeaders) {
  const int kWorld = 4;
  const auto valid =
      dist::wire::encode_data(1, 5, Tensor::full({2, 2}, 1.0F));

  auto expect_rejected = [&](std::vector<std::uint8_t> bytes,
                             const char* what) {
    FrameDecoder dec(kWorld);
    dec.feed(bytes.data(), bytes.size());
    EXPECT_THROW(dec.next(), TransportError) << what;
    // Poisoned: the stream has lost sync, everything after throws too.
    EXPECT_THROW(dec.next(), TransportError) << what;
    EXPECT_THROW(dec.feed(bytes.data(), 1), TransportError) << what;
  };

  auto mutate = [&](std::size_t offset, std::uint8_t value) {
    auto bytes = valid;
    bytes[offset] = value;
    return bytes;
  };

  expect_rejected(mutate(0, 0x00), "bad magic");
  expect_rejected(mutate(4, 0), "frame type zero");
  expect_rejected(mutate(4, 9), "unknown frame type");
  expect_rejected(mutate(6, 3), "unknown payload dtype");
  expect_rejected(mutate(6, 0xFF), "dtype byte far out of range");
  expect_rejected(mutate(7, 1), "nonzero reserved field");
  expect_rejected(mutate(11, 0x80), "source rank out of range (negative)");
  expect_rejected(mutate(8, kWorld), "source rank out of range (high)");
  {  // known dtype whose body no longer matches the fp32 body length
    expect_rejected(mutate(6, 1), "fp16 dtype on an fp32-sized body");
    expect_rejected(mutate(6, 2), "int8 dtype on an fp32-sized body");
  }
  {  // dtype on a control frame
    auto ctrl = dist::wire::encode_control(FrameType::kRankDead, 1);
    ctrl[6] = 2;
    expect_rejected(ctrl, "dtype on control frame");
  }
  {  // dtype on a data frame with no payload
    auto empty = dist::wire::encode_data(1, 5, Tensor());
    empty[6] = 1;
    expect_rejected(empty, "dtype on undefined payload");
  }

  {  // oversized body_len
    auto bytes = valid;
    const std::uint32_t huge = dist::wire::kMaxBodyBytes + 1;
    std::memcpy(bytes.data() + 16, &huge, 4);
    expect_rejected(bytes, "oversized body");
  }
  {  // control frame with flags / with a body
    auto ctrl = dist::wire::encode_control(FrameType::kRankDead, 1);
    auto with_flags = ctrl;
    with_flags[5] = 1;
    expect_rejected(with_flags, "flags on control frame");
    auto with_body = ctrl;
    const std::uint32_t four = 4;
    std::memcpy(with_body.data() + 16, &four, 4);
    expect_rejected(with_body, "control frame with body");
  }
  {  // data frame: defined flag cleared but body kept
    auto bytes = valid;
    bytes[5] = 0;
    expect_rejected(bytes, "undefined payload with non-empty body");
  }
  {  // tensor rank out of range
    auto bytes = valid;
    const std::uint32_t ndim = dist::wire::kMaxDims + 1;
    std::memcpy(bytes.data() + 20, &ndim, 4);
    expect_rejected(bytes, "tensor rank out of range");
  }
  {  // negative dimension
    auto bytes = valid;
    const std::int64_t neg = -1;
    std::memcpy(bytes.data() + 24, &neg, 8);
    expect_rejected(bytes, "negative tensor dimension");
  }
  {  // dims imply a different body length than the header claims
    auto bytes = valid;
    const std::int64_t wrong = 3;
    std::memcpy(bytes.data() + 24, &wrong, 8);
    expect_rejected(bytes, "tensor body length mismatch");
  }
  {  // element-count overflow is caught before any multiplication damage
    auto bytes = valid;
    const std::int64_t big = std::int64_t{1} << 40;
    std::memcpy(bytes.data() + 24, &big, 8);
    std::memcpy(bytes.data() + 32, &big, 8);
    expect_rejected(bytes, "tensor element count overflow");
  }
  {  // dims whose product wraps to 0 modulo 2^64, with body_len forged to
     // match the wrapped count: must be rejected by the pre-multiply guard,
     // never reach allocation (or signed-overflow UB in shape_numel)
    auto bytes = valid;
    const std::uint32_t wrapped_body = 4 + 8 * 2;  // rank + dims, "0" elems
    std::memcpy(bytes.data() + 16, &wrapped_body, 4);
    const std::int64_t d0 = std::int64_t{1} << 26;
    const std::int64_t d1 = std::int64_t{1} << 38;
    std::memcpy(bytes.data() + 24, &d0, 8);
    std::memcpy(bytes.data() + 32, &d1, 8);
    expect_rejected(bytes, "wrapping element count");
  }
}

TEST(FuzzTest, WireScalarTensorRoundTrips) {
  // Rank-0 tensors are valid in-process payloads (Tensor::zeros({}) has
  // numel 1); the wire must agree or the backends silently diverge.
  Tensor scalar = Tensor::full({}, 7.5F);
  const auto bytes = dist::wire::encode_data(2, 9, scalar);
  FrameDecoder dec(4);
  dec.feed(bytes.data(), bytes.size());
  auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::kData);
  EXPECT_EQ(f->src, 2);
  EXPECT_EQ(f->tag, 9);
  ASSERT_TRUE(f->payload_defined);
  ASSERT_TRUE(f->payload.defined());
  EXPECT_EQ(f->payload.shape(), Shape{});
  EXPECT_EQ(f->payload.numel(), 1);
  EXPECT_EQ(f->payload.data()[0], 7.5F);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_EQ(dec.pending_bytes(), 0U);
}

// ---- frame authentication (SipHash-2-4 MAC) ----

// The MAC primitive against the published SipHash-2-4 reference vectors:
// key 00 01 .. 0f over messages 00 01 .. (n-1).
TEST(FuzzTest, WireSipHash24MatchesReferenceVectors) {
  dist::wire::AuthKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i);
  }
  const std::uint64_t want[] = {
      0x726fdb47dd0e0e31ULL, 0x74f839c593dc67fdULL, 0x0d6c8009d9a94f5aULL,
      0x85676696d7fb7e2dULL, 0xcf2794e0277187b7ULL, 0x18765564cd99a68dULL,
      0xcbc9466e58fee3ceULL, 0xab0200f58b01d137ULL, 0x93f5f5799a932462ULL,
  };
  std::uint8_t msg[8];
  for (std::size_t i = 0; i < sizeof(msg); ++i) {
    msg[i] = static_cast<std::uint8_t>(i);
  }
  for (std::size_t len = 0; len <= sizeof(msg); ++len) {
    EXPECT_EQ(dist::wire::siphash24(key, msg, len), want[len]) << len;
  }
}

TEST(FuzzTest, WireAuthTagMutationsAllPoisonCleanly) {
  dist::wire::AuthKey key{};
  dist::wire::AuthKey other{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(0x10 + i);
    other[i] = static_cast<std::uint8_t>(0x20 + i);
  }
  const Tensor payload = Tensor::full({2, 2}, 3.5F);
  auto authed = dist::wire::encode_data(1, 5, payload);
  dist::wire::authenticate(authed, key);

  {  // round trip: an authenticated frame decodes on a keyed link
    FrameDecoder dec(4);
    dec.set_auth_key(key);
    dec.feed(authed.data(), authed.size());
    auto f = dec.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->src, 1);
    EXPECT_EQ(f->tag, 5);
    EXPECT_EQ(ops::max_abs_diff(f->payload, payload), 0.0F);
    EXPECT_EQ(dec.auth_failures(), 0U);
    EXPECT_EQ(dec.pending_bytes(), 0U);
  }

  auto expect_auth_rejected = [&](std::vector<std::uint8_t> bytes,
                                  const char* what) {
    FrameDecoder dec(4);
    dec.set_auth_key(key);
    dec.feed(bytes.data(), bytes.size());
    EXPECT_THROW(dec.next(), TransportError) << what;
    EXPECT_THROW(dec.next(), TransportError) << what;  // poisoned for good
    EXPECT_EQ(dec.auth_failures(), 1U) << what;
  };

  {  // flipped tag bit
    auto bytes = authed;
    bytes.back() ^= 0x01;
    expect_auth_rejected(bytes, "flipped tag bit");
  }
  {  // flipped body bit (tag no longer matches)
    auto bytes = authed;
    bytes[dist::wire::kHeaderBytes] ^= 0x80;
    expect_auth_rejected(bytes, "flipped body bit");
  }
  {  // flipped header bit (the tag covers the header too)
    auto bytes = authed;
    bytes[12] ^= 0x01;  // message tag field
    expect_auth_rejected(bytes, "flipped header bit");
  }
  {  // signed under the wrong key
    auto bytes = dist::wire::encode_data(1, 5, payload);
    dist::wire::authenticate(bytes, other);
    expect_auth_rejected(bytes, "wrong key");
  }
  {  // auth flag with no tag, another frame following: the decoder reads
     // the next frame's first bytes as the tag and must reject — a frame
     // boundary can never be silently resynthesized.
    std::vector<std::uint8_t> stripped(
        authed.begin(), authed.end() - dist::wire::kAuthTagBytes);
    stripped.insert(stripped.end(), authed.begin(), authed.end());
    expect_auth_rejected(stripped, "auth flag with no tag");
  }
  {  // unauthenticated frame on a keyed link (tag stripping)
    expect_auth_rejected(dist::wire::encode_data(1, 5, payload),
                         "unauthenticated frame on keyed link");
  }
  {  // truncated tag is an incomplete frame, not a decode
    std::vector<std::uint8_t> bytes(authed.begin(), authed.end() - 1);
    FrameDecoder dec(4);
    dec.set_auth_key(key);
    dec.feed(bytes.data(), bytes.size());
    EXPECT_FALSE(dec.next().has_value());
    EXPECT_EQ(dec.pending_bytes(), bytes.size());
    EXPECT_EQ(dec.auth_failures(), 0U);
  }
  {  // authenticated frame on a keyless link is rejected outright
    FrameDecoder dec(4);
    dec.feed(authed.data(), authed.size());
    EXPECT_THROW(dec.next(), TransportError);
  }
  {  // control frames carry tags too: round trip + tamper
    auto ctrl = dist::wire::encode_control(FrameType::kRankDead, 2);
    dist::wire::authenticate(ctrl, key);
    FrameDecoder dec(4);
    dec.set_auth_key(key);
    dec.feed(ctrl.data(), ctrl.size());
    auto f = dec.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->type, FrameType::kRankDead);
    EXPECT_EQ(f->src, 2);
    auto tampered = ctrl;
    tampered.back() ^= 0x10;
    expect_auth_rejected(tampered, "tampered control tag");
  }
}

// ---- RESYNC frames (reconnect handshake) ----

TEST(FuzzTest, WireResyncRoundTripsAndRejectsMalformed) {
  const auto bytes =
      dist::wire::encode_resync(2, 0xDEADBEEFu, 0x1122334455667788ULL);
  {
    FrameDecoder dec(4);
    dec.feed(bytes.data(), bytes.size());
    auto f = dec.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->type, FrameType::kResync);
    EXPECT_EQ(f->src, 2);
    EXPECT_EQ(f->resync_epoch, 0xDEADBEEFu);
    EXPECT_EQ(f->resync_delivered, 0x1122334455667788ULL);
    EXPECT_FALSE(dec.next().has_value());
  }
  {  // authenticated resync round-trips as well (reconnects on keyed links)
    dist::wire::AuthKey key{};
    key[0] = 0x42;
    auto authed = bytes;
    dist::wire::authenticate(authed, key);
    FrameDecoder dec(4);
    dec.set_auth_key(key);
    dec.feed(authed.data(), authed.size());
    auto f = dec.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->resync_epoch, 0xDEADBEEFu);
    EXPECT_EQ(f->resync_delivered, 0x1122334455667788ULL);
  }
  auto expect_rejected = [&](std::vector<std::uint8_t> b, const char* what) {
    FrameDecoder dec(4);
    dec.feed(b.data(), b.size());
    EXPECT_THROW(dec.next(), TransportError) << what;
  };
  {  // wrong body length (short and long)
    auto b = bytes;
    std::uint32_t len = dist::wire::kResyncBodyBytes - 1;
    std::memcpy(b.data() + 16, &len, 4);
    expect_rejected(b, "short resync body");
    len = dist::wire::kResyncBodyBytes + 1;
    std::memcpy(b.data() + 16, &len, 4);
    expect_rejected(b, "long resync body");
    len = 0;
    std::memcpy(b.data() + 16, &len, 4);
    expect_rejected(b, "empty resync body");
  }
  {  // payload flag / dtype on a resync frame
    auto b = bytes;
    b[5] |= 0x01;  // defined-payload flag
    expect_rejected(b, "payload flag on resync");
    b = bytes;
    b[6] = 1;  // dtype byte
    expect_rejected(b, "dtype on resync");
  }
  {  // random single-byte mutations: decode or clean TransportError only
    Rng rng(606060);
    for (int trial = 0; trial < 200; ++trial) {
      auto b = bytes;
      const auto at = static_cast<std::size_t>(
          rng.integer(0, static_cast<std::int64_t>(b.size()) - 1));
      b[at] = static_cast<std::uint8_t>(rng.integer(0, 255));
      FrameDecoder dec(4);
      try {
        dec.feed(b.data(), b.size());
        while (dec.next()) {
        }
      } catch (const TransportError&) {
      }
    }
  }
}

TEST(FuzzTest, WireDecoderSurvivesRandomGarbageAndBitFlips) {
  Rng rng(987654);
  // Pure garbage: must throw TransportError (or yield nothing), never UB.
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> junk(
        static_cast<std::size_t>(rng.integer(1, 256)));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.integer(0, 255));
    FrameDecoder dec(4);
    try {
      dec.feed(junk.data(), junk.size());
      while (dec.next()) {
      }
    } catch (const TransportError&) {
      // expected for almost every stream (magic is 1-in-2^32)
    }
  }
  // Single bit flips in an otherwise valid stream: either decodes (payload
  // bits) or raises a clean TransportError (structure bits).
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Frame> sent;
    std::vector<std::uint8_t> stream;
    for (int i = 0; i < 3; ++i) {
      const auto bytes = random_wire_frame(rng, 4, sent);
      stream.insert(stream.end(), bytes.begin(), bytes.end());
    }
    const auto bit = static_cast<std::size_t>(
        rng.integer(0, static_cast<std::int64_t>(stream.size()) * 8 - 1));
    stream[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    FrameDecoder dec(4);
    try {
      dec.feed(stream.data(), stream.size());
      while (dec.next()) {
      }
    } catch (const TransportError&) {
    }
  }
}

}  // namespace
}  // namespace pac
