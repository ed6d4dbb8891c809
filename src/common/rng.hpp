// Deterministic random number generation.
//
// Every stochastic component in PAC (weight init, data synthesis, shuffling)
// takes an explicit seed so that distributed runs are reproducible: two
// devices constructing the same model from the same seed hold bit-identical
// parameters, which the gradient-parity integration tests rely on.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>

namespace pac {

// Wrapper around a fixed-algorithm engine (mt19937_64 — stable across
// platforms, unlike std::default_random_engine).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed) : engine_(seed) {}

  // Uniform in [lo, hi).
  float uniform(float lo = 0.0F, float hi = 1.0F) {
    std::uniform_real_distribution<float> dist(lo, hi);
    return dist(engine_);
  }

  // Standard normal scaled by stddev.
  float normal(float mean = 0.0F, float stddev = 1.0F) {
    std::normal_distribution<float> dist(mean, stddev);
    return dist(engine_);
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t integer(std::int64_t lo, std::int64_t hi) {
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    return dist(engine_);
  }

  // Bernoulli with probability p of true.
  bool bernoulli(double p) {
    std::bernoulli_distribution dist(p);
    return dist(engine_);
  }

  // Advance the engine exactly as `n` calls of uniform() / normal() would
  // (how many engine words a draw takes never depends on its bounds or
  // scale), keeping no values.  A rank that does not build a module skips
  // its initializer's draws this way, so the modules it does build draw
  // the same values as in a whole-model build.
  void skip_uniform(std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) uniform();
  }
  void skip_normal(std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) normal();
  }

  std::mt19937_64& engine() { return engine_; }

  // Derives an independent child seed; used to give each model component its
  // own stream so adding a component does not shift every later draw.
  std::uint64_t fork() {
    // SplitMix64 step over a fresh draw keeps child streams decorrelated.
    std::uint64_t z = engine_() + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::mt19937_64 engine_;
};

}  // namespace pac
