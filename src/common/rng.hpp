// Deterministic, explicitly seeded random number generation.
//
// Every stochastic component in the library (synthetic weights, pruning,
// datasets, policy initialization, Monte-Carlo noise injection) draws from an
// explicitly constructed Rng; there is no global generator. This keeps all
// tests and benchmark tables bit-reproducible across runs and platforms.
#pragma once

#include <cstdint>
#include <cmath>
#include <numbers>

namespace odin::common {

/// splitmix64: used to expand a user seed into the xoshiro state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** — small, fast, high-quality PRNG with a 64-bit seed
/// interface. Not cryptographic; used only for simulation workloads.
class Rng {
 public:
  explicit constexpr Rng(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  constexpr std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// The top 53 bits of one step: uniform() is this times 2^-53. A caller
  /// that buckets a draw by its integer bits before converting it
  /// (dnn::prune_layer's u2) reads it here, so its value cannot drift from
  /// uniform()'s.
  constexpr std::uint64_t next_u53() noexcept { return next_u64() >> 11; }

  /// Uniform in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next_u53()) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n) noexcept {
    // Rejection-free modulo is fine for simulation purposes; bias is < 2^-53
    // for any n that fits in the mantissa range we use.
    return static_cast<std::uint64_t>(uniform() * static_cast<double>(n));
  }

  /// Uniform in (0, 1): uniform() with its exact zero redrawn.
  double uniform_positive() noexcept {
    std::uint64_t k = next_u53();
    while (k == 0) k = next_u53();
    return static_cast<double>(k) * 0x1.0p-53;
  }

  /// The Box-Muller transform normal() applies to its two draws, u1 in
  /// (0, 1) and u2 in [0, 1). Callers that bound a draw before paying for
  /// log/cos (dnn::prune_layer) finish through here, so their values
  /// cannot drift from normal()'s.
  static double box_muller(double u1, double u2) noexcept {
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

  /// Standard normal via Box-Muller (no cached second value, keeps state
  /// strictly sequential and therefore easy to reason about in tests).
  double normal() noexcept {
    const double u1 = uniform_positive();
    return box_muller(u1, uniform());
  }

  /// Advance the state exactly as normal() does, without the transform:
  /// the same redraws of a zero u1, then the u2 draw.
  void discard_normal() noexcept {
    while (next_u53() == 0) {
    }
    (void)next_u64();
  }

  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Equal iff both generators hold the same state (and so draw the same
  /// stream from here on).
  friend bool operator==(const Rng&, const Rng&) = default;

  /// Derive an independent child generator (for per-layer / per-module
  /// streams that must not perturb each other when one consumes more draws).
  Rng fork(std::uint64_t stream) noexcept {
    std::uint64_t sm = next_u64() ^ (0x6a09e667f3bcc909ULL + stream);
    return Rng(splitmix64(sm));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

}  // namespace odin::common
