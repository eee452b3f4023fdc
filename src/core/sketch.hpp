// Streaming percentile sketches with bounded, checkpointable state.
//
// A million-request campaign cannot afford one double per served request
// just to report p99 sojourn at the end (1e6 requests x 1e3 tenants would
// be gigabytes). The P² algorithm (Jain & Chlamtac, CACM 1985) estimates a
// single quantile online with five markers — five heights, five integer
// positions — updated in O(1) per observation. The state is a handful of
// doubles and integers, so it serializes exactly (bit-for-bit) into the
// serving checkpoint and a resumed campaign continues the estimate as if
// it had never crashed.
//
// SojournSketch bundles the fixed quantile set the serving reports use
// (p50/p90/p95/p99) plus exact min/max/count/sum, and interpolates between
// the tracked points for intermediate percentile queries.
#pragma once

#include <array>
#include <cstdint>

#include "common/binary_io.hpp"

namespace odin::core {

/// One-quantile P² estimator. Deterministic: the estimate is a pure
/// function of the observation sequence, with no randomness and no
/// allocation, so two walks that feed identical samples agree bitwise.
class QuantileSketch {
 public:
  explicit QuantileSketch(double p = 0.99) noexcept : p_(p) {}

  void add(double x) noexcept;

  /// Current estimate of the p-quantile. Exact (nearest-rank on the
  /// buffered observations) while count() <= 5; 0 when empty.
  double estimate() const noexcept;

  double quantile_p() const noexcept { return p_; }
  std::uint64_t count() const noexcept { return n_; }

  /// Wire layout (common/binary_io.hpp): all state is doubles and
  /// integers, so decoding reproduces the estimator bit-for-bit.
  template <typename S, common::MaybeConst<QuantileSketch> Q>
  friend void fields(S& s, Q& sk) {
    s.field(sk.p_);
    s.field(sk.n_);
    for (auto& q : sk.q_) s.field(q);
    for (auto& pos : sk.pos_) s.field(pos);
  }

  friend bool operator==(const QuantileSketch& a,
                         const QuantileSketch& b) noexcept {
    return a.p_ == b.p_ && a.n_ == b.n_ && a.q_ == b.q_ && a.pos_ == b.pos_;
  }

 private:
  friend class SojournSketch;  // gathers and scatters its lanes

  double p_ = 0.99;
  std::uint64_t n_ = 0;
  std::array<double, 5> q_{};           ///< marker heights
  std::array<std::int64_t, 5> pos_{};   ///< marker positions (1-based)
};

/// The bounded-memory percentile surface a tenant keeps when raw sojourn
/// retention is capped: four P² estimators at the report quantiles plus
/// exact extremes and mean. 416 bytes (4 x 96 + 32) regardless of sample
/// count.
///
/// The four estimators see the same samples, so they are stored
/// marker-major, one lane per tracked quantile, and once past their
/// five-sample warm-up one AVX2 step (core/sketch_avx2.cpp) updates all
/// four in lockstep, each lane bit for bit as QuantileSketch::add would
/// (DESIGN.md §17). QuantileSketch::add stays the reference and the
/// fallback: a lane set that is not in lockstep (a count below 5, unequal
/// counts, or a position outside [1, n]; only a decoded frame carries the
/// last two), ODIN_SIMD=scalar and a build or CPU without AVX2 run each
/// lane through it.
class SojournSketch {
 public:
  SojournSketch() noexcept;

  void add(double x) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
  double max() const noexcept { return count_ > 0 ? max_ : 0.0; }
  double mean() const noexcept {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Percentile estimate for p in [0, 100]: piecewise-linear through
  /// (0, min), the tracked quantiles (50/90/95/99) and (100, max).
  double percentile(double p) const noexcept;

  friend bool operator==(const SojournSketch& a,
                         const SojournSketch& b) noexcept;

  static constexpr std::size_t kQuantiles = 4;
  static constexpr std::array<double, kQuantiles> kTracked = {0.50, 0.90,
                                                              0.95, 0.99};

  /// Wire layout (common/binary_io.hpp): each lane in QuantileSketch's
  /// own order, then the exact aggregates.
  template <typename S, common::MaybeConst<SojournSketch> J>
  friend void fields(S& s, J& sk) {
    for (std::size_t l = 0; l < kQuantiles; ++l) {
      s.field(sk.p_[l]);
      s.field(sk.n_[l]);
      for (auto& marker : sk.q_) s.field(marker[l]);
      for (auto& marker : sk.pos_) s.field(marker[l]);
    }
    s.field(sk.count_);
    s.field(sk.min_);
    s.field(sk.max_);
    s.field(sk.sum_);
  }

 private:
  template <typename T>
  using Lanes = std::array<T, kQuantiles>;

  /// Lane l as a standalone estimator, and back.
  QuantileSketch lane(std::size_t l) const noexcept;
  void set_lane(std::size_t l, const QuantileSketch& sk) noexcept;

  /// The lockstep AVX2 step over all four lanes. Returns false, leaving
  /// the state untouched, when the lanes are not in lockstep. Defined only
  /// in AVX2 builds; add() calls it only when the dispatch selects AVX2.
  bool add_lockstep_avx2(double x) noexcept;

  Lanes<double> p_;                     ///< per-lane quantile
  Lanes<std::uint64_t> n_{};            ///< per-lane count
  std::array<Lanes<double>, 5> q_{};    ///< heights [marker][lane]
  std::array<Lanes<std::int64_t>, 5> pos_{};  ///< positions [marker][lane]
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace odin::core
