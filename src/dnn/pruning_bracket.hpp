// Table bounds on the pruner's squared weight magnitudes (DESIGN.md §21).
//
// dnn::prune_layer gives a weight the magnitude imp·|z|, with z the
// Box-Muller normal of the draws u1 = k1·2^-53 and u2 = k2·2^-53. The
// square (imp·z)² = imp²·(−2 ln u1)·cos²(2π u2) is bracketed without log
// or cos. −2 ln at the edges of u1's buckets (binade e × top 8 mantissa
// bits j) is the sum of a binade term, −2 ln 2^(e−53), and a mantissa
// term, −2 ln(1 + j/256); one more table holds cos² at the edges of u2's
// buckets over the folded quarter period [0, 1/4]. Both functions fall
// across a bucket, so a bucket's two edges bound it. The row scales widen
// each bound by kMargin, far above the < 1e-11 relative error of the
// computed magnitude chain and of the edge sums, so the bounds hold for
// the magnitude the exact path computes.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace odin::dnn::bracket {

/// u1 in [2^-53, 1) spans 53 binades of 2^8 buckets each.
inline constexpr int kU1MantissaBits = 8;
inline constexpr std::size_t kU1Binades = 53;
inline constexpr std::size_t kU1Steps = std::size_t{1} << kU1MantissaBits;
inline constexpr std::size_t kU1Buckets = kU1Binades * kU1Steps;
/// u2's quarter period [0, 1/4] in 2^12 buckets of width 2^-14.
inline constexpr int kU2BucketBits = 12;
inline constexpr std::size_t kU2Buckets = std::size_t{1} << kU2BucketBits;

/// Relative widening of each table's bounds.
inline constexpr double kMargin = 1e-9;

/// Edge values, each falling with the index. −2 ln u1 over u1's bucket
/// (e, j) lies between binade_term[e] + mantissa_term[j + 1] (lower bound)
/// and binade_term[e] + mantissa_term[j] (upper bound); cos² over u2's
/// bucket f between cos_term[f + 1] and cos_term[f]. About 35 KB, built in
/// about 40 us; prune_model builds one set per call and frees it.
struct Tables {
  Tables();

  std::array<double, kU1Binades> binade_term;       ///< 2(53 − e)·ln 2
  std::array<double, kU1Steps + 1> mantissa_term;   ///< −2 ln(1 + j/256)
  std::array<double, kU2Buckets + 1> cos_term;  ///< cos²(2π·) at u2's edges
};

/// u1's bucket: its biased exponent and top 8 mantissa bits, which are
/// bits 62..44 of the double, less those of 2^-53.
inline std::size_t u1_bucket(double u1) noexcept {
  constexpr std::uint64_t kFirst = std::uint64_t{1023 - 53}
                                   << kU1MantissaBits;
  return static_cast<std::size_t>(
      (std::bit_cast<std::uint64_t>(u1) >> (52 - kU1MantissaBits)) - kFirst);
}

/// u2's bucket, from its 53-bit draw k2 and without a branch: cos² has
/// period 1/2 and mirrors about 1/4, so bit 51 (the second quarter of the
/// half period) reflects the quarter's bucket index j to kU2Buckets−1−j.
inline std::size_t u2_bucket(std::uint64_t k2) noexcept {
  constexpr std::uint64_t kMask = kU2Buckets - 1;
  const std::uint64_t j = (k2 >> (51 - kU2BucketBits)) & kMask;
  const std::uint64_t mirror = 0 - ((k2 >> 51) & 1);
  return static_cast<std::size_t>((j ^ mirror) & kMask);
}

/// imp² widened by both tables' margins. A row whose imp² lies outside
/// [2^-400, 2^100] (never at the default σ = 1) gets the bounds [0, +inf],
/// so every weight of it takes the exact path: there the magnitude could
/// leave double's normal range or its bound float's.
struct Scales {
  double lo;
  double hi;
};

inline Scales row_scales(double imp) noexcept {
  const double imp2 = imp * imp;
  if (!(imp2 >= 0x1p-400 && imp2 <= 0x1p100))
    return {0.0, std::numeric_limits<double>::infinity()};
  return {imp2 * (1.0 - kMargin) * (1.0 - kMargin),
          imp2 * (1.0 + kMargin) * (1.0 + kMargin)};
}

struct Bounds {
  double lo;
  double hi;
};

/// Bounds on (imp·z)² for the draw whose buckets are a (u1) and b (u2).
inline Bounds square_bounds(const Tables& t, Scales s, std::size_t a,
                            std::size_t b) noexcept {
  const double binade = t.binade_term[a >> kU1MantissaBits];
  const std::size_t j = a & (kU1Steps - 1);
  return {s.lo * (binade + t.mantissa_term[j + 1]) * t.cos_term[b + 1],
          s.hi * (binade + t.mantissa_term[j]) * t.cos_term[b]};
}

/// The bit pattern of x ≥ 0 rounded down (resp. up) to a float.
/// Non-negative floats, +inf included, order like their patterns.
inline std::uint32_t float_below(double x) noexcept {
  const float f = static_cast<float>(x);
  return std::bit_cast<std::uint32_t>(f) -
         static_cast<std::uint32_t>(static_cast<double>(f) > x);
}

inline std::uint32_t float_above(double x) noexcept {
  const float f = static_cast<float>(x);
  return std::bit_cast<std::uint32_t>(f) +
         static_cast<std::uint32_t>(static_cast<double>(f) < x);
}

}  // namespace odin::dnn::bracket
