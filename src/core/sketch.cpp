#include "core/sketch.hpp"

#include <algorithm>
#include <cmath>

#include "reram/batch_gemm.hpp"

namespace odin::core {

namespace {

/// Marker i's desired position after n observations (1-based, i in [0, 5)):
/// 1 + (n - 1) * d_i with d = {0, p/2, p, (1+p)/2, 1}.
double desired_pos(double p, std::uint64_t n, int i) noexcept {
  const double d[5] = {0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0};
  return 1.0 + (static_cast<double>(n) - 1.0) * d[i];
}

}  // namespace

void QuantileSketch::add(double x) noexcept {
  if (n_ < 5) {
    // Initialization phase: buffer the first five observations sorted in
    // the marker-height slots.
    q_[n_] = x;
    ++n_;
    std::sort(q_.begin(), q_.begin() + static_cast<std::ptrdiff_t>(n_));
    if (n_ == 5)
      for (int i = 0; i < 5; ++i) pos_[i] = i + 1;
    return;
  }

  // Locate the cell containing x and stretch the extremes if needed.
  int k;
  if (x < q_[0]) {
    q_[0] = x;
    k = 0;
  } else if (x < q_[1]) {
    k = 0;
  } else if (x < q_[2]) {
    k = 1;
  } else if (x < q_[3]) {
    k = 2;
  } else if (x <= q_[4]) {
    k = 3;
  } else {
    q_[4] = x;
    k = 3;
  }
  ++n_;
  for (int i = k + 1; i < 5; ++i) ++pos_[i];

  // Nudge the three interior markers toward their desired positions using
  // the P-squared parabolic interpolation, falling back to linear when the
  // parabola would leave the markers unsorted.
  for (int i = 1; i <= 3; ++i) {
    const double want = desired_pos(p_, n_, i);
    const double drift = want - static_cast<double>(pos_[i]);
    const std::int64_t below = pos_[i] - pos_[i - 1];
    const std::int64_t above = pos_[i + 1] - pos_[i];
    if ((drift >= 1.0 && above > 1) || (drift <= -1.0 && below > 1)) {
      const int d = drift >= 1.0 ? 1 : -1;
      const double nd = static_cast<double>(d);
      const double np = static_cast<double>(pos_[i]);
      const double np_lo = static_cast<double>(pos_[i - 1]);
      const double np_hi = static_cast<double>(pos_[i + 1]);
      double cand =
          q_[i] + nd / (np_hi - np_lo) *
                      ((np - np_lo + nd) * (q_[i + 1] - q_[i]) / (np_hi - np) +
                       (np_hi - np - nd) * (q_[i] - q_[i - 1]) / (np - np_lo));
      if (cand <= q_[i - 1] || cand >= q_[i + 1])
        cand = q_[i] + nd * (q_[i + d] - q_[i]) /
                           static_cast<double>(pos_[i + d] - pos_[i]);
      q_[i] = cand;
      pos_[i] += d;
    }
  }
}

double QuantileSketch::estimate() const noexcept {
  if (n_ == 0) return 0.0;
  if (n_ < 5) {
    // Exact nearest-rank over the sorted buffer (matches
    // core::percentile's ceil(p * n) rank convention).
    const double rank = p_ * static_cast<double>(n_);
    std::size_t idx =
        rank <= 1.0 ? 0 : static_cast<std::size_t>(std::ceil(rank)) - 1;
    if (idx >= n_) idx = n_ - 1;
    return q_[idx];
  }
  return q_[2];
}

// The lane layout must not move TenantStats' layout: the same size and
// alignment as the four QuantileSketches it replaced plus the aggregates.
static_assert(sizeof(SojournSketch) ==
              SojournSketch::kQuantiles * sizeof(QuantileSketch) +
                  4 * sizeof(double));
static_assert(alignof(SojournSketch) == alignof(double));

SojournSketch::SojournSketch() noexcept : p_(kTracked) {}

QuantileSketch SojournSketch::lane(std::size_t l) const noexcept {
  QuantileSketch sk(p_[l]);
  sk.n_ = n_[l];
  for (std::size_t m = 0; m < 5; ++m) {
    sk.q_[m] = q_[m][l];
    sk.pos_[m] = pos_[m][l];
  }
  return sk;
}

void SojournSketch::set_lane(std::size_t l, const QuantileSketch& sk) noexcept {
  p_[l] = sk.p_;
  n_[l] = sk.n_;
  for (std::size_t m = 0; m < 5; ++m) {
    q_[m][l] = sk.q_[m];
    pos_[m][l] = sk.pos_[m];
  }
}

void SojournSketch::add(double x) noexcept {
#if defined(ODIN_HAVE_AVX2)
  const bool lockstep = reram::gemm::active_simd_mode() ==
                            reram::gemm::SimdMode::kAvx2 &&
                        add_lockstep_avx2(x);
#else
  constexpr bool lockstep = false;
#endif
  if (!lockstep)
    for (std::size_t l = 0; l < kQuantiles; ++l) {
      QuantileSketch sk = lane(l);
      sk.add(x);
      set_lane(l, sk);
    }
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  sum_ += x;
  ++count_;
}

double SojournSketch::percentile(double p) const noexcept {
  if (count_ == 0) return 0.0;
  // Knot sequence (percent, value): (0, min), tracked quantiles, (100, max).
  double xs[kQuantiles + 2];
  double ys[kQuantiles + 2];
  xs[0] = 0.0;
  ys[0] = min_;
  for (std::size_t i = 0; i < kQuantiles; ++i) {
    xs[i + 1] = kTracked[i] * 100.0;
    ys[i + 1] = lane(i).estimate();
  }
  xs[kQuantiles + 1] = 100.0;
  ys[kQuantiles + 1] = max_;
  const double pc = std::clamp(p, 0.0, 100.0);
  for (std::size_t i = 0; i + 1 < kQuantiles + 2; ++i) {
    if (pc <= xs[i + 1]) {
      const double span = xs[i + 1] - xs[i];
      if (span <= 0.0) return ys[i + 1];
      const double f = (pc - xs[i]) / span;
      return ys[i] + f * (ys[i + 1] - ys[i]);
    }
  }
  return max_;
}

bool operator==(const SojournSketch& a, const SojournSketch& b) noexcept {
  return a.p_ == b.p_ && a.n_ == b.n_ && a.q_ == b.q_ && a.pos_ == b.pos_ &&
         a.count_ == b.count_ && a.min_ == b.min_ && a.max_ == b.max_ &&
         a.sum_ == b.sum_;
}

}  // namespace odin::core
