// Lockstep AVX2 step of SojournSketch: its four P² estimators, one per
// ymm lane. This TU alone is compiled with -mavx2 (and -ffp-contract=off);
// SojournSketch::add only calls it when reram::gemm::active_simd_mode()
// selects AVX2, which it does only after a runtime
// __builtin_cpu_supports("avx2") check.
//
// Each lane performs QuantileSketch::add's operations on the same
// operands in the same order, so it is bitwise identical to that scalar
// reference (DESIGN.md §17, pinned by tests/test_sketch.cpp):
//  * the cell search is the scalar if-chain's five ordered compares as
//    masks, so a NaN sample (every compare false) takes its `q4 = x` arm;
//  * each interior marker forms its desired position, drift test,
//    parabolic candidate and linear fallback per lane with the scalar
//    expression tree (separate multiply and add, no FMA, the same
//    divisions), then blends the result into the lanes that move;
//  * positions enter the arithmetic as exact doubles: they lie in [1, n]
//    with n < 2^51, where the 2^52 mantissa trick converts exactly.
#include "core/sketch.hpp"

#if defined(ODIN_HAVE_AVX2)

#include <immintrin.h>

namespace odin::core {

namespace {

/// Largest count the lockstep step takes: every position then lies below
/// 2^51 and converts exactly.
constexpr std::uint64_t kMaxLockstepCount = std::uint64_t{1} << 51;

/// Exact int64 -> double for 0 <= v < 2^52: place v in the mantissa of
/// 2^52, then subtract 2^52.
inline __m256d to_double(__m256i v) {
  const __m256i two52_bits = _mm256_set1_epi64x(0x4330000000000000);
  const __m256d two52 = _mm256_set1_pd(4503599627370496.0);
  return _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(v, two52_bits)),
                       two52);
}

inline __m256d mask_pd(__m256i m) { return _mm256_castsi256_pd(m); }
inline __m256i mask_si(__m256d m) { return _mm256_castpd_si256(m); }

/// One interior marker's P² nudge across the four lanes: QuantileSketch::
/// add's loop body for marker i, given the heights and positions of
/// markers i-1, i and i+1 and its desired position `want`. Inlined at
/// each of its three calls so the ten marker vectors stay in registers.
[[gnu::always_inline]] inline void nudge(__m256d want, __m256d q_lo,
                                         __m256d& q, __m256d q_hi,
                                         __m256i pos_lo, __m256i& pos,
                                         __m256i pos_hi) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d minus_one = _mm256_set1_pd(-1.0);
  const __m256i one_i = _mm256_set1_epi64x(1);
  const __m256d np = to_double(pos);
  const __m256d drift = _mm256_sub_pd(want, np);
  const __m256i below = _mm256_sub_epi64(pos, pos_lo);
  const __m256i above = _mm256_sub_epi64(pos_hi, pos);
  const __m256d rising = _mm256_cmp_pd(drift, one, _CMP_GE_OQ);
  const __m256d up =
      _mm256_and_pd(rising, mask_pd(_mm256_cmpgt_epi64(above, one_i)));
  const __m256d down =
      _mm256_and_pd(_mm256_cmp_pd(drift, minus_one, _CMP_LE_OQ),
                    mask_pd(_mm256_cmpgt_epi64(below, one_i)));
  const __m256d move = _mm256_or_pd(up, down);
  if (_mm256_movemask_pd(move) == 0) return;

  const __m256d nd = _mm256_blendv_pd(minus_one, one, rising);
  const __m256d np_lo = to_double(pos_lo);
  const __m256d np_hi = to_double(pos_hi);
  // q + nd / (np_hi - np_lo) *
  //     ((np - np_lo + nd) * (q_hi - q) / (np_hi - np) +
  //      (np_hi - np - nd) * (q - q_lo) / (np - np_lo))
  const __m256d hi_gap = _mm256_sub_pd(np_hi, np);
  const __m256d lo_gap = _mm256_sub_pd(np, np_lo);
  const __m256d a = _mm256_div_pd(
      _mm256_mul_pd(_mm256_add_pd(lo_gap, nd), _mm256_sub_pd(q_hi, q)),
      hi_gap);
  const __m256d b = _mm256_div_pd(
      _mm256_mul_pd(_mm256_sub_pd(hi_gap, nd), _mm256_sub_pd(q, q_lo)),
      lo_gap);
  __m256d cand = _mm256_add_pd(
      q, _mm256_mul_pd(_mm256_div_pd(nd, _mm256_sub_pd(np_hi, np_lo)),
                       _mm256_add_pd(a, b)));
  // The parabola would leave the markers unsorted: linear toward the
  // neighbour in the step's direction, q + nd * (q_d - q) / (np_d - np).
  const __m256d unsorted = _mm256_and_pd(
      move, _mm256_or_pd(_mm256_cmp_pd(cand, q_lo, _CMP_LE_OQ),
                         _mm256_cmp_pd(cand, q_hi, _CMP_GE_OQ)));
  if (_mm256_movemask_pd(unsorted) != 0) {
    const __m256d q_d = _mm256_blendv_pd(q_lo, q_hi, rising);
    const __m256d np_d = _mm256_blendv_pd(np_lo, np_hi, rising);
    const __m256d linear = _mm256_add_pd(
        q, _mm256_div_pd(_mm256_mul_pd(nd, _mm256_sub_pd(q_d, q)),
                         _mm256_sub_pd(np_d, np)));
    cand = _mm256_blendv_pd(cand, linear, unsorted);
  }
  q = _mm256_blendv_pd(q, cand, move);
  // pos += d: an all-ones lane mask is -1 as an integer.
  pos = _mm256_add_epi64(_mm256_sub_epi64(pos, mask_si(up)), mask_si(down));
}

}  // namespace

bool SojournSketch::add_lockstep_avx2(double x) noexcept {
  const std::uint64_t n = n_[0];
  if (n < 5 || n >= kMaxLockstepCount) return false;
  const auto load_pos = [this](std::size_t m) {
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(pos_[m].data()));
  };
  __m256i pos0 = load_pos(0), pos1 = load_pos(1), pos2 = load_pos(2),
          pos3 = load_pos(3), pos4 = load_pos(4);
  // Lockstep: every lane has count n and every position lies in [1, n].
  const __m256i nv = _mm256_set1_epi64x(static_cast<long long>(n));
  const __m256i one_i = _mm256_set1_epi64x(1);
  __m256i outside = _mm256_setzero_si256();
  for (const __m256i pos : {pos0, pos1, pos2, pos3, pos4})
    outside = _mm256_or_si256(
        outside, _mm256_or_si256(_mm256_cmpgt_epi64(one_i, pos),
                                 _mm256_cmpgt_epi64(pos, nv)));
  const __m256i same_count = _mm256_cmpeq_epi64(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(n_.data())), nv);
  const __m256i in_step = _mm256_andnot_si256(outside, same_count);
  if (_mm256_movemask_pd(mask_pd(in_step)) != 0xF) return false;

  const auto load_q = [this](std::size_t m) {
    return _mm256_loadu_pd(q_[m].data());
  };
  __m256d q0 = load_q(0), q1 = load_q(1), q2 = load_q(2), q3 = load_q(3),
          q4 = load_q(4);

  // Cell search, the scalar if-chain as masks: below0 selects the
  // `x < q0` arm; marker j shifts when an arm before its cell holds
  // (k == 0 for marker 1, k <= 1 for marker 2, k <= 2 for marker 3);
  // `q4 = x` is the arm reached when no compare holds.
  const __m256d xv = _mm256_set1_pd(x);
  const __m256d below0 = _mm256_cmp_pd(xv, q0, _CMP_LT_OQ);
  const __m256d shift1 =
      _mm256_or_pd(below0, _mm256_cmp_pd(xv, q1, _CMP_LT_OQ));
  const __m256d shift2 =
      _mm256_or_pd(shift1, _mm256_cmp_pd(xv, q2, _CMP_LT_OQ));
  const __m256d shift3 =
      _mm256_or_pd(shift2, _mm256_cmp_pd(xv, q3, _CMP_LT_OQ));
  const __m256d in_range =
      _mm256_or_pd(shift3, _mm256_cmp_pd(xv, q4, _CMP_LE_OQ));
  q0 = _mm256_blendv_pd(q0, xv, below0);
  q4 = _mm256_blendv_pd(xv, q4, in_range);
  pos1 = _mm256_sub_epi64(pos1, mask_si(shift1));
  pos2 = _mm256_sub_epi64(pos2, mask_si(shift2));
  pos3 = _mm256_sub_epi64(pos3, mask_si(shift3));
  pos4 = _mm256_add_epi64(pos4, one_i);

  // Desired positions 1 + (n - 1) * d with d = p/2, p, (1 + p)/2 at the
  // new count.
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d span = _mm256_set1_pd(static_cast<double>(n + 1) - 1.0);
  const __m256d p = _mm256_loadu_pd(p_.data());
  const auto want = [&](__m256d d) {
    return _mm256_add_pd(one, _mm256_mul_pd(span, d));
  };
  nudge(want(_mm256_div_pd(p, two)), q0, q1, q2, pos0, pos1, pos2);
  nudge(want(p), q1, q2, q3, pos1, pos2, pos3);
  nudge(want(_mm256_div_pd(_mm256_add_pd(one, p), two)), q2, q3, q4, pos2,
        pos3, pos4);

  _mm256_storeu_pd(q_[0].data(), q0);
  _mm256_storeu_pd(q_[1].data(), q1);
  _mm256_storeu_pd(q_[2].data(), q2);
  _mm256_storeu_pd(q_[3].data(), q3);
  _mm256_storeu_pd(q_[4].data(), q4);
  const auto store_pos = [this](std::size_t m, __m256i v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(pos_[m].data()), v);
  };
  store_pos(1, pos1);
  store_pos(2, pos2);
  store_pos(3, pos3);
  store_pos(4, pos4);
  n_.fill(n + 1);
  return true;
}

}  // namespace odin::core

#endif  // ODIN_HAVE_AVX2
