// AVX2 OU GEMM and ADC epilogue. This TU alone is compiled with -mavx2
// (and, like the other kernel TUs, -ffp-contract=off); ou_gemm and
// adc_epilogue only dispatch here after a runtime
// __builtin_cpu_supports("avx2") check.
//
// Vectorization is across the *batch* dimension: one ymm register holds
// the accumulators of 4 queries for one output column, and the r loop
// performs the same multiply-then-add per lane, in the same order, as
// the scalar kernel — which is what makes the result bitwise identical
// to sequential single-query calls (no horizontal reductions, no FMA).
#include "reram/batch_gemm.hpp"

#if defined(ODIN_HAVE_AVX2)

#include <immintrin.h>

#include <cmath>
#include <cstdlib>

namespace odin::reram::gemm {

namespace {

/// w(c, r) of the column starting at `col`; irtc = irt + c (spatial IR).
template <bool kSpatial>
inline __m256d weight(const double* col, const double* irtc, int r) {
  return _mm256_set1_pd(kSpatial ? col[r] * irtc[r] : col[r]);
}

inline __m256d mac(__m256d acc, __m256d x, __m256d w) {
  return _mm256_add_pd(acc, _mm256_mul_pd(x, w));
}

template <bool kSpatial>
void gemm_avx2(const double* in_t, int batch, int rows,
               const double* colbase, std::size_t col_stride, int cols,
               const double* irt, double* acc) {
  const std::size_t nb = static_cast<std::size_t>(batch);
  const int b8 = batch & ~7;  // 8-query register blocks
  const int b4 = batch & ~3;  // then at most one 4-query block
  auto column = [&](int c) {
    return colbase + static_cast<std::size_t>(c) * col_stride;
  };
  auto irt_of = [&](int c) { return kSpatial ? irt + c : nullptr; };
  auto x_at = [&](int r, int b0) {
    return _mm256_loadu_pd(in_t + static_cast<std::size_t>(r) * nb + b0);
  };
  auto acc_at = [&](int c, int b0) {
    return acc + static_cast<std::size_t>(c) * nb + b0;
  };
  // Query tail (batch % 4) of column c: scalar, same per-lane order.
  auto scalar_tail = [&](int c) {
    const double* col = column(c);
    const double* irtc = irt_of(c);
    for (int b = b4; b < batch; ++b) {
      double a = 0.0;
      for (int r = 0; r < rows; ++r) {
        const double w = kSpatial ? col[r] * irtc[r] : col[r];
        a += in_t[static_cast<std::size_t>(r) * nb + b] * w;
      }
      *acc_at(c, b) = a;
    }
  };

  int c0 = 0;
  for (; c0 + 4 <= cols; c0 += 4) {
    const double* k0 = column(c0);
    const double* k1 = column(c0 + 1);
    const double* k2 = column(c0 + 2);
    const double* k3 = column(c0 + 3);
    const double* i0 = irt_of(c0);
    const double* i1 = irt_of(c0 + 1);
    const double* i2 = irt_of(c0 + 2);
    const double* i3 = irt_of(c0 + 3);
    // Register block: 4 columns x 8 queries, two ymm per column; the two
    // input loads of row r serve all four columns.
    for (int b0 = 0; b0 < b8; b0 += 8) {
      __m256d a0l = _mm256_setzero_pd(), a0h = _mm256_setzero_pd();
      __m256d a1l = _mm256_setzero_pd(), a1h = _mm256_setzero_pd();
      __m256d a2l = _mm256_setzero_pd(), a2h = _mm256_setzero_pd();
      __m256d a3l = _mm256_setzero_pd(), a3h = _mm256_setzero_pd();
      for (int r = 0; r < rows; ++r) {
        const __m256d xl = x_at(r, b0);
        const __m256d xh = x_at(r, b0 + 4);
        const __m256d w0 = weight<kSpatial>(k0, i0, r);
        a0l = mac(a0l, xl, w0);
        a0h = mac(a0h, xh, w0);
        const __m256d w1 = weight<kSpatial>(k1, i1, r);
        a1l = mac(a1l, xl, w1);
        a1h = mac(a1h, xh, w1);
        const __m256d w2 = weight<kSpatial>(k2, i2, r);
        a2l = mac(a2l, xl, w2);
        a2h = mac(a2h, xh, w2);
        const __m256d w3 = weight<kSpatial>(k3, i3, r);
        a3l = mac(a3l, xl, w3);
        a3h = mac(a3h, xh, w3);
      }
      _mm256_storeu_pd(acc_at(c0, b0), a0l);
      _mm256_storeu_pd(acc_at(c0, b0 + 4), a0h);
      _mm256_storeu_pd(acc_at(c0 + 1, b0), a1l);
      _mm256_storeu_pd(acc_at(c0 + 1, b0 + 4), a1h);
      _mm256_storeu_pd(acc_at(c0 + 2, b0), a2l);
      _mm256_storeu_pd(acc_at(c0 + 2, b0 + 4), a2h);
      _mm256_storeu_pd(acc_at(c0 + 3, b0), a3l);
      _mm256_storeu_pd(acc_at(c0 + 3, b0 + 4), a3h);
    }
    if (b8 < b4) {
      __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
      __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
      for (int r = 0; r < rows; ++r) {
        const __m256d x = x_at(r, b8);
        a0 = mac(a0, x, weight<kSpatial>(k0, i0, r));
        a1 = mac(a1, x, weight<kSpatial>(k1, i1, r));
        a2 = mac(a2, x, weight<kSpatial>(k2, i2, r));
        a3 = mac(a3, x, weight<kSpatial>(k3, i3, r));
      }
      _mm256_storeu_pd(acc_at(c0, b8), a0);
      _mm256_storeu_pd(acc_at(c0 + 1, b8), a1);
      _mm256_storeu_pd(acc_at(c0 + 2, b8), a2);
      _mm256_storeu_pd(acc_at(c0 + 3, b8), a3);
    }
    for (int c = c0; c < c0 + 4; ++c) scalar_tail(c);
  }
  // Columns past the last full block of 4 (a partial OU tile), one at a
  // time.
  for (; c0 < cols; ++c0) {
    const double* k = column(c0);
    const double* ic = irt_of(c0);
    for (int b0 = 0; b0 < b8; b0 += 8) {
      __m256d al = _mm256_setzero_pd(), ah = _mm256_setzero_pd();
      for (int r = 0; r < rows; ++r) {
        const __m256d w = weight<kSpatial>(k, ic, r);
        al = mac(al, x_at(r, b0), w);
        ah = mac(ah, x_at(r, b0 + 4), w);
      }
      _mm256_storeu_pd(acc_at(c0, b0), al);
      _mm256_storeu_pd(acc_at(c0, b0 + 4), ah);
    }
    if (b8 < b4) {
      __m256d a = _mm256_setzero_pd();
      for (int r = 0; r < rows; ++r)
        a = mac(a, x_at(r, b8), weight<kSpatial>(k, ic, r));
      _mm256_storeu_pd(acc_at(c0, b8), a);
    }
    scalar_tail(c0);
  }
}

}  // namespace

void ou_gemm_avx2(const double* in_t, int batch, int rows,
                  const double* colbase, std::size_t col_stride, int cols,
                  const double* irt, double* acc) {
  if (irt != nullptr)
    gemm_avx2<true>(in_t, batch, rows, colbase, col_stride, cols, irt, acc);
  else
    gemm_avx2<false>(in_t, batch, rows, colbase, col_stride, cols, irt, acc);
}

namespace {

// quantize_adc, four lanes at a time. Each step is the scalar formula's
// operation on the same operands in the same order (vaddpd, vsubpd,
// vmulpd and vdivpd round like their scalar forms), so every lane is
// bitwise equal to the scalar result:
//  * std::clamp(v, -fs, fs) is min(fs, max(-fs, v)) in that operand
//    order: vmaxpd/vminpd return their second operand on NaN or a tie, so
//    NaN and -0.0 pass through as std::clamp passes them;
//  * when 2 fs is a power of two (every full OU tile of a power-of-two
//    height), y / (2 fs) is computed as y * (1 / (2 fs)): the reciprocal is
//    exact, so both are the correctly rounded value of the same real
//    number, and the divider is left to the second division alone;
//  * the code argument x = (clamped + fs) / (2 fs) * levels is >= +0 or
//    NaN, so std::round(x) = trunc(x) + (x - trunc(x) >= 0.5 ? 1 : 0),
//    with x - trunc(x) exact; a NaN fails the compare and stays NaN.
template <bool kPow2Span>
void adc_epilogue_lanes(const double* acc, std::size_t n, double factor,
                        double full_scale, int adc_bits, double* dst,
                        bool accumulate) {
  const double levels = static_cast<double>((1 << adc_bits) - 1);
  const __m256d vfactor = _mm256_set1_pd(factor);
  const __m256d hi = _mm256_set1_pd(full_scale);
  const __m256d lo = _mm256_set1_pd(-full_scale);
  const __m256d span = _mm256_set1_pd(kPow2Span ? 1.0 / (2 * full_scale)
                                                : 2 * full_scale);
  const __m256d vlevels = _mm256_set1_pd(levels);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_mul_pd(_mm256_loadu_pd(acc + i), vfactor);
    const __m256d clamped = _mm256_min_pd(hi, _mm256_max_pd(lo, v));
    const __m256d shifted = _mm256_add_pd(clamped, hi);
    const __m256d x = _mm256_mul_pd(kPow2Span ? _mm256_mul_pd(shifted, span)
                                              : _mm256_div_pd(shifted, span),
                                    vlevels);
    const __m256d whole =
        _mm256_round_pd(x, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256d up = _mm256_and_pd(
        _mm256_cmp_pd(_mm256_sub_pd(x, whole), half, _CMP_GE_OQ), one);
    const __m256d code = _mm256_add_pd(whole, up);
    const __m256d q = _mm256_sub_pd(
        _mm256_mul_pd(_mm256_mul_pd(_mm256_div_pd(code, vlevels), two), hi),
        hi);
    _mm256_storeu_pd(dst + i, accumulate
                                  ? _mm256_add_pd(_mm256_loadu_pd(dst + i), q)
                                  : q);
  }
  if (i < n)
    adc_epilogue_scalar(acc + i, n - i, factor, full_scale, adc_bits,
                        dst + i, accumulate);
}

}  // namespace

void adc_epilogue_avx2(const double* acc, std::size_t n, double factor,
                       double full_scale, int adc_bits, double* dst,
                       bool accumulate) {
  // A power of two whose reciprocal is a normal double.
  int exponent = 0;
  if (std::frexp(2 * full_scale, &exponent) == 0.5 &&
      std::abs(exponent) < 1000)
    adc_epilogue_lanes<true>(acc, n, factor, full_scale, adc_bits, dst,
                             accumulate);
  else
    adc_epilogue_lanes<false>(acc, n, factor, full_scale, adc_bits, dst,
                              accumulate);
}

}  // namespace odin::reram::gemm

#endif  // ODIN_HAVE_AVX2
