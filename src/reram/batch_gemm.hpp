// Batched OU inner kernel: a register-blocked GEMM over the column-major
// weight plane and the ADC epilogue that quantizes its accumulators, each
// with an explicit AVX2 implementation and a portable scalar one, picked
// by the common/simd switch.
//
// Contract (DESIGN.md §14): for a batch of B queries packed transposed
// (`in_t[r * batch + b]` = element r of query b), the kernel computes
//
//   acc[c * batch + b] = sum_r in_t[r * batch + b] * w(c, r)
//
// where column c of the plane starts at `colbase + c * col_stride` and
//   w(c, r) = col_c[r]                  (irt == nullptr, lumped IR)
//   w(c, r) = col_c[r] * irt[c + r]     (irt != nullptr, spatial IR)
//
// Every implementation zeroes `acc` first, forms w exactly as the
// single-query kernel does (one multiply), and accumulates each query
// lane in strictly increasing r order with separate multiply and add
// (no FMA contraction; the kernel TUs build with -ffp-contract=off).
// Because IEEE-754 arithmetic is deterministic per lane, the batched
// result is bitwise identical to B sequential single-query dot products
// regardless of batch size or instruction set — pinned by
// tests/test_mvm_kernel.cpp.
//
// The epilogue applies quantize_adc to each accumulator; its AVX2 body
// rounds every operation as the scalar formula does (DESIGN.md §14).
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>

#include "common/simd.hpp"

namespace odin::reram::gemm {

// The dispatch switch lives in common/simd. perfbench/main.cpp still names
// these three through reram::gemm; the using-declarations go when a
// benchmark change next edits that file.
using common::active_simd_mode;
using common::simd_mode_name;
using common::SimdMode;

/// The bipolar ADC of one OU column: the differential column current
/// spans [-full_scale, +full_scale], and `value` is clamped to it, rounded
/// to one of 2^adc_bits - 1 levels and returned as that level's value.
inline double quantize_adc(double value, double full_scale, int adc_bits) {
  assert(adc_bits >= 1 && full_scale > 0.0);
  const double levels = static_cast<double>((1 << adc_bits) - 1);
  const double clamped = std::clamp(value, -full_scale, full_scale);
  const double code = std::round((clamped + full_scale) / (2 * full_scale) *
                                 levels);
  return code / levels * 2 * full_scale - full_scale;
}

/// ADC epilogue over n accumulators: q_i = quantize_adc(acc[i] * factor,
/// full_scale, adc_bits). Writes dst[i] = q_i, or dst[i] += q_i when
/// `accumulate`; dst may be acc itself.
void adc_epilogue(const double* acc, std::size_t n, double factor,
                  double full_scale, int adc_bits, double* dst,
                  bool accumulate);

/// Portable epilogue (always compiled).
void adc_epilogue_scalar(const double* acc, std::size_t n, double factor,
                         double full_scale, int adc_bits, double* dst,
                         bool accumulate);

/// AVX2 epilogue, 4 accumulators per ymm register; only defined when the
/// toolchain supports -mavx2 (go through adc_epilogue).
void adc_epilogue_avx2(const double* acc, std::size_t n, double factor,
                       double full_scale, int adc_bits, double* dst,
                       bool accumulate);

/// Dispatching entry point (see the contract above).
void ou_gemm(const double* in_t, int batch, int rows, const double* colbase,
             std::size_t col_stride, int cols, const double* irt, double* acc);

/// Portable implementation (always compiled).
void ou_gemm_scalar(const double* in_t, int batch, int rows,
                    const double* colbase, std::size_t col_stride, int cols,
                    const double* irt, double* acc);

/// AVX2 implementation; only defined when the toolchain supports -mavx2
/// (never call directly — go through ou_gemm / common::set_simd_mode).
void ou_gemm_avx2(const double* in_t, int batch, int rows,
                  const double* colbase, std::size_t col_stride, int cols,
                  const double* irt, double* acc);

}  // namespace odin::reram::gemm
