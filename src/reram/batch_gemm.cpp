#include "reram/batch_gemm.hpp"

#include <atomic>
#include <cstdio>
#include <cstring>

#include "common/env.hpp"

namespace odin::reram::gemm {

namespace {

/// Active dispatch mode; -1 = not yet resolved from ODIN_SIMD.
std::atomic<int> g_mode{-1};

}  // namespace

const char* simd_mode_name(SimdMode mode) noexcept {
  return mode == SimdMode::kAvx2 ? "avx2" : "scalar";
}

bool avx2_available() noexcept {
#if defined(ODIN_HAVE_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool parse_simd_mode(const char* text, SimdMode& out) noexcept {
  if (text == nullptr) return false;
  if (std::strcmp(text, "scalar") == 0) {
    out = SimdMode::kScalar;
    return true;
  }
  if (std::strcmp(text, "avx2") == 0) {
    out = SimdMode::kAvx2;
    return true;
  }
  return false;
}

SimdMode default_simd_mode() noexcept {
  return avx2_available() ? SimdMode::kAvx2 : SimdMode::kScalar;
}

SimdMode simd_mode_from_env() noexcept {
  const char* env = common::env_string("ODIN_SIMD");
  if (env == nullptr) return default_simd_mode();
  SimdMode mode;
  if (!parse_simd_mode(env, mode)) {
    std::fprintf(stderr,
                 "odin: ignoring ODIN_SIMD='%s' (want avx2|scalar); "
                 "using default\n",
                 env);
    return default_simd_mode();
  }
  if (mode == SimdMode::kAvx2 && !avx2_available()) {
    std::fprintf(stderr,
                 "odin: ODIN_SIMD=avx2 requested but AVX2 is unavailable; "
                 "using scalar\n");
    return SimdMode::kScalar;
  }
  return mode;
}

SimdMode active_simd_mode() noexcept {
  int mode = g_mode.load(std::memory_order_relaxed);
  if (mode < 0) {
    mode = static_cast<int>(simd_mode_from_env());
    g_mode.store(mode, std::memory_order_relaxed);
  }
  return static_cast<SimdMode>(mode);
}

void set_simd_mode(SimdMode mode) noexcept {
  if (mode == SimdMode::kAvx2 && !avx2_available()) mode = SimdMode::kScalar;
  g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

void ou_gemm_scalar(const double* in_t, int batch, int rows,
                    const double* colbase, std::size_t col_stride, int cols,
                    const double* irt, double* acc) {
  for (int c = 0; c < cols; ++c) {
    const double* col = colbase + static_cast<std::size_t>(c) * col_stride;
    const double* irtc = irt != nullptr ? irt + c : nullptr;
    double* accc = acc + static_cast<std::size_t>(c) * batch;
    for (int b = 0; b < batch; ++b) accc[b] = 0.0;
    for (int r = 0; r < rows; ++r) {
      const double w = irtc != nullptr ? col[r] * irtc[r] : col[r];
      const double* inr = in_t + static_cast<std::size_t>(r) * batch;
      for (int b = 0; b < batch; ++b) accc[b] += inr[b] * w;
    }
  }
}

void adc_epilogue_scalar(const double* acc, std::size_t n, double factor,
                         double full_scale, int adc_bits, double* dst,
                         bool accumulate) {
  for (std::size_t i = 0; i < n; ++i) {
    const double q = quantize_adc(acc[i] * factor, full_scale, adc_bits);
    dst[i] = accumulate ? dst[i] + q : q;
  }
}

void adc_epilogue(const double* acc, std::size_t n, double factor,
                  double full_scale, int adc_bits, double* dst,
                  bool accumulate) {
#if defined(ODIN_HAVE_AVX2)
  if (active_simd_mode() == SimdMode::kAvx2) {
    adc_epilogue_avx2(acc, n, factor, full_scale, adc_bits, dst, accumulate);
    return;
  }
#endif
  adc_epilogue_scalar(acc, n, factor, full_scale, adc_bits, dst, accumulate);
}

void ou_gemm(const double* in_t, int batch, int rows, const double* colbase,
             std::size_t col_stride, int cols, const double* irt,
             double* acc) {
#if defined(ODIN_HAVE_AVX2)
  if (active_simd_mode() == SimdMode::kAvx2) {
    ou_gemm_avx2(in_t, batch, rows, colbase, col_stride, cols, irt, acc);
    return;
  }
#endif
  ou_gemm_scalar(in_t, batch, rows, colbase, col_stride, cols, irt, acc);
}

}  // namespace odin::reram::gemm
