#include "reram/batch_gemm.hpp"

namespace odin::reram::gemm {

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
  if (common::active_simd_mode() == common::SimdMode::kAvx2) {
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
  if (common::active_simd_mode() == common::SimdMode::kAvx2) {
    ou_gemm_avx2(in_t, batch, rows, colbase, col_stride, cols, irt, acc);
    return;
  }
#endif
  ou_gemm_scalar(in_t, batch, rows, colbase, col_stride, cols, irt, acc);
}

}  // namespace odin::reram::gemm
