// The AVX2 body of MultiHeadMlp's five products (DESIGN.md §19), private to
// odin_nn. Defined in mlp_avx2.cpp, the one TU built with -mavx2; call only
// when common::active_simd_mode() is kAvx2.
//
// Every matrix is dense and row-major with its width as the row stride.
// Each output element sums its terms in the order the row kernels of
// nn/tensor.hpp do, from +0.0, with separate multiply and add, so the
// results are theirs bit for bit. Widths are run-time values: no shape is
// special, and a row's tail is read and written through lane masks, never
// past its end. Each product writes only the output columns [j0, j1) it is
// given, so disjoint column ranges may run on different threads.
#pragma once

#include <cstddef>

namespace odin::nn::avx2 {

/// y[r][j] = (sum over k ascending of [x[r][k] != 0] x[r][k] w[k][j]) +
/// bias[j], then max(+0.0, .) when `relu`, for j in [j0, j1). x is
/// [rows x in], w [in x out], y [rows x out]. A NaN x counts as nonzero.
void dense_forward(const double* x, std::size_t rows, std::size_t in,
                   const double* w, const double* bias, std::size_t out,
                   bool relu, std::size_t j0, std::size_t j1,
                   double* y) noexcept;

/// Overwrites dw[k][j] [in x out] with sum over rows r ascending of
/// [x[r][k] != 0] x[r][k] g[r][j], and db[j] with sum over r of g[r][j],
/// for j in [j0, j1).
void dense_weight_grad(const double* x, std::size_t rows, std::size_t in,
                       const double* g, std::size_t out, std::size_t j0,
                       std::size_t j1, double* dw, double* db) noexcept;

/// s[r][i] = sum over j ascending of g[r][j] wt[j][i], every term kept;
/// writes dx[r][i] = s, or dx[r][i] + s when `accumulate`, for i in
/// [i0, i1). g is [rows x out], wt [out x in] (the transposed weight), dx
/// [rows x in].
void dense_input_grad(const double* g, std::size_t rows, std::size_t out,
                      const double* wt, std::size_t in, bool accumulate,
                      std::size_t i0, std::size_t i1, double* dx) noexcept;

}  // namespace odin::nn::avx2
