// Dense row-major matrix — the only tensor shape the from-scratch NN engine
// needs. Deliberately minimal: contiguous storage, bounds-checked element
// access in debug builds, and the handful of BLAS-1/2/3 kernels the MLP
// trainer uses. No expression templates, no views; clarity over cleverness.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace odin::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix randn(std::size_t rows, std::size_t cols, double stddev,
                      common::Rng& rng);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r) noexcept {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const noexcept {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  std::span<double> flat() noexcept { return data_; }
  std::span<const double> flat() const noexcept { return data_; }

  void fill(double v) noexcept { data_.assign(data_.size(), v); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// out = a * b  (dims: [m x k] * [k x n] -> [m x n])
Matrix matmul(const Matrix& a, const Matrix& b);

/// out = a^T * b  (dims: [k x m]^T * [k x n] -> [m x n])
Matrix matmul_at_b(const Matrix& a, const Matrix& b);

/// out = a * b^T  (dims: [m x k] * [n x k]^T -> [m x n])
Matrix matmul_a_bt(const Matrix& a, const Matrix& b);

/// Writes b^T ([b.cols() x b.rows()], row-major) into `out`, so a product
/// against b^T can stream rows.
void transpose_into(const Matrix& b, double* out) noexcept;

// --- Row kernels -------------------------------------------------------------
// The three products above and the scalar body of the MultiHeadMlp training
// step are all built from these, writing into caller storage. Each output element accumulates
// its terms in ascending index order onto the value already there, so a
// zeroed output reproduces "start from +0.0, add a[k] * b[k] for k = 0, 1,
// ..." bit for bit. Loops run across independent outputs only. They are
// inline because the MLP calls them per batch row: for its 4-16-(6,6)
// policy a call's set-up costs as much as its arithmetic.

/// Writes the ascending indices k with a[k] != 0.0 into `idx` (NaN counts
/// as nonzero) and returns their count; `idx` holds at least a.size().
/// Branch-free, because about half of a ReLU trunk is dead and a per-element
/// test mispredicts. Skipping exact zeros is not only a saving: 0 * inf
/// would put a NaN into the sum.
inline std::size_t nonzero_indices(std::span<const double> a,
                                   std::uint32_t* idx) noexcept {
  std::size_t count = 0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    idx[count] = static_cast<std::uint32_t>(k);
    count += a[k] != 0.0;
  }
  return count;
}

/// Writes 0, 1, ..., n - 1 into `idx`: the index list that skips nothing.
inline void all_indices(std::size_t n, std::uint32_t* idx) noexcept {
  for (std::size_t k = 0; k < n; ++k) idx[k] = static_cast<std::uint32_t>(k);
}

namespace detail {

// accumulate_rows over W adjacent outputs, held in registers across the
// whole index list.
template <std::size_t W>
inline void accumulate_block(const double* a,
                             std::span<const std::uint32_t> ks,
                             const double* b, std::size_t ldb,
                             double* out) noexcept {
  double acc[W];
  for (std::size_t j = 0; j < W; ++j) acc[j] = out[j];
  for (const std::uint32_t k : ks) {
    const double s = a[k];
    const double* row = b + k * ldb;
    for (std::size_t j = 0; j < W; ++j) acc[j] += s * row[j];
  }
  for (std::size_t j = 0; j < W; ++j) out[j] = acc[j];
}

}  // namespace detail

/// out += sum over the listed k, in list order, of a[k] * (row k of b).
/// b is row-major with row stride `ldb` and at least out.size() columns.
inline void accumulate_rows(std::span<const double> a,
                            std::span<const std::uint32_t> ks,
                            const double* b, std::size_t ldb,
                            std::span<double> out) noexcept {
  const std::size_t n = out.size();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8)
    detail::accumulate_block<8>(a.data(), ks, b + j, ldb, out.data() + j);
  const double* bj = b + j;
  double* oj = out.data() + j;
  switch (n - j) {
    case 7: detail::accumulate_block<7>(a.data(), ks, bj, ldb, oj); break;
    case 6: detail::accumulate_block<6>(a.data(), ks, bj, ldb, oj); break;
    case 5: detail::accumulate_block<5>(a.data(), ks, bj, ldb, oj); break;
    case 4: detail::accumulate_block<4>(a.data(), ks, bj, ldb, oj); break;
    case 3: detail::accumulate_block<3>(a.data(), ks, bj, ldb, oj); break;
    case 2: detail::accumulate_block<2>(a.data(), ks, bj, ldb, oj); break;
    case 1: detail::accumulate_block<1>(a.data(), ks, bj, ldb, oj); break;
    default: break;
  }
}

/// (row k of c) += a[k] * g for each listed k: the outer product a (x) g
/// restricted to the listed rows. c has row stride `ldc`.
inline void accumulate_outer(std::span<const double> a,
                             std::span<const std::uint32_t> ks,
                             std::span<const double> g, double* c,
                             std::size_t ldc) noexcept {
  const double* __restrict x = g.data();
  const std::size_t n = g.size();
  for (const std::uint32_t k : ks) {
    const double s = a[k];
    double* __restrict row = c + k * ldc;
    for (std::size_t j = 0; j < n; ++j) row[j] += s * x[j];
  }
}

/// y += alpha * x, elementwise over equal-shaped matrices.
void axpy(double alpha, const Matrix& x, Matrix& y);

}  // namespace odin::nn
