#include "nn/tensor.hpp"

namespace odin::nn {

Matrix Matrix::randn(std::size_t rows, std::size_t cols, double stddev,
                     common::Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.normal(0.0, stddev);
  return m;
}

void transpose_into(const Matrix& b, double* out) noexcept {
  for (std::size_t r = 0; r < b.rows(); ++r)
    for (std::size_t c = 0; c < b.cols(); ++c) out[c * b.rows() + r] = b(r, c);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix out(a.rows(), b.cols());
  std::vector<std::uint32_t> idx(a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const std::size_t n = nonzero_indices(a.row(i), idx.data());
    accumulate_rows(a.row(i), {idx.data(), n}, b.flat().data(), b.cols(),
                    out.row(i));
  }
  return out;
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix out(a.cols(), b.cols());
  std::vector<std::uint32_t> idx(a.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const std::size_t n = nonzero_indices(a.row(k), idx.data());
    accumulate_outer(a.row(k), {idx.data(), n}, b.row(k), out.flat().data(),
                     out.cols());
  }
  return out;
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  Matrix out(a.rows(), b.rows());
  std::vector<double> bt(b.size());
  transpose_into(b, bt.data());
  std::vector<std::uint32_t> idx(a.cols());
  all_indices(a.cols(), idx.data());
  for (std::size_t i = 0; i < a.rows(); ++i)
    accumulate_rows(a.row(i), idx, bt.data(), b.rows(), out.row(i));
  return out;
}

void axpy(double alpha, const Matrix& x, Matrix& y) {
  assert(x.rows() == y.rows() && x.cols() == y.cols());
  auto xs = x.flat();
  auto ys = y.flat();
  for (std::size_t i = 0; i < xs.size(); ++i) ys[i] += alpha * xs[i];
}

}  // namespace odin::nn
