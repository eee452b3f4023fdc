// WeightPattern: the zero/non-zero mask of a layer's lowered weight matrix.
//
// OU-based computation skips an R x C operation-unit block whose weights are
// all zero; everything the OU mapper and cost models need from the pruned
// network is therefore this bit pattern, not the weight values. One bit per
// weight keeps even ResNet50-scale layers at a few megabytes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace odin::dnn {

class WeightPattern {
 public:
  WeightPattern() = default;
  /// rows = fan_in, cols = outputs of the lowered weight matrix.
  WeightPattern(int rows, int cols);

  int rows() const noexcept { return rows_; }
  int cols() const noexcept { return cols_; }

  void set(int r, int c) noexcept;
  void clear(int r, int c) noexcept;
  bool test(int r, int c) const noexcept;

  std::int64_t nonzeros() const noexcept { return nonzeros_; }
  double sparsity() const noexcept;

  /// Row r's mask words: column c is bit (c & 63) of word (c >> 6). Writing
  /// them directly lets rows be filled concurrently, one row per task;
  /// nonzeros() is stale until recount().
  std::span<std::uint64_t> row_words(int r) noexcept;
  std::span<const std::uint64_t> row_words(int r) const noexcept;

  /// Recompute nonzeros() from the words after row_words() writes.
  void recount() noexcept;

  bool operator==(const WeightPattern&) const = default;

  /// True iff the rectangle [r0, r0+h) x [c0, c0+w) contains at least one
  /// non-zero weight (rectangle clipped to the matrix bounds).
  bool block_live(int r0, int c0, int h, int w) const noexcept;

  /// Non-zero count in the clipped rectangle.
  std::int64_t block_nonzeros(int r0, int c0, int h, int w) const noexcept;

 private:
  std::size_t word_index(int r, int c) const noexcept {
    return static_cast<std::size_t>(r) * words_per_row_ +
           static_cast<std::size_t>(c >> 6);
  }

  int rows_ = 0;
  int cols_ = 0;
  std::size_t words_per_row_ = 0;
  std::int64_t nonzeros_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace odin::dnn
