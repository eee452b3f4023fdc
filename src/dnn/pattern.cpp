#include "dnn/pattern.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace odin::dnn {

WeightPattern::WeightPattern(int rows, int cols)
    : rows_(rows),
      cols_(cols),
      words_per_row_(static_cast<std::size_t>((cols + 63) / 64)),
      words_(static_cast<std::size_t>(rows) * words_per_row_, 0) {
  assert(rows > 0 && cols > 0);
}

void WeightPattern::set(int r, int c) noexcept {
  assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  std::uint64_t& w = words_[word_index(r, c)];
  const std::uint64_t bit = 1ULL << (c & 63);
  if (!(w & bit)) {
    w |= bit;
    ++nonzeros_;
  }
}

void WeightPattern::clear(int r, int c) noexcept {
  assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  std::uint64_t& w = words_[word_index(r, c)];
  const std::uint64_t bit = 1ULL << (c & 63);
  if (w & bit) {
    w &= ~bit;
    --nonzeros_;
  }
}

bool WeightPattern::test(int r, int c) const noexcept {
  assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  return (words_[word_index(r, c)] >> (c & 63)) & 1ULL;
}

std::span<std::uint64_t> WeightPattern::row_words(int r) noexcept {
  assert(r >= 0 && r < rows_);
  return {words_.data() + word_index(r, 0), words_per_row_};
}

std::span<const std::uint64_t> WeightPattern::row_words(int r) const noexcept {
  assert(r >= 0 && r < rows_);
  return {words_.data() + word_index(r, 0), words_per_row_};
}

void WeightPattern::recount() noexcept {
  nonzeros_ = 0;
  for (const std::uint64_t w : words_) nonzeros_ += std::popcount(w);
}

double WeightPattern::sparsity() const noexcept {
  const double total = static_cast<double>(rows_) * cols_;
  return total > 0 ? 1.0 - static_cast<double>(nonzeros_) / total : 0.0;
}

namespace {

/// Mask selecting bit positions [lo, hi) of a 64-bit word.
constexpr std::uint64_t range_mask(int lo, int hi) noexcept {
  const std::uint64_t upper =
      hi >= 64 ? ~0ULL : ((1ULL << hi) - 1);
  const std::uint64_t lower = (1ULL << lo) - 1;
  return upper & ~lower;
}

}  // namespace

bool WeightPattern::block_live(int r0, int c0, int h, int w) const noexcept {
  const int r1 = std::min(r0 + h, rows_);
  const int c1 = std::min(c0 + w, cols_);
  if (r0 >= r1 || c0 >= c1) return false;
  const int word_lo = c0 >> 6;
  const int word_hi = (c1 - 1) >> 6;
  for (int r = r0; r < r1; ++r) {
    const std::size_t base = static_cast<std::size_t>(r) * words_per_row_;
    for (int wi = word_lo; wi <= word_hi; ++wi) {
      const int lo = wi == word_lo ? (c0 & 63) : 0;
      const int hi = wi == word_hi ? ((c1 - 1) & 63) + 1 : 64;
      if (words_[base + static_cast<std::size_t>(wi)] & range_mask(lo, hi))
        return true;
    }
  }
  return false;
}

std::int64_t WeightPattern::block_nonzeros(int r0, int c0, int h,
                                           int w) const noexcept {
  const int r1 = std::min(r0 + h, rows_);
  const int c1 = std::min(c0 + w, cols_);
  if (r0 >= r1 || c0 >= c1) return 0;
  const int word_lo = c0 >> 6;
  const int word_hi = (c1 - 1) >> 6;
  std::int64_t count = 0;
  for (int r = r0; r < r1; ++r) {
    const std::size_t base = static_cast<std::size_t>(r) * words_per_row_;
    for (int wi = word_lo; wi <= word_hi; ++wi) {
      const int lo = wi == word_lo ? (c0 & 63) : 0;
      const int hi = wi == word_hi ? ((c1 - 1) & 63) + 1 : 64;
      count += std::popcount(
          words_[base + static_cast<std::size_t>(wi)] & range_mask(lo, hi));
    }
  }
  return count;
}

}  // namespace odin::dnn
