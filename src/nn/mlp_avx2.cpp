// AVX2 products of the MLP training step. This TU alone is compiled with
// -mavx2 (and -ffp-contract=off, so a multiply and an add never fuse);
// MultiHeadMlp only calls it when common::active_simd_mode() selects AVX2,
// which it does only after a runtime __builtin_cpu_supports("avx2") check.
// It includes no header with inline library code, so no AVX2 copy of such
// code can stand in for the portable one at link time.
//
// Each product is computed in register tiles of up to 4 rows by 8 output
// columns (two ymm); a tile's accumulators stay in registers across its
// whole sum and are stored once. Within a tile every output element adds
// its terms in the row kernels' order, so the tiling changes no bit:
//  * forward: tile = batch rows x output columns, summed over k ascending;
//  * weight gradient: tile = input features x output columns, summed over
//    the batch rows ascending;
//  * input gradient: tile = batch rows x input features, summed over the
//    output columns ascending, over the transposed weight.
// The row kernels skip a term whose activation is exactly zero; here the
// term is ANDed with the mask x != 0 instead (unordered, so a NaN x keeps
// its term). A masked term adds +0.0, and a sum started at +0.0 is never
// -0.0, so adding it leaves the sum as the skip would. The mask, not a
// multiply by zero, is what keeps 0 * inf = NaN out.
#include "nn/mlp_avx2.hpp"

#if defined(ODIN_HAVE_AVX2)

#include <immintrin.h>

namespace odin::nn::avx2 {

namespace {

constexpr std::size_t kTileRows = 4;  ///< rows of a register tile
constexpr std::size_t kTileCols = 8;  ///< columns of a register tile

/// The first n lanes of a ymm, n in [1, 4].
inline __m256i first_lanes(std::size_t n) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(n)),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

/// Vector v of the V-vector block at p. With kTail the block's last vector
/// only holds the lanes of `tail`: it is read through the mask (the other
/// lanes read as +0.0), so a row's end is never read past.
template <int V, bool kTail>
inline __m256d load(const double* p, int v, __m256i tail) {
  if (kTail && v == V - 1) return _mm256_maskload_pd(p + 4 * v, tail);
  return _mm256_loadu_pd(p + 4 * v);
}

template <int V, bool kTail>
inline void store(double* p, int v, __m256d x, __m256i tail) {
  if (kTail && v == V - 1)
    _mm256_maskstore_pd(p + 4 * v, tail, x);
  else
    _mm256_storeu_pd(p + 4 * v, x);
}

/// The lanes where x != 0; unordered, so NaN lanes are set.
inline __m256d nonzero(__m256d x) {
  return _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_NEQ_UQ);
}

/// acc + (x * w where mask, else +0.0).
inline __m256d add_masked(__m256d acc, __m256d x, __m256d mask, __m256d w) {
  return _mm256_add_pd(acc, _mm256_and_pd(_mm256_mul_pd(x, w), mask));
}

/// Register tiles of R rows by V vectors; the tail of the rows is a
/// smaller R, at most kTileRows - 1.
template <int V, bool kTail, class Tile>
void row_tiles(std::size_t m, std::size_t j0, __m256i tail,
               const Tile& tile) {
  std::size_t i0 = 0;
  for (; i0 + kTileRows <= m; i0 += kTileRows)
    tile.template run<4, V, kTail>(i0, j0, tail);
  switch (m - i0) {
    case 3: tile.template run<3, V, kTail>(i0, j0, tail); break;
    case 2: tile.template run<2, V, kTail>(i0, j0, tail); break;
    case 1: tile.template run<1, V, kTail>(i0, j0, tail); break;
    default: break;
  }
}

/// Covers an m x n output with tile.run<R, V, kTail>(i0, j0, tail) calls:
/// column blocks of kTileCols outermost, so one block of a wide weight
/// stays in cache across all row tiles; the last block is 1 or 2 vectors,
/// its last one partial (kTail, `tail` lanes) when n is no multiple of 4.
template <class Tile>
void tile_over(std::size_t m, std::size_t n, const Tile& tile) {
  const __m256i all = _mm256_set1_epi64x(-1);
  std::size_t j0 = 0;
  for (; j0 + kTileCols <= n; j0 += kTileCols)
    row_tiles<2, false>(m, j0, all, tile);
  const std::size_t rest = n - j0;
  if (rest > 4)
    row_tiles<2, true>(m, j0, first_lanes(rest - 4), tile);
  else if (rest == 4)
    row_tiles<1, false>(m, j0, all, tile);
  else if (rest > 0)
    row_tiles<1, true>(m, j0, first_lanes(rest), tile);
}

struct ForwardTile {
  const double* x;
  std::size_t in;
  const double* w;
  const double* bias;
  std::size_t out;
  bool relu;
  double* y;

  template <int R, int V, bool kTail>
  void run(std::size_t r0, std::size_t j0, __m256i tail) const {
    const __m256d zero = _mm256_setzero_pd();
    __m256d acc[R][V];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) acc[r][v] = zero;
    const double* xr = x + r0 * in;
    for (std::size_t k = 0; k < in; ++k) {
      __m256d wk[V];
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v)
        wk[v] = load<V, kTail>(w + k * out + j0, v, tail);
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        const __m256d xv = _mm256_broadcast_sd(xr + r * in + k);
        const __m256d mask = nonzero(xv);
#pragma GCC unroll 2
        for (int v = 0; v < V; ++v)
          acc[r][v] = add_masked(acc[r][v], xv, mask, wk[v]);
      }
    }
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      const __m256d b = load<V, kTail>(bias + j0, v, tail);
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        __m256d z = _mm256_add_pd(acc[r][v], b);
        // max(+0.0, z) is z < 0 ? +0.0 : z, NaN included: maxpd returns
        // its second operand unless the first is greater.
        if (relu) z = _mm256_max_pd(zero, z);
        store<V, kTail>(y + (r0 + r) * out + j0, v, z, tail);
      }
    }
  }
};

struct WeightGradTile {
  const double* x;
  std::size_t rows;
  std::size_t in;
  const double* g;
  std::size_t out;
  double* dw;

  template <int K, int V, bool kTail>
  void run(std::size_t k0, std::size_t j0, __m256i tail) const {
    __m256d acc[K][V];
#pragma GCC unroll 4
    for (int k = 0; k < K; ++k)
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) acc[k][v] = _mm256_setzero_pd();
    for (std::size_t r = 0; r < rows; ++r) {
      __m256d gr[V];
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v)
        gr[v] = load<V, kTail>(g + r * out + j0, v, tail);
      const double* xr = x + r * in + k0;
#pragma GCC unroll 4
      for (int k = 0; k < K; ++k) {
        const __m256d xv = _mm256_broadcast_sd(xr + k);
        const __m256d mask = nonzero(xv);
#pragma GCC unroll 2
        for (int v = 0; v < V; ++v)
          acc[k][v] = add_masked(acc[k][v], xv, mask, gr[v]);
      }
    }
#pragma GCC unroll 4
    for (int k = 0; k < K; ++k)
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v)
        store<V, kTail>(dw + (k0 + k) * out + j0, v, acc[k][v], tail);
  }
};

struct InputGradTile {
  const double* g;
  std::size_t out;
  const double* wt;
  std::size_t in;
  bool accumulate;
  double* dx;

  template <int R, int V, bool kTail>
  void run(std::size_t r0, std::size_t i0, __m256i tail) const {
    __m256d acc[R][V];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_pd();
    const double* gr = g + r0 * out;
    for (std::size_t j = 0; j < out; ++j) {
      __m256d wj[V];
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v)
        wj[v] = load<V, kTail>(wt + j * in + i0, v, tail);
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        const __m256d gv = _mm256_broadcast_sd(gr + r * out + j);
#pragma GCC unroll 2
        for (int v = 0; v < V; ++v)
          acc[r][v] = _mm256_add_pd(acc[r][v], _mm256_mul_pd(gv, wj[v]));
      }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      double* d = dx + (r0 + r) * in + i0;
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) {
        __m256d s = acc[r][v];
        if (accumulate) s = _mm256_add_pd(load<V, kTail>(d, v, tail), s);
        store<V, kTail>(d, v, s, tail);
      }
    }
  }
};

}  // namespace

void dense_forward(const double* x, std::size_t rows, std::size_t in,
                   const double* w, const double* bias, std::size_t out,
                   bool relu, double* y) noexcept {
  tile_over(rows, out, ForwardTile{x, in, w, bias, out, relu, y});
}

void dense_weight_grad(const double* x, std::size_t rows, std::size_t in,
                       const double* g, std::size_t out, double* dw,
                       double* db) noexcept {
  tile_over(in, out, WeightGradTile{x, rows, in, g, out, dw});
  std::size_t j = 0;
  for (; j + 4 <= out; j += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t r = 0; r < rows; ++r)
      acc = _mm256_add_pd(acc, _mm256_loadu_pd(g + r * out + j));
    _mm256_storeu_pd(db + j, acc);
  }
  if (j == out) return;
  const __m256i tail = first_lanes(out - j);
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t r = 0; r < rows; ++r)
    acc = _mm256_add_pd(acc, _mm256_maskload_pd(g + r * out + j, tail));
  _mm256_maskstore_pd(db + j, tail, acc);
}

void dense_input_grad(const double* g, std::size_t rows, std::size_t out,
                      const double* wt, std::size_t in, bool accumulate,
                      double* dx) noexcept {
  tile_over(rows, in, InputGradTile{g, out, wt, in, accumulate, dx});
}

}  // namespace odin::nn::avx2

#endif  // ODIN_HAVE_AVX2
