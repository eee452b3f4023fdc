// Golden bitwise-equivalence tests for the plane-based MVM kernel
// (DESIGN.md §11): the restructured hot path must reproduce the original
// per-cell kernel (tests/reference_kernel.hpp) bit for bit across OU
// shapes, IR models, heterogeneous drift and fault-injected arrays — plus
// the cache-invalidation and zero-allocation guarantees the restructuring
// introduced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "allocation_counter.hpp"
#include "common/rng.hpp"
#include "core/hardware_inference.hpp"
#include "nn/train.hpp"
#include "reference_kernel.hpp"
#include "reram/batch_gemm.hpp"
#include "reram/crossbar.hpp"

namespace odin::reram {
namespace {

constexpr int kSize = 128;
constexpr int kLiveRows = 112;  // partial tiles on both axes
constexpr int kLiveCols = 96;
constexpr int kAdcBits = 6;

struct OuShape {
  int rows;
  int cols;
};
constexpr OuShape kShapes[] = {{4, 4}, {8, 4}, {16, 16}, {64, 64}};

std::vector<double> random_block(std::uint64_t seed, int rows, int cols) {
  common::Rng rng(seed);
  std::vector<double> w(static_cast<std::size_t>(rows) * cols);
  for (double& v : w)
    v = rng.bernoulli(0.4) ? rng.uniform(-1.0, 1.0) : 0.0;
  return w;
}

std::vector<double> random_input(std::uint64_t seed, int n) {
  common::Rng rng(seed);
  std::vector<double> in(static_cast<std::size_t>(n));
  for (double& v : in) v = rng.uniform();
  return in;
}

Crossbar make_crossbar(IrModel ir, std::optional<NoiseModel> noise,
                       double program_t = 0.0) {
  Crossbar x(kSize, DeviceParams{}, std::move(noise), ir);
  x.program(random_block(9, kLiveRows, kLiveCols), kLiveRows, kLiveCols,
            program_t);
  return x;
}

/// Exact bit-pattern comparison — stricter than EXPECT_EQ on doubles
/// (which would let +0.0 == -0.0 slide).
void expect_bitwise(std::span<const double> got,
                    std::span<const double> want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " diverges at column " << i << ": " << got[i] << " vs "
        << want[i];
}

/// Compare the crossbar's mvm / mvm_ou / ideal_mvm / weight_rms_error
/// against the reference kernel at `t_s`.
void expect_matches_reference(Crossbar& x, double t_s) {
  const auto in = random_input(11, kSize);
  for (const OuShape& ou : kShapes) {
    SCOPED_TRACE(::testing::Message() << "OU " << ou.rows << "x" << ou.cols
                                      << " t=" << t_s);
    const auto got = x.mvm(in, ou.rows, ou.cols, t_s, kAdcBits);
    const auto want = testref::mvm(x, in, ou.rows, ou.cols, t_s, kAdcBits);
    expect_bitwise(got, want, "mvm");
  }
  // One OU window away from the origin (row0/col0 offsets exercised).
  const auto slice = random_input(13, 16);
  const auto got_ou = x.mvm_ou(slice, 32, 16, 48, 16, t_s, kAdcBits);
  const auto want_ou = testref::mvm_ou(x, slice, 32, 16, 48, 16, t_s,
                                       kAdcBits);
  expect_bitwise(got_ou, want_ou, "mvm_ou");
  const auto got_ideal = x.ideal_mvm(in);
  const auto want_ideal = testref::ideal_mvm(x, in);
  expect_bitwise(got_ideal, want_ideal, "ideal_mvm");
  for (const OuShape& ou : kShapes) {
    const double got_rms = x.weight_rms_error(t_s, ou.rows, ou.cols);
    const double want_rms = testref::weight_rms_error(x, t_s, ou.rows,
                                                      ou.cols);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got_rms),
              std::bit_cast<std::uint64_t>(want_rms))
        << "weight_rms_error OU " << ou.rows << "x" << ou.cols;
  }
}

TEST(MvmKernel, NoiselessMatchesReferenceLumped) {
  Crossbar x = make_crossbar(IrModel::kLumped, std::nullopt);
  expect_matches_reference(x, 1.0);
  expect_matches_reference(x, 3.5e5);
}

TEST(MvmKernel, NoiselessMatchesReferenceSpatial) {
  Crossbar x = make_crossbar(IrModel::kSpatial, std::nullopt);
  expect_matches_reference(x, 1.0);
  expect_matches_reference(x, 3.5e5);
}

// Heterogeneous drift: each cell got its own sampled drift exponent at
// program time. All stochastic *read* magnitudes are zero, so the noisy
// walk computes exactly the values the reference derives from the stored
// state (a read draw multiplies by exactly 1.0).
NoiseParams drift_only_noise() {
  NoiseParams p;
  p.program_sigma = 0.02;  // perturbs stored conductance — fine, the
                           // reference reads the stored value back
  p.read_sigma = 0.0;
  p.drift_coeff_sigma = 0.10;
  return p;
}

TEST(MvmKernel, PerCellDriftMatchesReference) {
  for (IrModel ir : {IrModel::kLumped, IrModel::kSpatial}) {
    Crossbar x = make_crossbar(ir, NoiseModel(drift_only_noise(), 21));
    ASSERT_FALSE(x.drift_coefficients().empty());
    expect_matches_reference(x, 1.0);
    expect_matches_reference(x, 3.5e5);
  }
}

TEST(MvmKernel, FaultInjectedMatchesReference) {
  NoiseParams p = drift_only_noise();
  p.stuck_on_rate = 0.02;
  p.stuck_off_rate = 0.03;
  for (IrModel ir : {IrModel::kLumped, IrModel::kSpatial}) {
    Crossbar x = make_crossbar(ir, NoiseModel(p, 33));
    ASSERT_GT(x.faulty_cells(), 0);
    expect_matches_reference(x, 3.5e5);
  }
}

TEST(MvmKernel, EffectiveWeightMatchesReference) {
  for (IrModel ir : {IrModel::kLumped, IrModel::kSpatial}) {
    Crossbar x = make_crossbar(ir, NoiseModel(drift_only_noise(), 21));
    for (int r : {0, 7, 63, kLiveRows - 1}) {
      for (int c : {0, 5, 50, kLiveCols - 1}) {
        const double got = x.effective_weight(r, c, 2.0e4, 16, 16);
        const double want = testref::effective_weight(x, r, c, 2.0e4, 16, 16);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want))
            << "cell (" << r << ", " << c << ")";
      }
    }
  }
}

// --- Cache invalidation -----------------------------------------------------

TEST(MvmKernel, PlaneCacheTracksTimestampChanges) {
  Crossbar x = make_crossbar(IrModel::kSpatial,
                             NoiseModel(drift_only_noise(), 21));
  const auto in = random_input(11, kSize);
  const auto at_t1 = x.mvm(in, 16, 16, 1.0, kAdcBits);
  expect_bitwise(at_t1, testref::mvm(x, in, 16, 16, 1.0, kAdcBits),
                 "t1 first visit");
  const auto at_t2 = x.mvm(in, 16, 16, 2.0e6, kAdcBits);
  expect_bitwise(at_t2, testref::mvm(x, in, 16, 16, 2.0e6, kAdcBits),
                 "t2 after t1");
  // Drift must actually have moved the output, otherwise the test is
  // vacuous.
  bool moved = false;
  for (std::size_t i = 0; i < at_t1.size(); ++i)
    if (at_t1[i] != at_t2[i]) moved = true;
  EXPECT_TRUE(moved);
  // Round-trip back to t1: the rebuilt cache reproduces the first visit
  // exactly.
  const auto at_t1_again = x.mvm(in, 16, 16, 1.0, kAdcBits);
  expect_bitwise(at_t1_again, at_t1, "t1 revisited");
}

TEST(MvmKernel, ReprogramInvalidatesPlanes) {
  Crossbar x = make_crossbar(IrModel::kLumped, std::nullopt);
  const auto in = random_input(11, kSize);
  const auto before = x.mvm(in, 16, 16, 5.0e5, kAdcBits);
  // New weights at a later absolute time: both the weight plane and the
  // elapsed-keyed caches must refresh.
  x.program(random_block(77, kLiveRows, kLiveCols), kLiveRows, kLiveCols,
            1.0e5);
  const auto after = x.mvm(in, 16, 16, 5.0e5, kAdcBits);
  expect_bitwise(after, testref::mvm(x, in, 16, 16, 5.0e5, kAdcBits),
                 "post-reprogram");
  bool moved = false;
  for (std::size_t i = 0; i < before.size(); ++i)
    if (before[i] != after[i]) moved = true;
  EXPECT_TRUE(moved);
}

// Read noise alone: every analog read draws from the NoiseModel's one
// sequential stream.
NoiseParams read_noise_only() {
  NoiseParams p;
  p.program_sigma = 0.0;
  p.read_sigma = 0.05;  // large enough to survive ADC quantization
  p.drift_coeff_sigma = 0.0;
  return p;
}

// --- Batched kernel ----------------------------------------------------------
// The batched entries must be bitwise identical to N sequential single-query
// calls (DESIGN.md §14) across OU shapes, batch sizes (including non-multiples
// of the 4-query SIMD lane width), panel strides, both IR models and both the
// GEMM fast path (noiseless) and the per-query noisy fallback.

/// Batch sizes straddling the AVX2 register blocks: 8-query blocks, at
/// most one 4-query block after them, and scalar tails of 1-3 queries.
constexpr int kBatchSizes[] = {1, 2, 4, 5, 8, 11, 12, 13, 16, 64};

/// The first `rows` entries of each query's panel row (query b's row at
/// panel[b * stride]), packed feature-major: in_t[r * batch + b].
std::vector<double> feature_major(std::span<const double> panel, int batch,
                                  std::size_t stride, int rows) {
  const std::size_t nb = static_cast<std::size_t>(batch);
  std::vector<double> in_t(static_cast<std::size_t>(rows) * nb);
  for (std::size_t b = 0; b < nb; ++b)
    for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r)
      in_t[r * nb + b] = panel[b * stride + r];
  return in_t;
}

/// Feature-major outputs (out_t[c * batch + b]) as tight query-major rows.
std::vector<double> query_major(std::span<const double> out_t, int batch,
                                int cols) {
  const std::size_t nb = static_cast<std::size_t>(batch);
  std::vector<double> out(out_t.size());
  for (std::size_t b = 0; b < nb; ++b)
    for (std::size_t c = 0; c < static_cast<std::size_t>(cols); ++c)
      out[b * static_cast<std::size_t>(cols) + c] = out_t[c * nb + b];
  return out;
}

void expect_batched_matches_reference(Crossbar& x, double t_s) {
  constexpr std::size_t kStride = kSize;
  for (const OuShape& ou : kShapes) {
    for (int batch : kBatchSizes) {
      SCOPED_TRACE(::testing::Message()
                   << "OU " << ou.rows << "x" << ou.cols << " batch "
                   << batch << " t=" << t_s);
      const auto panel =
          random_input(17 + static_cast<std::uint64_t>(batch),
                       batch * static_cast<int>(kStride));
      // The panel has more rows than the crossbar has live rows.
      const auto in_t = feature_major(panel, batch, kStride, kSize);
      std::vector<double> got_t(static_cast<std::size_t>(batch) *
                                kLiveCols);
      x.mvm(in_t, batch, ou.rows, ou.cols, t_s, kAdcBits, got_t);
      const auto want = testref::mvm_batch(x, panel, batch, kStride,
                                           ou.rows, ou.cols, t_s, kAdcBits);
      expect_bitwise(query_major(got_t, batch, kLiveCols), want,
                     "batched mvm");
    }
  }
  // One OU window away from the origin, tight input packing.
  for (int batch : kBatchSizes) {
    SCOPED_TRACE(::testing::Message() << "mvm_ou batch " << batch);
    const auto inputs =
        random_input(19 + static_cast<std::uint64_t>(batch), batch * 16);
    std::vector<double> got(static_cast<std::size_t>(batch) * 16);
    x.mvm_ou(inputs, batch, 32, 16, 48, 16, t_s, kAdcBits, got);
    const auto want = testref::mvm_ou_batch(x, inputs, batch, 32, 16, 48,
                                            16, t_s, kAdcBits);
    expect_bitwise(got, want, "batched mvm_ou");
  }
}

TEST(MvmKernel, BatchedMatchesSequentialLumped) {
  Crossbar x = make_crossbar(IrModel::kLumped, std::nullopt);
  expect_batched_matches_reference(x, 1.0);
  expect_batched_matches_reference(x, 3.5e5);
}

TEST(MvmKernel, BatchedMatchesSequentialSpatial) {
  Crossbar x = make_crossbar(IrModel::kSpatial, std::nullopt);
  expect_batched_matches_reference(x, 1.0);
  expect_batched_matches_reference(x, 3.5e5);
}

TEST(MvmKernel, BatchedPerCellDriftMatchesSequential) {
  for (IrModel ir : {IrModel::kLumped, IrModel::kSpatial}) {
    Crossbar x = make_crossbar(ir, NoiseModel(drift_only_noise(), 21));
    ASSERT_FALSE(x.drift_coefficients().empty());
    expect_batched_matches_reference(x, 3.5e5);
  }
}

TEST(MvmKernel, BatchedFaultInjectedMatchesSequential) {
  NoiseParams p = drift_only_noise();
  p.stuck_on_rate = 0.02;
  p.stuck_off_rate = 0.03;
  for (IrModel ir : {IrModel::kLumped, IrModel::kSpatial}) {
    Crossbar x = make_crossbar(ir, NoiseModel(p, 33));
    ASSERT_GT(x.faulty_cells(), 0);
    expect_batched_matches_reference(x, 3.5e5);
  }
}

// With live read noise the reference kernel no longer applies, so the pin
// is directly against N sequential single-query calls on an identically
// constructed crossbar (same seed -> same draw sequence).
TEST(MvmKernel, BatchedNoisyStreamMatchesSequential) {
  Crossbar batched = make_crossbar(IrModel::kSpatial,
                                   NoiseModel(read_noise_only(), 5));
  Crossbar seq = make_crossbar(IrModel::kSpatial,
                               NoiseModel(read_noise_only(), 5));
  constexpr int kBatch = 5;
  const auto panel = random_input(23, kBatch * kSize);
  std::vector<double> got_t(static_cast<std::size_t>(kBatch) * kLiveCols);
  batched.mvm(feature_major(panel, kBatch, kSize, kLiveRows), kBatch, 16,
              16, 1.0, 12, got_t);
  const auto got = query_major(got_t, kBatch, kLiveCols);
  std::vector<double> want(got.size());
  for (int b = 0; b < kBatch; ++b)
    seq.mvm(std::span<const double>(panel).subspan(
                static_cast<std::size_t>(b) * kSize, kLiveRows),
            16, 16, 1.0, 12,
            std::span<double>(want).subspan(
                static_cast<std::size_t>(b) * kLiveCols, kLiveCols));
  expect_bitwise(got, want, "noisy batched mvm");
}

// The explicit-SIMD path vectorizes across queries with per-lane operation
// order identical to the scalar kernel, so the two must agree bit for bit.
TEST(MvmKernel, SimdModesAgreeBitwise) {
  if (!gemm::avx2_available())
    GTEST_SKIP() << "AVX2 unavailable in this build/CPU";
  for (IrModel ir : {IrModel::kLumped, IrModel::kSpatial}) {
    Crossbar x = make_crossbar(ir, std::nullopt);
    for (const OuShape& ou : kShapes) {
      for (int batch : kBatchSizes) {
        SCOPED_TRACE(::testing::Message()
                     << (ir == IrModel::kLumped ? "lumped" : "spatial")
                     << " OU " << ou.rows << "x" << ou.cols << " batch "
                     << batch);
        const auto in_t = feature_major(
            random_input(29 + static_cast<std::uint64_t>(batch),
                         batch * kSize),
            batch, kSize, kLiveRows);
        std::vector<double> scalar_out(static_cast<std::size_t>(batch) *
                                       kLiveCols);
        std::vector<double> avx2_out(scalar_out.size());
        gemm::set_simd_mode(gemm::SimdMode::kScalar);
        x.mvm(in_t, batch, ou.rows, ou.cols, 2.0, kAdcBits, scalar_out);
        gemm::set_simd_mode(gemm::SimdMode::kAvx2);
        x.mvm(in_t, batch, ou.rows, ou.cols, 2.0, kAdcBits, avx2_out);
        gemm::set_simd_mode(gemm::default_simd_mode());
        expect_bitwise(avx2_out, scalar_out, "scalar vs avx2");
      }
    }
  }
}

// --- ADC epilogue -------------------------------------------------------------

/// Accumulators that probe every branch of the quantizer at (full_scale,
/// adc_bits): exactly +-full scale and one ulp beyond it, far beyond it,
/// +-inf, +-0, NaN, and values whose code argument lands on k + 0.5 or a
/// few ulps either side of it.
std::vector<double> epilogue_probes(double full_scale, int adc_bits) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> v = {full_scale,
                           -full_scale,
                           std::nextafter(full_scale, inf),
                           std::nextafter(-full_scale, -inf),
                           3 * full_scale,
                           -3 * full_scale,
                           inf,
                           -inf,
                           0.0,
                           -0.0,
                           std::numeric_limits<double>::quiet_NaN()};
  const int levels = (1 << adc_bits) - 1;
  const int step = std::max(1, levels / 64);
  for (int k = 0; k < levels; k += step) {
    double x = (k + 0.5) / levels * 2 * full_scale - full_scale;
    for (int s = 0; s < 3; ++s) x = std::nextafter(x, -inf);
    for (int s = 0; s < 7; ++s, x = std::nextafter(x, inf)) v.push_back(x);
  }
  return v;
}

/// The code argument quantize_adc rounds for `value`.
double code_argument(double value, double full_scale, int adc_bits) {
  const double levels = static_cast<double>((1 << adc_bits) - 1);
  return (std::clamp(value, -full_scale, full_scale) + full_scale) /
         (2 * full_scale) * levels;
}

/// adc_epilogue in the active SIMD mode against testref::quantize_adc,
/// element by element, in write, in-place and accumulate form. `offset`
/// drops leading probes so every probe meets every SIMD lane and the
/// scalar tail.
void expect_epilogue_matches_reference(const std::vector<double>& acc,
                                       double factor, double full_scale,
                                       int adc_bits) {
  for (std::size_t offset = 0; offset < 4 && offset < acc.size();
       ++offset) {
    const std::span<const double> in =
        std::span<const double>(acc).subspan(offset);
    std::vector<double> want(in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
      want[i] = testref::quantize_adc(in[i] * factor, full_scale, adc_bits);
    auto check = [&](const std::vector<double>& got, const double* base,
                     const char* what) {
      for (std::size_t i = 0; i < in.size(); ++i) {
        const double expected = base != nullptr ? base[i] + want[i] : want[i];
        if (std::isnan(expected)) {
          EXPECT_TRUE(std::isnan(got[i])) << what << " probe " << in[i];
          continue;
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(expected))
            << what << " probe " << in[i] << " at " << i << ": " << got[i]
            << " vs " << expected;
      }
    };
    std::vector<double> out(in.size(), -7.0);
    gemm::adc_epilogue(in.data(), in.size(), factor, full_scale, adc_bits,
                       out.data(), /*accumulate=*/false);
    check(out, nullptr, "write");
    std::vector<double> in_place(in.begin(), in.end());
    gemm::adc_epilogue(in_place.data(), in_place.size(), factor, full_scale,
                       adc_bits, in_place.data(), /*accumulate=*/false);
    check(in_place, nullptr, "in place");
    std::vector<double> base(in.size());
    for (std::size_t i = 0; i < base.size(); ++i)
      base[i] = 0.375 * static_cast<double>(i % 9) - 1.5;
    std::vector<double> sum = base;
    gemm::adc_epilogue(in.data(), in.size(), factor, full_scale, adc_bits,
                       sum.data(), /*accumulate=*/true);
    check(sum, base.data(), "accumulate");
  }
}

// The batched epilogue is the single-query quantizer applied per element,
// in every SIMD mode: clamping at and beyond full scale (+-inf too), round
// half away from zero exactly at k + 0.5, no double rounding just below
// it, -0.0 passed through and NaN kept NaN. Full scales 3 and 48 are the
// non-power-of-two heights of partial OU tiles.
TEST(MvmKernel, AdcEpilogueMatchesQuantizer) {
  std::vector<gemm::SimdMode> modes = {gemm::SimdMode::kScalar};
  if (gemm::avx2_available()) modes.push_back(gemm::SimdMode::kAvx2);
  int exact_halves = 0;
  for (gemm::SimdMode mode : modes) {
    gemm::set_simd_mode(mode);
    for (double full_scale : {1.0, 3.0, 48.0, 64.0}) {
      for (int adc_bits = 1; adc_bits <= 12; ++adc_bits) {
        SCOPED_TRACE(::testing::Message()
                     << gemm::simd_mode_name(mode) << " full scale "
                     << full_scale << " bits " << adc_bits);
        const auto probes = epilogue_probes(full_scale, adc_bits);
        for (double v : probes) {
          const double x = code_argument(v, full_scale, adc_bits);
          if (x - std::trunc(x) == 0.5) ++exact_halves;
        }
        expect_epilogue_matches_reference(probes, 1.0, full_scale, adc_bits);
        expect_epilogue_matches_reference(probes, 0.8125, full_scale,
                                          adc_bits);
      }
    }
  }
  gemm::set_simd_mode(gemm::default_simd_mode());
  EXPECT_GT(exact_halves, 0) << "no probe's code argument lands on k + 0.5";
  // One bit at full scale 1: -2^-53 puts the code argument at
  // 0.49999999999999994, which rounds to 0 (floor(x + 0.5) would give 1).
  const std::vector<double> below_half = {-0x1p-53, -0x1p-53, -0x1p-53,
                                          -0x1p-53, -0x1p-53};
  ASSERT_EQ(code_argument(below_half[0], 1.0, 1), 0.49999999999999994);
  for (gemm::SimdMode mode : modes) {
    gemm::set_simd_mode(mode);
    SCOPED_TRACE(gemm::simd_mode_name(mode));
    expect_epilogue_matches_reference(below_half, 1.0, 1.0, 1);
    std::vector<double> out(below_half.size());
    gemm::adc_epilogue(below_half.data(), out.size(), 1.0, 1.0, 1,
                       out.data(), /*accumulate=*/false);
    EXPECT_EQ(out[0], -1.0);  // code 0
  }
  gemm::set_simd_mode(gemm::default_simd_mode());
}

// --- Zero allocation in steady state ----------------------------------------

TEST(MvmKernel, SpanMvmDoesNotAllocateInSteadyState) {
  Crossbar x = make_crossbar(IrModel::kSpatial, std::nullopt);
  const auto in = random_input(11, kSize);
  std::vector<double> out(static_cast<std::size_t>(kLiveCols));
  x.mvm(in, 16, 16, 2.0, kAdcBits, out);  // warm caches (and the pool)
  const std::uint64_t before = g_allocations.load();
  for (int rep = 0; rep < 8; ++rep) x.mvm(in, 16, 16, 2.0, kAdcBits, out);
  x.mvm_ou(std::span<const double>(in).subspan(0, 16), 0, 16, 0, 16, 2.0,
           kAdcBits, out);
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "span mvm/mvm_ou allocated on a warm cache";
}

TEST(MvmKernel, BatchedMvmDoesNotAllocateInSteadyState) {
  Crossbar x = make_crossbar(IrModel::kSpatial, std::nullopt);
  Crossbar noisy = make_crossbar(IrModel::kSpatial,
                                 NoiseModel(read_noise_only(), 7));
  constexpr int kBatch = 8;
  const auto panel = random_input(31, kBatch * kSize);
  const auto in_t = feature_major(panel, kBatch, kSize, kLiveRows);
  std::vector<double> out(static_cast<std::size_t>(kBatch) * kLiveCols);
  std::vector<double> ou_out(static_cast<std::size_t>(kBatch) * 16);
  // Warm the planes, the pool and the batch scratch at the target size.
  x.mvm(in_t, kBatch, 16, 16, 2.0, kAdcBits, out);
  noisy.mvm(in_t, kBatch, 16, 16, 2.0, kAdcBits, out);
  x.mvm_ou(std::span<const double>(panel).subspan(0, kBatch * 16), kBatch,
           32, 16, 48, 16, 2.0, kAdcBits, ou_out);
  const std::uint64_t before = g_allocations.load();
  for (int rep = 0; rep < 8; ++rep) {
    x.mvm(in_t, kBatch, 16, 16, 2.0, kAdcBits, out);
    noisy.mvm(in_t, kBatch, 16, 16, 2.0, kAdcBits, out);
    x.mvm_ou(std::span<const double>(panel).subspan(0, kBatch * 16), kBatch,
             32, 16, 48, 16, 2.0, kAdcBits, ou_out);
  }
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "batched mvm/mvm_ou allocated on a warm cache";
}

}  // namespace
}  // namespace odin::reram

namespace odin::core {
namespace {

namespace gemm = reram::gemm;

TEST(MvmKernel, ForwardPassDoesNotAllocateInSteadyState) {
  nn::MultiHeadMlp model(
      nn::MlpConfig{.inputs = 48, .hidden = {32}, .heads = {10}}, 5);
  HardwareMlpRunner hw(model, reram::DeviceParams{}, 64);
  std::vector<double> input(48);
  common::Rng rng(3);
  for (double& v : input) v = rng.uniform();
  (void)hw.predict(input, {16, 16}, 1.0);  // warm scratch + planes
  const std::uint64_t before = g_allocations.load();
  int votes = 0;
  for (int rep = 0; rep < 8; ++rep) votes += hw.predict(input, {16, 16}, 1.0);
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "predict allocated in steady state (votes " << votes << ")";
}

// --- Batched forward path ----------------------------------------------------

HardwareMlpRunner make_runner(std::uint64_t noise_seed = 0) {
  nn::MultiHeadMlp model(
      nn::MlpConfig{.inputs = 48, .hidden = {32}, .heads = {10}}, 5);
  return HardwareMlpRunner(model, reram::DeviceParams{}, 64, noise_seed);
}

std::vector<double> random_panel(std::uint64_t seed, std::size_t n) {
  std::vector<double> panel(n);
  common::Rng rng(seed);
  for (double& v : panel) v = rng.uniform(-1.0, 1.0);
  return panel;
}

TEST(MvmKernel, BatchedForwardMatchesSingleQuery) {
  HardwareMlpRunner hw = make_runner();
  constexpr int kBatch = 5;  // exercises the 4-query SIMD tail
  constexpr std::size_t kStride = 48;
  const auto panel = random_panel(7, kBatch * kStride);
  std::vector<double> batched(static_cast<std::size_t>(kBatch) * 10);
  hw.logits(panel, kBatch, kStride, {16, 16}, 1.0, batched);
  std::vector<int> preds(kBatch);
  hw.predict(panel, kBatch, kStride, {16, 16}, 1.0, preds);
  for (int b = 0; b < kBatch; ++b) {
    const std::span<const double> one_in =
        std::span<const double>(panel).subspan(
            static_cast<std::size_t>(b) * kStride, kStride);
    const auto one = hw.logits(one_in, {16, 16}, 1.0);
    ASSERT_EQ(one.size(), 10u);
    for (std::size_t k = 0; k < one.size(); ++k)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    batched[static_cast<std::size_t>(b) * 10 + k]),
                std::bit_cast<std::uint64_t>(one[k]))
          << "query " << b << " logit " << k;
    EXPECT_EQ(preds[b], hw.predict(one_in, {16, 16}, 1.0)) << "query " << b;
  }
}

// 192-200-10 on 64-cell crossbars: layer 0 is a 3x4 grid (a partial
// 8-column tile in the last grid column), the head a 4x1 grid (a partial
// 8-row tile in the last grid row), so the batched pass runs several tiles
// per layer in parallel and reduces their partials across grid rows.
HardwareMlpRunner make_multi_tile_runner(std::uint64_t noise_seed = 0) {
  nn::MultiHeadMlp model(
      nn::MlpConfig{.inputs = 192, .hidden = {200}, .heads = {10}}, 13);
  return HardwareMlpRunner(model, reram::DeviceParams{}, 64, noise_seed);
}

/// 64 random query rows of 192 features, with edge rows at 1-4 (in the
/// first SIMD block, and row 4 in the scalar tail of a batch of 5): all
/// zero (the DAC scale stays 1e-12), all negative (layer 0's scale takes
/// |x|), +inf and -inf features, and one NaN feature.
std::vector<double> multi_tile_panel() {
  constexpr std::size_t kStride = 192;
  auto panel = random_panel(19, 64 * kStride);
  auto row = [&](std::size_t b) {
    return std::span<double>(panel).subspan(b * kStride, kStride);
  };
  for (std::size_t f = 0; f < kStride; ++f)
    row(1)[f] = f % 2 == 0 ? 0.0 : -0.0;
  for (double& v : row(2)) v = -std::abs(v) - 0x1p-20;
  row(3)[7] = std::numeric_limits<double>::infinity();
  row(3)[100] = -std::numeric_limits<double>::infinity();
  row(4)[150] = std::numeric_limits<double>::quiet_NaN();
  return panel;
}

/// Logits of the first `batch` panel rows, batched on `batched` and one
/// query at a time on `single`, equal bit for bit.
void expect_batched_logits_match(HardwareMlpRunner& batched,
                                 HardwareMlpRunner& single,
                                 std::span<const double> panel, int batch,
                                 ou::OuConfig ou, double t) {
  constexpr std::size_t kStride = 192;
  std::vector<double> got(static_cast<std::size_t>(batch) * 10);
  batched.logits(panel.subspan(0, static_cast<std::size_t>(batch) * kStride),
                 batch, kStride, ou, t, got);
  for (int b = 0; b < batch; ++b) {
    const auto one = single.logits(
        panel.subspan(static_cast<std::size_t>(b) * kStride, kStride), ou, t);
    ASSERT_EQ(one.size(), 10u);
    for (std::size_t k = 0; k < one.size(); ++k)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(
                    got[static_cast<std::size_t>(b) * 10 + k]),
                std::bit_cast<std::uint64_t>(one[k]))
          << "query " << b << " logit " << k;
  }
}

// Noiseless, one runner serves both sides. With read noise, two
// identically seeded runners see the same per-crossbar query sequence, so
// each crossbar's stream draws in the same order on both.
TEST(MvmKernel, MultiTileBatchedForwardMatchesSingleQuery) {
  HardwareMlpRunner hw = make_multi_tile_runner();
  HardwareMlpRunner noisy_batched = make_multi_tile_runner(77);
  HardwareMlpRunner noisy_single = make_multi_tile_runner(77);
  const auto panel = multi_tile_panel();
  std::vector<gemm::SimdMode> modes = {gemm::SimdMode::kScalar};
  if (gemm::avx2_available()) modes.push_back(gemm::SimdMode::kAvx2);
  for (gemm::SimdMode mode : modes) {
    gemm::set_simd_mode(mode);
    for (ou::OuConfig ou : {ou::OuConfig{8, 8}, ou::OuConfig{16, 8},
                            ou::OuConfig{32, 32}}) {
      for (double t : {1.0, 2.5e6}) {
        for (int batch : {1, 5, 16, 64}) {
          SCOPED_TRACE(::testing::Message()
                       << gemm::simd_mode_name(mode) << " OU " << ou.rows
                       << "x" << ou.cols << " t=" << t << " batch "
                       << batch);
          expect_batched_logits_match(hw, hw, panel, batch, ou, t);
          if (batch != 64) {
            SCOPED_TRACE("noisy");
            expect_batched_logits_match(noisy_batched, noisy_single, panel,
                                        batch, ou, t);
          }
        }
      }
    }
  }
  gemm::set_simd_mode(gemm::default_simd_mode());
}

TEST(MvmKernel, BatchedAccuracyMatchesSingleQuery) {
  HardwareMlpRunner hw = make_runner();
  nn::Dataset data;
  data.inputs = nn::Matrix(23, 48);  // odd count: final partial batch
  data.labels.assign(1, std::vector<int>(23));
  common::Rng rng(17);
  for (std::size_t i = 0; i < 23; ++i) {
    for (std::size_t f = 0; f < 48; ++f)
      data.inputs(i, f) = rng.uniform(-1.0, 1.0);
    data.labels[0][i] = static_cast<int>(i % 10);
  }
  const double single = hw.accuracy(data, {16, 16}, 1.0);
  for (int batch : {1, 4, 8}) {
    EXPECT_EQ(hw.accuracy(data, {16, 16}, 1.0, batch), single)
        << "batch " << batch;
  }
}

TEST(MvmKernel, BatchedForwardDoesNotAllocateInSteadyState) {
  HardwareMlpRunner hw = make_runner();
  HardwareMlpRunner noisy = make_runner(/*noise_seed=*/9);
  constexpr int kBatch = 6;
  constexpr std::size_t kStride = 48;
  const auto panel = random_panel(11, kBatch * kStride);
  std::vector<double> out(static_cast<std::size_t>(kBatch) * 10);
  std::vector<int> preds(kBatch);
  // Warm scratch + planes at the target batch size.
  for (HardwareMlpRunner* runner : {&hw, &noisy}) {
    runner->logits(panel, kBatch, kStride, {16, 16}, 1.0, out);
    runner->predict(panel, kBatch, kStride, {16, 16}, 1.0, preds);
  }
  const std::uint64_t before = g_allocations.load();
  for (int rep = 0; rep < 8; ++rep) {
    for (HardwareMlpRunner* runner : {&hw, &noisy}) {
      runner->logits(panel, kBatch, kStride, {16, 16}, 1.0, out);
      runner->predict(panel, kBatch, kStride, {16, 16}, 1.0, preds);
    }
  }
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "batched logits/predict allocated in steady state";
}

}  // namespace
}  // namespace odin::core
