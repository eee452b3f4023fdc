// Lockstep SojournSketch pins (DESIGN.md §17). One sample stream is fed
// three ways: to a SojournSketch under the AVX2 dispatch, to one under the
// scalar dispatch, and to the pre-lockstep layout (four standalone
// QuantileSketches plus the exact aggregates). All three must agree bit
// for bit on the full wire state after every add for the first 10k
// samples and at intervals after that, over 2^20 samples per stream:
// campaign-like queueing sojourns, uniform, lognormal, four-valued ties,
// constant, strictly increasing and decreasing runs, a +-0.0 mix alone
// and with +-1, infinities, and NaN first and mid-stream. A mid-stream codec round trip
// continues as if uninterrupted, and forged decoded states (unequal
// counts, a lane still warming up, positions outside [1, n], a count past
// the lockstep range, other quantiles) match the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.hpp"
#include "common/rng.hpp"
#include "core/sketch.hpp"
#include "common/simd.hpp"

namespace odin::core {
namespace {

using common::SimdMode;

constexpr std::uint64_t kSamples = std::uint64_t{1} << 20;
constexpr std::uint64_t kEveryAdd = 10'000;  // compare after each add
constexpr std::uint64_t kInterval = 1'009;   // then every kInterval adds

/// The pre-lockstep SojournSketch: four standalone estimators plus the
/// exact aggregates, updated as the parent did, on the same wire layout.
struct ReferenceSojourn {
  std::array<QuantileSketch, SojournSketch::kQuantiles> lanes{
      QuantileSketch(SojournSketch::kTracked[0]),
      QuantileSketch(SojournSketch::kTracked[1]),
      QuantileSketch(SojournSketch::kTracked[2]),
      QuantileSketch(SojournSketch::kTracked[3])};
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;

  void add(double x) {
    for (QuantileSketch& sk : lanes) sk.add(x);
    if (count == 0) {
      min = x;
      max = x;
    } else {
      min = std::min(min, x);
      max = std::max(max, x);
    }
    sum += x;
    ++count;
  }
};

template <typename S, common::MaybeConst<ReferenceSojourn> R>
void fields(S& s, R& r) {
  for (auto& sk : r.lanes) s.field(sk);
  s.field(r.count);
  s.field(r.min);
  s.field(r.max);
  s.field(r.sum);
}

template <typename T>
std::string wire(const T& x) {
  common::ByteWriter out;
  out.field(x);
  return out.bytes();
}

template <typename T>
T decoded(const std::string& bytes) {
  common::ByteReader in(bytes);
  auto x = common::decode<T>(in);
  EXPECT_TRUE(x.has_value() && in.exhausted());
  return x.value_or(T{});
}

/// Restores the dispatch mode the test binary started with.
class SketchKernel : public ::testing::Test {
 protected:
  void TearDown() override { common::set_simd_mode(initial_); }

 private:
  SimdMode initial_ = common::active_simd_mode();
};

/// The three walks of one stream.
struct Trio {
  SojournSketch avx2;
  SojournSketch scalar;
  ReferenceSojourn ref;

  void add(const std::vector<double>& xs) {
    common::set_simd_mode(SimdMode::kAvx2);
    for (const double x : xs) avx2.add(x);
    common::set_simd_mode(SimdMode::kScalar);
    for (const double x : xs) scalar.add(x);
    for (const double x : xs) ref.add(x);
  }

  ::testing::AssertionResult agree() const {
    const std::string want = wire(ref);
    if (wire(avx2) != want)
      return ::testing::AssertionFailure() << "avx2 state differs";
    if (wire(scalar) != want)
      return ::testing::AssertionFailure() << "scalar state differs";
    return ::testing::AssertionSuccess();
  }
};

using Stream = std::function<double(std::uint64_t)>;

/// Feed samples [from, to) of `sample` to the trio, comparing the full
/// state after each of the first `every_add` adds and every kInterval
/// adds after that. Samples go in chunks that end at those comparisons.
void feed(Trio& t, const Stream& sample, std::uint64_t from,
          std::uint64_t to, std::uint64_t every_add = kEveryAdd) {
  const auto compared = [&](std::uint64_t i) {
    return i < every_add || i % kInterval == 0 || i + 1 == to;
  };
  std::vector<double> chunk;
  for (std::uint64_t i = from; i < to;) {
    chunk.clear();
    do {
      chunk.push_back(sample(i));
    } while (!compared(i++));
    t.add(chunk);
    ASSERT_TRUE(t.agree()) << "after sample " << i - 1;
  }
}

/// Campaign-like sojourns: one FIFO server at utilization 0.9 with
/// exponential gaps and lognormal service.
Stream queueing_stream(std::uint64_t seed) {
  struct Queue {
    common::Rng rng;
    double t = 0.0;
    double busy = 0.0;
  };
  auto q = std::make_shared<Queue>(Queue{common::Rng(seed)});
  return [q](std::uint64_t) {
    q->t += -std::log1p(-q->rng.uniform()) / 0.9;
    const double service = std::exp(q->rng.normal(-0.5, 1.0));
    q->busy = std::max(q->busy, q->t) + service;
    return q->busy - q->t;
  };
}

Stream rng_stream(std::uint64_t seed,
                  std::function<double(common::Rng&, std::uint64_t)> f) {
  auto rng = std::make_shared<common::Rng>(seed);
  return [rng, f = std::move(f)](std::uint64_t i) { return f(*rng, i); };
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

std::vector<std::pair<const char*, Stream>> streams() {
  return {
      {"queueing", queueing_stream(1)},
      {"uniform", rng_stream(2, [](common::Rng& r,
                                   std::uint64_t) { return r.uniform(); })},
      {"lognormal",
       rng_stream(3,
                  [](common::Rng& r, std::uint64_t) {
                    return std::exp(r.normal(0.0, 2.0));
                  })},
      {"four_valued_ties",
       rng_stream(4,
                  [](common::Rng& r, std::uint64_t) {
                    return 0.25 * static_cast<double>(r.uniform_index(4) + 1);
                  })},
      {"constant", [](std::uint64_t) { return 3.25; }},
      {"increasing",
       [](std::uint64_t i) { return 1.0 + 0.5 * static_cast<double>(i); }},
      {"decreasing",
       [](std::uint64_t i) { return 1e7 - 0.5 * static_cast<double>(i); }},
      // Equal under every compare, distinct in the bits: the markers keep
      // whichever zero the scalar if-chain would.
      {"signed_zeros",
       rng_stream(5,
                  [](common::Rng& r, std::uint64_t) {
                    return r.uniform() < 0.5 ? 0.0 : -0.0;
                  })},
      {"signed_zeros_and_ones",
       rng_stream(9,
                  [](common::Rng& r, std::uint64_t) {
                    constexpr double kValues[] = {0.0, -0.0, 0.0, -0.0, 1.0,
                                                  -1.0};
                    return kValues[r.uniform_index(6)];
                  })},
      {"infinities",
       rng_stream(6,
                  [](common::Rng& r, std::uint64_t) {
                    const double u = r.uniform();
                    if (u < 0.005) return -kInf;
                    if (u < 0.01) return kInf;
                    return r.uniform();
                  })},
      {"nan_first",
       rng_stream(7,
                  [](common::Rng& r, std::uint64_t i) {
                    return i == 0 ? kNan : r.uniform();
                  })},
      {"nan_mid_stream",
       rng_stream(8,
                  [](common::Rng& r, std::uint64_t i) {
                    return i == kSamples / 2 ? kNan : r.uniform();
                  })},
  };
}

TEST_F(SketchKernel, LockstepMatchesFourScalarEstimatorsOnEveryStream) {
  if (!common::avx2_available())
    std::printf("AVX2 unavailable: both modes run the lanes scalar\n");
  for (const auto& [name, sample] : streams()) {
    SCOPED_TRACE(name);
    Trio t;
    feed(t, sample, 0, kSamples);
    if (HasFatalFailure()) return;
    EXPECT_EQ(t.avx2.count(), kSamples);
  }
}

TEST_F(SketchKernel, CodecRoundTripMidStreamContinuesAsUninterrupted) {
  const Stream sample = queueing_stream(11);
  Trio t;
  feed(t, sample, 0, kSamples / 2, 0);
  ASSERT_FALSE(HasFatalFailure());
  // Resume both dispatch modes from the wire state, as a checkpoint
  // restore does; the reference walk continues uninterrupted.
  const std::string frame = wire(t.avx2);
  Trio resumed;
  resumed.avx2 = decoded<SojournSketch>(frame);
  resumed.scalar = decoded<SojournSketch>(frame);
  resumed.ref = t.ref;
  ASSERT_EQ(wire(resumed.avx2), frame);
  feed(resumed, sample, kSamples / 2, kSamples, 0);
}

// Wire offsets within one lane: p, n, five heights, five positions.
constexpr std::size_t kLaneBytes = 8 + 8 + 5 * 8 + 5 * 8;
std::size_t p_at(std::size_t lane) { return lane * kLaneBytes; }
std::size_t n_at(std::size_t lane) { return lane * kLaneBytes + 8; }
std::size_t pos_at(std::size_t lane, std::size_t m) {
  return lane * kLaneBytes + 56 + 8 * m;
}

void put_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i)
    bytes[at + i] = static_cast<char>(v >> (8 * i));
}

std::uint64_t get_u64(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  return v;
}

TEST_F(SketchKernel, ForgedDecodedStatesMatchTheReference) {
  // A lockstep state 1,000 samples in.
  const Stream warm = queueing_stream(21);
  ReferenceSojourn base;
  for (std::uint64_t i = 0; i < 1'000; ++i) base.add(warm(i));
  const std::string frame = wire(base);
  const std::uint64_t n = get_u64(frame, n_at(0));
  ASSERT_EQ(n, 1'000u);
  // A lane still in its five-sample warm-up.
  ReferenceSojourn young;
  for (std::uint64_t i = 0; i < 3; ++i) young.add(warm(i));
  const std::string young_frame = wire(young);

  std::vector<std::pair<const char*, std::string>> forged;
  auto forge = [&](const char* name, auto&& edit) {
    std::string bytes = frame;
    edit(bytes);
    forged.emplace_back(name, std::move(bytes));
  };
  forge("unequal_counts",
        [&](std::string& b) { put_u64(b, n_at(2), n + 3); });
  forge("one_lane_below_5", [&](std::string& b) {
    b.replace(1 * kLaneBytes, kLaneBytes, young_frame, 1 * kLaneBytes,
              kLaneBytes);
  });
  forge("position_above_n",
        [&](std::string& b) { put_u64(b, pos_at(0, 2), n + 2); });
  forge("position_zero", [&](std::string& b) { put_u64(b, pos_at(3, 1), 0); });
  forge("position_negative", [&](std::string& b) {
    put_u64(b, pos_at(2, 0), static_cast<std::uint64_t>(-4));
  });
  forge("position_past_2^52", [&](std::string& b) {
    put_u64(b, pos_at(1, 3), (std::uint64_t{1} << 52) + 3);
  });
  forge("count_past_2^51", [&](std::string& b) {
    for (std::size_t l = 0; l < SojournSketch::kQuantiles; ++l)
      put_u64(b, n_at(l), (std::uint64_t{1} << 51) + 7);
  });
  forge("other_quantiles", [&](std::string& b) {
    constexpr double kP[] = {0.3, 0.999, 0.01, 0.75};
    for (std::size_t l = 0; l < SojournSketch::kQuantiles; ++l)
      put_u64(b, p_at(l), std::bit_cast<std::uint64_t>(kP[l]));
  });

  for (const auto& [name, bytes] : forged) {
    SCOPED_TRACE(name);
    Trio t;
    t.avx2 = decoded<SojournSketch>(bytes);
    t.scalar = decoded<SojournSketch>(bytes);
    t.ref = decoded<ReferenceSojourn>(bytes);
    ASSERT_EQ(wire(t.avx2), bytes);
    ASSERT_TRUE(t.agree());
    const Stream sample = queueing_stream(22);
    feed(t, sample, 0, 100'000, 5'000);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace odin::core
