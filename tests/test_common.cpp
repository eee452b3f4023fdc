// Unit tests for src/common: RNG determinism, math helpers, table emitter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace odin::common {
namespace {

TEST(Rng, IsDeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DiffersForDifferentSeeds) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(5));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.rbegin(), 4u);
}

TEST(Rng, NormalHasApproximatelyUnitMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sq / kN, 1.0, 0.03);
}

TEST(Rng, DiscardNormalAdvancesExactlyLikeNormal) {
  // dnn::prune_layer skips unsampled magnitudes with discard_normal(); the
  // weights after them are only right if the stream ends up where
  // normal() would have left it.
  for (const std::uint64_t seed : {1ULL, 42ULL, 0x0d1e5eedULL, ~0ULL}) {
    Rng drawn(seed), discarded(seed);
    for (int i = 0; i < 300'000; ++i) {
      (void)drawn.normal();
      discarded.discard_normal();
      ASSERT_TRUE(drawn == discarded) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(Rng, NormalIsBoxMullerOfItsTwoDraws) {
  Rng a(5), b(5);
  for (int i = 0; i < 10'000; ++i) {
    const double u1 = b.uniform_positive();
    const double u2 = b.uniform();
    ASSERT_EQ(a.normal(), Rng::box_muller(u1, u2));
  }
  EXPECT_TRUE(a == b);
}

TEST(Rng, ForkedStreamsAreIndependentOfParentConsumption) {
  Rng parent1(99);
  Rng child1 = parent1.fork(3);
  // A fork with the same stream id from an identically-seeded parent in the
  // same state yields the same child stream.
  Rng parent2(99);
  Rng child2 = parent2.fork(3);
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(child1.next_u64(), child2.next_u64());
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  constexpr int kN = 20'000;
  for (int i = 0; i < kN; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0);
  EXPECT_EQ(ceil_div(1, 4), 1);
  EXPECT_EQ(ceil_div(4, 4), 1);
  EXPECT_EQ(ceil_div(5, 4), 2);
  EXPECT_EQ(ceil_div(128, 16), 8);
  EXPECT_EQ(ceil_div(129, 16), 9);
}

TEST(Math, Log2Exact) {
  EXPECT_EQ(log2_exact(1), 0);
  EXPECT_EQ(log2_exact(2), 1);
  EXPECT_EQ(log2_exact(128), 7);
}

TEST(Math, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(9));
  EXPECT_FALSE(is_pow2(-4));
}

TEST(Math, MeanAndStddev) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{5.0}), 0.0);
}

TEST(Math, Geomean) {
  const std::vector<double> xs{1.0, 4.0, 16.0};
  EXPECT_NEAR(geomean(xs), 4.0, 1e-12);
}

TEST(Math, LogspaceEndpointsAndMonotone) {
  const auto xs = logspace(1.0, 1e8, 9);
  ASSERT_EQ(xs.size(), 9u);
  EXPECT_DOUBLE_EQ(xs.front(), 1.0);
  EXPECT_DOUBLE_EQ(xs.back(), 1e8);
  for (std::size_t i = 1; i < xs.size(); ++i) {
    EXPECT_GT(xs[i], xs[i - 1]);
    // Log-spacing: constant ratio.
    EXPECT_NEAR(xs[i] / xs[i - 1], 10.0, 1e-6);
  }
}

TEST(Math, SoftmaxSumsToOneAndIsStable) {
  std::vector<double> xs{1000.0, 1001.0, 1002.0};  // would overflow naively
  softmax_inplace(xs);
  double sum = 0.0;
  for (double x : xs) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(xs[2], xs[1]);
  EXPECT_GT(xs[1], xs[0]);
}

TEST(Math, Argmax) {
  const std::vector<double> xs{0.1, 0.7, 0.2};
  EXPECT_EQ(argmax(xs), 1u);
  const std::vector<double> ties{0.5, 0.5};
  EXPECT_EQ(argmax(ties), 0u);  // first wins
}

TEST(EnergyLatency, AccumulatesAndEdp) {
  EnergyLatency a{.energy_j = 2.0, .latency_s = 3.0};
  EnergyLatency b{.energy_j = 1.0, .latency_s = 0.5};
  const EnergyLatency c = a + b;
  EXPECT_DOUBLE_EQ(c.energy_j, 3.0);
  EXPECT_DOUBLE_EQ(c.latency_s, 3.5);
  EXPECT_DOUBLE_EQ(c.edp(), 10.5);
}

TEST(Table, AlignedOutputContainsCells) {
  Table t({"a", "bb"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("bb"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, CsvQuotesCommas) {
  Table t({"a"});
  t.add_row({"x,y"});
  EXPECT_NE(t.to_csv().find("\"x,y\""), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(1.5, 3), "1.5");
  EXPECT_EQ(Table::integer(42), "42");
}

TEST(Units, Magnitudes) {
  EXPECT_DOUBLE_EQ(3.0 * units::ns, 3e-9);
  EXPECT_DOUBLE_EQ(2.0 * units::pJ, 2e-12);
  EXPECT_DOUBLE_EQ(333.0 * units::uS, 333e-6);
}

}  // namespace
}  // namespace odin::common
