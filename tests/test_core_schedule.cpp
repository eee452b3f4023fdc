// Tests for the inference-run schedule generators.
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace odin::core {
namespace {

const HorizonConfig kHorizon{.t_start_s = 1.0, .t_end_s = 1e8, .runs = 100};

TEST(Schedules, LogUniformMatchesRunSchedule) {
  const auto a = make_schedule(ScheduleKind::kLogUniform, kHorizon);
  const auto b = run_schedule(kHorizon);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Schedules, UniformHasConstantStep) {
  const auto s = make_schedule(ScheduleKind::kUniform, kHorizon);
  ASSERT_EQ(s.size(), 100u);
  EXPECT_DOUBLE_EQ(s.front(), 1.0);
  EXPECT_DOUBLE_EQ(s.back(), 1e8);
  const double step = s[1] - s[0];
  for (std::size_t i = 2; i < s.size(); ++i)
    EXPECT_NEAR(s[i] - s[i - 1], step, step * 1e-9);
}

TEST(Schedules, PoissonIsMonotoneAndDeterministic) {
  const auto a = make_schedule(ScheduleKind::kPoisson, kHorizon, 7);
  const auto b = make_schedule(ScheduleKind::kPoisson, kHorizon, 7);
  const auto c = make_schedule(ScheduleKind::kPoisson, kHorizon, 8);
  ASSERT_EQ(a.size(), 100u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]);
    if (i > 0) {
      EXPECT_GE(a[i], a[i - 1]);
    }
    EXPECT_GE(a[i], kHorizon.t_start_s);
    EXPECT_LE(a[i], kHorizon.t_end_s);
  }
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i)
    differs = a[i] != c[i];
  EXPECT_TRUE(differs);
}

TEST(Schedules, PoissonMeanGapApproximatesUniformRate) {
  const auto s = make_schedule(ScheduleKind::kPoisson, kHorizon, 11);
  // Mean arrival gap ~ horizon / runs (within Monte-Carlo slack).
  const double span = s.back() - s.front();
  const double expected = (kHorizon.t_end_s - kHorizon.t_start_s);
  EXPECT_GT(span, 0.5 * expected);
}

TEST(Schedules, UniformConcentratesRunsLateInLogTime) {
  // The property the ablation bench explores: under a uniform-in-time
  // schedule nearly all runs land in the last decade of the drift horizon.
  const auto s = make_schedule(ScheduleKind::kUniform, kHorizon);
  int late = 0;
  for (double t : s)
    if (t > 1e7) ++late;
  EXPECT_GT(late, 85);
  const auto logs = make_schedule(ScheduleKind::kLogUniform, kHorizon);
  late = 0;
  for (double t : logs)
    if (t > 1e7) ++late;
  EXPECT_LT(late, 20);
}

}  // namespace
}  // namespace odin::core
