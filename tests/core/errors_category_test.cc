// Tests for the paper's error metrics (Section 2.1) and the vehicle
// categorization (Section 2).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/category.h"
#include "core/errors.h"

namespace nextmaint {
namespace core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Date Day(int offset) {
  return Date::FromYmd(2015, 1, 1).ValueOrDie().AddDays(offset);
}

TEST(DaySetTest, Last29ContainsExactly1To29) {
  const DaySet days = DaySet::Last29();
  EXPECT_FALSE(days.Contains(0));
  EXPECT_TRUE(days.Contains(1));
  EXPECT_TRUE(days.Contains(29));
  EXPECT_FALSE(days.Contains(30));
  EXPECT_EQ(days.lo(), 1);
  EXPECT_EQ(days.hi(), 29);
}

TEST(DaySetTest, RoundsTargetsBeforeTesting) {
  const DaySet days = DaySet::Range(5, 10);
  EXPECT_TRUE(days.Contains(5.4));
  EXPECT_TRUE(days.Contains(4.6));
  EXPECT_FALSE(days.Contains(4.4));
  EXPECT_FALSE(days.Contains(10.6));
}

TEST(DaySetTest, NanNeverContained) {
  EXPECT_FALSE(DaySet::Last29().Contains(kNaN));
}

TEST(DaySetTest, SingleDay) {
  const DaySet days = DaySet::Single(7);
  EXPECT_TRUE(days.Contains(7));
  EXPECT_FALSE(days.Contains(6));
  EXPECT_FALSE(days.Contains(8));
}

TEST(DaySetTest, InvertedRangeAborts) {
  EXPECT_DEATH(DaySet::Range(10, 5), "inverted");
}

TEST(DailyErrorsTest, ComputesTruthMinusPrediction) {
  const auto errors = DailyErrors({10, 20, kNaN}, {8, 25, 1}).ValueOrDie();
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_DOUBLE_EQ(errors[0], 2.0);
  EXPECT_DOUBLE_EQ(errors[1], -5.0);
  EXPECT_TRUE(std::isnan(errors[2]));
}

TEST(DailyErrorsTest, LengthMismatchFails) {
  EXPECT_FALSE(DailyErrors({1, 2}, {1}).ok());
}

TEST(GlobalErrorTest, AbsoluteMeanByDefault) {
  // Errors +2 and -2 must not cancel.
  EXPECT_DOUBLE_EQ(GlobalError({10, 10}, {8, 12}).ValueOrDie(), 2.0);
}

TEST(GlobalErrorTest, SignedMeanOnRequest) {
  EXPECT_DOUBLE_EQ(
      GlobalError({10, 10}, {8, 12}, /*signed_mean=*/true).ValueOrDie(),
      0.0);
}

TEST(GlobalErrorTest, SkipsUndefinedTargets) {
  EXPECT_DOUBLE_EQ(GlobalError({kNaN, 10}, {99, 7}).ValueOrDie(), 3.0);
}

TEST(GlobalErrorTest, AllUndefinedFails) {
  EXPECT_FALSE(GlobalError({kNaN, kNaN}, {1, 2}).ok());
}

TEST(MeanResidualErrorTest, RestrictsToDaySet) {
  // Days with truth 40 and 35 fall outside {1..29} and are excluded.
  const std::vector<double> truth = {40, 29, 10, 1, 35};
  const std::vector<double> predicted = {0, 27, 13, 1, 0};
  const double emre =
      MeanResidualError(truth, predicted, DaySet::Last29()).ValueOrDie();
  // Included residuals: |29-27|=2, |10-13|=3, |1-1|=0 -> mean 5/3.
  EXPECT_DOUBLE_EQ(emre, 5.0 / 3.0);
}

TEST(MeanResidualErrorTest, SingleDayRestriction) {
  const std::vector<double> truth = {3, 2, 1, 3, 2, 1};
  const std::vector<double> predicted = {4, 2, 1, 5, 2, 1};
  EXPECT_DOUBLE_EQ(
      MeanResidualError(truth, predicted, DaySet::Single(3)).ValueOrDie(),
      1.5);
  EXPECT_DOUBLE_EQ(
      MeanResidualError(truth, predicted, DaySet::Single(2)).ValueOrDie(),
      0.0);
}

TEST(MeanResidualErrorTest, EmptyRestrictionFails) {
  EXPECT_FALSE(
      MeanResidualError({100, 200}, {1, 2}, DaySet::Last29()).ok());
}

TEST(MeanResidualErrorTest, SignedOption) {
  const std::vector<double> truth = {5, 5};
  const std::vector<double> predicted = {7, 3};
  EXPECT_DOUBLE_EQ(MeanResidualError(truth, predicted, DaySet::Last29(),
                                     /*signed_mean=*/true)
                       .ValueOrDie(),
                   0.0);
  EXPECT_DOUBLE_EQ(
      MeanResidualError(truth, predicted, DaySet::Last29()).ValueOrDie(),
      2.0);
}

TEST(CategoryTest, NamesAreStable) {
  EXPECT_STREQ(VehicleCategoryName(VehicleCategory::kOld), "old");
  EXPECT_STREQ(VehicleCategoryName(VehicleCategory::kSemiNew), "semi-new");
  EXPECT_STREQ(VehicleCategoryName(VehicleCategory::kNew), "new");
}

TEST(CategorizeUsageTest, ThresholdsFollowSectionTwo) {
  const double t_v = 1000.0;
  // Old: cumulative usage crosses T_v.
  data::DailySeries old_usage(Day(0), {600, 600});
  EXPECT_EQ(CategorizeUsage(old_usage, t_v).ValueOrDie(),
            VehicleCategory::kOld);
  // Semi-new: at least T_v/2 but less than T_v.
  data::DailySeries semi(Day(0), {300, 300});
  EXPECT_EQ(CategorizeUsage(semi, t_v).ValueOrDie(),
            VehicleCategory::kSemiNew);
  // Exactly T_v/2 counts as semi-new ("at least half").
  data::DailySeries boundary(Day(0), {500});
  EXPECT_EQ(CategorizeUsage(boundary, t_v).ValueOrDie(),
            VehicleCategory::kSemiNew);
  // New: below half.
  data::DailySeries fresh(Day(0), {499});
  EXPECT_EQ(CategorizeUsage(fresh, t_v).ValueOrDie(), VehicleCategory::kNew);
}

TEST(CategorizeUsageTest, AgreesWithDerivedSeriesCategorize) {
  const double t_v = 1000.0;
  for (double per_day : {50.0, 260.0, 600.0}) {
    data::DailySeries u(Day(0), std::vector<double>(2, per_day));
    // Independent reference: Section 2's rule over DeriveSeries' cycle
    // list and the series total.
    const VehicleSeries series = DeriveSeries(u, t_v).ValueOrDie();
    VehicleCategory expected = VehicleCategory::kNew;
    if (!series.cycles.empty()) {
      expected = VehicleCategory::kOld;
    } else if (u.Sum() >= t_v / 2.0) {
      expected = VehicleCategory::kSemiNew;
    }
    EXPECT_EQ(CategorizeUsage(u, t_v).ValueOrDie(), expected)
        << "per_day=" << per_day;
  }
}

TEST(CategorizeUsageTest, ErrorCases) {
  data::DailySeries u(Day(0), {10});
  EXPECT_FALSE(CategorizeUsage(u, 0.0).ok());
  data::DailySeries with_nan(Day(0), {kNaN});
  EXPECT_FALSE(CategorizeUsage(with_nan, 100.0).ok());
}

}  // namespace
}  // namespace core
}  // namespace nextmaint
