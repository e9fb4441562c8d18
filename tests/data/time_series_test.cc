#include "data/time_series.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace nextmaint {
namespace data {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Date Day(int offset) {
  return Date::FromYmd(2015, 1, 1).ValueOrDie().AddDays(offset);
}

TEST(DailySeriesTest, EmptySeries) {
  DailySeries series;
  EXPECT_TRUE(series.empty());
  EXPECT_EQ(series.size(), 0u);
  EXPECT_TRUE(series.IsComplete());
  EXPECT_DOUBLE_EQ(series.Sum(), 0.0);
}

TEST(DailySeriesTest, BasicAccessors) {
  DailySeries series(Day(0), {1.0, 2.0, 3.0});
  EXPECT_EQ(series.size(), 3u);
  EXPECT_EQ(series.start_date(), Day(0));
  EXPECT_EQ(series.end_date(), Day(2));
  EXPECT_DOUBLE_EQ(series[1], 2.0);
  series[1] = 5.0;
  EXPECT_DOUBLE_EQ(series[1], 5.0);
}

TEST(DailySeriesTest, AppendExtendsEndDate) {
  DailySeries series(Day(0), {1.0});
  series.Append(2.0);
  EXPECT_EQ(series.size(), 2u);
  EXPECT_EQ(series.end_date(), Day(1));
}

TEST(DailySeriesTest, NextDateIsDayAfterEnd) {
  DailySeries series(Day(0), {1.0, 2.0});
  EXPECT_EQ(series.next_date(), Day(2));
  series.Append(3.0);
  EXPECT_EQ(series.next_date(), Day(3));
  // An empty series has no end yet: the next append covers the start date.
  DailySeries fresh(Day(5), {});
  EXPECT_EQ(fresh.next_date(), Day(5));
}

TEST(DailySeriesTest, AtReturnsValueInsideRange) {
  DailySeries series(Day(0), {10.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(series.At(Day(1)).ValueOrDie(), 20.0);
  EXPECT_DOUBLE_EQ(series.At(Day(0)).ValueOrDie(), 10.0);
  EXPECT_DOUBLE_EQ(series.At(Day(2)).ValueOrDie(), 30.0);
}

TEST(DailySeriesTest, AtFailsOutsideRange) {
  DailySeries series(Day(0), {10.0, 20.0});
  EXPECT_FALSE(series.At(Day(-1)).ok());
  EXPECT_FALSE(series.At(Day(2)).ok());
}

TEST(DailySeriesTest, IndexOf) {
  DailySeries series(Day(5), {1.0, 2.0});
  EXPECT_EQ(series.IndexOf(Day(5)).ValueOrDie(), 0u);
  EXPECT_EQ(series.IndexOf(Day(6)).ValueOrDie(), 1u);
  EXPECT_FALSE(series.IndexOf(Day(4)).ok());
}

TEST(DailySeriesTest, SliceShiftsStartDate) {
  DailySeries series(Day(0), {0.0, 1.0, 2.0, 3.0, 4.0});
  const DailySeries slice = series.Slice(2, 2);
  EXPECT_EQ(slice.size(), 2u);
  EXPECT_EQ(slice.start_date(), Day(2));
  EXPECT_DOUBLE_EQ(slice[0], 2.0);
  EXPECT_DOUBLE_EQ(slice[1], 3.0);
}

TEST(DailySeriesTest, SliceClampsToRange) {
  DailySeries series(Day(0), {0.0, 1.0, 2.0});
  EXPECT_EQ(series.Slice(1, 100).size(), 2u);
  EXPECT_TRUE(series.Slice(5, 2).empty());
  EXPECT_EQ(series.Slice(0, 0).size(), 0u);
}

TEST(DailySeriesTest, MissingValueAccounting) {
  DailySeries series(Day(0), {1.0, kNaN, 3.0, kNaN});
  EXPECT_FALSE(series.IsComplete());
  EXPECT_EQ(series.MissingCount(), 2u);
  EXPECT_DOUBLE_EQ(series.Sum(), 4.0);        // NaNs skipped
  EXPECT_DOUBLE_EQ(series.MeanValue(), 2.0);  // over observed values only
}

TEST(DailySeriesTest, MeanOfAllNaNIsZero) {
  DailySeries series(Day(0), {kNaN, kNaN});
  EXPECT_DOUBLE_EQ(series.MeanValue(), 0.0);
}

}  // namespace
}  // namespace data
}  // namespace nextmaint
