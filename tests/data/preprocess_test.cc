#include "data/preprocess.h"

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

TEST(CleanTest, ZeroPolicyFillsGaps) {
  DailySeries series(Day(0), {1.0, kNaN, 3.0});
  const CleaningReport report = Clean(&series);
  EXPECT_EQ(report.missing_filled, 1u);
  EXPECT_TRUE(series.IsComplete());
  EXPECT_DOUBLE_EQ(series[1], 0.0);
}

TEST(CleanTest, ClampsInconsistentValues) {
  // 100000 s/day is physically impossible; -5 likewise.
  DailySeries series(Day(0), {100'000.0, -5.0, 40'000.0});
  const CleaningReport report = Clean(&series);
  EXPECT_EQ(report.clamped_high, 1u);
  EXPECT_EQ(report.clamped_low, 1u);
  EXPECT_DOUBLE_EQ(series[0], 86'400.0);
  EXPECT_DOUBLE_EQ(series[1], 0.0);
  EXPECT_DOUBLE_EQ(series[2], 40'000.0);
}

TEST(AggregateDailyTest, SumsReportsPerDay) {
  Table table = Table::Create({{"date", ColumnType::kString},
                               {"seconds", ColumnType::kDouble}})
                    .ValueOrDie();
  auto& date = table.mutable_column(0);
  auto& seconds = table.mutable_column(1);
  date.AppendString("2015-01-01");
  seconds.AppendDouble(100.0);
  date.AppendString("2015-01-01");
  seconds.AppendDouble(50.0);
  date.AppendString("2015-01-03");
  seconds.AppendDouble(75.0);

  const DailySeries series =
      AggregateDaily(table, "date", "seconds").ValueOrDie();
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series.start_date(), Day(0));
  EXPECT_DOUBLE_EQ(series[0], 150.0);
  EXPECT_TRUE(std::isnan(series[1]));  // no report for Jan 2
  EXPECT_DOUBLE_EQ(series[2], 75.0);
}

TEST(AggregateDailyTest, AcceptsIntegerDayNumbers) {
  Table table = Table::Create({{"day", ColumnType::kInt64},
                               {"seconds", ColumnType::kInt64}})
                    .ValueOrDie();
  table.mutable_column(0).AppendInt64(Day(5).day_number());
  table.mutable_column(1).AppendInt64(42);
  const DailySeries series =
      AggregateDaily(table, "day", "seconds").ValueOrDie();
  EXPECT_EQ(series.start_date(), Day(5));
  EXPECT_DOUBLE_EQ(series[0], 42.0);
}

TEST(AggregateDailyTest, NullDurationMarksDayObserved) {
  Table table = Table::Create({{"date", ColumnType::kString},
                               {"seconds", ColumnType::kDouble}})
                    .ValueOrDie();
  table.mutable_column(0).AppendString("2015-01-01");
  table.mutable_column(1).AppendNull();
  const DailySeries series =
      AggregateDaily(table, "date", "seconds").ValueOrDie();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_DOUBLE_EQ(series[0], 0.0);  // observed, contributes nothing
}

TEST(AggregateDailyTest, ErrorCases) {
  Table empty = Table::Create({{"date", ColumnType::kString},
                               {"seconds", ColumnType::kDouble}})
                    .ValueOrDie();
  EXPECT_FALSE(AggregateDaily(empty, "date", "seconds").ok());
  EXPECT_FALSE(AggregateDaily(empty, "ghost", "seconds").ok());

  Table bad = Table::Create({{"date", ColumnType::kString},
                             {"seconds", ColumnType::kString}})
                  .ValueOrDie();
  bad.mutable_column(0).AppendString("2015-01-01");
  bad.mutable_column(1).AppendString("lots");
  EXPECT_FALSE(AggregateDaily(bad, "date", "seconds").ok());

  Table bad_date = Table::Create({{"date", ColumnType::kString},
                                  {"seconds", ColumnType::kDouble}})
                       .ValueOrDie();
  bad_date.mutable_column(0).AppendString("not-a-date");
  bad_date.mutable_column(1).AppendDouble(1.0);
  EXPECT_FALSE(AggregateDaily(bad_date, "date", "seconds").ok());
}

TEST(SeriesToTableTest, RoundTripsThroughAggregate) {
  DailySeries series(Day(0), {10.0, kNaN, 30.0});
  const Table table = SeriesToTable(series, "usage").ValueOrDie();
  EXPECT_EQ(table.num_rows(), 3u);
  EXPECT_EQ(table.GetColumn("date").ValueOrDie()->StringAt(0), "2015-01-01");
  EXPECT_FALSE(table.GetColumn("usage").ValueOrDie()->IsValid(1));

  const DailySeries rebuilt =
      AggregateDaily(table, "date", "usage").ValueOrDie();
  EXPECT_EQ(rebuilt.size(), series.size());
  EXPECT_DOUBLE_EQ(rebuilt[0], 10.0);
  EXPECT_DOUBLE_EQ(rebuilt[2], 30.0);
}

}  // namespace
}  // namespace data
}  // namespace nextmaint
