#include "data/preprocess.h"

#include <cmath>
#include <limits>
#include <map>

#include "common/failpoints.h"
#include "common/macros.h"

namespace nextmaint {
namespace data {

CleaningReport Clean(DailySeries* series) {
  constexpr double kMaxDailySeconds = 86400.0;
  CleaningReport report;
  std::vector<double>& values = series->mutable_values();
  for (double& v : values) {
    if (std::isnan(v)) continue;
    if (v > kMaxDailySeconds) {
      v = kMaxDailySeconds;
      ++report.clamped_high;
    } else if (v < 0.0) {
      v = 0.0;
      ++report.clamped_low;
    }
  }
  report.missing_filled = series->MissingCount();
  if (report.missing_filled == 0) return report;
  for (double& v : values) {
    if (std::isnan(v)) v = 0.0;
  }
  return report;
}

Result<DailySeries> AggregateDaily(const Table& table,
                                   const std::string& date_column,
                                   const std::string& duration_column) {
  NEXTMAINT_FAILPOINT("preprocess.aggregate");
  NM_ASSIGN_OR_RETURN(const Column* dates, table.GetColumn(date_column));
  NM_ASSIGN_OR_RETURN(const Column* durations,
                      table.GetColumn(duration_column));
  if (durations->type() == ColumnType::kString) {
    return Status::InvalidArgument("duration column '" + duration_column +
                                   "' is not numeric");
  }
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot aggregate an empty table");
  }

  // day number -> accumulated seconds (NaN-free; observed days start at 0).
  std::map<int64_t, double> day_totals;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    int64_t day_number;
    if (dates->type() == ColumnType::kString) {
      NM_ASSIGN_OR_RETURN(Date date, Date::Parse(dates->StringAt(row)));
      day_number = date.day_number();
    } else if (dates->type() == ColumnType::kInt64) {
      day_number = dates->Int64At(row);
    } else {
      return Status::InvalidArgument("date column '" + date_column +
                                     "' must be string or int64");
    }
    double& total = day_totals[day_number];
    if (!durations->IsValid(row)) continue;  // observed day, unknown duration
    const double seconds = durations->type() == ColumnType::kDouble
                               ? durations->DoubleAt(row)
                               : static_cast<double>(durations->Int64At(row));
    if (!std::isnan(seconds)) total += seconds;
  }

  const int64_t first = day_totals.begin()->first;
  const int64_t last = day_totals.rbegin()->first;
  std::vector<double> values(static_cast<size_t>(last - first + 1),
                             std::numeric_limits<double>::quiet_NaN());
  for (const auto& [day, total] : day_totals) {
    values[static_cast<size_t>(day - first)] = total;
  }
  return DailySeries(Date::FromDayNumber(first), std::move(values));
}

Result<Table> SeriesToTable(const DailySeries& series,
                            const std::string& value_column_name) {
  Column date_col("date", ColumnType::kString);
  Column value_col(value_column_name, ColumnType::kDouble);
  for (size_t i = 0; i < series.size(); ++i) {
    date_col.AppendString(
        series.start_date().AddDays(static_cast<int64_t>(i)).ToString());
    if (std::isnan(series[i])) {
      value_col.AppendNull();
    } else {
      value_col.AppendDouble(series[i]);
    }
  }
  Table table;
  NM_RETURN_NOT_OK(table.AddColumn(std::move(date_col)));
  NM_RETURN_NOT_OK(table.AddColumn(std::move(value_col)));
  return table;
}

}  // namespace data
}  // namespace nextmaint
