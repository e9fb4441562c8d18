// CAN-bus ingestion walkthrough: the telematics substrate end to end at
// message granularity, the way the production system described in
// Section 3 operates:
//
//   on-board sensors -> CAN frames -> controller summary reports ->
//   cloud collector -> daily aggregation -> cleaning -> CSV extract.
//
// Run it to see one week of raw traffic reduced to the daily utilization
// series the predictive models consume.

#include <cstdio>
#include <sstream>

#include "nextmaint.h"

namespace {

using nextmaint::Date;

int Run() {
  nextmaint::Rng rng(12345);
  const Date monday = Date::FromYmd(2015, 6, 1).ValueOrDie();

  // One week of target utilization: a busy Mon-Fri, idle weekend.
  const double weekly_targets[] = {28'000, 30'500, 0,     26'000,
                                   31'000, 0,      4'500};

  nextmaint::telem::ControllerOptions controller_options;
  controller_options.frequency_hz = 5.0;  // demo rate; production is ~100 Hz
  controller_options.report_period_s = 3'600.0;

  nextmaint::telem::ReportCollector collector;
  size_t total_frames = 0;
  for (int day = 0; day < 7; ++day) {
    nextmaint::telem::CanDayOptions can_options;
    can_options.frequency_hz = controller_options.frequency_hz;
    can_options.working_seconds = weekly_targets[day];
    auto frames_result = nextmaint::telem::SimulateCanDay(can_options, &rng);
    if (!frames_result.ok()) {
      std::fprintf(stderr, "frame simulation failed: %s\n",
                   frames_result.status().ToString().c_str());
      return 1;
    }
    const auto frames = std::move(frames_result).ValueOrDie();
    total_frames += frames.size();

    auto reports_result = nextmaint::telem::SummarizeDay(
        "demo-excavator", monday.AddDays(day), frames, controller_options);
    if (!reports_result.ok()) {
      std::fprintf(stderr, "controller failed: %s\n",
                   reports_result.status().ToString().c_str());
      return 1;
    }
    const auto reports = std::move(reports_result).ValueOrDie();
    std::printf("%s: %8zu frames -> %2zu summary reports\n",
                monday.AddDays(day).ToString().c_str(), frames.size(),
                reports.size());
    collector.Ingest(reports);
  }
  std::printf("total CAN frames this week: %zu\n\n", total_frames);

  // Inspect a few summary reports for the first day.
  const auto table = collector.ReportsTable("demo-excavator").ValueOrDie();
  std::printf("first summary reports (of %zu):\n", table.num_rows());
  std::printf("%-12s %10s %10s %9s %9s %9s\n", "date", "window", "work s",
              "rpm", "temp C", "oil kPa");
  for (size_t row = 0; row < std::min<size_t>(5, table.num_rows()); ++row) {
    std::printf("%-12s %10.0f %10.1f %9.0f %9.1f %9.0f\n",
                table.column(0).StringAt(row).c_str(),
                table.column(1).DoubleAt(row),
                table.column(2).DoubleAt(row),
                table.column(3).DoubleAt(row),
                table.column(4).DoubleAt(row),
                table.column(5).DoubleAt(row));
  }

  // Aggregate to the daily series and clean it (days with no traffic are
  // absent from the report stream and must become zero-usage days).
  auto series_result = collector.DailyUtilization("demo-excavator");
  if (!series_result.ok()) {
    std::fprintf(stderr, "aggregation failed: %s\n",
                 series_result.status().ToString().c_str());
    return 1;
  }
  nextmaint::data::DailySeries series =
      std::move(series_result).ValueOrDie();
  const nextmaint::data::CleaningReport cleaning =
      nextmaint::data::Clean(&series);

  std::printf("\ndaily utilization after aggregation + cleaning "
              "(%zu missing days filled):\n",
              cleaning.missing_filled);
  std::printf("%-12s %12s %12s\n", "date", "measured s", "target s");
  for (size_t i = 0; i < series.size(); ++i) {
    const int day_offset = static_cast<int>(
        series.start_date().DaysSince(monday)) + static_cast<int>(i);
    std::printf("%-12s %12.1f %12.0f\n",
                series.start_date().AddDays(static_cast<int64_t>(i))
                    .ToString()
                    .c_str(),
                series[i], weekly_targets[day_offset]);
  }

  // Export the prepared series as the CSV extract the modelling side uses.
  const auto csv_table =
      nextmaint::data::SeriesToTable(series, "utilization_s").ValueOrDie();
  std::ostringstream csv;
  if (auto status = nextmaint::data::WriteCsv(csv_table, csv);
      !status.ok()) {
    std::fprintf(stderr, "CSV export failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("\nCSV extract:\n%s", csv.str().c_str());
  return 0;
}

}  // namespace

int main() { return Run(); }
