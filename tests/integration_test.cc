// End-to-end integration tests spanning every layer:
//   CAN frames -> on-board controller -> cloud collector -> preparation
//   pipeline -> derived series -> model training -> scheduler forecasts.

#include <gtest/gtest.h>

#include <cmath>

#include "nextmaint.h"

namespace nextmaint {
namespace {

Date Day(int offset) {
  return Date::FromYmd(2015, 1, 1).ValueOrDie().AddDays(offset);
}

// The message-level path and the fast statistical path must agree: a day
// simulated as frames and summarized by the controller yields the same
// daily utilization the generator targeted.
TEST(IntegrationTest, MessagePathMatchesStatisticalPath) {
  Rng rng(1);
  telem::ControllerOptions controller_options;
  controller_options.frequency_hz = 2.0;
  telem::ReportCollector collector;

  // Target utilizations drawn from the usage model.
  telem::VehicleProfile profile = telem::DefaultFleetProfiles(1, &rng)[0];
  telem::UsageState state;
  state.in_first_cycle = false;
  state.regime = telem::UsageRegime::kHeavy;  // guarantee traffic on day 0
  std::vector<double> targets;
  for (int day = 0; day < 5; ++day) {
    targets.push_back(
        telem::SimulateUsageDay(profile, Day(day), &state, &rng));
  }
  targets[0] = std::max(targets[0], 10'000.0);

  for (int day = 0; day < 5; ++day) {
    telem::CanDayOptions can_options;
    can_options.frequency_hz = controller_options.frequency_hz;
    can_options.working_seconds = targets[static_cast<size_t>(day)];
    const auto frames = telem::SimulateCanDay(can_options, &rng).ValueOrDie();
    collector.Ingest(telem::SummarizeDay("v1", Day(day), frames,
                                         controller_options)
                         .ValueOrDie());
  }

  data::DailySeries series = collector.DailyUtilization("v1").ValueOrDie();
  data::Clean(&series);  // days with zero target produce no reports
  ASSERT_EQ(series.end_date(), Day(4));
  // The collector range starts at the first day with traffic.
  const size_t offset = static_cast<size_t>(
      series.start_date().DaysSince(Day(0)));
  for (size_t i = 0; i < series.size(); ++i) {
    EXPECT_NEAR(series[i], targets[i + offset], 5.0) << "day " << i;
  }
}

// Full pipeline from raw reports to a trained model whose near-deadline
// error beats the baseline.
TEST(IntegrationTest, ReportsToTrainedModel) {
  const double t_v = 500'000.0;
  Rng rng(7);
  // The light-duty archetype mixes regimes with a wide rate gap, which is
  // where the trained models separate most clearly from BL. (Across the
  // whole fleet the separation is asserted by the Table 1 bench.)
  telem::VehicleProfile profile = telem::DefaultFleetProfiles(5, &rng)[3];
  profile.maintenance_interval_s = t_v;
  Rng sim_rng(8);
  const telem::VehicleHistory history =
      telem::SimulateVehicle(profile, Day(0), 800, /*missing=*/0.02,
                             &sim_rng)
          .ValueOrDie();

  // Preparation: clean the telemetry outages.
  data::DailySeries series = history.utilization;
  ASSERT_GT(series.MissingCount(), 0u);
  data::Clean(&series);
  ASSERT_TRUE(series.IsComplete());

  core::OldVehicleOptions options;
  options.window = 6;
  options.train_on_last29_only = true;
  options.tune = false;
  options.resampling_shifts = 2;

  const core::VehicleEvaluation rf =
      core::EvaluateAlgorithmOnVehicle("RF", series, t_v, options)
          .ValueOrDie();
  const core::VehicleEvaluation bl =
      core::EvaluateAlgorithmOnVehicle("BL", series, t_v, options)
          .ValueOrDie();
  EXPECT_LT(rf.emre, bl.emre);
  EXPECT_LT(rf.emre, 15.0);
}

// CSV round trip: exporting a vehicle's prepared series and reloading it
// reproduces identical model inputs.
TEST(IntegrationTest, CsvRoundTripPreservesPipeline) {
  const double t_v = 300.0;
  data::DailySeries series(Day(0), std::vector<double>(30, 100.0));
  const data::Table table =
      data::SeriesToTable(series, "usage").ValueOrDie();
  const std::string path = testing::TempDir() + "/nextmaint_integration.csv";
  ASSERT_TRUE(data::WriteCsvFile(table, path).ok());
  const data::Table reloaded = data::ReadCsvFile(path).ValueOrDie();
  std::remove(path.c_str());
  data::DailySeries rebuilt =
      data::AggregateDaily(reloaded, "date", "usage").ValueOrDie();
  data::Clean(&rebuilt);

  const core::VehicleSeries a = core::DeriveSeries(series, t_v).ValueOrDie();
  const core::VehicleSeries b =
      core::DeriveSeries(rebuilt, t_v).ValueOrDie();
  ASSERT_EQ(a.size(), b.size());
  for (size_t t = 0; t < a.size(); ++t) {
    EXPECT_DOUBLE_EQ(a.l[t], b.l[t]);
    if (a.HasTarget(t)) {
      EXPECT_DOUBLE_EQ(a.d[t], b.d[t]);
    }
  }
}

// Whole-fleet scheduling through the deployed-system facade.
TEST(IntegrationTest, FleetToForecasts) {
  telem::FleetOptions fleet_options;
  fleet_options.num_vehicles = 4;
  fleet_options.num_days = 700;
  fleet_options.maintenance_interval_s = 500'000.0;
  fleet_options.start_date = Day(0);
  fleet_options.seed = 5;
  const telem::Fleet fleet =
      telem::SimulateFleet(fleet_options).ValueOrDie();

  core::SchedulerOptions options;
  options.maintenance_interval_s = fleet_options.maintenance_interval_s;
  options.window = 4;
  options.algorithms = {"BL", "RF"};
  options.selection.tune = false;
  core::FleetScheduler scheduler(options);
  for (const auto& vehicle : fleet.vehicles) {
    ASSERT_TRUE(
        scheduler.RegisterVehicle(vehicle.profile.id, fleet.start_date)
            .ok());
    ASSERT_TRUE(
        scheduler.IngestSeries(vehicle.profile.id, vehicle.utilization)
            .ok());
  }
  ASSERT_TRUE(scheduler.TrainAll().ok());
  const auto forecasts = scheduler.FleetForecast().ValueOrDie();
  EXPECT_EQ(forecasts.size(), fleet.vehicles.size());
  for (const auto& forecast : forecasts) {
    // Every simulated vehicle has years of history: all should be old and
    // carry a per-vehicle model.
    EXPECT_EQ(forecast.category, core::VehicleCategory::kOld);
    EXPECT_GE(forecast.days_left, 0.0);
    EXPECT_LT(forecast.days_left, 500.0);
  }
}

// Forecast sanity: a perfectly regular vehicle's predicted days-left must
// equal the arithmetic answer.
TEST(IntegrationTest, RegularVehicleForecastIsExact) {
  const double t_v = 1000.0;
  core::SchedulerOptions options;
  options.maintenance_interval_s = t_v;
  options.window = 2;
  options.algorithms = {"LR"};
  options.selection.tune = false;
  core::FleetScheduler scheduler(options);
  ASSERT_TRUE(scheduler.RegisterVehicle("v", Day(0)).ok());
  // 100 s/day, T = 1000: 10-day cycles. After 95 days, 9.5 cycles have
  // elapsed; 500 s remain -> 5 days.
  ASSERT_TRUE(scheduler
                  .IngestSeries("v", data::DailySeries(
                                         Day(0),
                                         std::vector<double>(95, 100.0)))
                  .ok());
  ASSERT_TRUE(scheduler.TrainAll().ok());
  const core::MaintenanceForecast forecast =
      scheduler.Forecast("v").ValueOrDie();
  EXPECT_DOUBLE_EQ(forecast.usage_seconds_left, 500.0);
  EXPECT_NEAR(forecast.days_left, 5.0, 1.5);
}

}  // namespace
}  // namespace nextmaint
