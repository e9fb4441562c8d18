#include "core/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "common/failpoints.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/baseline.h"
#include "core/dataset_builder.h"
#include "core/old_vehicle.h"
#include "core/series.h"
#include "ml/random_forest.h"
#include "ml/serialization.h"
#include "storage/checkpoint_store.h"
#include "telematics/fleet.h"

namespace nextmaint {
namespace core {
namespace {

constexpr double kTv = 500'000.0;

Date Day(int offset) {
  return Date::FromYmd(2015, 1, 1).ValueOrDie().AddDays(offset);
}

SchedulerOptions FastOptions() {
  SchedulerOptions options;
  options.maintenance_interval_s = kTv;
  options.window = 3;
  options.algorithms = {"BL", "LR"};
  options.unified_algorithm = "LR";
  options.selection.tune = false;
  options.selection.resampling_shifts = 0;
  return options;
}

data::DailySeries SimulatedVehicle(uint64_t seed, int days) {
  Rng rng(seed);
  telem::VehicleProfile profile = telem::DefaultFleetProfiles(1, &rng)[0];
  profile.maintenance_interval_s = kTv;
  Rng sim_rng(seed * 7 + 3);
  return telem::SimulateVehicle(profile, Day(0), days, 0.0, &sim_rng)
      .ValueOrDie()
      .utilization;
}

TEST(FleetSchedulerTest, RegisterAndIngestDayByDay) {
  FleetScheduler scheduler(FastOptions());
  ASSERT_TRUE(scheduler.RegisterVehicle("v1", Day(0)).ok());
  EXPECT_EQ(scheduler.RegisterVehicle("v1", Day(0)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(scheduler.IngestUsage("v1", Day(0), 1000.0).ok());
  EXPECT_TRUE(scheduler.IngestUsage("v1", Day(1), 2000.0).ok());
  // Gaps and reordering are rejected.
  EXPECT_FALSE(scheduler.IngestUsage("v1", Day(3), 100.0).ok());
  EXPECT_FALSE(scheduler.IngestUsage("v1", Day(1), 100.0).ok());
  // Unknown vehicle.
  EXPECT_EQ(scheduler.IngestUsage("ghost", Day(0), 1.0).code(),
            StatusCode::kNotFound);
}

TEST(FleetSchedulerTest, IngestValidatesRange) {
  FleetScheduler scheduler(FastOptions());
  ASSERT_TRUE(scheduler.RegisterVehicle("v1", Day(0)).ok());
  EXPECT_FALSE(scheduler.IngestUsage("v1", Day(0), -1.0).ok());
  EXPECT_FALSE(scheduler.IngestUsage("v1", Day(0), 90'000.0).ok());
  EXPECT_FALSE(scheduler.IngestUsage("v1", Day(0),
                                     std::nan(""))
                   .ok());
}

TEST(FleetSchedulerTest, CategoryTracksUsage) {
  FleetScheduler scheduler(FastOptions());
  ASSERT_TRUE(scheduler.RegisterVehicle("v1", Day(0)).ok());
  EXPECT_EQ(scheduler.CategoryOf("v1").ValueOrDie(), VehicleCategory::kNew);
  // Bulk-ingest past the old threshold.
  ASSERT_TRUE(
      scheduler
          .IngestSeries("v1", data::DailySeries(
                                  Day(0), std::vector<double>(30, 20'000.0)))
          .ok());
  EXPECT_EQ(scheduler.CategoryOf("v1").ValueOrDie(), VehicleCategory::kOld);
}

TEST(FleetSchedulerTest, IngestSeriesRejectsMissingValues) {
  FleetScheduler scheduler(FastOptions());
  ASSERT_TRUE(scheduler.RegisterVehicle("v1", Day(0)).ok());
  data::DailySeries dirty(
      Day(0), {1.0, std::numeric_limits<double>::quiet_NaN()});
  EXPECT_EQ(scheduler.IngestSeries("v1", dirty).code(),
            StatusCode::kDataError);
}

TEST(FleetSchedulerTest, TrainAllAndForecastOldVehicle) {
  FleetScheduler scheduler(FastOptions());
  ASSERT_TRUE(scheduler.RegisterVehicle("v1", Day(0)).ok());
  ASSERT_TRUE(scheduler.IngestSeries("v1", SimulatedVehicle(1, 600)).ok());
  ASSERT_TRUE(scheduler.TrainAll().ok());

  const MaintenanceForecast forecast =
      scheduler.Forecast("v1").ValueOrDie();
  EXPECT_EQ(forecast.vehicle_id, "v1");
  EXPECT_EQ(forecast.category, VehicleCategory::kOld);
  EXPECT_FALSE(forecast.model_name.empty());
  EXPECT_GE(forecast.days_left, 0.0);
  EXPECT_GT(forecast.usage_seconds_left, 0.0);
  EXPECT_LE(forecast.usage_seconds_left, kTv);
  EXPECT_GE(forecast.predicted_date.day_number(), Day(599).day_number());
}

TEST(FleetSchedulerTest, ForecastBeforeTrainingFails) {
  FleetScheduler scheduler(FastOptions());
  ASSERT_TRUE(scheduler.RegisterVehicle("v1", Day(0)).ok());
  ASSERT_TRUE(scheduler.IngestSeries("v1", SimulatedVehicle(2, 600)).ok());
  EXPECT_EQ(scheduler.Forecast("v1").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(FleetSchedulerTest, NewVehicleServedByUnifiedModel) {
  FleetScheduler scheduler(FastOptions());
  // Two old vehicles provide the first-cycle corpus.
  for (int v = 0; v < 2; ++v) {
    const std::string id = "old" + std::to_string(v);
    ASSERT_TRUE(scheduler.RegisterVehicle(id, Day(0)).ok());
    ASSERT_TRUE(
        scheduler.IngestSeries(id, SimulatedVehicle(10 + v, 600)).ok());
  }
  // A brand-new vehicle with a few low-usage days.
  ASSERT_TRUE(scheduler.RegisterVehicle("fresh", Day(0)).ok());
  ASSERT_TRUE(
      scheduler
          .IngestSeries("fresh", data::DailySeries(
                                     Day(0), std::vector<double>(10, 500.0)))
          .ok());
  ASSERT_TRUE(scheduler.TrainAll().ok());

  const MaintenanceForecast forecast =
      scheduler.Forecast("fresh").ValueOrDie();
  EXPECT_EQ(forecast.category, VehicleCategory::kNew);
  EXPECT_NE(forecast.model_name.find("_Uni"), std::string::npos);
}

TEST(FleetSchedulerTest, NewVehicleAloneHasNoModel) {
  FleetScheduler scheduler(FastOptions());
  ASSERT_TRUE(scheduler.RegisterVehicle("only", Day(0)).ok());
  ASSERT_TRUE(
      scheduler
          .IngestSeries("only", data::DailySeries(
                                    Day(0), std::vector<double>(5, 100.0)))
          .ok());
  ASSERT_TRUE(scheduler.TrainAll().ok());
  EXPECT_EQ(scheduler.Forecast("only").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(FleetSchedulerTest, SemiNewVehicleGetsSimModel) {
  FleetScheduler scheduler(FastOptions());
  for (int v = 0; v < 2; ++v) {
    const std::string id = "old" + std::to_string(v);
    ASSERT_TRUE(scheduler.RegisterVehicle(id, Day(0)).ok());
    ASSERT_TRUE(
        scheduler.IngestSeries(id, SimulatedVehicle(20 + v, 600)).ok());
  }
  // Semi-new: more than T_v/2 = 250k seconds but no completed cycle.
  ASSERT_TRUE(scheduler.RegisterVehicle("semi", Day(0)).ok());
  ASSERT_TRUE(scheduler
                  .IngestSeries("semi",
                                data::DailySeries(
                                    Day(0),
                                    std::vector<double>(20, 15'000.0)))
                  .ok());
  ASSERT_TRUE(scheduler.TrainAll().ok());
  EXPECT_EQ(scheduler.CategoryOf("semi").ValueOrDie(),
            VehicleCategory::kSemiNew);
  const MaintenanceForecast forecast =
      scheduler.Forecast("semi").ValueOrDie();
  EXPECT_NE(forecast.model_name.find("_Sim"), std::string::npos);
}

TEST(FleetSchedulerTest, FleetForecastSortsByUrgency) {
  FleetScheduler scheduler(FastOptions());
  for (int v = 0; v < 3; ++v) {
    // std::string("v") + ...: GCC 12 -Wrestrict false positive at -O2.
    const std::string id = std::string("v") + std::to_string(v);
    ASSERT_TRUE(scheduler.RegisterVehicle(id, Day(0)).ok());
    ASSERT_TRUE(
        scheduler.IngestSeries(id, SimulatedVehicle(30 + v, 700)).ok());
  }
  ASSERT_TRUE(scheduler.TrainAll().ok());
  const std::vector<MaintenanceForecast> forecasts =
      scheduler.FleetForecast().ValueOrDie();
  ASSERT_GE(forecasts.size(), 2u);
  for (size_t i = 1; i < forecasts.size(); ++i) {
    EXPECT_LE(forecasts[i - 1].predicted_date.day_number(),
              forecasts[i].predicted_date.day_number());
  }
}

TEST(FleetSchedulerTest, VehicleIdsSorted) {
  FleetScheduler scheduler(FastOptions());
  ASSERT_TRUE(scheduler.RegisterVehicle("b", Day(0)).ok());
  ASSERT_TRUE(scheduler.RegisterVehicle("a", Day(0)).ok());
  EXPECT_EQ(scheduler.VehicleIds(), (std::vector<std::string>{"a", "b"}));
}


std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteAll(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
}

TEST(FleetSchedulerTest, CheckpointRoundTrip) {
  FleetScheduler scheduler(FastOptions());
  ASSERT_TRUE(scheduler.RegisterVehicle("v1", Day(0)).ok());
  ASSERT_TRUE(scheduler.IngestSeries("v1", SimulatedVehicle(41, 600)).ok());
  ASSERT_TRUE(scheduler.RegisterVehicle("v2", Day(0)).ok());
  ASSERT_TRUE(scheduler.IngestSeries("v2", SimulatedVehicle(42, 600)).ok());
  ASSERT_TRUE(scheduler.TrainAll().ok());
  const MaintenanceForecast before = scheduler.Forecast("v1").ValueOrDie();

  const std::string path = ::testing::TempDir() + "/checkpoint_roundtrip.txt";
  ASSERT_TRUE(scheduler.SaveCheckpoint(path).ok());

  // A fresh scheduler with the same data but no training: loading the
  // checkpoint must reproduce the forecasts exactly.
  FleetScheduler restored(FastOptions());
  ASSERT_TRUE(restored.RegisterVehicle("v1", Day(0)).ok());
  ASSERT_TRUE(restored.IngestSeries("v1", SimulatedVehicle(41, 600)).ok());
  ASSERT_TRUE(restored.RegisterVehicle("v2", Day(0)).ok());
  ASSERT_TRUE(restored.IngestSeries("v2", SimulatedVehicle(42, 600)).ok());
  ASSERT_TRUE(restored.LoadCheckpoint(path).ok());
  std::remove(path.c_str());

  const MaintenanceForecast after = restored.Forecast("v1").ValueOrDie();
  EXPECT_DOUBLE_EQ(after.days_left, before.days_left);
  EXPECT_EQ(after.model_name, before.model_name);
  EXPECT_EQ(after.predicted_date, before.predicted_date);
}

TEST(FleetSchedulerTest, LoadCheckpointRejectsUnknownVehicle) {
  FleetScheduler scheduler(FastOptions());
  ASSERT_TRUE(scheduler.RegisterVehicle("v1", Day(0)).ok());
  ASSERT_TRUE(scheduler.IngestSeries("v1", SimulatedVehicle(43, 600)).ok());
  ASSERT_TRUE(scheduler.TrainAll().ok());
  const std::string path = ::testing::TempDir() + "/checkpoint_unknown.txt";
  ASSERT_TRUE(scheduler.SaveCheckpoint(path).ok());

  FleetScheduler other(FastOptions());  // no vehicles registered
  EXPECT_EQ(other.LoadCheckpoint(path).code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(FleetSchedulerTest, LoadCheckpointRejectsTruncatedFile) {
  FleetScheduler scheduler(FastOptions());
  ASSERT_TRUE(scheduler.RegisterVehicle("v1", Day(0)).ok());
  ASSERT_TRUE(scheduler.IngestSeries("v1", SimulatedVehicle(44, 600)).ok());
  ASSERT_TRUE(scheduler.TrainAll().ok());
  const std::string path = ::testing::TempDir() + "/checkpoint_truncated.txt";
  ASSERT_TRUE(scheduler.SaveCheckpoint(path).ok());
  const std::string full = ReadAll(path);
  WriteAll(path, full.substr(0, full.size() * 2 / 3));
  EXPECT_FALSE(scheduler.LoadCheckpoint(path).ok());
  std::remove(path.c_str());
}

TEST(FleetSchedulerTest, CheckDriftFlagsRegimeChange) {
  FleetScheduler scheduler(FastOptions());
  ASSERT_TRUE(scheduler.RegisterVehicle("v1", Day(0)).ok());
  // 300 quiet days then 120 busy days: the monitor must flag the shift.
  Rng rng(91);
  std::vector<double> values;
  for (int i = 0; i < 300; ++i) values.push_back(rng.Normal(8'000, 800));
  for (int i = 0; i < 120; ++i) values.push_back(rng.Normal(16'000, 800));
  ASSERT_TRUE(
      scheduler.IngestSeries("v1", data::DailySeries(Day(0), values)).ok());
  const DriftReport report =
      scheduler.CheckDrift("v1", /*reference_fraction=*/0.7).ValueOrDie();
  EXPECT_TRUE(report.drift_detected);
  EXPECT_EQ(report.direction, +1);

  // A stable vehicle raises nothing.
  ASSERT_TRUE(scheduler.RegisterVehicle("v2", Day(0)).ok());
  std::vector<double> stable;
  for (int i = 0; i < 420; ++i) stable.push_back(rng.Normal(8'000, 800));
  ASSERT_TRUE(
      scheduler.IngestSeries("v2", data::DailySeries(Day(0), stable)).ok());
  EXPECT_FALSE(scheduler.CheckDrift("v2").ValueOrDie().drift_detected);

  // Bad fraction rejected.
  EXPECT_FALSE(scheduler.CheckDrift("v1", 1.5).ok());
}

TEST(FleetSchedulerTest, NegativeNumThreadsRejected) {
  SchedulerOptions options = FastOptions();
  options.num_threads = -2;
  FleetScheduler scheduler(options);
  ASSERT_TRUE(scheduler.RegisterVehicle("v1", Day(0)).ok());
  ASSERT_TRUE(scheduler.IngestSeries("v1", SimulatedVehicle(61, 600)).ok());
  EXPECT_EQ(scheduler.TrainAll().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(scheduler.FleetForecast().status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FleetSchedulerTest, CheckpointRejectsBadPaths) {
  FleetScheduler scheduler(FastOptions());
  ASSERT_TRUE(scheduler.RegisterVehicle("v1", Day(0)).ok());
  ASSERT_TRUE(scheduler.IngestSeries("v1", SimulatedVehicle(51, 600)).ok());
  ASSERT_TRUE(scheduler.TrainAll().ok());
  // Unwritable / missing paths surface as IOError.
  EXPECT_EQ(scheduler.SaveCheckpoint("/nonexistent-dir/models.txt").code(),
            StatusCode::kIOError);
  EXPECT_EQ(scheduler.LoadCheckpoint("/nonexistent-dir/models.txt").code(),
            StatusCode::kIOError);
}

TEST(FleetSchedulerTest, ErrorCodeContract) {
  // scheduler.h documents: NotFound = never registered, FailedPrecondition
  // = registered but not servable — including FleetForecast on a fleet
  // with no vehicles at all.
  FleetScheduler scheduler(FastOptions());
  EXPECT_EQ(scheduler.FleetForecast().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(scheduler.Forecast("ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(scheduler.HasTrainedModel("ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(scheduler.FallbackForecast("ghost").status().code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(scheduler.RegisterVehicle("v1", Day(0)).ok());
  ASSERT_TRUE(scheduler.IngestSeries("v1", SimulatedVehicle(55, 600)).ok());
  // Registered but untrained: not servable yet.
  EXPECT_EQ(scheduler.Forecast("v1").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(scheduler.HasTrainedModel("v1").ValueOrDie());
  ASSERT_TRUE(scheduler.TrainAll().ok());
  EXPECT_TRUE(scheduler.HasTrainedModel("v1").ValueOrDie());
  EXPECT_TRUE(scheduler.FleetForecast().ok());

  // Trained, but a forecast needs W+1 days of data (W = 3 here).
  ASSERT_TRUE(scheduler.RegisterVehicle("short", Day(0)).ok());
  ASSERT_TRUE(scheduler
                  .IngestSeries("short", data::DailySeries(
                                             Day(0), {9'000.0, 0.0, 7'000.0}))
                  .ok());
  ASSERT_TRUE(scheduler.TrainAll().ok());
  ASSERT_TRUE(scheduler.HasTrainedModel("short").ValueOrDie());
  const Status too_short = scheduler.Forecast("short").status();
  EXPECT_EQ(too_short.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(too_short.message().find("at least W+1 = 4"), std::string::npos)
      << too_short.message();
}

TEST(FleetSchedulerTest, TrainVehiclesValidatesIds) {
  FleetScheduler scheduler(FastOptions());
  ASSERT_TRUE(scheduler.RegisterVehicle("v1", Day(0)).ok());
  EXPECT_EQ(scheduler.TrainVehicles({"ghost"}).code(), StatusCode::kNotFound);
  EXPECT_EQ(scheduler.TrainVehicles({"v1", "v1"}).code(),
            StatusCode::kInvalidArgument);
  // A subset retrain needs no other building block: it brings the
  // scheduler's corpus up to date itself, so a new vehicle trained alone
  // serves the Model_Uni fitted on the old vehicle's first cycle.
  ASSERT_TRUE(scheduler.IngestSeries("v1", SimulatedVehicle(56, 600)).ok());
  ASSERT_TRUE(scheduler.RegisterVehicle("n1", Day(0)).ok());
  ASSERT_TRUE(scheduler
                  .IngestSeries("n1", data::DailySeries(
                                          Day(0),
                                          std::vector<double>(10, 500.0)))
                  .ok());
  ASSERT_TRUE(scheduler.TrainVehicles({"n1"}).ok());
  const Result<MaintenanceForecast> n1 = scheduler.Forecast("n1");
  ASSERT_TRUE(n1.ok()) << n1.status();
  EXPECT_EQ(n1.ValueOrDie().model_name, "LR_Uni");
  ASSERT_TRUE(scheduler.TrainVehicles({"v1"}).ok());
  EXPECT_TRUE(scheduler.Forecast("v1").ok());
}

TEST(FleetSchedulerTest, RefreshCorpusReportsExactlyTheCorpusChanges) {
  FleetScheduler scheduler(FastOptions());
  ASSERT_TRUE(scheduler.RegisterVehicle("old", Day(0)).ok());
  ASSERT_TRUE(scheduler.RegisterVehicle("semi", Day(0)).ok());
  ASSERT_TRUE(scheduler.RegisterVehicle("new", Day(0)).ok());
  // Nothing ingested, nothing to extract.
  EXPECT_FALSE(scheduler.RefreshCorpus().ValueOrDie());
  const data::DailySeries old_history = SimulatedVehicle(57, 600);
  ASSERT_TRUE(scheduler.IngestSeries("old", old_history).ok());
  ASSERT_TRUE(scheduler
                  .IngestSeries("semi", data::DailySeries(
                                            Day(0),
                                            std::vector<double>(33, 15'000.0)))
                  .ok());
  EXPECT_TRUE(scheduler.RefreshCorpus().ValueOrDie());
  EXPECT_FALSE(scheduler.RefreshCorpus().ValueOrDie());
  // Appends that close no first cycle leave the corpus alone.
  ASSERT_TRUE(scheduler.IngestUsage("new", Day(0), 500.0).ok());
  ASSERT_TRUE(scheduler.IngestUsage("old", Day(600), 9'000.0).ok());
  EXPECT_FALSE(scheduler.RefreshCorpus().ValueOrDie());
  // semi's first cycle closes (510k >= T_v): its contribution appears.
  ASSERT_TRUE(scheduler.IngestUsage("semi", Day(33), 15'000.0).ok());
  EXPECT_TRUE(scheduler.RefreshCorpus().ValueOrDie());
  // A replaced history that had a contribution counts as a change, even
  // when the replacement is the same data; one without any does not.
  ASSERT_TRUE(scheduler.IngestSeries("old", old_history).ok());
  EXPECT_TRUE(scheduler.RefreshCorpus().ValueOrDie());
  ASSERT_TRUE(scheduler
                  .IngestSeries("new", data::DailySeries(
                                           Day(0), std::vector<double>(3, 1.0)))
                  .ok());
  EXPECT_FALSE(scheduler.RefreshCorpus().ValueOrDie());
}

/// Trains the same 4-vehicle fleet and returns (serialized models,
/// fleet forecast) for the given thread count.
std::pair<std::string, std::vector<MaintenanceForecast>> TrainAndForecast(
    int num_threads) {
  SchedulerOptions options = FastOptions();
  options.num_threads = num_threads;
  FleetScheduler scheduler(options);
  for (int v = 0; v < 4; ++v) {
    // std::string("v") + ...: GCC 12 -Wrestrict false positive at -O2.
    const std::string id = std::string("v") + std::to_string(v);
    EXPECT_TRUE(scheduler.RegisterVehicle(id, Day(0)).ok());
    // Mixed history lengths: old and cold-start vehicles.
    EXPECT_TRUE(
        scheduler.IngestSeries(id, SimulatedVehicle(70 + v, v < 3 ? 700 : 90))
            .ok());
  }
  EXPECT_TRUE(scheduler.TrainAll().ok());
  const std::string path = ::testing::TempDir() + "/telemetry_models_" +
                           std::to_string(num_threads) + ".txt";
  EXPECT_TRUE(scheduler.SaveCheckpoint(path).ok());
  std::string models = ReadAll(path);
  std::remove(path.c_str());
  return {std::move(models), scheduler.FleetForecast().ValueOrDie()};
}

TEST(FleetSchedulerTest, TelemetryDoesNotChangeResults) {
  // Byte-identical models and bit-identical forecasts with metrics on vs
  // off, at 1 and 4 threads (the ISSUE 2 acceptance criterion: telemetry
  // must observe, never alter).
  for (const int threads : {1, 4}) {
    telemetry::SetEnabled(false);
    const auto [models_off, forecasts_off] = TrainAndForecast(threads);

    telemetry::SetEnabled(true);
    telemetry::MetricsRegistry::Global().Reset();
    const auto [models_on, forecasts_on] = TrainAndForecast(threads);
    const telemetry::MetricsSnapshot snapshot = telemetry::Snapshot();
    telemetry::MetricsRegistry::Global().Reset();
    telemetry::SetEnabled(false);

    EXPECT_EQ(models_on, models_off) << "threads=" << threads;
    ASSERT_EQ(forecasts_on.size(), forecasts_off.size());
    for (size_t i = 0; i < forecasts_on.size(); ++i) {
      EXPECT_EQ(forecasts_on[i].vehicle_id, forecasts_off[i].vehicle_id);
      EXPECT_EQ(forecasts_on[i].model_name, forecasts_off[i].model_name);
      EXPECT_EQ(forecasts_on[i].days_left, forecasts_off[i].days_left)
          << forecasts_on[i].vehicle_id << " threads=" << threads;
      EXPECT_EQ(forecasts_on[i].predicted_date,
                forecasts_off[i].predicted_date);
    }

#ifndef NEXTMAINT_TELEMETRY_DISABLED
    // The instrumented run actually recorded the fleet's shape.
    EXPECT_EQ(snapshot.gauges.at("scheduler.fleet.vehicles.old") +
                  snapshot.gauges.at("scheduler.fleet.vehicles.semi_new") +
                  snapshot.gauges.at("scheduler.fleet.vehicles.new"),
              4.0);
    EXPECT_EQ(snapshot.counters.at("scheduler.forecast.count"),
              forecasts_on.size());
    EXPECT_GE(snapshot.histograms.at("scheduler.train.seconds").count, 1u);
    EXPECT_GE(snapshot.histograms.at("scheduler.forecast.seconds").count, 1u);
#else
    EXPECT_TRUE(snapshot.gauges.empty());
#endif
  }
}

/// ISSUE 4 acceptance: with one vehicle's training armed to fail, the
/// fleet still trains and forecasts end to end; the quarantined vehicle is
/// served by the BL fallback and every other vehicle's forecast is
/// bit-identical to a failure-free run.
TEST(FleetSchedulerTest, GracefulDegradationQuarantinesOnlyFailingVehicle) {
  if (!failpoints::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  failpoints::DisarmAll();

  const auto populate = [](FleetScheduler& scheduler) {
    for (int v = 1; v <= 3; ++v) {
      const std::string id = std::string("v") + std::to_string(v);
      ASSERT_TRUE(scheduler.RegisterVehicle(id, Day(0)).ok());
      ASSERT_TRUE(
          scheduler.IngestSeries(id, SimulatedVehicle(80 + v, 600)).ok());
    }
  };

  FleetScheduler healthy(FastOptions());
  populate(healthy);
  ASSERT_TRUE(healthy.TrainAll().ok());
  EXPECT_TRUE(healthy.LastDegradationReport().empty());
  const std::vector<MaintenanceForecast> baseline =
      healthy.FleetForecast().ValueOrDie();

  telemetry::SetEnabled(true);
  telemetry::MetricsRegistry::Global().Reset();
  FleetScheduler degraded(FastOptions());
  populate(degraded);
  ASSERT_TRUE(failpoints::Arm("scheduler.train_vehicle:1").ok());
  ASSERT_TRUE(degraded.TrainAll().ok());
  failpoints::DisarmAll();
  const std::vector<MaintenanceForecast> forecasts =
      degraded.FleetForecast().ValueOrDie();
  const telemetry::MetricsSnapshot snapshot = telemetry::Snapshot();
  telemetry::MetricsRegistry::Global().Reset();
  telemetry::SetEnabled(false);

  // The report names exactly the injected vehicle, with its Status.
  const DegradationReport report = degraded.LastDegradationReport();
  ASSERT_EQ(report.vehicles.size(), 1u);
  EXPECT_EQ(report.vehicles[0].vehicle_id, "v1");
  EXPECT_EQ(report.vehicles[0].stage, "train");
  EXPECT_TRUE(report.vehicles[0].fallback);
  EXPECT_NE(report.vehicles[0].error.message().find("injected"),
            std::string::npos);
  EXPECT_TRUE(report.Contains("v1"));
  EXPECT_FALSE(report.Contains("v2"));

  // FleetForecast orders by predicted date, so compare keyed by vehicle.
  ASSERT_EQ(forecasts.size(), baseline.size());
  std::map<std::string, const MaintenanceForecast*> by_vehicle;
  for (const auto& forecast : forecasts) {
    by_vehicle[forecast.vehicle_id] = &forecast;
  }
  for (const auto& expected : baseline) {
    ASSERT_TRUE(by_vehicle.count(expected.vehicle_id))
        << expected.vehicle_id;
    const MaintenanceForecast& got = *by_vehicle.at(expected.vehicle_id);
    if (expected.vehicle_id == "v1") {
      EXPECT_EQ(got.model_name, "BL_fallback");
      EXPECT_TRUE(std::isfinite(got.days_left));
      EXPECT_GE(got.days_left, 0.0);
      continue;
    }
    EXPECT_EQ(got.model_name, expected.model_name);
    EXPECT_EQ(got.days_left, expected.days_left);
    EXPECT_EQ(got.usage_seconds_left, expected.usage_seconds_left);
    EXPECT_EQ(got.predicted_date, expected.predicted_date);
  }

#ifndef NEXTMAINT_TELEMETRY_DISABLED
  EXPECT_EQ(snapshot.gauges.at("scheduler.degraded_vehicles"), 1.0);
  EXPECT_EQ(snapshot.counters.at("scheduler.train.fallback_bl"), 1u);
#endif
}

TEST(FleetSchedulerTest, SaveCheckpointFailureLeavesExistingFileIntact) {
  if (!failpoints::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  failpoints::DisarmAll();
  FleetScheduler scheduler(FastOptions());
  ASSERT_TRUE(scheduler.RegisterVehicle("v1", Day(0)).ok());
  ASSERT_TRUE(scheduler.IngestSeries("v1", SimulatedVehicle(52, 600)).ok());
  ASSERT_TRUE(scheduler.TrainAll().ok());
  const std::string path = ::testing::TempDir() + "/atomic_models.txt";
  ASSERT_TRUE(scheduler.SaveCheckpoint(path).ok());
  const std::string before = ReadAll(path);
  ASSERT_FALSE(before.empty());

  ASSERT_TRUE(failpoints::Arm("scheduler.save_models").ok());
  EXPECT_FALSE(scheduler.SaveCheckpoint(path).ok());
  failpoints::DisarmAll();

  // The failed save neither truncated the live file nor left a temp file:
  // writes go to `path + ".tmp"` and only rename on success.
  EXPECT_EQ(ReadAll(path), before);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(FleetSchedulerTest, LoadCheckpointFailureCommitsNothing) {
  FleetScheduler trained(FastOptions());
  ASSERT_TRUE(trained.RegisterVehicle("v1", Day(0)).ok());
  ASSERT_TRUE(trained.IngestSeries("v1", SimulatedVehicle(53, 600)).ok());
  ASSERT_TRUE(trained.TrainAll().ok());
  const std::string path = ::testing::TempDir() + "/checkpoint_commit.ckpt";
  ASSERT_TRUE(trained.SaveCheckpoint(path).ok());
  const std::string full = ReadAll(path);

  // Truncate inside the segment region: the superblock still decodes, but
  // its spans now point past EOF, so nothing may commit.
  ASSERT_GT(full.size(), storage::kDataRegionOffset + 8);
  WriteAll(path, full.substr(0, storage::kDataRegionOffset + 8));
  FleetScheduler restored(FastOptions());
  ASSERT_TRUE(restored.RegisterVehicle("v1", Day(0)).ok());
  ASSERT_TRUE(restored.IngestSeries("v1", SimulatedVehicle(53, 600)).ok());
  EXPECT_EQ(restored.LoadCheckpoint(path).code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
  // No partially loaded model leaks into serving.
  EXPECT_EQ(restored.Forecast("v1").status().code(),
            StatusCode::kFailedPrecondition);
}

/// A fleet whose cold-start ids sort before, between and after its old
/// ids, so TrainVehicles' claim order (Model_Uni, then old vehicles, then
/// cold-start vehicles) differs from the id order.
void PopulateMixedFleet(FleetScheduler& scheduler) {
  const auto add = [&](const std::string& id, data::DailySeries series) {
    ASSERT_TRUE(scheduler.RegisterVehicle(id, series.start_date()).ok());
    ASSERT_TRUE(scheduler.IngestSeries(id, series).ok());
  };
  // New: a few low-usage days. Semi-new: past T_v/2 with no completed
  // cycle. Old: simulated histories with several cycles.
  add("a_new", data::DailySeries(Day(0), std::vector<double>(10, 500.0)));
  add("b_old", SimulatedVehicle(101, 600));
  add("c_semi", data::DailySeries(Day(0), std::vector<double>(20, 15'000.0)));
  add("d_old", SimulatedVehicle(102, 600));
  add("e_new", data::DailySeries(Day(0), std::vector<double>(12, 800.0)));
  add("f_old", SimulatedVehicle(103, 600));
  add("g_semi", data::DailySeries(Day(0), std::vector<double>(22, 14'000.0)));
}

/// Checkpoint bytes, per-vehicle model bytes and fleet forecast of a
/// trained scheduler.
struct TrainedOutputs {
  std::string checkpoint;
  std::map<std::string, std::string> models;
  std::vector<MaintenanceForecast> forecasts;
};

TrainedOutputs OutputsOf(const FleetScheduler& scheduler,
                         const std::string& tag) {
  TrainedOutputs outputs;
  // ctest runs tests as parallel processes: the test name keeps paths
  // apart.
  const std::string path =
      ::testing::TempDir() + "/" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      tag + ".ckpt";
  EXPECT_TRUE(scheduler.SaveCheckpoint(path).ok());
  outputs.checkpoint = ReadAll(path);
  const auto store = storage::CheckpointStore::Open(path).ValueOrDie();
  const storage::CheckpointManifest manifest = store->Load().ValueOrDie();
  for (const storage::ManifestEntry& entry : manifest.vehicles) {
    outputs.models[entry.vehicle_id] =
        std::string(entry.segment.Payload().ValueOrDie());
  }
  std::remove(path.c_str());
  Result<std::vector<MaintenanceForecast>> forecasts =
      scheduler.FleetForecast();
  if (forecasts.ok()) outputs.forecasts = std::move(forecasts).ValueOrDie();
  return outputs;
}

void ExpectSameOutputs(const TrainedOutputs& got,
                       const TrainedOutputs& expected) {
  EXPECT_EQ(got.checkpoint, expected.checkpoint);
  ASSERT_EQ(got.forecasts.size(), expected.forecasts.size());
  for (size_t i = 0; i < got.forecasts.size(); ++i) {
    EXPECT_EQ(got.forecasts[i].vehicle_id, expected.forecasts[i].vehicle_id);
    EXPECT_EQ(got.forecasts[i].model_name, expected.forecasts[i].model_name);
    EXPECT_EQ(got.forecasts[i].days_left, expected.forecasts[i].days_left)
        << got.forecasts[i].vehicle_id;
    EXPECT_EQ(got.forecasts[i].predicted_date,
              expected.forecasts[i].predicted_date);
  }
}

/// The serial reference for Model_Uni: TrainUnifiedFromCorpus on the
/// calling thread over the corpus CorpusContribution extracts, in its
/// serialized form (empty when there is no model).
std::string SerialUnifiedBytes(
    const std::function<void(FleetScheduler&)>& populate) {
  SchedulerOptions options = FastOptions();
  options.num_threads = 1;
  FleetScheduler scheduler(options);
  populate(scheduler);
  std::vector<FirstCycleData> corpus;
  for (const std::string& id : scheduler.VehicleIds()) {
    const auto contribution = scheduler.CorpusContribution(id).ValueOrDie();
    if (contribution.has_value()) corpus.push_back(*contribution);
  }
  const std::shared_ptr<ml::Regressor> unified =
      scheduler.TrainUnifiedFromCorpus(corpus);
  std::string bytes;
  if (unified != nullptr) {
    ml::ModelWriter writer(bytes);
    EXPECT_TRUE(unified->Save(writer).ok());
  }
  return bytes;
}

TrainedOutputs TrainAllAt(const std::function<void(FleetScheduler&)>& populate,
                          int num_threads) {
  SchedulerOptions options = FastOptions();
  options.num_threads = num_threads;
  FleetScheduler scheduler(options);
  populate(scheduler);
  EXPECT_TRUE(scheduler.TrainAll().ok());
  return OutputsOf(scheduler, std::to_string(num_threads));
}

// A tuned fleet deploys the grid-search winner as tuned: the refit on the
// full history takes the winner's hyper-parameters, not library defaults.
TEST(FleetSchedulerTest, TunedRefitDeploysTheWinnersHyperParameters) {
  SchedulerOptions options = FastOptions();
  options.algorithms = {"RF"};
  options.selection.tune = true;
  const data::DailySeries usage = SimulatedVehicle(1, 600);

  // The selection the scheduler runs: its options carry the window.
  OldVehicleOptions selection_options = options.selection;
  selection_options.window = options.window;
  VehicleSelection selection(usage, kTv, selection_options);
  const ModelSelectionResult winner =
      selection.SelectBest(options.algorithms).ValueOrDie();
  const ml::ParamMap& tuned =
      winner.evaluations[winner.best_index].best_params;
  ASSERT_EQ(tuned.count("max_depth"), 1u);
  ASSERT_EQ(tuned.count("num_estimators"), 1u);

  FleetScheduler scheduler(options);
  ASSERT_TRUE(scheduler.RegisterVehicle("v1", Day(0)).ok());
  ASSERT_TRUE(scheduler.IngestSeries("v1", usage).ok());
  ASSERT_TRUE(scheduler.TrainAll().ok());
  const std::string payload = OutputsOf(scheduler, "tuned").models.at("v1");
  ml::ModelReader reader(payload);
  const std::unique_ptr<ml::Regressor> deployed =
      ml::LoadRegressor(reader).MoveValueOrDie();
  const auto* forest = dynamic_cast<const ml::RandomForestRegressor*>(
      deployed.get());
  ASSERT_NE(forest, nullptr) << payload.substr(0, 40);
  // max_depth travels in the 'resume' line, the tree count in 'trees <k>'.
  EXPECT_EQ(forest->options().max_depth,
            static_cast<int>(tuned.at("max_depth")));
  EXPECT_EQ(forest->tree_count(),
            static_cast<size_t>(tuned.at("num_estimators")));
}

TEST(FleetSchedulerTest, UnifiedFitInFanOutMatchesCompositionAtAnyThreadCount) {
  const std::string serial_unified = SerialUnifiedBytes(PopulateMixedFleet);
  ASSERT_FALSE(serial_unified.empty());
  const TrainedOutputs expected = TrainAllAt(PopulateMixedFleet, 1);
  ASSERT_FALSE(expected.checkpoint.empty());
  std::map<std::string, std::string> served;
  for (const MaintenanceForecast& f : expected.forecasts) {
    served[f.vehicle_id] = f.model_name;
  }
  // Every category is present, served by its own model kind.
  EXPECT_EQ(served.at("a_new"), "LR_Uni");
  EXPECT_EQ(served.at("e_new"), "LR_Uni");
  EXPECT_NE(served.at("c_semi").find("_Sim"), std::string::npos);
  EXPECT_NE(served.at("g_semi").find("_Sim"), std::string::npos);
  EXPECT_EQ(served.count("b_old"), 1u);

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    telemetry::SetEnabled(true);
    telemetry::MetricsRegistry::Global().Reset();
    const TrainedOutputs got = TrainAllAt(PopulateMixedFleet, threads);
    const telemetry::MetricsSnapshot snapshot = telemetry::Snapshot();
    telemetry::MetricsRegistry::Global().Reset();
    telemetry::SetEnabled(false);
    ExpectSameOutputs(got, expected);
    // The new vehicles carry the serial reference's Model_Uni, byte for
    // byte.
    EXPECT_EQ(got.models.at("a_new"), serial_unified);
    EXPECT_EQ(got.models.at("e_new"), serial_unified);
#ifndef NEXTMAINT_TELEMETRY_DISABLED
    // One wait per cold-start vehicle that reads Model_Uni: the two new
    // vehicles (both semi-new ones found a similarity model).
    EXPECT_EQ(
        snapshot.histograms.at("scheduler.train.unified_wait.seconds").count,
        2u);
#endif
  }
}

TEST(FleetSchedulerTest, AllColdFleetFanOutFinishesWithoutUnifiedModel) {
  // No old vehicle, so the corpus is empty and Model_Uni is nullptr: the
  // new vehicle stays unmodeled and the semi-new one falls back to BL.
  const auto populate = [](FleetScheduler& scheduler) {
    ASSERT_TRUE(scheduler.RegisterVehicle("n1", Day(0)).ok());
    ASSERT_TRUE(scheduler
                    .IngestSeries("n1", data::DailySeries(
                                            Day(0),
                                            std::vector<double>(10, 500.0)))
                    .ok());
    ASSERT_TRUE(scheduler.RegisterVehicle("s1", Day(0)).ok());
    ASSERT_TRUE(scheduler
                    .IngestSeries("s1", data::DailySeries(
                                            Day(0),
                                            std::vector<double>(20, 15'000.0)))
                    .ok());
  };
  EXPECT_TRUE(SerialUnifiedBytes(populate).empty());
  const TrainedOutputs expected = TrainAllAt(populate, 1);
  ASSERT_EQ(expected.forecasts.size(), 1u);
  EXPECT_EQ(expected.forecasts[0].vehicle_id, "s1");
  EXPECT_EQ(expected.forecasts[0].model_name, "BL_semi");
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    ExpectSameOutputs(TrainAllAt(populate, threads), expected);
  }
}

TEST(FleetSchedulerTest, UnifiedFitFailpointFanOutMatchesComposition) {
  if (!failpoints::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  // Outside any context, "ml.fit:1" fails the first uncontexted fit —
  // Model_Uni — and every fit of the vehicle at position 1, a_new, which
  // fits nothing. Inside a caller's context 2 (a daemon shard's refresh),
  // "ml.fit:2" fails Model_Uni, which keeps the caller's context on any
  // lane, together with the fits of b_old at position 2. Either way the
  // new vehicles are left unmodeled and the fleet still finishes.
  for (const uint64_t caller : {uint64_t{0}, uint64_t{2}}) {
    SCOPED_TRACE(caller);
    const std::string spec =
        "ml.fit:" + std::to_string(caller == 0 ? 1 : caller);
    failpoints::ScopedOrdinal context(caller);
    failpoints::DisarmAll();
    ASSERT_TRUE(failpoints::Arm(spec).ok());
    // The serial reference's Model_Uni fit fails the same way.
    EXPECT_TRUE(SerialUnifiedBytes(PopulateMixedFleet).empty());
    failpoints::DisarmAll();
    ASSERT_TRUE(failpoints::Arm(spec).ok());
    const TrainedOutputs expected = TrainAllAt(PopulateMixedFleet, 1);
    const uint64_t expected_fired = failpoints::FiredCount("ml.fit");
    EXPECT_GE(expected_fired, 1u);
    for (const MaintenanceForecast& f : expected.forecasts) {
      EXPECT_NE(f.vehicle_id, "a_new");
      EXPECT_NE(f.vehicle_id, "e_new");
    }
    EXPECT_EQ(expected.forecasts.size(), 5u);
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE(threads);
      failpoints::DisarmAll();
      ASSERT_TRUE(failpoints::Arm(spec).ok());
      const TrainedOutputs got = TrainAllAt(PopulateMixedFleet, threads);
      EXPECT_EQ(failpoints::FiredCount("ml.fit"), expected_fired);
      ExpectSameOutputs(got, expected);
    }
  }
  failpoints::DisarmAll();
}

TEST(FleetSchedulerTest, TrainAllRefitsModelUniEveryRun) {
  if (!failpoints::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  // A batch run fits Model_Uni even over an unchanged corpus, so a retrain
  // sees the same "ml.fit" hits as a fresh scheduler: "ml.fit:1" fails
  // the first uncontexted fit, Model_Uni, and the new vehicles go
  // unmodeled.
  FleetScheduler scheduler(FastOptions());
  PopulateMixedFleet(scheduler);
  ASSERT_TRUE(scheduler.TrainAll().ok());
  ASSERT_TRUE(scheduler.HasTrainedModel("a_new").ValueOrDie());
  failpoints::DisarmAll();
  ASSERT_TRUE(failpoints::Arm("ml.fit:1").ok());
  ASSERT_TRUE(scheduler.TrainAll().ok());
  const uint64_t fired = failpoints::FiredCount("ml.fit");
  failpoints::DisarmAll();
  EXPECT_GE(fired, 1u);
  EXPECT_FALSE(scheduler.HasTrainedModel("a_new").ValueOrDie());
  EXPECT_FALSE(scheduler.HasTrainedModel("e_new").ValueOrDie());
}

TEST(FleetSchedulerTest, FailpointQuarantinesByIdPositionInFanOut) {
  if (!failpoints::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  // Positions 3 (c_semi, claimed last) and 4 (d_old, claimed early).
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    SchedulerOptions options = FastOptions();
    options.num_threads = threads;
    FleetScheduler scheduler(options);
    PopulateMixedFleet(scheduler);
    failpoints::DisarmAll();
    ASSERT_TRUE(
        failpoints::Arm("scheduler.train_vehicle:3,scheduler.train_vehicle:4")
            .ok());
    ASSERT_TRUE(scheduler.TrainAll().ok());
    failpoints::DisarmAll();
    const DegradationReport report = scheduler.LastDegradationReport();
    ASSERT_EQ(report.vehicles.size(), 2u);
    EXPECT_EQ(report.vehicles[0].vehicle_id, "c_semi");
    EXPECT_EQ(report.vehicles[1].vehicle_id, "d_old");
    for (const VehicleDegradation& d : report.vehicles) {
      EXPECT_EQ(d.stage, "train");
      EXPECT_TRUE(d.fallback);
      EXPECT_EQ(scheduler.Forecast(d.vehicle_id).ValueOrDie().model_name,
                "BL_fallback");
    }
  }
}

TEST(FleetSchedulerTest, StrictFailpointReturnsLowestPositionFailure) {
  if (!failpoints::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  // d_old (position 4) is claimed before c_semi (position 3), yet strict
  // mode must report c_semi, the lowest position, at any thread count.
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    SchedulerOptions options = FastOptions();
    options.num_threads = threads;
    options.strict = true;
    FleetScheduler scheduler(options);
    PopulateMixedFleet(scheduler);
    failpoints::DisarmAll();
    ASSERT_TRUE(
        failpoints::Arm("scheduler.train_vehicle:3,scheduler.train_vehicle:4")
            .ok());
    const Status status = scheduler.TrainAll();
    failpoints::DisarmAll();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.message().rfind("c_semi: ", 0), 0u) << status.message();
  }
}

/// Today's L and feature row built the way Forecast and FallbackForecast
/// once built them: copy the history, append a zero-usage "today", derive
/// every series and read the row of the appended day.
struct VirtualDayRow {
  double usage_left = 0.0;
  std::vector<double> row;
};

VirtualDayRow VirtualDayReference(const data::DailySeries& usage,
                                  const SchedulerOptions& options) {
  data::DailySeries extended = usage;
  extended.Append(0.0);  // nextmaint-lint: allow(unchecked-status): DailySeries::Append is void
  const VehicleSeries series =
      DeriveSeries(extended, options.maintenance_interval_s).ValueOrDie();
  const size_t today = series.size() - 1;
  DatasetOptions feature_options;
  feature_options.window = options.window;
  feature_options.normalize_features = options.selection.normalize_features;
  return {series.l[today],
          BuildFeatureRow(series, today, feature_options).ValueOrDie()};
}

/// Every vehicle's model, read back from a checkpoint of `scheduler`.
std::map<std::string, std::unique_ptr<ml::Regressor>> CheckpointModels(
    const FleetScheduler& scheduler) {
  const std::string path =
      ::testing::TempDir() + "/" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".ckpt";
  EXPECT_TRUE(scheduler.SaveCheckpoint(path).ok());
  std::map<std::string, std::unique_ptr<ml::Regressor>> models;
  const auto store = storage::CheckpointStore::Open(path).ValueOrDie();
  const storage::CheckpointManifest manifest = store->Load().ValueOrDie();
  for (const storage::ManifestEntry& entry : manifest.vehicles) {
    ml::ModelReader reader(entry.segment.Payload().ValueOrDie());
    models[entry.vehicle_id] = LoadAnyModel(reader).ValueOrDie();
  }
  std::remove(path.c_str());
  return models;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

TEST(FleetSchedulerTest, ForecastMatchesVirtualDayReference) {
  const SchedulerOptions options = FastOptions();  // W = 3
  const data::DailySeries history = SimulatedVehicle(90, 600);
  const VehicleSeries derived = DeriveSeries(history, kTv).ValueOrDie();
  ASSERT_GE(derived.completed_cycles(), 3u);
  // Ends on a maintenance day, ends mid-cycle, and has exactly W+1 days.
  const size_t maintenance_day = derived.cycles[1].end;
  const size_t mid_cycle_day =
      (derived.cycles[2].start + derived.cycles[2].end) / 2;
  ASSERT_GT(mid_cycle_day, derived.cycles[2].start);
  const std::map<std::string, data::DailySeries> histories = {
      {"maintenance_day", history.Slice(0, maintenance_day + 1)},
      {"mid_cycle", history.Slice(0, mid_cycle_day + 1)},
      {"window_plus_one",
       data::DailySeries(Day(0), {9'000.0, 0.0, 12'500.5, 7'000.0})},
  };
  ASSERT_EQ(histories.at("window_plus_one").size(),
            static_cast<size_t>(options.window) + 1);

  FleetScheduler scheduler(options);
  for (const auto& [id, usage] : histories) {
    ASSERT_TRUE(scheduler.RegisterVehicle(id, usage.start_date()).ok());
    ASSERT_TRUE(scheduler.IngestSeries(id, usage).ok());
  }
  ASSERT_TRUE(scheduler.TrainAll().ok());
  const auto models = CheckpointModels(scheduler);

  for (const auto& [id, usage] : histories) {
    SCOPED_TRACE(id);
    const VirtualDayRow reference = VirtualDayReference(usage, options);
    const VehicleCategory category = CategorizeUsage(usage, kTv).ValueOrDie();

    const MaintenanceForecast forecast = scheduler.Forecast(id).ValueOrDie();
    const double days_left = std::max(
        0.0, models.at(id)
                 ->Predict(std::span<const double>(reference.row.data(),
                                                   reference.row.size()))
                 .ValueOrDie());
    EXPECT_EQ(Bits(forecast.days_left), Bits(days_left));
    EXPECT_EQ(Bits(forecast.usage_seconds_left), Bits(reference.usage_left));
    EXPECT_EQ(forecast.category, category);
    EXPECT_EQ(forecast.predicted_date,
              usage.end_date().AddDays(std::llround(days_left)));

    const MaintenanceForecast fallback =
        scheduler.FallbackForecast(id).ValueOrDie();
    const double fallback_days = std::max(
        0.0, reference.usage_left / AverageUtilization(usage).ValueOrDie());
    EXPECT_EQ(Bits(fallback.days_left), Bits(fallback_days));
    EXPECT_EQ(Bits(fallback.usage_seconds_left), Bits(reference.usage_left));
    EXPECT_EQ(fallback.category, category);
    EXPECT_EQ(fallback.model_name, "BL_fallback");
    EXPECT_EQ(fallback.predicted_date,
              usage.end_date().AddDays(std::llround(fallback_days)));
  }
}

TEST(FleetSchedulerTest, NonPositiveIntervalIsInvalidArgument) {
  // A checkpoint trained under a valid T_v, so that Forecast below gets
  // past its model and window checks to the interval.
  const data::DailySeries history = SimulatedVehicle(92, 600);
  const std::string path = ::testing::TempDir() + "/invalid_interval.ckpt";
  {
    FleetScheduler trained(FastOptions());
    ASSERT_TRUE(trained.RegisterVehicle("v1", Day(0)).ok());
    ASSERT_TRUE(trained.IngestSeries("v1", history).ok());
    ASSERT_TRUE(trained.TrainAll().ok());
    ASSERT_TRUE(trained.SaveCheckpoint(path).ok());
  }
  // Every entry point rejects the interval up front.
  for (const double tv : {0.0, -5.0, std::nan(""),
                          std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(tv);
    SchedulerOptions options = FastOptions();
    options.maintenance_interval_s = tv;
    FleetScheduler scheduler(options);
    ASSERT_TRUE(scheduler.RegisterVehicle("v1", Day(0)).ok());
    ASSERT_TRUE(scheduler.IngestSeries("v1", history).ok());
    EXPECT_EQ(scheduler.CategoryOf("v1").status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(scheduler.FallbackForecast("v1").status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(scheduler.RefreshCorpus().status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(scheduler.TrainAll().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(scheduler.TrainVehicles({"v1"}).code(),
              StatusCode::kInvalidArgument);
    EXPECT_FALSE(scheduler.HasTrainedModel("v1").ValueOrDie());
    ASSERT_TRUE(scheduler.LoadCheckpoint(path).ok());
    const Status forecast = scheduler.FleetForecast().status();
    EXPECT_EQ(forecast.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(forecast.message().find("maintenance_interval_s"),
              std::string::npos)
        << forecast.message();
    EXPECT_EQ(scheduler.Forecast("v1").status().code(),
              StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

/// Histories by vehicle id: what a scheduler under test has ingested.
using Histories = std::map<std::string, data::DailySeries>;

void Populate(FleetScheduler& scheduler, const Histories& histories) {
  for (const auto& [id, series] : histories) {
    ASSERT_TRUE(scheduler.RegisterVehicle(id, series.start_date()).ok());
    ASSERT_TRUE(scheduler.IngestSeries(id, series).ok());
  }
}

/// A fresh scheduler trained once over `histories`: the reference for one
/// that reached the same data by appends and retrains.
TrainedOutputs FreshBatchOutputs(const SchedulerOptions& options,
                                 const Histories& histories) {
  FleetScheduler scheduler(options);
  Populate(scheduler, histories);
  EXPECT_TRUE(scheduler.TrainAll().ok());
  return OutputsOf(scheduler, "batch");
}

/// Appends one day of `seconds` to every vehicle and to its mirror.
void AppendNight(FleetScheduler& scheduler, Histories& histories,
                 double seconds) {
  for (auto& [id, series] : histories) {
    ASSERT_TRUE(scheduler.IngestUsage(id, series.next_date(), seconds).ok());
    series.Append(seconds);
  }
}

/// ExpectSameOutputs without printing the checkpoints on a mismatch (a
/// diff of two forest checkpoints would take gigabytes).
void ExpectSameMemoOutputs(const TrainedOutputs& got,
                           const TrainedOutputs& expected) {
  EXPECT_TRUE(got.checkpoint == expected.checkpoint)
      << "checkpoint bytes differ";
  TrainedOutputs got_forecasts, expected_forecasts;
  got_forecasts.forecasts = got.forecasts;
  expected_forecasts.forecasts = expected.forecasts;
  ExpectSameOutputs(got_forecasts, expected_forecasts);
}

size_t CountModels(const TrainedOutputs& outputs, const std::string& name) {
  return static_cast<size_t>(std::count_if(
      outputs.forecasts.begin(), outputs.forecasts.end(),
      [&](const MaintenanceForecast& f) { return f.model_name == name; }));
}

/// Retraining after each appended day reuses the fits whose labeled data
/// did not change, and still equals a fresh batch run every night; the
/// winners are those of a VehicleSelection built from the scheduler's
/// effective options.
TEST(FleetSchedulerTest, FitMemoRetrainsMatchFreshBatchEveryNight) {
  const SchedulerOptions options = FastOptions();
  Histories histories = {{"v1", SimulatedVehicle(41, 400)},
                         {"v2", SimulatedVehicle(42, 400)},
                         {"v3", SimulatedVehicle(43, 400)}};
  FleetScheduler scheduler(options);
  Populate(scheduler, histories);
  ASSERT_TRUE(scheduler.TrainAll().ok());
  // The effective options carry the fleet-wide window.
  EXPECT_EQ(scheduler.options().selection.window, options.window);
  EXPECT_EQ(scheduler.options().cold_start.window, options.window);

  const bool counted = telemetry::Enabled();
  telemetry::SetEnabled(true);
  telemetry::MetricsRegistry::Global().Reset();
  Rng rng(5);
  for (int night = 1; night <= 40; ++night) {
    AppendNight(scheduler, histories, rng.Uniform(0.0, 20'000.0));
    ASSERT_TRUE(scheduler.TrainAll().ok());
    if (night % 10 != 0) continue;
    SCOPED_TRACE(night);
    telemetry::SetEnabled(false);
    const TrainedOutputs batch = FreshBatchOutputs(options, histories);
    ExpectSameMemoOutputs(OutputsOf(scheduler, "memo"), batch);
    EXPECT_GT(CountModels(batch, "LR"), 0u);
    telemetry::SetEnabled(true);
  }
  const telemetry::MetricsSnapshot counters = telemetry::Snapshot();
  telemetry::MetricsRegistry::Global().Reset();
  telemetry::SetEnabled(counted);
#ifndef NEXTMAINT_TELEMETRY_DISABLED
  EXPECT_GT(counters.counters.at("scheduler.selection.memo_hits"), 60u);
  EXPECT_GT(counters.counters.at("scheduler.refit.memo_hits"), 0u);
#else
  EXPECT_TRUE(counters.counters.empty());
#endif

  for (const auto& [id, series] : histories) {
    VehicleSelection reference(series, kTv, scheduler.options().selection);
    const ModelSelectionResult selected =
        reference.SelectBest(scheduler.options().algorithms).ValueOrDie();
    EXPECT_EQ(scheduler.Forecast(id).ValueOrDie().model_name,
              selected.evaluations[selected.best_index].algorithm)
        << id;
  }
}

/// Loading another fleet's checkpoint replaces the models the refit keys
/// named: the retrain after the next appended day must refit, not keep
/// the loaded models.
TEST(FleetSchedulerTest, FitMemoDropsTheRefitKeyOnLoadCheckpoint) {
  const SchedulerOptions options = FastOptions();
  Histories histories = {{"v1", SimulatedVehicle(41, 600)},
                         {"v2", SimulatedVehicle(42, 600)}};
  FleetScheduler scheduler(options);
  Populate(scheduler, histories);
  ASSERT_TRUE(scheduler.TrainAll().ok());
  ASSERT_GT(CountModels(OutputsOf(scheduler, "own"), "LR"), 0u);

  FleetScheduler other(options);
  Populate(other, {{"v1", SimulatedVehicle(43, 600)},
                   {"v2", SimulatedVehicle(44, 600)}});
  ASSERT_TRUE(other.TrainAll().ok());
  const std::string path = ::testing::TempDir() + "/memo_other_fleet.ckpt";
  ASSERT_TRUE(other.SaveCheckpoint(path).ok());
  ASSERT_TRUE(scheduler.LoadCheckpoint(path).ok());
  std::remove(path.c_str());
  // Forecasting materializes the loaded models in place.
  ASSERT_TRUE(scheduler.FleetForecast().ok());

  // Too little use to close a cycle: every key would still match.
  AppendNight(scheduler, histories, 1000.0);
  ASSERT_TRUE(scheduler.TrainAll().ok());
  ExpectSameMemoOutputs(OutputsOf(scheduler, "memo"),
                    FreshBatchOutputs(options, histories));
}

}  // namespace
}  // namespace core
}  // namespace nextmaint
