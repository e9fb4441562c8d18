// The determinism contract behind every parallel hot path: training and
// forecasting with threads=1 and threads=4 must produce *bit-identical*
// models, predictions and paper metrics (E_MRE / E_Global).
// Any future performance PR that breaks a reduction order breaks this
// suite, not production forecasts. See docs/parallelism.md.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/parallel.h"
#include "common/telemetry.h"
#include "core/dataset_builder.h"
#include "core/old_vehicle.h"
#include "core/scheduler.h"
#include "ml/hist_gradient_boosting.h"
#include "ml/random_forest.h"
#include "telematics/fleet.h"

namespace nextmaint {
namespace {

constexpr double kTv = 500'000.0;

Date Day(int offset) {
  return Date::FromYmd(2015, 1, 1).ValueOrDie().AddDays(offset);
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

/// The synthetic-fleet training matrix used by the model-level tests:
/// large enough (> 2000 rows) that hist-GB's parallel split search engages
/// on the root levels.
const ml::Dataset& FleetTrainingData() {
  static const ml::Dataset* const kData = [] {
    core::DatasetOptions options;
    options.window = 5;
    core::ResamplingOptions resampling;
    resampling.num_shifts = 2;
    return new ml::Dataset(
        core::BuildResampledDataset(SimulatedVehicle(11, 900), kTv, options,
                                    resampling)
            .ValueOrDie());
  }();
  return *kData;
}

std::string Serialized(const ml::Regressor& model) {
  std::ostringstream out;
  const Status status = model.Save(out);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out.str();
}

std::vector<double> PredictAll(const ml::Regressor& model,
                               const ml::Dataset& data) {
  std::vector<double> preds;
  preds.reserve(data.num_rows());
  for (size_t r = 0; r < data.num_rows(); ++r) {
    preds.push_back(model.Predict(data.x().Row(r)).ValueOrDie());
  }
  return preds;
}

TEST(ParallelDeterminismTest, RandomForestSerialVsParallelBitIdentical) {
  const ml::Dataset& train = FleetTrainingData();
  ml::RandomForestRegressor::Options options;
  options.num_estimators = 30;
  options.max_depth = 8;
  options.seed = 42;

  options.num_threads = 1;
  ml::RandomForestRegressor serial(options);
  options.num_threads = 4;
  ml::RandomForestRegressor parallel(options);
  ASSERT_TRUE(serial.Fit(train).ok());
  ASSERT_TRUE(parallel.Fit(train).ok());

  // Identical trees (bitwise, via the text serialization)...
  EXPECT_EQ(Serialized(serial), Serialized(parallel));
  // ... and identical predictions (exact double equality, not tolerance).
  EXPECT_EQ(PredictAll(serial, train), PredictAll(parallel, train));
}

TEST(ParallelDeterminismTest, RandomForestSpreadIdenticalToo) {
  const ml::Dataset& train = FleetTrainingData();
  ml::RandomForestRegressor::Options options;
  options.num_estimators = 15;
  options.num_threads = 1;
  ml::RandomForestRegressor serial(options);
  options.num_threads = 3;  // a count that does not divide the tree count
  ml::RandomForestRegressor parallel(options);
  ASSERT_TRUE(serial.Fit(train).ok());
  ASSERT_TRUE(parallel.Fit(train).ok());
  // Trees spread unevenly over the threads still land in their own slots.
  EXPECT_EQ(Serialized(serial), Serialized(parallel));
  EXPECT_EQ(PredictAll(serial, train), PredictAll(parallel, train));
}

TEST(ParallelDeterminismTest, HistGradientBoostingSerialVsParallel) {
  const ml::Dataset& train = FleetTrainingData();
  ml::HistGradientBoostingRegressor::Options options;
  options.num_iterations = 40;
  options.max_depth = 6;
  options.max_bins = 64;

  options.num_threads = 1;
  ml::HistGradientBoostingRegressor serial(options);
  options.num_threads = 4;
  ml::HistGradientBoostingRegressor parallel(options);
  ASSERT_TRUE(serial.Fit(train).ok());
  ASSERT_TRUE(parallel.Fit(train).ok());

  EXPECT_EQ(serial.tree_count(), parallel.tree_count());
  EXPECT_EQ(Serialized(serial), Serialized(parallel));
  EXPECT_EQ(PredictAll(serial, train), PredictAll(parallel, train));
}

core::SchedulerOptions SchedulerOptionsWithThreads(int num_threads) {
  core::SchedulerOptions options;
  options.maintenance_interval_s = kTv;
  options.window = 3;
  options.algorithms = {"BL", "LR", "RF"};
  options.unified_algorithm = "XGB";
  options.selection.tune = false;
  options.selection.resampling_shifts = 0;
  options.num_threads = num_threads;
  return options;
}

/// The mixed test fleet registered and ingested, not yet trained.
core::FleetScheduler IngestedScheduler(int num_threads) {
  core::FleetScheduler scheduler(SchedulerOptionsWithThreads(num_threads));
  // Mixed fleet: several old vehicles (per-vehicle selection), one
  // semi-new, one new — every training branch runs.
  const struct {
    const char* id;
    uint64_t seed;
    int days;
  } kFleet[] = {
      {"old1", 1, 700}, {"old2", 2, 700},  {"old3", 3, 650},
      {"old4", 5, 700}, {"semi", 8, 60}, {"new", 9, 8},
  };
  for (const auto& vehicle : kFleet) {
    EXPECT_TRUE(
        scheduler.RegisterVehicle(vehicle.id, Day(0)).ok());
    EXPECT_TRUE(scheduler
                    .IngestSeries(vehicle.id,
                                  SimulatedVehicle(vehicle.seed, vehicle.days))
                    .ok());
  }
  return scheduler;
}

core::FleetScheduler TrainedScheduler(int num_threads) {
  core::FleetScheduler scheduler = IngestedScheduler(num_threads);
  const Status trained = scheduler.TrainAll();
  EXPECT_TRUE(trained.ok()) << trained.ToString();
  return scheduler;
}

std::string CheckpointBytes(const core::FleetScheduler& scheduler,
                            const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(scheduler.SaveCheckpoint(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::remove(path.c_str());
  return bytes.str();
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(ParallelDeterminismTest, FleetSchedulerForecastsBitIdentical) {
  const core::FleetScheduler serial = TrainedScheduler(1);
  const core::FleetScheduler parallel = TrainedScheduler(4);

  const auto serial_forecasts = serial.FleetForecast().ValueOrDie();
  const auto parallel_forecasts = parallel.FleetForecast().ValueOrDie();
  ASSERT_EQ(serial_forecasts.size(), parallel_forecasts.size());
  ASSERT_GE(serial_forecasts.size(), 4u);
  for (size_t i = 0; i < serial_forecasts.size(); ++i) {
    const core::MaintenanceForecast& a = serial_forecasts[i];
    const core::MaintenanceForecast& b = parallel_forecasts[i];
    EXPECT_EQ(a.vehicle_id, b.vehicle_id);
    EXPECT_EQ(a.category, b.category);
    EXPECT_EQ(a.model_name, b.model_name);
    EXPECT_EQ(a.days_left, b.days_left);  // exact, not approximate
    EXPECT_EQ(a.usage_seconds_left, b.usage_seconds_left);
    EXPECT_EQ(a.predicted_date, b.predicted_date);
  }

  // The persisted per-vehicle models must match byte for byte as well.
  EXPECT_EQ(CheckpointBytes(serial, "determinism_serial.txt"),
            CheckpointBytes(parallel, "determinism_parallel.txt"));
}

TEST(ParallelDeterminismTest, CheckpointBytesPinnedAndStableOverRoundTrip) {
  const core::FleetScheduler trained = TrainedScheduler(4);
  const std::string saved = CheckpointBytes(trained, "pinned.ckpt");
  // Pinned on the iostream-based model codec: the segmented file's bytes
  // must not move when the codec or the save's parallelism changes.
  EXPECT_EQ(Fnv1a(saved), 0x489bc6bc2cc8293cULL);

  // Save -> load -> materialize every model -> save reproduces the file,
  // at either thread count of the restoring scheduler. The forecast parses
  // every segment, so the re-save serializes live models, not copies.
  const std::string path = ::testing::TempDir() + "/round_trip.ckpt";
  ASSERT_TRUE(trained.SaveCheckpoint(path).ok());
  const auto materializations = [] {
    const telemetry::MetricsSnapshot snapshot = telemetry::Snapshot();
    const auto it =
        snapshot.counters.find("scheduler.checkpoint.lazy_materializations");
    return it == snapshot.counters.end() ? uint64_t{0} : it->second;
  };
  telemetry::SetEnabled(true);
  for (const int threads : {1, 4}) {
    core::FleetScheduler restored = IngestedScheduler(threads);
    ASSERT_TRUE(restored.LoadCheckpoint(path).ok());
    const uint64_t before = materializations();
    ASSERT_TRUE(restored.FleetForecast().ok());
    EXPECT_EQ(materializations() - before, restored.VehicleIds().size());
    EXPECT_EQ(CheckpointBytes(restored, "resaved.ckpt"), saved) << threads;
  }
  telemetry::SetEnabled(false);
  std::remove(path.c_str());
}

TEST(ParallelDeterminismTest, PaperMetricsUnchangedByThreadCount) {
  const data::DailySeries series = SimulatedVehicle(4, 700);
  core::OldVehicleOptions options;
  options.window = 3;
  options.tune = false;
  options.resampling_shifts = 0;

  // The process-wide default drives model-internal parallelism when no
  // explicit per-model count is set (as in the evaluation protocol).
  ThreadPool::SetDefaultThreadCount(1);
  const auto serial =
      core::EvaluateAlgorithmOnVehicle("RF", series, kTv, options)
          .ValueOrDie();
  ThreadPool::SetDefaultThreadCount(4);
  const auto parallel =
      core::EvaluateAlgorithmOnVehicle("RF", series, kTv, options)
          .ValueOrDie();
  ThreadPool::SetDefaultThreadCount(0);  // restore hardware default

  EXPECT_EQ(serial.emre, parallel.emre);
  EXPECT_EQ(serial.eglobal, parallel.eglobal);
}

}  // namespace
}  // namespace nextmaint
