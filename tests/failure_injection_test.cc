// Failure-injection tests: corrupt, adversarial or degenerate inputs at
// every pipeline seam must surface clean Status errors (or documented
// repairs) — never crashes, NaN propagation or silent nonsense.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "nextmaint.h"

namespace nextmaint {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Date Day(int offset) {
  return Date::FromYmd(2015, 1, 1).ValueOrDie().AddDays(offset);
}

// ---------------------------------------------------------------------------
// CSV layer.
// ---------------------------------------------------------------------------

TEST(CsvFailureTest, BinaryGarbageDoesNotCrash) {
  std::string garbage = "a,b\n\x01\x02\x03,\xff\xfe\n";
  std::istringstream stream(garbage);
  // Unparsable bytes become string cells; the reader stays well-defined.
  const auto result = data::ReadCsv(stream);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().num_rows(), 1u);
}

TEST(CsvFailureTest, MissingColumnsSurfaceAsNotFound) {
  std::istringstream stream("wrong,names\n1,2\n");
  const data::Table table = data::ReadCsv(stream).ValueOrDie();
  EXPECT_EQ(data::AggregateDaily(table, "date", "utilization_s")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(CsvFailureTest, HugeFieldHandled) {
  std::string big_field(1 << 20, 'x');
  std::istringstream stream("a\n" + big_field + "\n");
  const auto result = data::ReadCsv(stream);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().column(0).StringAt(0).size(), 1u << 20);
}

// ---------------------------------------------------------------------------
// Preparation pipeline.
// ---------------------------------------------------------------------------

TEST(PipelineFailureTest, AllNaNSeriesRepairsToZeros) {
  data::DailySeries series(Day(0), std::vector<double>(30, kNaN));
  data::Clean(&series);
  EXPECT_TRUE(series.IsComplete());
  // A fully repaired dead series categorizes as new, not as an error.
  EXPECT_EQ(core::CategorizeUsage(series, 2e6).ValueOrDie(),
            core::VehicleCategory::kNew);
}

TEST(PipelineFailureTest, NegativeAndOverflowingUsageClamped) {
  data::DailySeries series(Day(0), {-500.0, 1e12, 3'000.0});
  const data::CleaningReport report = data::Clean(&series);
  EXPECT_EQ(report.clamped_low, 1u);
  EXPECT_EQ(report.clamped_high, 1u);
  const auto derived = core::DeriveSeries(series, 90'000.0);
  ASSERT_TRUE(derived.ok());  // clamped values are derivable
}

TEST(PipelineFailureTest, DeriveSeriesRejectsUncleanData) {
  data::DailySeries dirty(Day(0), {1.0, kNaN});
  EXPECT_EQ(core::DeriveSeries(dirty, 100.0).status().code(),
            StatusCode::kDataError);
}

TEST(PipelineFailureTest, InfinityIsClampedByCleaning) {
  data::DailySeries series(
      Day(0), {std::numeric_limits<double>::infinity(), 10.0});
  data::Clean(&series);
  EXPECT_DOUBLE_EQ(series[0], 86'400.0);
}

// ---------------------------------------------------------------------------
// Model layer.
// ---------------------------------------------------------------------------

TEST(ModelFailureTest, AllModelsRejectNonFiniteTraining) {
  ml::Dataset poisoned;
  const std::vector<double> bad_row = {kNaN, 1.0};
  const std::vector<double> good_row = {1.0, 2.0};
  poisoned.AddRow(std::span<const double>(bad_row.data(), 2), 1.0);
  poisoned.AddRow(std::span<const double>(good_row.data(), 2), 2.0);
  for (const std::string& name : ml::RegisteredModelNames()) {
    auto model = ml::MakeRegressor(name).MoveValueOrDie();
    EXPECT_FALSE(model->Fit(poisoned).ok()) << name;
  }
}

TEST(ModelFailureTest, SingleRowDatasetsTrainOrFailCleanly) {
  ml::Dataset tiny;
  const std::vector<double> row = {1.0};
  tiny.AddRow(std::span<const double>(row.data(), 1), 5.0);
  for (const std::string& name : ml::RegisteredModelNames()) {
    auto model = ml::MakeRegressor(name).MoveValueOrDie();
    const Status status = model->Fit(tiny);
    if (status.ok()) {
      const auto pred =
          model->Predict(std::span<const double>(row.data(), 1));
      ASSERT_TRUE(pred.ok()) << name;
      EXPECT_TRUE(std::isfinite(pred.ValueOrDie())) << name;
    }
  }
}

TEST(ModelFailureTest, ExtremeFeatureMagnitudesStayFinite) {
  Rng rng(3);
  ml::Dataset extreme;
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> row = {rng.Uniform(0, 1e12),
                                     rng.Uniform(-1e-9, 1e-9)};
    extreme.AddRow(std::span<const double>(row.data(), 2),
                   rng.Uniform(0, 300));
  }
  for (const std::string& name : ml::RegisteredModelNames()) {
    auto model = ml::MakeRegressor(name).MoveValueOrDie();
    ASSERT_TRUE(model->Fit(extreme).ok()) << name;
    const std::vector<double> probe = {5e11, 0.0};
    const auto pred =
        model->Predict(std::span<const double>(probe.data(), 2));
    ASSERT_TRUE(pred.ok()) << name;
    EXPECT_TRUE(std::isfinite(pred.ValueOrDie())) << name;
  }
}

// ---------------------------------------------------------------------------
// Serialized-model layer.
// ---------------------------------------------------------------------------

TEST(SerializedModelFailureTest, FuzzedHeadersNeverCrash) {
  const char* cases[] = {
      "",
      "\n\n\n",
      "nextmaint-model",
      "nextmaint-model v1",
      "nextmaint-model v1 RF trees -5\n",
      "nextmaint-model v1 XGB base nan\n",
      "nextmaint-model v1 Tree features 1 nodes 1\n0 0 0 0\nend\n",
      "nextmaint-model v1 LR weights 3 1 2\nend\n",
  };
  for (const char* text : cases) {
    std::istringstream stream(text);
    EXPECT_FALSE(ml::LoadRegressor(stream).ok()) << "case: " << text;
  }
}

TEST(SerializedModelFailureTest, GiganticNodeCountRejectedGracefully) {
  // Claims 4 billion nodes but provides none: the reader must fail on the
  // truncated list, not allocate unbounded memory up front. (resize to the
  // claimed count is bounded by the subsequent parse failure.)
  std::istringstream stream(
      "nextmaint-model v1 Tree\nfeatures 1\nnodes 10\n1 2 0 0.5 1\nend\n");
  EXPECT_FALSE(ml::LoadRegressor(stream).ok());
}

// ---------------------------------------------------------------------------
// Scheduler seam.
// ---------------------------------------------------------------------------

TEST(SchedulerFailureTest, TelemetryOutageRepairedUpstream) {
  // A vehicle with injected outages must flow through Clean -> scheduler.
  Rng rng(4);
  telem::VehicleProfile profile = telem::DefaultFleetProfiles(1, &rng)[0];
  profile.maintenance_interval_s = 500'000.0;
  Rng sim_rng(5);
  auto history =
      telem::SimulateVehicle(profile, Day(0), 700, 0.08, &sim_rng)
          .ValueOrDie();
  ASSERT_GT(history.utilization.MissingCount(), 0u);

  core::SchedulerOptions options;
  options.maintenance_interval_s = 500'000.0;
  options.window = 3;
  options.algorithms = {"BL", "LR"};
  options.selection.tune = false;
  core::FleetScheduler scheduler(options);
  ASSERT_TRUE(scheduler.RegisterVehicle("v", Day(0)).ok());
  // Raw ingestion fails (missing values)...
  EXPECT_EQ(scheduler.IngestSeries("v", history.utilization).code(),
            StatusCode::kDataError);
  // ...and succeeds after the documented cleaning step.
  data::Clean(&history.utilization);
  EXPECT_TRUE(scheduler.IngestSeries("v", history.utilization).ok());
  EXPECT_TRUE(scheduler.TrainAll().ok());
  EXPECT_TRUE(scheduler.Forecast("v").ok());
}

TEST(SchedulerFailureTest, LoadCheckpointFromGarbageFails) {
  core::SchedulerOptions options;
  core::FleetScheduler scheduler(options);
  ASSERT_TRUE(scheduler.RegisterVehicle("v1", Day(0)).ok());
  const std::string path = ::testing::TempDir() + "/garbage_checkpoint.txt";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "vehicle v1 RF\nnot-a-model\n";
  }
  // A text file (this one shaped like a pre-segmented-format checkpoint) is
  // not a checkpoint: DataLoss, and no model is committed.
  EXPECT_EQ(scheduler.LoadCheckpoint(path).code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
  EXPECT_EQ(scheduler.Forecast("v1").status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace nextmaint
