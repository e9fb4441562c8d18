// Segmented checkpoint load compat suite: a fleet restored from its
// checkpoint must forecast bit-identically to the fleet that saved it,
// lazy loads must materialize on first touch only, and re-saving a lazily
// loaded fleet must reproduce the checkpoint byte-for-byte without parsing
// a model.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/telemetry.h"
#include "core/scheduler.h"
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

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class MigrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string stem =
        ::testing::TempDir() + "migration_test_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    segmented_path_ = stem + ".ckpt";
    std::remove(segmented_path_.c_str());
  }
  void TearDown() override { std::remove(segmented_path_.c_str()); }

  /// A trained 3-vehicle fleet with its checkpoint on disk.
  FleetScheduler TrainedFleet() {
    FleetScheduler scheduler(FastOptions());
    for (int v = 0; v < 3; ++v) {
      const std::string id = std::string("v") + std::to_string(v);
      EXPECT_TRUE(scheduler.RegisterVehicle(id, Day(0)).ok());
      EXPECT_TRUE(
          scheduler
              .IngestSeries(id, SimulatedVehicle(static_cast<uint64_t>(v) + 1,
                                                 600))
              .ok());
    }
    EXPECT_TRUE(scheduler.TrainAll().ok());
    EXPECT_TRUE(scheduler.SaveCheckpoint(segmented_path_).ok());
    return scheduler;
  }

  /// A fresh scheduler with the same registered vehicles and data but no
  /// trained models, ready to LoadCheckpoint.
  FleetScheduler FreshFleet() {
    FleetScheduler scheduler(FastOptions());
    for (int v = 0; v < 3; ++v) {
      const std::string id = std::string("v") + std::to_string(v);
      EXPECT_TRUE(scheduler.RegisterVehicle(id, Day(0)).ok());
      EXPECT_TRUE(
          scheduler
              .IngestSeries(id, SimulatedVehicle(static_cast<uint64_t>(v) + 1,
                                                 600))
              .ok());
    }
    return scheduler;
  }

  std::string segmented_path_;
};

TEST_F(MigrationTest, SegmentedLoadForecastsBitIdenticallyToTrainedFleet) {
  const FleetScheduler trained = TrainedFleet();
  FleetScheduler from_segmented = FreshFleet();
  ASSERT_TRUE(from_segmented.LoadCheckpoint(segmented_path_).ok());

  for (int v = 0; v < 3; ++v) {
    const std::string id = std::string("v") + std::to_string(v);
    const MaintenanceForecast a = trained.Forecast(id).ValueOrDie();
    const MaintenanceForecast b = from_segmented.Forecast(id).ValueOrDie();
    EXPECT_EQ(a.model_name, b.model_name) << id;
    // Bit-identical, not approximately equal: a checkpoint is a cache of
    // the trained models.
    EXPECT_EQ(a.days_left, b.days_left) << id;
    EXPECT_EQ(a.usage_seconds_left, b.usage_seconds_left) << id;
    EXPECT_EQ(a.predicted_date.day_number(), b.predicted_date.day_number())
        << id;
  }
}

TEST_F(MigrationTest, LazyLoadMaterializesOnFirstTouchOnly) {
  TrainedFleet();
  telemetry::SetEnabled(true);
  FleetScheduler lazy = FreshFleet();
  const telemetry::MetricsSnapshot before = telemetry::Snapshot();
  ASSERT_TRUE(lazy.LoadCheckpoint(segmented_path_).ok());

  auto materializations = [&before]() -> uint64_t {
    const telemetry::MetricsSnapshot now = telemetry::Snapshot();
    const auto it =
        now.counters.find("scheduler.checkpoint.lazy_materializations");
    const uint64_t total = it == now.counters.end() ? 0 : it->second;
    const auto base =
        before.counters.find("scheduler.checkpoint.lazy_materializations");
    return total - (base == before.counters.end() ? 0 : base->second);
  };

  // The load itself parses nothing.
  EXPECT_EQ(materializations(), 0);
  EXPECT_TRUE(lazy.HasTrainedModel("v0").ValueOrDie());

  // First forecast touches exactly one vehicle's segment.
  ASSERT_TRUE(lazy.Forecast("v0").ok());
  EXPECT_EQ(materializations(), 1);
  // Repeat forecasts reuse the materialized model.
  ASSERT_TRUE(lazy.Forecast("v0").ok());
  EXPECT_EQ(materializations(), 1);
  ASSERT_TRUE(lazy.Forecast("v1").ok());
  EXPECT_EQ(materializations(), 2);
  telemetry::SetEnabled(false);
}

TEST_F(MigrationTest, ResavingALazyFleetCopiesSegmentsVerbatim) {
  TrainedFleet();
  const std::string original = ReadFileBytes(segmented_path_);

  telemetry::SetEnabled(true);
  FleetScheduler lazy = FreshFleet();
  ASSERT_TRUE(lazy.LoadCheckpoint(segmented_path_).ok());
  // Touch one vehicle so the re-save mixes materialized and pending
  // segments; both paths must reproduce the original bytes.
  ASSERT_TRUE(lazy.Forecast("v1").ok());

  const telemetry::MetricsSnapshot before = telemetry::Snapshot();
  ASSERT_TRUE(lazy.SaveCheckpoint(segmented_path_).ok());
  EXPECT_EQ(ReadFileBytes(segmented_path_), original);

  // The save did not materialize the untouched vehicles.
  const telemetry::MetricsSnapshot after = telemetry::Snapshot();
  const auto count = [](const telemetry::MetricsSnapshot& snapshot) {
    const auto it =
        snapshot.counters.find("scheduler.checkpoint.lazy_materializations");
    return it == snapshot.counters.end() ? uint64_t{0} : it->second;
  };
  EXPECT_EQ(count(after), count(before));
  telemetry::SetEnabled(false);
}

TEST_F(MigrationTest, CorruptSegmentSurfacesAtForecastNotLoad) {
  TrainedFleet();
  // Flip a byte in the first vehicle's segment payload.
  std::string bytes = ReadFileBytes(segmented_path_);
  bytes[storage::kDataRegionOffset + 5] ^= 0x10;
  {
    std::ofstream out(segmented_path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  FleetScheduler lazy = FreshFleet();
  // The index is intact, so the lazy load succeeds...
  ASSERT_TRUE(lazy.LoadCheckpoint(segmented_path_).ok());
  // ...and the corruption surfaces as kDataLoss when the damaged vehicle
  // is first touched, while its siblings keep forecasting.
  EXPECT_EQ(lazy.Forecast("v0").status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(lazy.Forecast("v1").ok());
}

}  // namespace
}  // namespace core
}  // namespace nextmaint
