#include "serve/serving_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoints.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/scheduler.h"
#include "core/series.h"
#include "telematics/fleet.h"

namespace nextmaint {
namespace serve {
namespace {

constexpr double kTv = 500'000.0;

Date Day(int offset) {
  return Date::FromYmd(2015, 1, 1).ValueOrDie().AddDays(offset);
}

core::SchedulerOptions FastOptions(int num_threads = 0) {
  core::SchedulerOptions options;
  options.maintenance_interval_s = kTv;
  options.window = 3;
  options.algorithms = {"BL", "LR"};
  options.unified_algorithm = "LR";
  options.selection.tune = false;
  options.selection.resampling_shifts = 0;
  options.num_threads = num_threads;
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

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Byte content of a scheduler checkpoint, via a throwaway temp file.
std::string CheckpointBytes(const core::FleetScheduler& scheduler,
                            const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(scheduler.SaveCheckpoint(path).ok());
  std::string bytes = ReadAll(path);
  std::remove(path.c_str());
  return bytes;
}

/// Requires every forecast field to be bit-identical, in the same order.
void ExpectForecastsIdentical(
    const std::vector<core::MaintenanceForecast>& got,
    const std::vector<core::MaintenanceForecast>& want,
    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].vehicle_id, want[i].vehicle_id) << label << " #" << i;
    EXPECT_EQ(got[i].category, want[i].category) << label << " #" << i;
    EXPECT_EQ(got[i].model_name, want[i].model_name) << label << " #" << i;
    EXPECT_EQ(got[i].days_left, want[i].days_left)
        << label << " " << got[i].vehicle_id;
    EXPECT_EQ(got[i].usage_seconds_left, want[i].usage_seconds_left)
        << label << " " << got[i].vehicle_id;
    EXPECT_EQ(got[i].predicted_date, want[i].predicted_date)
        << label << " " << got[i].vehicle_id;
  }
}

/// One vehicle of the property fleet: a full series plus how much of it the
/// engine bulk-loads before the day-by-day replay.
struct VehicleSpec {
  std::string id;
  data::DailySeries series;
  size_t warm;
};

/// The fleet the property test replays. Covers every category transition
/// the engine must survive: two old vehicles (stable corpus members), one
/// vehicle crossing semi-new -> old mid-replay (its first completed cycle
/// joins the corpus and must dirty every cold-start consumer), one vehicle
/// crossing new -> semi-new, and one staying new throughout.
std::vector<VehicleSpec> PropertyFleet() {
  std::vector<VehicleSpec> fleet;
  fleet.push_back({"old1", SimulatedVehicle(101, 600), 560});
  fleet.push_back({"old2", SimulatedVehicle(102, 600), 560});
  // 15000 s/day: 250k (semi-new) after ~17 days, 500k (old) after ~34.
  fleet.push_back({"cross",
                   data::DailySeries(Day(0), std::vector<double>(48, 15'000.0)),
                   20});
  // 18000 s/day starting tiny: crosses T_v/2 during the replay.
  fleet.push_back({"rise",
                   data::DailySeries(Day(0), std::vector<double>(40, 18'000.0)),
                   8});
  // 500 s/day: stays new forever.
  fleet.push_back({"fresh",
                   data::DailySeries(Day(0), std::vector<double>(35, 500.0)),
                   5});
  return fleet;
}

/// Scheduler options exercising the tree learners (and with them the
/// binned training core): RF in the per-vehicle selection, XGB as the
/// unified cold-start model, small settings so the property replay stays
/// fast.
core::SchedulerOptions TreeOptions(int num_threads, ml::TreeCore core) {
  core::SchedulerOptions options = FastOptions(num_threads);
  options.algorithms = {"BL", "RF"};
  options.unified_algorithm = "XGB";
  options.tree_core = core;
  // Selection is untuned (library defaults); only the cold-start models
  // take explicit params, trimmed for test speed.
  options.cold_start.model_params = {{"num_estimators", 6},
                                     {"num_iterations", 8},
                                     {"max_depth", 4},
                                     {"max_bins", 64},
                                     {"min_samples_leaf", 2}};
  return options;
}

/// A from-scratch batch run over exactly `ingested[id]` days per vehicle:
/// the ground truth the incremental engine must be bit-identical to.
core::FleetScheduler BatchScheduler(
    const std::vector<VehicleSpec>& fleet,
    const std::map<std::string, size_t>& ingested,
    const core::SchedulerOptions& options) {
  core::FleetScheduler scheduler(options);
  for (const VehicleSpec& v : fleet) {
    EXPECT_TRUE(scheduler.RegisterVehicle(v.id, v.series.start_date()).ok());
    const size_t days = ingested.at(v.id);
    if (days == 0) continue;
    EXPECT_TRUE(scheduler.IngestSeries(v.id, v.series.Slice(0, days)).ok());
  }
  EXPECT_TRUE(scheduler.TrainAll().ok());
  return scheduler;
}

/// The tentpole invariant (ISSUE 5 acceptance): random interleavings of
/// appends and refreshes produce forecasts bit-identical to a from-scratch
/// batch run over the same data, at 1 and 4 threads — including vehicles
/// that change category (and corpus membership) mid-replay.
TEST(ServingEngineTest, IncrementalMatchesBatchUnderRandomInterleavings) {
  for (const int threads : {1, 4}) {
    for (const uint64_t round : {1u, 2u}) {
      const std::vector<VehicleSpec> fleet = PropertyFleet();
      ServingEngine engine(FastOptions(threads));
      std::map<std::string, size_t> ingested;
      for (const VehicleSpec& v : fleet) {
        ASSERT_TRUE(engine.Register(v.id, v.series.start_date()).ok());
        if (v.warm > 0) {
          ASSERT_TRUE(
              engine.LoadHistory(v.id, v.series.Slice(0, v.warm)).ok());
        }
        ingested[v.id] = v.warm;
      }
      ASSERT_TRUE(engine.RefreshForecasts().ok());

      // The schedule depends only on (round) so both thread counts replay
      // the identical interleaving.
      Rng schedule(900 + round);
      const std::string label =
          "threads=" + std::to_string(threads) +
          " round=" + std::to_string(round);
      for (int step = 0; step < 30; ++step) {
        for (const VehicleSpec& v : fleet) {
          size_t& next = ingested[v.id];
          if (next >= v.series.size()) continue;
          // Vehicles advance at random, uneven rates.
          if (!schedule.Bernoulli(0.75)) continue;
          const Date day =
              v.series.start_date().AddDays(static_cast<int64_t>(next));
          ASSERT_TRUE(engine.Append(v.id, day, v.series[next]).ok())
              << label << " " << v.id;
          ++next;
        }
        if (schedule.Bernoulli(0.4)) {
          ASSERT_TRUE(engine.RefreshForecasts().ok()) << label;
        }
      }
      ASSERT_TRUE(engine.RefreshForecasts().ok()) << label;

      const core::FleetScheduler batch =
          BatchScheduler(fleet, ingested, FastOptions(threads));
      ExpectForecastsIdentical(engine.Snapshot()->forecasts,
                               batch.FleetForecast().ValueOrDie(), label);
      // The trained state itself must match byte for byte, not just the
      // forecasts derived from it.
      EXPECT_EQ(CheckpointBytes(engine.scheduler(), "serve_inc.txt"),
                CheckpointBytes(batch, "serve_batch.txt"))
          << label;
    }
  }
}

/// The binned-core serving contract (docs/binned-training.md): with tree
/// learners in the loop, append/refresh interleavings must stay checkpoint-
/// byte-identical to a from-scratch batch run — and the batch run itself
/// must be byte-identical whether it trains on the binned or the row core.
TEST(ServingEngineTest, BinnedInterleavingMatchesBatchAcrossCores) {
  for (const int threads : {1, 4}) {
    const std::vector<VehicleSpec> fleet = PropertyFleet();
    ServingEngine engine(TreeOptions(threads, ml::TreeCore::kBinned));
    std::map<std::string, size_t> ingested;
    for (const VehicleSpec& v : fleet) {
      ASSERT_TRUE(engine.Register(v.id, v.series.start_date()).ok());
      if (v.warm > 0) {
        ASSERT_TRUE(engine.LoadHistory(v.id, v.series.Slice(0, v.warm)).ok());
      }
      ingested[v.id] = v.warm;
    }
    ASSERT_TRUE(engine.RefreshForecasts().ok());

    Rng schedule(4400 + static_cast<uint64_t>(threads));
    const std::string label = "binned threads=" + std::to_string(threads);
    for (int step = 0; step < 12; ++step) {
      for (const VehicleSpec& v : fleet) {
        size_t& next = ingested[v.id];
        if (next >= v.series.size()) continue;
        if (!schedule.Bernoulli(0.75)) continue;
        const Date day =
            v.series.start_date().AddDays(static_cast<int64_t>(next));
        ASSERT_TRUE(engine.Append(v.id, day, v.series[next]).ok())
            << label << " " << v.id;
        ++next;
      }
      if (schedule.Bernoulli(0.4)) {
        ASSERT_TRUE(engine.RefreshForecasts().ok()) << label;
      }
    }
    ASSERT_TRUE(engine.RefreshForecasts().ok()) << label;

    const core::FleetScheduler batch_binned = BatchScheduler(
        fleet, ingested, TreeOptions(threads, ml::TreeCore::kBinned));
    ExpectForecastsIdentical(engine.Snapshot()->forecasts,
                             batch_binned.FleetForecast().ValueOrDie(), label);
    const std::string binned_bytes =
        CheckpointBytes(batch_binned, "serve_batch_binned.txt");
    EXPECT_EQ(CheckpointBytes(engine.scheduler(), "serve_inc_binned.txt"),
              binned_bytes)
        << label;
    // Cross-core pin at fleet level: retraining the identical fleet on the
    // row-oriented core (single-threaded) reproduces the same checkpoint.
    const core::FleetScheduler batch_row = BatchScheduler(
        fleet, ingested, TreeOptions(1, ml::TreeCore::kRowOriented));
    EXPECT_EQ(binned_bytes, CheckpointBytes(batch_row, "serve_batch_row.txt"))
        << label;
  }
}

/// Bin mappers are built once per vehicle and cached; appending usage must
/// invalidate exactly that vehicle's cache, and a series replacement must
/// also drop the unified-corpus cache.
TEST(ServingEngineTest, BinningCacheInvalidationFollowsIngest) {
  ServingEngine engine(TreeOptions(1, ml::TreeCore::kBinned));
  const data::DailySeries s1 = SimulatedVehicle(201, 600);
  const data::DailySeries s2 = SimulatedVehicle(202, 600);
  // v1's appended day closes a maintenance cycle, so the refresh after it
  // trains on new labeled data (a day inside an open cycle is served from
  // the fit memo, which bins nothing).
  const size_t closing_day =
      core::DeriveSeries(s1, kTv).ValueOrDie().cycles.back().end;
  ASSERT_TRUE(engine.Register("v1", s1.start_date()).ok());
  ASSERT_TRUE(engine.Register("v2", s2.start_date()).ok());
  ASSERT_TRUE(engine.LoadHistory("v1", s1.Slice(0, closing_day)).ok());
  ASSERT_TRUE(engine.LoadHistory("v2", s2).ok());
  // Before any training there is nothing cached.
  EXPECT_EQ(engine.scheduler().VehicleBinningCache("v1"), nullptr);
  ASSERT_TRUE(engine.RefreshForecasts().ok());

  const auto v1_cache = engine.scheduler().VehicleBinningCache("v1");
  ASSERT_NE(v1_cache, nullptr);
  EXPECT_GT(v1_cache->stats().lookups, 0u);
  EXPECT_GT(v1_cache->stats().entries, 0u);
  // Both old vehicles contribute first cycles, so the unified XGB model
  // trained through the shared corpus cache.
  const auto unified = engine.scheduler().UnifiedBinningCache();
  ASSERT_NE(unified, nullptr);
  EXPECT_GT(unified->stats().lookups, 0u);

  // An append dirties exactly the appended vehicle's mapper cache.
  ASSERT_TRUE(engine
                  .Append("v1",
                          s1.start_date().AddDays(
                              static_cast<int64_t>(closing_day)),
                          s1[closing_day])
                  .ok());
  EXPECT_EQ(engine.scheduler().VehicleBinningCache("v1"), nullptr);
  EXPECT_NE(engine.scheduler().VehicleBinningCache("v2"), nullptr);
  // Retraining recreates and repopulates it.
  ASSERT_TRUE(engine.RefreshForecasts().ok());
  const auto rebuilt = engine.scheduler().VehicleBinningCache("v1");
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_GT(rebuilt->stats().entries, 0u);

  // Wholesale series replacement invalidates the corpus-level cache too:
  // the first cycle itself may have changed.
  core::FleetScheduler batch(TreeOptions(1, ml::TreeCore::kBinned));
  ASSERT_TRUE(batch.RegisterVehicle("v1", s1.start_date()).ok());
  ASSERT_TRUE(batch.IngestSeries("v1", s1).ok());
  ASSERT_TRUE(batch.TrainAll().ok());
  ASSERT_NE(batch.UnifiedBinningCache(), nullptr);
  EXPECT_GT(batch.UnifiedBinningCache()->stats().entries, 0u);
  ASSERT_TRUE(batch.IngestSeries("v1", s1).ok());
  EXPECT_EQ(batch.VehicleBinningCache("v1"), nullptr);
  EXPECT_EQ(batch.UnifiedBinningCache()->stats().entries, 0u);
}

/// Only tree learners read a per-vehicle binning cache, so a BL/LR fleet
/// (binned core or not) never creates one.
TEST(ServingEngineTest, LinearFleetCreatesNoVehicleBinningCache) {
  const core::SchedulerOptions options = FastOptions(1);
  ASSERT_EQ(options.tree_core, ml::TreeCore::kBinned);
  ServingEngine engine(options);
  const data::DailySeries s1 = SimulatedVehicle(201, 600);
  const data::DailySeries s2 = SimulatedVehicle(202, 600);
  ASSERT_TRUE(engine.Register("v1", s1.start_date()).ok());
  ASSERT_TRUE(engine.Register("v2", s2.start_date()).ok());
  ASSERT_TRUE(engine.LoadHistory("v1", s1.Slice(0, 599)).ok());
  ASSERT_TRUE(engine.LoadHistory("v2", s2).ok());
  ASSERT_TRUE(engine.RefreshForecasts().ok());
  EXPECT_EQ(engine.scheduler().VehicleBinningCache("v1"), nullptr);
  EXPECT_EQ(engine.scheduler().VehicleBinningCache("v2"), nullptr);

  ASSERT_TRUE(engine.Append("v1", s1.start_date().AddDays(599), s1[599]).ok());
  ASSERT_TRUE(engine.RefreshForecasts().ok());
  EXPECT_EQ(engine.scheduler().VehicleBinningCache("v1"), nullptr);
  EXPECT_EQ(engine.scheduler().VehicleBinningCache("v2"), nullptr);
}

TEST(ServingEngineTest, CachedStateMatchesBatchDerivation) {
  const data::DailySeries series = SimulatedVehicle(7, 600);
  ServingEngine engine(FastOptions());
  ASSERT_TRUE(engine.Register("v1", series.start_date()).ok());
  ASSERT_TRUE(engine.LoadHistory("v1", series.Slice(0, 550)).ok());
  for (size_t i = 550; i < series.size(); ++i) {
    ASSERT_TRUE(engine
                    .Append("v1",
                            series.start_date().AddDays(
                                static_cast<int64_t>(i)),
                            series[i])
                    .ok());
  }
  ASSERT_TRUE(engine.RefreshForecasts().ok());

  core::FleetScheduler batch(FastOptions());
  ASSERT_TRUE(batch.RegisterVehicle("v1", series.start_date()).ok());
  ASSERT_TRUE(batch.IngestSeries("v1", series).ok());
  ASSERT_TRUE(batch.TrainAll().ok());
  const core::MaintenanceForecast want = batch.Forecast("v1").ValueOrDie();

  // The O(1) cached mirror reproduces the full DeriveSeries walk bit for
  // bit: L_v(today) is the forecast's usage_seconds_left.
  const VehicleServeState state = engine.CachedState("v1").ValueOrDie();
  EXPECT_EQ(state.cycles.days, series.size());
  EXPECT_EQ(state.cycles.UsageLeft(), want.usage_seconds_left);
  EXPECT_TRUE(state.has_forecast);
  EXPECT_FALSE(state.dirty);
  EXPECT_GE(state.cycles.completed_cycles, 1u);
  double total = 0.0;
  for (size_t i = 0; i < series.size(); ++i) total += series[i];
  EXPECT_EQ(state.cycles.total_usage, total);
}

TEST(ServingEngineTest, DirtyTrackingRefreshesOnlyChangedVehicles) {
  ServingEngine engine(FastOptions());
  for (int v = 1; v <= 3; ++v) {
    const std::string id = std::string("v") + std::to_string(v);
    const data::DailySeries series = SimulatedVehicle(40 + v, 600);
    ASSERT_TRUE(engine.Register(id, series.start_date()).ok());
    ASSERT_TRUE(engine.LoadHistory(id, series).ok());
  }
  EXPECT_EQ(engine.DirtyCount(), 3u);
  const RefreshStats first = engine.RefreshForecasts().ValueOrDie();
  EXPECT_EQ(first.epoch, 1u);
  EXPECT_EQ(first.refreshed, 3u);
  EXPECT_EQ(first.reused, 0u);
  EXPECT_TRUE(first.corpus_rebuilt);
  EXPECT_EQ(engine.DirtyCount(), 0u);

  // One appended day to one old vehicle dirties exactly that vehicle; its
  // corpus contribution is append-invariant, so nobody else retrains.
  ASSERT_TRUE(engine.Append("v2", Day(600), 9'000.0).ok());
  EXPECT_EQ(engine.DirtyCount(), 1u);
  const RefreshStats second = engine.RefreshForecasts().ValueOrDie();
  EXPECT_EQ(second.epoch, 2u);
  EXPECT_EQ(second.refreshed, 1u);
  EXPECT_EQ(second.reused, 2u);
  EXPECT_FALSE(second.corpus_rebuilt);
  EXPECT_EQ(engine.epoch(), 2u);
  // The one-vehicle refresh leaves the fleet bit-identical to a batch run
  // over the same data.
  core::FleetScheduler batch(FastOptions());
  for (int v = 1; v <= 3; ++v) {
    const std::string id = std::string("v") + std::to_string(v);
    data::DailySeries series = SimulatedVehicle(40 + v, 600);
    if (v == 2) series.Append(9'000.0);
    ASSERT_TRUE(batch.RegisterVehicle(id, series.start_date()).ok());
    ASSERT_TRUE(batch.IngestSeries(id, series).ok());
  }
  ASSERT_TRUE(batch.TrainAll().ok());
  ExpectForecastsIdentical(engine.Snapshot()->forecasts,
                           batch.FleetForecast().ValueOrDie(), "one dirty");

  // A clean fleet refresh is a no-op that still publishes a new epoch.
  const RefreshStats third = engine.RefreshForecasts().ValueOrDie();
  EXPECT_EQ(third.refreshed, 0u);
  EXPECT_EQ(third.reused, 3u);

  // A rejected append (out-of-order day, NaN seconds, unknown id) leaves
  // the dirty bookkeeping as it was, on a clean vehicle and on a dirty one.
  const auto is_dirty = [](const ServingEngine& e, const std::string& id) {
    return e.CachedState(id).ValueOrDie().dirty;
  };
  const auto reject_appends = [&] {
    EXPECT_EQ(engine.Append("v1", Day(602), 9'000.0).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(engine.Append("v1", Day(600), std::nan("")).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(engine.Append("ghost", Day(600), 9'000.0).code(),
              StatusCode::kNotFound);
  };
  reject_appends();
  EXPECT_EQ(engine.DirtyCount(), 0u);
  EXPECT_FALSE(is_dirty(engine, "v1"));
  ASSERT_TRUE(engine.Append("v3", Day(600), 9'000.0).ok());
  reject_appends();
  EXPECT_EQ(engine.DirtyCount(), 1u);
  EXPECT_FALSE(is_dirty(engine, "v1"));
  EXPECT_TRUE(is_dirty(engine, "v3"));

  // A closing first cycle dirties exactly the vehicles that are not old,
  // and a strict refresh that fails afterwards (a vehicle too short to
  // forecast) keeps every dirty vehicle dirty.
  core::SchedulerOptions strict_options = FastOptions();
  strict_options.strict = true;
  ServingEngine strict(strict_options);
  const std::map<std::string, data::DailySeries> fleet = {
      {"new", data::DailySeries(Day(0), std::vector<double>(10, 500.0))},
      {"old", SimulatedVehicle(44, 600)},
      // 495k of T_v = 500k: semi-new until one more 15000 s day.
      {"semi", data::DailySeries(Day(0), std::vector<double>(33, 15'000.0))},
  };
  for (const auto& [id, series] : fleet) {
    ASSERT_TRUE(strict.Register(id, series.start_date()).ok());
    ASSERT_TRUE(strict.LoadHistory(id, series).ok());
  }
  ASSERT_TRUE(strict.RefreshForecasts().ok());
  ASSERT_TRUE(strict.Append("semi", Day(33), 15'000.0).ok());
  ASSERT_TRUE(strict.Register("short", Day(0)).ok());
  ASSERT_TRUE(strict.Append("short", Day(0), 500.0).ok());
  EXPECT_EQ(strict.DirtyCount(), 2u);
  EXPECT_FALSE(strict.RefreshForecasts().ok());
  EXPECT_EQ(strict.epoch(), 1u);
  EXPECT_EQ(strict.DirtyCount(), 3u);
  EXPECT_TRUE(is_dirty(strict, "new"));
  EXPECT_FALSE(is_dirty(strict, "old"));
  EXPECT_TRUE(is_dirty(strict, "semi"));
  EXPECT_TRUE(is_dirty(strict, "short"));
}

/// Each corpus event of the refresh contract: whether it rebuilds the
/// cold-start corpus (the stat and the serve.refresh.corpus_rebuilds
/// counter), which vehicles it refreshes, and that the trained state
/// afterwards is byte-identical to a batch TrainAll over the same data.
TEST(ServingEngineTest, CorpusEventsRebuildExactlyWhenTheCorpusChanges) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    telemetry::SetEnabled(true);
    telemetry::MetricsRegistry::Global().Reset();
    ServingEngine engine(FastOptions(threads));
    std::map<std::string, data::DailySeries> data = {
        {"new", data::DailySeries(Day(0), std::vector<double>(10, 500.0))},
        {"old1", SimulatedVehicle(111, 600)},
        {"old2", SimulatedVehicle(112, 600)},
        // 15000 s/day: semi-new from day 17, its first cycle closes with
        // day 34 (510k >= T_v).
        {"semi", data::DailySeries(Day(0), std::vector<double>(30, 15'000.0))},
        // Stays semi-new throughout.
        {"semi2",
         data::DailySeries(Day(0), std::vector<double>(20, 15'000.0))},
    };
    for (const auto& [id, series] : data) {
      ASSERT_TRUE(engine.Register(id, series.start_date()).ok());
      ASSERT_TRUE(engine.LoadHistory(id, series).ok());
    }
    const auto append = [&](const std::string& id, double seconds) {
      data::DailySeries& series = data.at(id);
      ASSERT_TRUE(engine.Append(id, series.next_date(), seconds).ok()) << id;
      series.Append(seconds);  // nextmaint-lint: allow(unchecked-status): DailySeries::Append is void
    };
    const auto load = [&](const std::string& id, data::DailySeries series) {
      ASSERT_TRUE(engine.LoadHistory(id, series).ok()) << id;
      data[id] = std::move(series);
    };
    const auto rebuilds = [] {
      const telemetry::MetricsSnapshot metrics = telemetry::Snapshot();
      auto it = metrics.counters.find("serve.refresh.corpus_rebuilds");
      return it == metrics.counters.end() ? uint64_t{0} : it->second;
    };
    const auto expect_refresh = [&](const std::string& event, bool rebuilt,
                                    const std::set<std::string>& refreshed) {
      SCOPED_TRACE(event);
      [[maybe_unused]] const uint64_t rebuilds_before = rebuilds();
      const Result<RefreshStats> stats = engine.RefreshForecasts();
      ASSERT_TRUE(stats.ok()) << stats.status();
      EXPECT_EQ(stats.ValueOrDie().corpus_rebuilt, rebuilt);
#ifndef NEXTMAINT_TELEMETRY_DISABLED
      EXPECT_EQ(rebuilds() - rebuilds_before, rebuilt ? 1u : 0u);
#endif
      std::set<std::string> got;
      for (const auto& [id, series] : data) {
        if (engine.CachedState(id).ValueOrDie().last_refresh_epoch ==
            stats.ValueOrDie().epoch) {
          got.insert(id);
        }
      }
      EXPECT_EQ(got, refreshed);
      EXPECT_EQ(stats.ValueOrDie().refreshed, refreshed.size());

      core::FleetScheduler batch(FastOptions(threads));
      for (const auto& [id, series] : data) {
        ASSERT_TRUE(batch.RegisterVehicle(id, series.start_date()).ok());
        ASSERT_TRUE(batch.IngestSeries(id, series).ok());
      }
      ASSERT_TRUE(batch.TrainAll().ok());
      EXPECT_EQ(CheckpointBytes(engine.scheduler(), "corpus_events_inc.ckpt"),
                CheckpointBytes(batch, "corpus_events_batch.ckpt"));
    };

    expect_refresh("first refresh", true,
                   {"new", "old1", "old2", "semi", "semi2"});
    // Appends that close no first cycle (semi reaches 495k of 500k).
    append("old1", 9'000.0);
    for (int day = 0; day < 3; ++day) append("semi", 15'000.0);
    expect_refresh("append without a first-cycle close", false,
                   {"old1", "semi"});
    // semi's first cycle closes: its contribution joins the corpus and
    // every vehicle that is not old retrains against it.
    append("semi", 15'000.0);
    expect_refresh("append closing a first cycle", true,
                   {"new", "semi", "semi2"});
    // Replacing an old vehicle's history may change its first cycle.
    load("old2", SimulatedVehicle(113, 580));
    expect_refresh("LoadHistory on an old vehicle", true,
                   {"new", "old2", "semi2"});
    // A new vehicle contributes nothing before or after.
    load("new", data::DailySeries(Day(0), std::vector<double>(12, 600.0)));
    expect_refresh("LoadHistory on a new vehicle", false, {"new"});
    telemetry::MetricsRegistry::Global().Reset();
    telemetry::SetEnabled(false);
  }
}

TEST(ServingEngineTest, SnapshotsAreImmutableAndEpoched) {
  ServingEngine engine(FastOptions());
  const data::DailySeries series = SimulatedVehicle(55, 600);
  ASSERT_TRUE(engine.Register("v1", series.start_date()).ok());
  ASSERT_TRUE(engine.LoadHistory("v1", series.Slice(0, 599)).ok());

  const std::shared_ptr<const FleetSnapshot> empty = engine.Snapshot();
  EXPECT_EQ(empty->epoch, 0u);
  EXPECT_TRUE(empty->forecasts.empty());

  ASSERT_TRUE(engine.RefreshForecasts().ok());
  const std::shared_ptr<const FleetSnapshot> one = engine.Snapshot();
  ASSERT_EQ(one->forecasts.size(), 1u);
  const double days_left_at_one = one->forecasts[0].days_left;

  ASSERT_TRUE(engine.Append("v1", Day(599), series[599]).ok());
  ASSERT_TRUE(engine.RefreshForecasts().ok());
  const std::shared_ptr<const FleetSnapshot> two = engine.Snapshot();
  EXPECT_EQ(two->epoch, 2u);
  EXPECT_EQ(engine.epoch(), 2u);

  // The older snapshot is untouched by the later refresh: a reader holding
  // it keeps a consistent view.
  EXPECT_EQ(empty->epoch, 0u);
  EXPECT_TRUE(empty->forecasts.empty());
  EXPECT_EQ(one->epoch, 1u);
  EXPECT_EQ(one->forecasts[0].days_left, days_left_at_one);
}

TEST(ServingEngineTest, ErrorContract) {
  ServingEngine engine(FastOptions());
  // Refresh on an empty fleet mirrors FleetForecast's contract.
  EXPECT_EQ(engine.RefreshForecasts().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Append("ghost", Day(0), 1.0).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.CachedState("ghost").status().code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(engine.Register("v1", Day(0)).ok());
  EXPECT_EQ(engine.Register("v1", Day(0)).code(),
            StatusCode::kAlreadyExists);
  // Failed appends leave the cached state untouched.
  EXPECT_TRUE(engine.Append("v1", Day(0), 1'000.0).ok());
  EXPECT_FALSE(engine.Append("v1", Day(5), 1'000.0).ok());  // gap
  EXPECT_FALSE(engine.Append("v1", Day(1), -3.0).ok());     // bad value
  const VehicleServeState state = engine.CachedState("v1").ValueOrDie();
  EXPECT_EQ(state.cycles.days, 1u);
  EXPECT_EQ(state.cycles.total_usage, 1'000.0);
  // The first refresh counts as a corpus rebuild even with no old vehicle.
  EXPECT_TRUE(engine.RefreshForecasts().ValueOrDie().corpus_rebuilt);

  // A maintenance interval that is not finite and positive fails the
  // refresh up front, as it fails TrainAll.
  for (const double tv : {0.0, -5.0, std::nan(""),
                          std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(tv);
    core::SchedulerOptions options = FastOptions();
    options.maintenance_interval_s = tv;
    ServingEngine invalid(options);
    ASSERT_TRUE(invalid.Register("v1", Day(0)).ok());
    ASSERT_TRUE(invalid.LoadHistory("v1", SimulatedVehicle(92, 600)).ok());
    EXPECT_EQ(invalid.RefreshForecasts().status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(invalid.epoch(), 0u);
  }
}

TEST(ServingEngineTest, GetForecastsBatchReadsFromOneSnapshot) {
  ServingEngine engine(FastOptions());
  const data::DailySeries series = SimulatedVehicle(31, 600);
  ASSERT_TRUE(engine.Register("v1", series.start_date()).ok());
  ASSERT_TRUE(engine.LoadHistory("v1", series).ok());
  // Registered but data-free: lands in the snapshot with no forecast.
  ASSERT_TRUE(engine.Register("empty", Day(0)).ok());
  ASSERT_TRUE(engine.RefreshForecasts().ok());
  // Registered after the refresh: not in the published snapshot at all.
  ASSERT_TRUE(engine.Register("late", Day(0)).ok());

  const std::vector<std::string> ids = {"v1", "ghost", "empty", "late"};
  const std::vector<Result<core::MaintenanceForecast>> results =
      engine.GetForecasts(ids);
  ASSERT_EQ(results.size(), 4u);

  // Request order is preserved; every entry comes from the same epoch-1
  // snapshot.
  ASSERT_TRUE(results[0].ok()) << results[0].status();
  EXPECT_EQ(results[0].ValueOrDie().vehicle_id, "v1");
  EXPECT_EQ(results[0].ValueOrDie().days_left,
            engine.Snapshot()->forecasts[0].days_left);
  EXPECT_EQ(results[1].status().code(), StatusCode::kNotFound);
  EXPECT_EQ(results[2].status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(results[3].status().code(), StatusCode::kNotFound);
}

/// A refresh forecasts its dirty vehicles through FleetScheduler's own
/// fan-out over the dirty ids, so "scheduler.forecast_vehicle:N" selects
/// the N-th dirty vehicle in id order and an unmodeled dirty vehicle still
/// uses up an ordinal. FleetForecast numbers only the modeled vehicles, so
/// the same spec selects a different vehicle there.
TEST(ServingEngineTest, ForecastFailpointOrdinalCountsUnmodeledDirtyVehicles) {
  if (!failpoints::CompiledIn()) {
    GTEST_SKIP() << "failpoints not compiled in";
  }
  failpoints::DisarmAll();
  const std::map<std::string, data::DailySeries> histories = {
      {"b_old", SimulatedVehicle(61, 600)},
      {"c_old", SimulatedVehicle(62, 600)},
  };
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    telemetry::SetEnabled(true);
    telemetry::MetricsRegistry::Global().Reset();
    ServingEngine engine(FastOptions(threads));
    // a_empty has no data and so no model; it sorts first among the dirty.
    ASSERT_TRUE(engine.Register("a_empty", Day(0)).ok());
    for (const auto& [id, series] : histories) {
      ASSERT_TRUE(engine.Register(id, series.start_date()).ok());
      ASSERT_TRUE(engine.LoadHistory(id, series).ok());
    }
    ASSERT_TRUE(failpoints::Arm("scheduler.forecast_vehicle:2").ok());
    const Result<RefreshStats> stats = engine.RefreshForecasts();
    failpoints::DisarmAll();
    ASSERT_TRUE(stats.ok()) << stats.status();
    const telemetry::MetricsSnapshot serve_metrics = telemetry::Snapshot();

    const std::shared_ptr<const FleetSnapshot> snapshot = engine.Snapshot();
    ASSERT_EQ(snapshot->degradations.vehicles.size(), 1u);
    const core::VehicleDegradation& degraded =
        snapshot->degradations.vehicles[0];
    EXPECT_EQ(degraded.vehicle_id, "b_old");
    EXPECT_EQ(degraded.stage, "forecast");
    EXPECT_TRUE(degraded.fallback);
    ASSERT_NE(snapshot->FindForecast("b_old"), nullptr);
    EXPECT_EQ(snapshot->FindForecast("b_old")->model_name, "BL_fallback");
    ASSERT_NE(snapshot->FindForecast("c_old"), nullptr);
    EXPECT_NE(snapshot->FindForecast("c_old")->model_name, "BL_fallback");
    EXPECT_EQ(snapshot->FindForecast("a_empty"), nullptr);

    core::FleetScheduler batch(FastOptions(threads));
    ASSERT_TRUE(batch.RegisterVehicle("a_empty", Day(0)).ok());
    for (const auto& [id, series] : histories) {
      ASSERT_TRUE(batch.RegisterVehicle(id, series.start_date()).ok());
      ASSERT_TRUE(batch.IngestSeries(id, series).ok());
    }
    ASSERT_TRUE(batch.TrainAll().ok());
    telemetry::MetricsRegistry::Global().Reset();
    ASSERT_TRUE(failpoints::Arm("scheduler.forecast_vehicle:2").ok());
    ASSERT_TRUE(batch.FleetForecast().ok());
    failpoints::DisarmAll();
    const telemetry::MetricsSnapshot batch_metrics = telemetry::Snapshot();
    telemetry::MetricsRegistry::Global().Reset();
    telemetry::SetEnabled(false);
    const core::DegradationReport report = batch.LastDegradationReport();
    ASSERT_EQ(report.vehicles.size(), 1u);
    EXPECT_EQ(report.vehicles[0].vehicle_id, "c_old");
    EXPECT_EQ(report.vehicles[0].stage, "forecast");

#ifndef NEXTMAINT_TELEMETRY_DISABLED
    // Each caller counts under its own names from the fan-out's outcomes.
    const auto counter = [](const telemetry::MetricsSnapshot& metrics,
                            const std::string& name) -> uint64_t {
      auto it = metrics.counters.find(name);
      return it == metrics.counters.end() ? 0 : it->second;
    };
    EXPECT_EQ(counter(serve_metrics, "serve.refresh.forecasts"), 1u);
    EXPECT_EQ(counter(serve_metrics, "serve.refresh.fallback_forecasts"), 1u);
    EXPECT_EQ(counter(serve_metrics, "serve.refresh.forecasts_skipped"), 0u);
    EXPECT_EQ(counter(serve_metrics, "scheduler.forecast.count"), 0u);
    EXPECT_EQ(counter(serve_metrics, "scheduler.fallback_forecasts"), 0u);
    EXPECT_EQ(counter(batch_metrics, "scheduler.forecast.count"), 1u);
    EXPECT_EQ(counter(batch_metrics, "scheduler.fallback_forecasts"), 1u);
    EXPECT_EQ(counter(batch_metrics, "scheduler.forecast.skipped"), 0u);
    EXPECT_EQ(counter(batch_metrics, "serve.refresh.forecasts"), 0u);
#endif
  }
}

/// Strict mode turns the same injection into a failed refresh that names
/// the lowest failing position, as FleetForecast does.
TEST(ServingEngineTest, StrictForecastFailpointFailsRefresh) {
  if (!failpoints::CompiledIn()) {
    GTEST_SKIP() << "failpoints not compiled in";
  }
  failpoints::DisarmAll();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    core::SchedulerOptions options = FastOptions(threads);
    options.strict = true;
    ServingEngine engine(options);
    ASSERT_TRUE(engine.Register("a_empty", Day(0)).ok());
    for (const std::string id : {"b_old", "c_old", "d_old"}) {
      const data::DailySeries series =
          SimulatedVehicle(60 + static_cast<uint64_t>(id[0] - 'a'), 600);
      ASSERT_TRUE(engine.Register(id, series.start_date()).ok());
      ASSERT_TRUE(engine.LoadHistory(id, series).ok());
    }
    ASSERT_TRUE(failpoints::Arm(
                    "scheduler.forecast_vehicle:3,scheduler.forecast_vehicle:4")
                    .ok());
    const Result<RefreshStats> stats = engine.RefreshForecasts();
    failpoints::DisarmAll();
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().message().rfind("c_old: ", 0), 0u)
        << stats.status().message();
    EXPECT_EQ(engine.epoch(), 0u);
  }
}

// ---------------------------------------------------------------------------
// The fit memo (docs/serving.md, "What a refresh still pays")

/// Histories by vehicle id: what an engine under test has ingested.
using Histories = std::map<std::string, data::DailySeries>;

/// Uniform 12-18 ks days against T = 500 ks (cycles of about 33 days),
/// `days` of them for each of `vehicles` vehicles.
Histories UniformFleet(size_t vehicles, size_t days, uint64_t seed) {
  Rng rng(seed);
  Histories fleet;
  for (size_t v = 0; v < vehicles; ++v) {
    std::vector<double> usage(days);
    for (double& seconds : usage) seconds = rng.Uniform(12'000.0, 18'000.0);
    fleet.emplace("truck-" + std::to_string(1000 + v),
                  data::DailySeries(Day(0), usage));
  }
  return fleet;
}

void LoadFleet(ServingEngine& engine, const Histories& histories) {
  for (const auto& [id, series] : histories) {
    ASSERT_TRUE(engine.Register(id, series.start_date()).ok());
    ASSERT_TRUE(engine.LoadHistory(id, series).ok());
  }
}

/// Appends one day per vehicle, drawn from `rng`, to the engine and to
/// its mirror.
void AppendNight(ServingEngine& engine, Histories& histories, Rng& rng) {
  for (auto& [id, series] : histories) {
    const double seconds = rng.Uniform(12'000.0, 18'000.0);
    ASSERT_TRUE(engine.Append(id, series.next_date(), seconds).ok());
    series.Append(seconds);
  }
}

/// The engine's published forecasts and trained state equal a fresh batch
/// TrainAll over the same histories (trained with telemetry off, so the
/// caller's counters see the engine alone).
void ExpectEngineMatchesBatch(const ServingEngine& engine,
                              const Histories& histories,
                              const core::SchedulerOptions& options,
                              const std::string& label) {
  const bool counted = telemetry::Enabled();
  telemetry::SetEnabled(false);
  core::FleetScheduler batch(options);
  for (const auto& [id, series] : histories) {
    ASSERT_TRUE(batch.RegisterVehicle(id, series.start_date()).ok());
    ASSERT_TRUE(batch.IngestSeries(id, series).ok());
  }
  ASSERT_TRUE(batch.TrainAll().ok());
  ExpectForecastsIdentical(engine.Snapshot()->forecasts,
                           batch.FleetForecast().ValueOrDie(), label);
  // Compared without a diff on failure: the fleet's checkpoint is large.
  EXPECT_TRUE(CheckpointBytes(engine.scheduler(), "memo_engine.ckpt") ==
              CheckpointBytes(batch, "memo_batch.ckpt"))
      << label << ": checkpoint bytes differ";
  telemetry::SetEnabled(counted);
}

/// Counter deltas of the refreshes run by `body`.
telemetry::MetricsSnapshot CountersOf(const std::function<void()>& body) {
  const bool counted = telemetry::Enabled();
  telemetry::SetEnabled(true);
  telemetry::MetricsRegistry::Global().Reset();
  body();
  telemetry::MetricsSnapshot snapshot = telemetry::Snapshot();
  telemetry::MetricsRegistry::Global().Reset();
  telemetry::SetEnabled(counted);
  return snapshot;
}

uint64_t Counter(const telemetry::MetricsSnapshot& snapshot,
                 const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

/// Thirty nights of a 200-vehicle fleet: every refresh retrains every
/// vehicle, most of them from the memo, and the engine equals a batch run.
TEST(ServingEngineMemoTest, NightlyRefreshesMatchBatchAndReuseFits) {
  const core::SchedulerOptions options = FastOptions(2);
  Histories histories = UniformFleet(200, 150, 11);
  ServingEngine engine(options);
  LoadFleet(engine, histories);
  ASSERT_TRUE(engine.RefreshForecasts().ok());
  Rng rng(12);
  const int nights = 30;
  const telemetry::MetricsSnapshot counters = CountersOf([&] {
    for (int night = 1; night <= nights; ++night) {
      AppendNight(engine, histories, rng);
      const RefreshStats stats = engine.RefreshForecasts().ValueOrDie();
      EXPECT_EQ(stats.refreshed, histories.size());
      if (night % 10 == 0) {
        ExpectEngineMatchesBatch(engine, histories, options,
                                 "night " + std::to_string(night));
      }
    }
  });
#ifndef NEXTMAINT_TELEMETRY_DISABLED
  // Every vehicle is old: one remembered candidate (LR) per vehicle-night,
  // one refit per night it wins.
  const double vehicle_nights = static_cast<double>(nights * histories.size());
  const uint64_t refits = Counter(counters, "scheduler.selection.winner.LR");
  EXPECT_GT(refits, 0u);
  EXPECT_GT(static_cast<double>(
                Counter(counters, "scheduler.selection.memo_hits")),
            0.8 * vehicle_nights);
  EXPECT_GT(static_cast<double>(Counter(counters, "scheduler.refit.memo_hits")),
            0.8 * static_cast<double>(refits));
#else
  EXPECT_TRUE(counters.counters.empty());
#endif
}

/// LoadHistory replaces a history, so the memo keys (cycle counts of an
/// append-only history) say nothing about it: swapping two days inside a
/// first cycle keeps every cycle count but changes the training data, and
/// the refresh after it must train every candidate again.
TEST(ServingEngineMemoTest, LoadHistoryDropsTheMemo) {
  const core::SchedulerOptions options = FastOptions(1);
  Histories histories = UniformFleet(6, 150, 21);
  ServingEngine engine(options);
  LoadFleet(engine, histories);
  ASSERT_TRUE(engine.RefreshForecasts().ok());
  Rng rng(22);
  for (int night = 0; night < 3; ++night) {
    AppendNight(engine, histories, rng);
    ASSERT_TRUE(engine.RefreshForecasts().ok());
  }
  for (auto& [id, series] : histories) {
    std::vector<double> values = series.values();
    std::swap(values[1], values[5]);
    series = data::DailySeries(series.start_date(), values);
    ASSERT_TRUE(engine.LoadHistory(id, series).ok());
  }
  const telemetry::MetricsSnapshot counters =
      CountersOf([&] { ASSERT_TRUE(engine.RefreshForecasts().ok()); });
  EXPECT_EQ(Counter(counters, "scheduler.selection.memo_hits"), 0u);
  EXPECT_EQ(Counter(counters, "scheduler.refit.memo_hits"), 0u);
#ifndef NEXTMAINT_TELEMETRY_DISABLED
  EXPECT_EQ(Counter(counters, "scheduler.selection.winner.LR") +
                Counter(counters, "scheduler.selection.winner.BL"),
            histories.size());
#endif
  ExpectEngineMatchesBatch(engine, histories, options, "after LoadHistory");
  AppendNight(engine, histories, rng);
  ASSERT_TRUE(engine.RefreshForecasts().ok());
  ExpectEngineMatchesBatch(engine, histories, options, "one night later");
}

/// With time-shift re-sampling the training data depends on the series
/// length, so the memo is bypassed: no hit, and still the batch result.
TEST(ServingEngineMemoTest, ResamplingShiftsBypassTheMemo) {
  core::SchedulerOptions options = FastOptions(2);
  options.selection.resampling_shifts = 2;
  Histories histories = UniformFleet(20, 150, 31);
  ServingEngine engine(options);
  LoadFleet(engine, histories);
  Rng rng(32);
  const telemetry::MetricsSnapshot counters = CountersOf([&] {
    ASSERT_TRUE(engine.RefreshForecasts().ok());
    for (int night = 0; night < 5; ++night) {
      AppendNight(engine, histories, rng);
      ASSERT_TRUE(engine.RefreshForecasts().ok());
    }
  });
  EXPECT_EQ(Counter(counters, "scheduler.selection.memo_hits"), 0u);
  EXPECT_EQ(Counter(counters, "scheduler.refit.memo_hits"), 0u);
#ifndef NEXTMAINT_TELEMETRY_DISABLED
  EXPECT_GT(Counter(counters, "scheduler.selection.winner.LR"), 0u);
#endif
  ExpectEngineMatchesBatch(engine, histories, options, "shifts=2");
}

/// Failures store nothing in the memo. A failed candidate fit leaves the
/// selection nothing to remember, a quarantine and a failed refit leave no
/// refit key, and the next clean refresh retrains to the batch result.
TEST(ServingEngineMemoTest, MemoDegradationStoresNothingAndRecovers) {
  if (!failpoints::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const core::SchedulerOptions options = FastOptions(1);
  // A vehicle LR serves (for most seeds BL wins on uniform use).
  Histories histories = UniformFleet(1, 230, 42);
  const std::string id = histories.begin()->first;
  // The history stops just before a maintenance day, so the first night
  // closes a cycle and every candidate trains again.
  data::DailySeries& series = histories.begin()->second;
  const size_t closing_day =
      core::DeriveSeries(series, kTv).ValueOrDie().cycles.back().end;
  const data::DailySeries future = series;
  series = series.Slice(0, closing_day);
  ServingEngine engine(options);
  LoadFleet(engine, histories);
  ASSERT_TRUE(engine.RefreshForecasts().ok());
  ASSERT_EQ(engine.Snapshot()->forecasts.at(0).model_name, "LR");

  const auto night = [&](const std::string& spec) {
    const double seconds = future[series.size()];
    EXPECT_TRUE(engine.Append(id, series.next_date(), seconds).ok());
    series.Append(seconds);
    failpoints::DisarmAll();
    if (!spec.empty()) {
      EXPECT_TRUE(failpoints::Arm(spec).ok());
    }
    telemetry::MetricsSnapshot counters =
        CountersOf([&] { EXPECT_TRUE(engine.RefreshForecasts().ok()); });
    failpoints::DisarmAll();
    return counters;
  };
  const auto served = [&] {
    return engine.Snapshot()->forecasts.at(0).model_name;
  };

  // A miss night with the vehicle's fits failing: LR fails its candidate
  // fit, so the selection falls back to BL and remembers nothing.
  telemetry::MetricsSnapshot counters = night("ml.fit:1");
  EXPECT_EQ(served(), "BL");
  EXPECT_EQ(Counter(counters, "scheduler.selection.memo_hits"), 0u);
  // The next night's selection has nothing to hit and trains LR again.
  counters = night("");
  EXPECT_EQ(served(), "LR");
  EXPECT_EQ(Counter(counters, "scheduler.selection.memo_hits"), 0u);
  EXPECT_EQ(Counter(counters, "scheduler.refit.memo_hits"), 0u);
  ExpectEngineMatchesBatch(engine, histories, options, "after a failed fit");

  // A quarantine serves the fallback and drops the refit key ...
  night("scheduler.train_vehicle:1");
  EXPECT_EQ(served(), "BL_fallback");
  // ... so the next night's selection hits but its refit fits, and fails.
  counters = night("ml.fit:1");
  EXPECT_EQ(served(), "BL_fallback");
  EXPECT_EQ(engine.Snapshot()->degradations.vehicles.size(), 1u);
#ifndef NEXTMAINT_TELEMETRY_DISABLED
  EXPECT_EQ(Counter(counters, "scheduler.selection.memo_hits"), 1u);
#endif
  EXPECT_EQ(Counter(counters, "scheduler.refit.memo_hits"), 0u);
  // The failed refit stored no key either: a clean night refits LR.
  counters = night("");
  EXPECT_EQ(served(), "LR");
#ifndef NEXTMAINT_TELEMETRY_DISABLED
  EXPECT_EQ(Counter(counters, "scheduler.selection.memo_hits"), 1u);
#endif
  EXPECT_EQ(Counter(counters, "scheduler.refit.memo_hits"), 0u);
  ExpectEngineMatchesBatch(engine, histories, options, "after a quarantine");
}

}  // namespace
}  // namespace serve
}  // namespace nextmaint
