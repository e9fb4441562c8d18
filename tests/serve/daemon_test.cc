#include "serve/daemon.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/failpoints.h"
#include "core/scheduler.h"
#include "serve/protocol.h"
#include "telematics/fleet.h"

/// FleetDaemon tests: the sharded front door over PR 5's ServingEngine.
/// The headline invariants (ISSUE 7 acceptance): a daemon-served fleet's
/// forecasts are byte-identical to a batch FleetScheduler fed the same
/// event stream — at 1 shard for any fleet, and at 1 AND 4 shards for
/// fleets of old vehicles (per-vehicle models are independent of the
/// shard-partitioned cold-start corpus) — and a full shard queue answers
/// Overloaded without enqueuing or blocking anything.

namespace nextmaint {
namespace serve {
namespace {

using protocol::AckResponse;
using protocol::AppendRequest;
using protocol::ErrorResponse;
using protocol::ForecastBatchResponse;
using protocol::GetForecastRequest;
using protocol::LoadHistoryRequest;
using protocol::OverloadedResponse;
using protocol::RefreshDoneResponse;
using protocol::RefreshRequest;
using protocol::Response;
using protocol::ShutdownRequest;
using protocol::StatsRequest;
using protocol::StatsResponse;

constexpr double kTv = 500'000.0;

Date Day(int offset) {
  return Date::FromYmd(2015, 1, 1).ValueOrDie().AddDays(offset);
}

core::SchedulerOptions FastOptions() {
  core::SchedulerOptions options;
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

/// One vehicle of the equality fleets: full series + bulk-load cut.
struct VehicleSpec {
  std::string id;
  data::DailySeries series;
  size_t warm;
};

/// Mixed-category fleet (old / crossing / new) — equality holds at 1 shard.
std::vector<VehicleSpec> MixedFleet() {
  std::vector<VehicleSpec> fleet;
  fleet.push_back({"old1", SimulatedVehicle(101, 600), 560});
  // 15000 s/day: crosses semi-new then old during the replay.
  fleet.push_back({"cross",
                   data::DailySeries(Day(0), std::vector<double>(48, 15'000.0)),
                   20});
  // 500 s/day: stays new forever (cold-start model consumer).
  fleet.push_back({"fresh",
                   data::DailySeries(Day(0), std::vector<double>(35, 500.0)),
                   5});
  return fleet;
}

/// All-old fleet — every vehicle trains on its own history, so equality
/// holds at any shard count.
std::vector<VehicleSpec> OldFleet() {
  std::vector<VehicleSpec> fleet;
  fleet.push_back({"old1", SimulatedVehicle(201, 600), 560});
  fleet.push_back({"old2", SimulatedVehicle(202, 600), 560});
  fleet.push_back({"old3", SimulatedVehicle(203, 600), 560});
  return fleet;
}

/// Batch ground truth over exactly `ingested[id]` days per vehicle.
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

/// Drives the whole fleet event stream through the daemon: a bulk
/// LoadHistory per vehicle, then the remaining days as pipelined appends,
/// then one Refresh barrier. Returns how many days each vehicle saw.
std::map<std::string, size_t> DriveFleet(FleetDaemon* daemon,
                                         const std::vector<VehicleSpec>& fleet) {
  std::map<std::string, size_t> ingested;
  for (const VehicleSpec& v : fleet) {
    LoadHistoryRequest load;
    load.vehicle_id = v.id;
    load.start_day = v.series.start_date();
    for (size_t i = 0; i < v.warm; ++i) load.values.push_back(v.series[i]);
    const Response response = daemon->Execute(load);
    EXPECT_TRUE(std::holds_alternative<AckResponse>(response)) << v.id;
    ingested[v.id] = v.warm;
  }
  // Day-by-day live feed, pipelined: all futures from one day are awaited
  // together, which exercises the whole-queue batching path.
  size_t longest = 0;
  for (const VehicleSpec& v : fleet) longest = std::max(longest, v.series.size());
  for (size_t step = 0; ; ++step) {
    std::vector<std::future<Response>> pending;
    for (const VehicleSpec& v : fleet) {
      const size_t idx = ingested[v.id];
      if (idx >= v.series.size()) continue;
      AppendRequest append;
      append.vehicle_id = v.id;
      append.day = v.series.start_date().AddDays(static_cast<int64_t>(idx));
      append.seconds = v.series[idx];
      pending.push_back(daemon->SubmitAsync(append));
      ++ingested[v.id];
    }
    if (pending.empty()) break;
    for (std::future<Response>& f : pending) {
      EXPECT_TRUE(std::holds_alternative<AckResponse>(f.get()));
    }
  }
  const Response refreshed = daemon->Execute(RefreshRequest{});
  EXPECT_TRUE(std::holds_alternative<RefreshDoneResponse>(refreshed));
  return ingested;
}

/// All published forecasts across every shard, keyed by vehicle.
std::map<std::string, core::MaintenanceForecast> DaemonForecasts(
    const FleetDaemon& daemon) {
  std::map<std::string, core::MaintenanceForecast> by_id;
  for (int s = 0; s < daemon.shards(); ++s) {
    const auto snapshot = daemon.engine(static_cast<size_t>(s)).Snapshot();
    for (const core::MaintenanceForecast& f : snapshot->forecasts) {
      by_id[f.vehicle_id] = f;
    }
  }
  return by_id;
}

/// Requires the daemon's published forecasts to be bit-identical to the
/// batch scheduler's, field by field.
void ExpectMatchesBatch(const FleetDaemon& daemon,
                        const core::FleetScheduler& batch,
                        const std::string& label) {
  const std::map<std::string, core::MaintenanceForecast> got =
      DaemonForecasts(daemon);
  const std::vector<core::MaintenanceForecast> want =
      batch.FleetForecast().ValueOrDie();
  ASSERT_EQ(got.size(), want.size()) << label;
  for (const core::MaintenanceForecast& w : want) {
    const auto it = got.find(w.vehicle_id);
    ASSERT_NE(it, got.end()) << label << " " << w.vehicle_id;
    EXPECT_EQ(it->second.category, w.category) << label << " " << w.vehicle_id;
    EXPECT_EQ(it->second.model_name, w.model_name)
        << label << " " << w.vehicle_id;
    EXPECT_EQ(it->second.days_left, w.days_left)
        << label << " " << w.vehicle_id;
    EXPECT_EQ(it->second.usage_seconds_left, w.usage_seconds_left)
        << label << " " << w.vehicle_id;
    EXPECT_EQ(it->second.predicted_date, w.predicted_date)
        << label << " " << w.vehicle_id;
  }
}

DaemonOptions Options(int shards, size_t max_queue = 1024,
                      uint64_t batch_window = 0) {
  DaemonOptions options;
  options.scheduler = FastOptions();
  options.shards = shards;
  options.max_queue = max_queue;
  options.batch_window = batch_window;
  return options;
}

TEST(FleetDaemonTest, AppendAutoRegistersAndServesAfterRefresh) {
  FleetDaemon daemon(Options(2));
  ASSERT_TRUE(daemon.Start().ok());

  for (int i = 0; i < 40; ++i) {
    AppendRequest append;
    append.vehicle_id = "v1";
    append.day = Day(i);
    append.seconds = 15'000.0;
    ASSERT_TRUE(std::holds_alternative<AckResponse>(daemon.Execute(append)))
        << "day " << i;
  }

  // Not refreshed yet: the vehicle is registered but not in any published
  // snapshot.
  GetForecastRequest read;
  read.vehicle_ids = {"v1"};
  {
    const Response response = daemon.Execute(read);
    const auto* batch = std::get_if<ForecastBatchResponse>(&response);
    ASSERT_NE(batch, nullptr);
    ASSERT_EQ(batch->entries.size(), 1u);
    EXPECT_EQ(batch->entries[0].status_code, StatusCode::kNotFound);
  }

  const Response refreshed = daemon.Execute(RefreshRequest{});
  const auto* done = std::get_if<RefreshDoneResponse>(&refreshed);
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->shards, 2u);
  EXPECT_GE(done->epoch, 1u);

  {
    const Response response = daemon.Execute(read);
    const auto* batch = std::get_if<ForecastBatchResponse>(&response);
    ASSERT_NE(batch, nullptr);
    ASSERT_EQ(batch->entries.size(), 1u);
    EXPECT_EQ(batch->entries[0].status_code, StatusCode::kOk);
    EXPECT_FALSE(batch->entries[0].model_name.empty());
    EXPECT_GE(batch->entries[0].epoch, 1u);
  }
  daemon.Stop();
}

/// Auto-registration asks the shard's engine whether it knows the id: an
/// empty id registers nothing, a first append registers the id once with
/// its day as the first day, even when the append itself is rejected.
TEST(FleetDaemonTest, FirstAppendRegistersOnceWithItsDay) {
  FleetDaemon daemon(Options(1));
  ASSERT_TRUE(daemon.Start().ok());
  const auto append = [&](const std::string& id, int day, double seconds) {
    AppendRequest request;
    request.vehicle_id = id;
    request.day = Day(day);
    request.seconds = seconds;
    return daemon.Execute(request);
  };
  const auto error_code = [](const Response& response) {
    const auto* error = std::get_if<ErrorResponse>(&response);
    return error == nullptr ? StatusCode::kOk : error->code;
  };
  const auto vehicles = [&] { return daemon.Stats().shards[0].vehicles; };

  EXPECT_EQ(error_code(append("", 0, 1'000.0)), StatusCode::kInvalidArgument);
  EXPECT_EQ(vehicles(), 0u);

  // A rejected first append registers the id; the retry reuses it.
  EXPECT_EQ(error_code(append("v1", 5, std::nan(""))),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(vehicles(), 1u);
  EXPECT_TRUE(std::holds_alternative<AckResponse>(append("v1", 5, 1'000.0)));
  EXPECT_EQ(vehicles(), 1u);

  // Day 5 is v2's first day: day 4 precedes it, day 6 follows it.
  EXPECT_TRUE(std::holds_alternative<AckResponse>(append("v2", 5, 1'000.0)));
  EXPECT_EQ(error_code(append("v2", 4, 1'000.0)),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(std::holds_alternative<AckResponse>(append("v2", 6, 1'000.0)));
  EXPECT_EQ(vehicles(), 2u);
  daemon.Stop();
  EXPECT_EQ(daemon.engine(0).CachedState("v1").ValueOrDie().cycles.days, 1u);
  EXPECT_EQ(daemon.engine(0).CachedState("v2").ValueOrDie().cycles.days, 2u);
}

TEST(FleetDaemonTest, MixedFleetMatchesBatchAtOneShard) {
  FleetDaemon daemon(Options(1));
  ASSERT_TRUE(daemon.Start().ok());
  const std::map<std::string, size_t> ingested =
      DriveFleet(&daemon, MixedFleet());
  const core::FleetScheduler batch =
      BatchScheduler(MixedFleet(), ingested, FastOptions());
  ExpectMatchesBatch(daemon, batch, "mixed@1");
  daemon.Stop();
}

TEST(FleetDaemonTest, OldFleetMatchesBatchAtOneAndFourShards) {
  const std::vector<VehicleSpec> fleet = OldFleet();
  for (const int shards : {1, 4}) {
    FleetDaemon daemon(Options(shards));
    ASSERT_TRUE(daemon.Start().ok());
    const std::map<std::string, size_t> ingested = DriveFleet(&daemon, fleet);
    const core::FleetScheduler batch =
        BatchScheduler(fleet, ingested, FastOptions());
    ExpectMatchesBatch(daemon, batch, "old@" + std::to_string(shards));
    daemon.Stop();
  }
}

TEST(FleetDaemonTest, FullQueueAnswersOverloadedWithoutBlocking) {
  // Workers not started: everything submitted stays queued, making the
  // overflow deterministic.
  FleetDaemon daemon(Options(1, /*max_queue=*/2));

  const auto append_at = [](int day) {
    AppendRequest append;
    append.vehicle_id = "v1";
    append.day = Day(day);
    append.seconds = 1000.0;
    return append;
  };
  std::future<Response> first = daemon.SubmitAsync(append_at(0));
  std::future<Response> second = daemon.SubmitAsync(append_at(1));
  std::future<Response> third = daemon.SubmitAsync(append_at(2));

  // The rejection is immediate — no worker is running, yet the future is
  // already resolved.
  ASSERT_EQ(third.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const Response rejected = third.get();
  const auto* overloaded = std::get_if<OverloadedResponse>(&rejected);
  ASSERT_NE(overloaded, nullptr);
  EXPECT_EQ(overloaded->shard, 0u);
  EXPECT_EQ(overloaded->queue_depth, 2u);
  EXPECT_EQ(overloaded->max_queue, 2u);

  // The queued writes were admitted and survive: Start() applies them.
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_TRUE(std::holds_alternative<AckResponse>(first.get()));
  EXPECT_TRUE(std::holds_alternative<AckResponse>(second.get()));

  const StatsResponse stats = daemon.Stats();
  EXPECT_EQ(stats.overloaded, 1u);
  EXPECT_EQ(stats.appends, 2u);
  daemon.Stop();
}

TEST(FleetDaemonTest, BatchWindowAutoRefreshesWithoutExplicitBarrier) {
  FleetDaemon daemon(Options(1, 1024, /*batch_window=*/5));
  ASSERT_TRUE(daemon.Start().ok());
  for (int i = 0; i < 40; ++i) {
    AppendRequest append;
    append.vehicle_id = "v1";
    append.day = Day(i);
    append.seconds = 15'000.0;
    ASSERT_TRUE(std::holds_alternative<AckResponse>(daemon.Execute(append)));
  }
  // 40 appends at window 5 guarantee at least one auto-refresh: the
  // vehicle is readable with no Refresh request ever sent.
  GetForecastRequest read;
  read.vehicle_ids = {"v1"};
  const Response response = daemon.Execute(read);
  const auto* batch = std::get_if<ForecastBatchResponse>(&response);
  ASSERT_NE(batch, nullptr);
  ASSERT_EQ(batch->entries.size(), 1u);
  EXPECT_EQ(batch->entries[0].status_code, StatusCode::kOk);
  daemon.Stop();
}

TEST(FleetDaemonTest, EmptyLoadHistoryIsAnErrorResponse) {
  FleetDaemon daemon(Options(1));
  ASSERT_TRUE(daemon.Start().ok());
  LoadHistoryRequest load;
  load.vehicle_id = "v1";
  load.start_day = Day(0);
  const Response response = daemon.Execute(load);
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, StatusCode::kInvalidArgument);
  daemon.Stop();
}

TEST(FleetDaemonTest, HandleFrameSurvivesGarbageAndKeepsServing) {
  FleetDaemon daemon(Options(1));
  ASSERT_TRUE(daemon.Start().ok());

  const std::vector<uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF, 0x00};
  const std::vector<uint8_t> reply = daemon.HandleFrame(garbage);
  const Result<Response> decoded = protocol::DecodeResponse(
      std::span<const uint8_t>(reply).subspan(protocol::kLengthPrefixBytes));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const auto* error = std::get_if<ErrorResponse>(&decoded.ValueOrDie());
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, StatusCode::kInvalidArgument);

  // The daemon shrugged it off: a well-formed frame still round-trips.
  AppendRequest append;
  append.vehicle_id = "v1";
  append.day = Day(0);
  append.seconds = 1000.0;
  const std::vector<uint8_t> frame = protocol::EncodeRequest(append);
  const std::vector<uint8_t> ok_reply = daemon.HandleFrame(
      std::span<const uint8_t>(frame).subspan(protocol::kLengthPrefixBytes));
  const Result<Response> ok_decoded = protocol::DecodeResponse(
      std::span<const uint8_t>(ok_reply)
          .subspan(protocol::kLengthPrefixBytes));
  ASSERT_TRUE(ok_decoded.ok());
  EXPECT_TRUE(std::holds_alternative<AckResponse>(ok_decoded.ValueOrDie()));

  const StatsResponse stats = daemon.Stats();
  EXPECT_EQ(stats.frames, 2u);
  EXPECT_EQ(stats.decode_errors, 1u);
  daemon.Stop();
}

TEST(FleetDaemonTest, ShardingIsStableAndCoversAllShards) {
  FleetDaemon daemon(Options(4));
  // ShardOf is pinned to the protocol hash — clients predict placement.
  for (const std::string id : {"v1", "v2", "abc", ""}) {
    EXPECT_EQ(daemon.ShardOf(id), protocol::StableVehicleHash(id) % 4);
  }
}

TEST(FleetDaemonTest, ShutdownRequestSetsFlagAndAcks) {
  FleetDaemon daemon(Options(1));
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_FALSE(daemon.ShutdownRequested());
  const Response response = daemon.Execute(ShutdownRequest{});
  EXPECT_TRUE(std::holds_alternative<AckResponse>(response));
  EXPECT_TRUE(daemon.ShutdownRequested());
  daemon.Stop();
}

TEST(FleetDaemonTest, StatsReportsPerShardState) {
  FleetDaemon daemon(Options(2));
  ASSERT_TRUE(daemon.Start().ok());
  for (const std::string id : {"v1", "v2", "v3"}) {
    AppendRequest append;
    append.vehicle_id = id;
    append.day = Day(0);
    append.seconds = 1000.0;
    ASSERT_TRUE(std::holds_alternative<AckResponse>(daemon.Execute(append)));
  }
  ASSERT_TRUE(std::holds_alternative<RefreshDoneResponse>(
      daemon.Execute(RefreshRequest{})));

  const Response response = daemon.Execute(StatsRequest{});
  const auto* stats = std::get_if<StatsResponse>(&response);
  ASSERT_NE(stats, nullptr);
  ASSERT_EQ(stats->shards.size(), 2u);
  uint64_t vehicles = 0;
  uint64_t appends = 0;
  for (const protocol::ShardStats& shard : stats->shards) {
    vehicles += shard.vehicles;
    appends += shard.appends;
    EXPECT_EQ(shard.queue_depth, 0u);
    EXPECT_EQ(shard.dirty, 0u);
  }
  EXPECT_EQ(vehicles, 3u);
  EXPECT_EQ(appends, 3u);
  EXPECT_EQ(stats->appends, 3u);
}

TEST(FleetDaemonTest, RefreshBeforeStartIsAnError) {
  FleetDaemon daemon(Options(1));
  const Response response = daemon.Execute(RefreshRequest{});
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, StatusCode::kFailedPrecondition);
}

TEST(FleetDaemonTest, EnqueueFailpointSurfacesAsErrorResponse) {
  if (!failpoints::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  failpoints::DisarmAll();
  ASSERT_TRUE(failpoints::Arm("serve.daemon.enqueue").ok());
  FleetDaemon daemon(Options(1));
  ASSERT_TRUE(daemon.Start().ok());
  AppendRequest append;
  append.vehicle_id = "v1";
  append.day = Day(0);
  append.seconds = 1000.0;
  const Response response = daemon.Execute(append);
  failpoints::DisarmAll();
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_NE(error->message.find("injected failure"), std::string::npos);
  daemon.Stop();
}

TEST(FleetDaemonTest, RefreshFailpointFailsTheBarrierDeterministically) {
  if (!failpoints::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  failpoints::DisarmAll();
  FleetDaemon daemon(Options(2));
  ASSERT_TRUE(daemon.Start().ok());
  for (const std::string id : {"v1", "v2", "v3"}) {
    AppendRequest append;
    append.vehicle_id = id;
    append.day = Day(0);
    append.seconds = 1000.0;
    ASSERT_TRUE(std::holds_alternative<AckResponse>(daemon.Execute(append)));
  }
  // Ordinal 1 = shard 0: exactly that leg fails, and the merged barrier
  // error names it.
  ASSERT_TRUE(failpoints::Arm("serve.daemon.refresh:1").ok());
  const Response response = daemon.Execute(RefreshRequest{});
  failpoints::DisarmAll();
  const auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_NE(error->message.find("shard 0 refresh failed"), std::string::npos)
      << error->message;
  daemon.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace nextmaint
