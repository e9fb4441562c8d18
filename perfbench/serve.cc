// Serving workloads: a FleetDaemon behind its Unix-socket SocketServer,
// driven by DaemonClient connections in closed loops (each client waits
// for its reply before sending the next request, as DaemonClient callers
// do). At most three load-generator connections, each on its own thread.

#include <malloc.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "common/date.h"
#include "common/macros.h"
#include "common/rng.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/serving_engine.h"
#include "serve/socket_server.h"
#include "workloads.h"

namespace nextmaint {
namespace bench {

namespace {

namespace protocol = serve::protocol;

constexpr int kShards = 2;
constexpr int kTrainingThreads = 2;
/// The checks train a batch copy of the fleet; they may use every core.
constexpr int kCheckThreads = 4;
/// Set-ups per run; setup_s is their median.
constexpr size_t kSetups = 5;
/// LoadHistory writes in flight during set-up: at most the daemon's
/// default max_queue per shard, so set-up is never refused.
constexpr size_t kLoadWave = 1024;
constexpr size_t kIdsPerRead = 4;
/// serve_ingest's append connections, beside its one reader.
constexpr size_t kCollectors = 2;
constexpr double kReadWarmupS = 1.0;
/// How long serve_read's process stays on one CPU before the next.
constexpr std::chrono::milliseconds kPinnedSegment{500};
/// Requests behind each traced in-process layer timing.
constexpr size_t kLayerIterations = 20'000;

/// About 15,000 s of use a day against T_v = 300,000 s: 20-day cycles, so
/// 120 and 365 days of history make every vehicle old, and selection never
/// runs out of evaluable days (with 60-day histories about half the fleet
/// fails selection and is served BL).
constexpr double kMaintenanceIntervalS = 300'000.0;
constexpr double kMinDailyS = 12'000.0;
constexpr double kMaxDailyS = 18'000.0;
constexpr size_t kReadHistoryDays = 120;
constexpr size_t kIngestHistoryDays = 365;

size_t FleetSize(const Context& context) {
  return context.options.smoke ? 400 : 20'000;
}

/// Daemon training: W = 3, candidates BL and LR, LR as the unified model,
/// no re-sampling, no tuning. Per-vehicle RF (the CLI daemon's default)
/// would make one refresh of the fleet take minutes.
core::SchedulerOptions ServeOptions(int threads) {
  core::SchedulerOptions options;
  options.maintenance_interval_s = kMaintenanceIntervalS;
  options.window = 3;
  options.algorithms = {"BL", "LR"};
  options.unified_algorithm = "LR";
  options.selection.tune = false;
  options.selection.train_on_last29_only = true;
  options.selection.resampling_shifts = 0;
  options.num_threads = threads;
  return options;
}

Date FleetStart() { return Date::FromYmd(2016, 1, 1).ValueOrDie(); }

std::vector<VehicleInput> MakeServeFleet(uint64_t seed, size_t vehicles,
                                         size_t days) {
  Rng rng(seed);
  std::vector<VehicleInput> fleet;
  fleet.reserve(vehicles);
  for (size_t v = 0; v < vehicles; ++v) {
    std::vector<double> usage(days);
    for (double& seconds : usage) seconds = rng.Uniform(kMinDailyS, kMaxDailyS);
    fleet.push_back(VehicleInput{"truck-" + std::to_string(v),
                                 data::DailySeries(FleetStart(), usage)});
  }
  return fleet;
}

/// One day of use for every vehicle.
std::vector<double> DrawNight(Rng& rng, size_t vehicles) {
  std::vector<double> night(vehicles);
  for (double& seconds : night) seconds = rng.Uniform(kMinDailyS, kMaxDailyS);
  return night;
}

/// A daemon serving on a Unix socket. The server is declared last so it
/// stops before the daemon it points to.
struct ServeStack {
  std::unique_ptr<serve::FleetDaemon> daemon;
  std::unique_ptr<serve::SocketServer> server;
};

/// Set-up: a fresh daemon warm-loads the fleet through pipelined
/// LoadHistory writes, publishes its first snapshot with a Refresh barrier
/// and starts listening, so the first read can be served.
Result<ServeStack> StartServing(const std::vector<VehicleInput>& fleet,
                                const std::string& socket_path,
                                Tracer& tracer) {
  serve::DaemonOptions options;
  options.scheduler = ServeOptions(kTrainingThreads);
  options.shards = kShards;
  ServeStack stack;
  stack.daemon = std::make_unique<serve::FleetDaemon>(options);
  NM_RETURN_NOT_OK(stack.daemon->Start());
  {
    Tracer::Scope span = tracer.Open("serve.setup.LoadHistory");
    std::vector<std::future<protocol::Response>> wave;
    for (size_t v = 0; v < fleet.size(); ++v) {
      protocol::LoadHistoryRequest request;
      request.vehicle_id = fleet[v].id;
      request.start_day = fleet[v].usage.start_date();
      request.values = fleet[v].usage.values();
      wave.push_back(stack.daemon->SubmitAsync(std::move(request)));
      if (wave.size() < kLoadWave && v + 1 < fleet.size()) continue;
      for (std::future<protocol::Response>& pending : wave) {
        if (!std::holds_alternative<protocol::AckResponse>(pending.get())) {
          return Status::Unknown("daemon refused a LoadHistory");
        }
      }
      wave.clear();
    }
  }
  {
    Tracer::Scope span = tracer.Open("serve.setup.Refresh");
    const protocol::Response response =
        stack.daemon->Execute(protocol::RefreshRequest{});
    const auto* done = std::get_if<protocol::RefreshDoneResponse>(&response);
    if (done == nullptr || done->refreshed != fleet.size()) {
      return Status::Unknown("first refresh did not train the whole fleet");
    }
  }
  serve::SocketServerOptions server_options;
  server_options.unix_path = socket_path;
  stack.server =
      std::make_unique<serve::SocketServer>(stack.daemon.get(), server_options);
  NM_RETURN_NOT_OK(stack.server->Start());
  return stack;
}

/// Runs kSetups set-ups, keeping the last stack, then resets the peak RSS
/// so that peak_rss_mb is the measured phase's, not set-up's.
Result<ServeStack> SetUp(const std::vector<VehicleInput>& fleet,
                         const std::string& socket_path, Context& context,
                         PhaseTimes* times) {
  std::optional<ServeStack> stack;
  for (size_t i = 0; i < kSetups; ++i) {
    stack.reset();
    const Clock::time_point start = Clock::now();
    NM_ASSIGN_OR_RETURN(
        ServeStack started,
        StartServing(fleet, socket_path, context.TracerFor(i)));
    times->AddSetup(i, context, SecondsSince(start));
    stack = std::move(started);
  }
  malloc_trim(0);
  ResetPeakRss();
  return std::move(*stack);
}

/// Client-side record of one connection.
struct ClientLog {
  /// Per-request latency of recorded requests, split like PhaseTimes.
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  /// Completion time of each recorded request, in seconds from the start
  /// of recording (readers only).
  std::vector<double> done_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t overloaded = 0;
  /// Set when the connection itself failed.
  Status status;

  std::vector<double> All() const {
    std::vector<double> all = plain_s;
    all.insert(all.end(), traced_s.begin(), traced_s.end());
    return all;
  }
};

/// Closed-loop reader: GetForecast for kIdsPerRead uniformly drawn ids,
/// wait for the reply, repeat until `stop`. Requests sent before
/// `record_from` are warm-up and not timed.
void ReadLoop(const std::string& socket_path,
              const std::vector<VehicleInput>& fleet, uint64_t seed,
              Clock::time_point record_from,
              const std::atomic<bool>& stop, const Context& context,
              ClientLog* log) {
  serve::DaemonClient connection;
  log->status = connection.ConnectUnix(socket_path);
  if (!log->status.ok()) return;
  Rng rng(seed);
  protocol::GetForecastRequest request;
  request.vehicle_ids.resize(kIdsPerRead);
  for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
    for (std::string& id : request.vehicle_ids) {
      id = fleet[rng.UniformInt(static_cast<uint64_t>(fleet.size()))].id;
    }
    Tracer& tracer = context.TracerFor(i);
    const Clock::time_point start = Clock::now();
    Result<protocol::Response> response = [&] {
      Tracer::Scope span = tracer.Open("client.GetForecast", i + 1);
      return connection.RoundTrip(request);
    }();
    const double seconds = SecondsSince(start);
    ++log->attempted;
    const auto* batch =
        response.ok() ? std::get_if<protocol::ForecastBatchResponse>(
                            &response.ValueOrDie())
                      : nullptr;
    bool ok = batch != nullptr && batch->entries.size() == kIdsPerRead;
    for (size_t e = 0; ok && e < batch->entries.size(); ++e) {
      ok = batch->entries[e].status_code == StatusCode::kOk;
    }
    if (!ok) ++log->failed;
    if (start < record_from) continue;
    (tracer.enabled() ? log->traced_s : log->plain_s).push_back(seconds);
    log->done_s.push_back(SecondsSince(record_from));
  }
}

/// Appends one day for every `stride`-th vehicle from `first`, each
/// waiting for its Ack.
void CollectorLoop(serve::DaemonClient* connection,
                   const std::vector<VehicleInput>& fleet,
                   const std::vector<double>& night, Date day, size_t first,
                   size_t stride, Tracer& tracer, ClientLog* log) {
  protocol::AppendRequest request;
  request.day = day;
  for (size_t v = first; v < fleet.size(); v += stride) {
    request.vehicle_id = fleet[v].id;
    request.seconds = night[v];
    const Clock::time_point start = Clock::now();
    Result<protocol::Response> response = [&] {
      Tracer::Scope span = tracer.Open("client.Append");
      return connection->RoundTrip(request);
    }();
    const double seconds = SecondsSince(start);
    ++log->attempted;
    if (response.ok() && std::holds_alternative<protocol::OverloadedResponse>(
                             response.ValueOrDie())) {
      ++log->overloaded;
    }
    if (!response.ok() ||
        !std::holds_alternative<protocol::AckResponse>(response.ValueOrDie())) {
      ++log->failed;
    }
    (tracer.enabled() ? log->traced_s : log->plain_s).push_back(seconds);
  }
}

void CountClient(const ClientLog& log, const char* what, Report& report) {
  report.Check(log.status.ok(), std::string(what) +
                                    " connection failed: " +
                                    log.status.ToString());
  report.CountOps(log.attempted, log.failed,
                  std::string(what) + " requests not answered OK");
}

/// Client-side view of the reads, as layer records.
void ReportReads(const ClientLog& reader, double seconds, Report& report) {
  const std::vector<double> all = reader.All();
  report.Add("serve.read_p50_us", Quantile(all, 0.5) * 1e6, all.size());
  report.Add("serve.read_p99_us", Quantile(all, 0.99) * 1e6, all.size());
  report.Add("serve.read_rps", static_cast<double>(all.size()) / seconds,
             all.size());
}

bool ById(const core::MaintenanceForecast& a,
          const core::MaintenanceForecast& b) {
  return a.vehicle_id < b.vehicle_id;
}

/// The payload of an encoded frame: what follows its length prefix.
std::span<const uint8_t> Payload(const std::vector<uint8_t>& frame) {
  return std::span<const uint8_t>(frame).subspan(protocol::kLengthPrefixBytes);
}

/// The daemon's published forecasts of every shard, by vehicle id.
std::vector<core::MaintenanceForecast> ServedForecasts(
    const serve::FleetDaemon& daemon, size_t* degraded) {
  std::vector<core::MaintenanceForecast> served;
  for (int shard = 0; shard < daemon.shards(); ++shard) {
    std::shared_ptr<const serve::FleetSnapshot> snapshot =
        daemon.engine(static_cast<size_t>(shard)).Snapshot();
    served.insert(served.end(), snapshot->forecasts.begin(),
                  snapshot->forecasts.end());
    *degraded += snapshot->degradations.vehicles.size();
  }
  std::sort(served.begin(), served.end(), ById);
  return served;
}

/// Checks, outside the timed phases, that the daemon serves exactly what a
/// batch FleetScheduler fed the same data forecasts (every vehicle is old,
/// so this holds at any shard count), with no vehicle degraded and every
/// old vehicle served the model its selection chose.
Status CheckServedFleet(const serve::FleetDaemon& daemon,
                        const std::vector<VehicleInput>& fleet,
                        Context& context) {
  Report& report = *context.report;
  size_t degraded = 0;
  const std::vector<core::MaintenanceForecast> served =
      ServedForecasts(daemon, &degraded);
  const size_t missing = fleet.size() - std::min(fleet.size(), served.size());
  report.CountOps(fleet.size(), degraded + missing,
                  "vehicles served degraded or without a forecast");

  const core::SchedulerOptions options = ServeOptions(kCheckThreads);
  NM_ASSIGN_OR_RETURN(std::unique_ptr<core::FleetScheduler> batch,
                      IngestFleet(fleet, options));
  NM_RETURN_NOT_OK(batch->TrainAll());
  NM_ASSIGN_OR_RETURN(std::vector<core::MaintenanceForecast> expected,
                      batch->FleetForecast());
  std::sort(expected.begin(), expected.end(), ById);
  report.Check(SameForecasts(served, expected),
               "daemon forecasts differ from a batch FleetScheduler fed the "
               "same data");
  PrintFingerprint(context, Fingerprint(served));

  NM_ASSIGN_OR_RETURN(
      const std::vector<std::vector<SelectionOutcome>> outcomes,
      DecomposeTraining(std::span(&fleet, 1), options, context));
  CheckServedWinners(fleet, outcomes.front(), served, report);
  return Status::OK();
}

/// Traced: the read path's layers, timed in-process on requests like the
/// workload's: protocol encode/decode, FleetDaemon::HandleFrame and the
/// engines' snapshot lookup.
Status ReportReadLayers(serve::FleetDaemon& daemon,
                        const std::vector<VehicleInput>& fleet,
                        double read_p50_us, Context& context) {
  Tracer& tracer = *context.tracer;
  Rng rng(context.options.seed ^ 0x5eedULL);
  const size_t iterations =
      context.options.smoke ? kLayerIterations / 10 : kLayerIterations;
  std::vector<std::vector<std::string>> by_shard(kShards);
  size_t errors = 0;
  for (size_t i = 0; i < iterations; ++i) {
    protocol::GetForecastRequest request;
    for (size_t k = 0; k < kIdsPerRead; ++k) {
      request.vehicle_ids.push_back(
          fleet[rng.UniformInt(static_cast<uint64_t>(fleet.size()))].id);
    }
    std::vector<uint8_t> request_frame;
    {
      Tracer::Scope span = tracer.Open("serve.protocol.EncodeRequest");
      request_frame = protocol::EncodeRequest(request);
    }
    const std::span<const uint8_t> request_payload = Payload(request_frame);
    {
      Tracer::Scope span = tracer.Open("serve.protocol.DecodeRequest");
      if (!protocol::DecodeRequest(request_payload).ok()) ++errors;
    }
    std::vector<uint8_t> response_frame;
    {
      Tracer::Scope span = tracer.Open("serve.FleetDaemon.HandleFrame.read");
      response_frame = daemon.HandleFrame(request_payload);
    }
    Result<protocol::Response> response = [&] {
      Tracer::Scope span = tracer.Open("serve.protocol.DecodeResponse");
      return protocol::DecodeResponse(Payload(response_frame));
    }();
    if (!response.ok()) {
      ++errors;
      continue;
    }
    {
      Tracer::Scope span = tracer.Open("serve.protocol.EncodeResponse");
      response_frame = protocol::EncodeResponse(response.ValueOrDie());
    }
    for (auto& ids : by_shard) ids.clear();
    for (const std::string& id : request.vehicle_ids) {
      by_shard[daemon.ShardOf(id)].push_back(id);
    }
    Tracer::Scope span = tracer.Open("serve.ServingEngine.GetForecasts");
    for (size_t shard = 0; shard < by_shard.size(); ++shard) {
      if (by_shard[shard].empty()) continue;
      for (const auto& entry :
           daemon.engine(shard).GetForecasts(by_shard[shard])) {
        if (!entry.ok()) ++errors;
      }
    }
  }
  Report& report = *context.report;
  report.Check(errors == 0, "in-process read path returned errors");
  const auto p50_us = [&](const char* span) {
    return Median(tracer.Seconds(span)) * 1e6;
  };
  report.Add("serve.protocol_encode_us",
             p50_us("serve.protocol.EncodeRequest") +
                 p50_us("serve.protocol.EncodeResponse"),
             iterations);
  report.Add("serve.protocol_decode_us",
             p50_us("serve.protocol.DecodeRequest") +
                 p50_us("serve.protocol.DecodeResponse"),
             iterations);
  const std::vector<double> handle =
      tracer.Seconds("serve.FleetDaemon.HandleFrame.read");
  report.Add("serve.daemon_read_us", Median(handle) * 1e6, handle.size());
  report.Add("serve.daemon_read_p99_us", Quantile(handle, 0.99) * 1e6,
             handle.size());
  report.Add("serve.engine_read_us", p50_us("serve.ServingEngine.GetForecasts"),
             iterations);
  report.Add("serve.transport_us", read_p50_us - Median(handle) * 1e6,
             handle.size());
  return Status::OK();
}

/// Traced: the write path's layers. One more night goes through
/// FleetDaemon::HandleFrame in-process; then each shard's vehicles are
/// loaded into a standalone ServingEngine, which is timed appending a
/// night and refreshing.
Status ReportWriteLayers(serve::FleetDaemon& daemon,
                         const std::vector<VehicleInput>& fleet,
                         const std::vector<double>& night, Date day,
                         Context& context) {
  Tracer& tracer = *context.tracer;
  Report& report = *context.report;
  size_t errors = 0;
  for (size_t v = 0; v < fleet.size(); ++v) {
    protocol::AppendRequest request;
    request.vehicle_id = fleet[v].id;
    request.day = day;
    request.seconds = night[v];
    const std::vector<uint8_t> frame = protocol::EncodeRequest(request);
    std::vector<uint8_t> response;
    {
      Tracer::Scope span = tracer.Open("serve.FleetDaemon.HandleFrame.append");
      response = daemon.HandleFrame(Payload(frame));
    }
    Result<protocol::Response> decoded =
        protocol::DecodeResponse(Payload(response));
    if (!decoded.ok() ||
        !std::holds_alternative<protocol::AckResponse>(decoded.ValueOrDie())) {
      ++errors;
    }
  }
  const std::vector<double> handle =
      tracer.Seconds("serve.FleetDaemon.HandleFrame.append");
  report.Add("serve.daemon_append_us", Median(handle) * 1e6, handle.size());
  report.Add("serve.daemon_append_p99_us", Quantile(handle, 0.99) * 1e6,
             handle.size());

  double refresh_s[kShards] = {};
  double refreshed = 0.0;
  double reused = 0.0;
  for (size_t shard = 0; shard < kShards; ++shard) {
    serve::ServingEngine engine(ServeOptions(kTrainingThreads));
    std::vector<size_t> members;
    for (size_t v = 0; v < fleet.size(); ++v) {
      if (protocol::StableVehicleHash(fleet[v].id) % kShards != shard) continue;
      members.push_back(v);
      NM_RETURN_NOT_OK(
          engine.Register(fleet[v].id, fleet[v].usage.start_date()));
      NM_RETURN_NOT_OK(engine.LoadHistory(fleet[v].id, fleet[v].usage));
    }
    NM_RETURN_NOT_OK(engine.RefreshForecasts().status());
    for (size_t v : members) {
      Tracer::Scope span = tracer.Open("serve.ServingEngine.Append");
      if (!engine.Append(fleet[v].id, day, night[v]).ok()) ++errors;
    }
    const Clock::time_point start = Clock::now();
    Result<serve::RefreshStats> stats = [&] {
      Tracer::Scope span =
          tracer.Open(shard == 0 ? "serve.ServingEngine.Refresh.shard0"
                                 : "serve.ServingEngine.Refresh.shard1");
      return engine.RefreshForecasts();
    }();
    refresh_s[shard] = SecondsSince(start);
    NM_RETURN_NOT_OK(stats.status());
    refreshed += static_cast<double>(stats.ValueOrDie().refreshed);
    reused += static_cast<double>(stats.ValueOrDie().reused);
  }
  report.Check(errors == 0, "in-process write path returned errors");
  const std::vector<double> engine_append =
      tracer.Seconds("serve.ServingEngine.Append");
  report.Add("serve.engine_append_us", Median(engine_append) * 1e6,
             engine_append.size());
  report.Add("serve.engine_refresh_s.shard0", refresh_s[0], 1);
  report.Add("serve.engine_refresh_s.shard1", refresh_s[1], 1);
  report.Add("serve.barrier_skew_s", std::abs(refresh_s[0] - refresh_s[1]), 2);
  report.Add("serve.refreshed", refreshed, kShards);
  report.Add("serve.reused", reused, kShards);
  return Status::OK();
}

std::string SocketPath(const Context& context) {
  return context.workdir + "/daemon.sock";
}

}  // namespace

Status RunServeRead(Context& context) {
  Report& report = *context.report;
  const std::vector<VehicleInput> fleet = MakeServeFleet(
      context.options.seed, FleetSize(context), kReadHistoryDays);
  PhaseTimes times;
  NM_ASSIGN_OR_RETURN(ServeStack stack,
                      SetUp(fleet, SocketPath(context), context, &times));

  // Measured: one closed-loop reader, after a warm-up. The whole process
  // runs on one CPU at a time, the next one every kPinnedSegment: reader
  // and daemon threads then hand each request off on one CPU instead of
  // waking an idle one, whose wake-up time on a shared host moves with the
  // host's load (ten runs' p50 spread 17% against 7.5% pinned).
  ClientLog reader;
  const Clock::time_point record_from =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kReadWarmupS));
  const Clock::time_point deadline =
      record_from + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(context.options.seconds));
  {
    std::atomic<bool> stop{false};
    const std::jthread read_thread(ReadLoop, SocketPath(context),
                                   std::cref(fleet), context.options.seed,
                                   record_from, std::cref(stop),
                                   std::cref(context), &reader);
    for (size_t segment = 0; Clock::now() < deadline; ++segment) {
      const CpuRotation pinned(segment, CpuRotation::Scope::kProcess);
      std::this_thread::sleep_until(
          std::min(deadline, Clock::now() + kPinnedSegment));
    }
    stop.store(true);
  }
  times.measured_s =
      std::chrono::duration<double>(deadline - record_from).count();
  times.peak_rss_mb = PeakRssMb();
  CountClient(reader, "reader", report);
  times.unit_plain_s = reader.plain_s;
  times.unit_traced_s = reader.traced_s;
  times.unit_done_s = reader.done_s;
  times.units = times.unit_plain_s.size() + times.unit_traced_s.size();
  ReportEndToEnd(times, context);
  stack.server->Stop();

  NM_RETURN_NOT_OK(CheckServedFleet(*stack.daemon, fleet, context));
  if (!context.options.traced) return Status::OK();
  ReportReads(reader, times.measured_s, report);
  return ReportReadLayers(*stack.daemon, fleet,
                          Median(times.unit_plain_s) * 1e6, context);
}

Status RunServeIngest(Context& context) {
  Report& report = *context.report;
  std::vector<VehicleInput> fleet = MakeServeFleet(
      context.options.seed, FleetSize(context), kIngestHistoryDays);
  PhaseTimes times;
  NM_ASSIGN_OR_RETURN(ServeStack stack,
                      SetUp(fleet, SocketPath(context), context, &times));

  std::array<serve::DaemonClient, kCollectors> collectors;
  for (serve::DaemonClient& connection : collectors) {
    NM_RETURN_NOT_OK(connection.ConnectUnix(SocketPath(context)));
  }
  // Measured: nights. Each night the collectors append one day for every
  // vehicle, then collector 0 sends the Refresh barrier, which the next
  // night's appends wait for. The unit is an append, from send to Ack;
  // throughput counts appends over the whole phase, barriers included, so
  // a slower refresh lowers it. A reader runs closed-loop reads alongside
  // the whole time.
  Rng night_rng(context.options.seed ^ 0x9e3779b97f4a7c15ULL);
  ClientLog reader;
  std::vector<ClientLog> appends(kCollectors);
  std::vector<double> append_rps;
  std::vector<double> refresh_s;
  size_t days = kIngestHistoryDays;
  const Clock::time_point measure_start = Clock::now();
  {
    std::atomic<bool> stop{false};
    const std::jthread read_thread(ReadLoop, SocketPath(context),
                                   std::cref(fleet), context.options.seed,
                                   measure_start, std::cref(stop),
                                   std::cref(context), &reader);
    for (size_t i = 0; context.MoreUnits(i, measure_start); ++i) {
      const std::vector<double> night = DrawNight(night_rng, fleet.size());
      const Date day = FleetStart().AddDays(static_cast<int64_t>(days));
      Tracer& tracer = context.TracerFor(i);
      const Clock::time_point start = Clock::now();
      {
        std::vector<std::jthread> threads;
        for (size_t c = 0; c < kCollectors; ++c) {
          threads.emplace_back(CollectorLoop, &collectors[c], std::cref(fleet),
                               std::cref(night), day, c, kCollectors,
                               std::ref(tracer), &appends[c]);
        }
      }
      const double append_s = SecondsSince(start);
      const Clock::time_point refresh_start = Clock::now();
      Result<protocol::RefreshDoneResponse> done = [&] {
        Tracer::Scope span = tracer.Open("client.Refresh");
        return collectors[0].Refresh();
      }();
      refresh_s.push_back(SecondsSince(refresh_start));
      times.units += fleet.size();
      append_rps.push_back(static_cast<double>(fleet.size()) / append_s);
      const bool refreshed_all =
          done.ok() && done.ValueOrDie().refreshed == fleet.size();
      report.CountOps(1, refreshed_all ? 0 : 1,
                      "Refresh barrier did not retrain every vehicle");
      for (size_t v = 0; v < fleet.size(); ++v) {
        fleet[v].usage.Append(night[v]);
      }
      ++days;
    }
    times.measured_s = SecondsSince(measure_start);
    stop.store(true);
  }
  times.peak_rss_mb = PeakRssMb();
  uint64_t append_attempts = 0;
  uint64_t overloaded = 0;
  for (const ClientLog& log : appends) {
    CountClient(log, "collector", report);
    append_attempts += log.attempted;
    overloaded += log.overloaded;
    times.unit_plain_s.insert(times.unit_plain_s.end(), log.plain_s.begin(),
                              log.plain_s.end());
    times.unit_traced_s.insert(times.unit_traced_s.end(),
                               log.traced_s.begin(), log.traced_s.end());
  }
  ReportEndToEnd(times, context);
  CountClient(reader, "reader", report);
  for (serve::DaemonClient& connection : collectors) connection.Close();
  stack.server->Stop();

  NM_RETURN_NOT_OK(CheckServedFleet(*stack.daemon, fleet, context));
  if (!context.options.traced) return Status::OK();
  ReportReads(reader, times.measured_s, report);
  report.Add("serve.append_rps", Median(append_rps), append_rps.size());
  report.Add("serve.refresh_s", Median(refresh_s), refresh_s.size());
  report.Add("serve.overloaded_ratio",
             static_cast<double>(overloaded) /
                 static_cast<double>(append_attempts),
             append_attempts);
  NM_RETURN_NOT_OK(ReportReadLayers(*stack.daemon, fleet,
                                    Median(reader.plain_s) * 1e6, context));
  const std::vector<double> night = DrawNight(night_rng, fleet.size());
  return ReportWriteLayers(*stack.daemon, fleet, night,
                           FleetStart().AddDays(static_cast<int64_t>(days)),
                           context);
}

}  // namespace bench
}  // namespace nextmaint
