#include "cli/cli.h"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <string_view>

#include "common/failpoints.h"
#include "common/macros.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/telemetry.h"
#include "core/old_vehicle.h"
#include "core/scheduler.h"
#include "core/workshop_planner.h"
#include "data/csv.h"
#include "data/preprocess.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/serving_engine.h"
#include "serve/socket_server.h"
#include "storage/corpus.h"
#include "telematics/fleet.h"

namespace nextmaint {
namespace cli {

namespace fs = std::filesystem;

std::string ParsedArgs::FlagOr(const std::string& name,
                               std::string fallback) const {
  const auto it = flags.find(name);
  return it == flags.end() ? std::move(fallback) : it->second;
}

Result<int64_t> ParsedArgs::IntFlagOr(const std::string& name,
                                      int64_t fallback) const {
  const auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  Result<int64_t> value = ParseInt64(it->second);
  if (!value.ok()) {
    return Status::DataError("flag --" + name + " expects an integer, got '" +
                             it->second + "'");
  }
  return value;
}

Result<double> ParsedArgs::DoubleFlagOr(const std::string& name,
                                        double fallback) const {
  const auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  Result<double> value = ParseDouble(it->second);
  if (!value.ok()) {
    return Status::DataError("flag --" + name + " expects a number, got '" +
                             it->second + "'");
  }
  return value;
}

ParsedArgs ParseArgs(const std::vector<std::string>& args) {
  ParsedArgs parsed;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& token = args[i];
    if (!StartsWith(token, "--")) {
      parsed.positional.push_back(token);
      continue;
    }
    const std::string body = token.substr(2);
    const size_t equals = body.find('=');
    if (equals != std::string::npos) {
      parsed.flags[body.substr(0, equals)] = body.substr(equals + 1);
      continue;
    }
    // `--name value` unless the next token is itself a flag.
    if (i + 1 < args.size() && !StartsWith(args[i + 1], "--")) {
      parsed.flags[body] = args[i + 1];
      ++i;
    } else {
      parsed.flags[body] = "";
    }
  }
  return parsed;
}

namespace {

/// One command line of UsageText. The flags a synopsis names are exactly
/// the flags its command reads, plus kRunFlags, which every command takes.
struct Synopsis {
  std::string_view command;
  std::string_view flags;
};

constexpr Synopsis kSynopses[] = {
    {"simulate",
     "--out DIR [--vehicles N] [--days N] [--seed S] [--tv S]\n"
     "           [--weather]"},
    {"compact", "--data DIR --out FILE [--tv S]"},
    {"forecast",
     "--data DIR [--tv S] [--window W] [--tune] [--threads N]\n"
     "           [--save-models FILE] [--load-models FILE]"},
    {"plan",
     "--data DIR [--capacity N] [--horizon DAYS] [--weekends]\n"
     "           [--tv S] [--window W] [--tune] [--threads N]\n"
     "           [--load-models FILE]"},
    {"evaluate", "--data DIR [--tv S] [--window W] [--last29] [--tune]"},
    {"serve",
     "--data DIR [--tv S] [--window W] [--tune] [--threads N]\n"
     "           [--replay-days N] [--refresh-every N]"},
    {"serve",
     "--daemon --data DIR (--socket PATH | --port N)\n"
     "           [--shards N] [--max-queue N] [--batch-window N]\n"
     "           [--tv S] [--window W] [--tune] [--threads N]"},
};

constexpr std::string_view kRunFlags[] = {"metrics-json", "strict",
                                          "failpoints"};

/// True when `synopsis` names `--flag`.
bool NamesFlag(std::string_view synopsis, std::string_view flag) {
  for (size_t at = synopsis.find("--"); at != std::string_view::npos;
       at = synopsis.find("--", at + 2)) {
    const size_t end = synopsis.find_first_of(" ]|)\n", at);
    if (synopsis.substr(at + 2, end - (at + 2)) == flag) return true;
  }
  return false;
}

/// InvalidArgument naming every flag of `args` that neither kRunFlags nor
/// the synopsis of its command names. The command is the first positional
/// argument, in daemon mode under --daemon; without one, every flag passes.
Status CheckCommandFlags(const ParsedArgs& args) {
  if (args.positional.empty()) return Status::OK();
  const std::string& command = args.positional.front();
  const Synopsis* synopsis = nullptr;
  for (const Synopsis& candidate : kSynopses) {
    if (candidate.command == command &&
        NamesFlag(candidate.flags, "daemon") == args.HasFlag("daemon")) {
      synopsis = &candidate;
      break;
    }
  }
  std::string unknown;
  for (const auto& flag : args.flags) {
    if (std::ranges::find(kRunFlags, flag.first) == std::end(kRunFlags) &&
        (synopsis == nullptr || !NamesFlag(synopsis->flags, flag.first))) {
      unknown += " --" + flag.first;
    }
  }
  if (unknown.empty()) return Status::OK();
  return Status::InvalidArgument("unknown flag" + unknown + " for " +
                                 command + "\n" + UsageText());
}

}  // namespace

Result<CommonOptions> ParseCommonOptions(const ParsedArgs& args) {
  NM_RETURN_NOT_OK(CheckCommandFlags(args));
  CommonOptions common;
  const auto threads = args.flags.find("threads");
  if (threads != args.flags.end()) {
    // Malformed or negative input is a user error, rejected with the usage
    // hint instead of silently falling back to the default.
    const Result<int64_t> parsed = ParseInt64(threads->second);
    if (!parsed.ok() || parsed.ValueOrDie() < 0) {
      return Status::InvalidArgument(
          "--threads expects a non-negative integer (0 = all cores), got '" +
          threads->second + "'\n" + UsageText());
    }
    common.threads = static_cast<int>(parsed.ValueOrDie());
  }
  common.strict = args.HasFlag("strict");
  if (args.HasFlag("metrics-json")) {
    common.metrics_json = args.flags.at("metrics-json");
    if (common.metrics_json.empty()) {
      return Status::InvalidArgument("--metrics-json requires a file path\n" +
                                     UsageText());
    }
  }
  if (args.HasFlag("failpoints")) {
    common.failpoints = args.flags.at("failpoints");
    if (common.failpoints.empty()) {
      return Status::InvalidArgument(
          "--failpoints requires a spec (site[:nth[:kind]], comma "
          "separated)\n" + UsageText());
    }
  }
  if (args.HasFlag("load-models")) {
    common.load_models = args.flags.at("load-models");
    if (common.load_models.empty()) {
      return Status::InvalidArgument(
          "--load-models requires a checkpoint file path\n" + UsageText());
    }
  }
  common.daemon = args.HasFlag("daemon");
  if (args.HasFlag("shards")) {
    const Result<int64_t> parsed = ParseInt64(args.flags.at("shards"));
    if (!parsed.ok() || parsed.ValueOrDie() < 1) {
      return Status::InvalidArgument(
          "--shards expects a positive integer, got '" +
          args.flags.at("shards") + "'\n" + UsageText());
    }
    common.shards = static_cast<int>(parsed.ValueOrDie());
  }
  if (args.HasFlag("port")) {
    const Result<int64_t> parsed = ParseInt64(args.flags.at("port"));
    if (!parsed.ok() || parsed.ValueOrDie() < 1 ||
        parsed.ValueOrDie() > 65535) {
      return Status::InvalidArgument(
          "--port expects an integer in 1..65535, got '" +
          args.flags.at("port") + "'\n" + UsageText());
    }
    common.port = static_cast<int>(parsed.ValueOrDie());
  }
  if (args.HasFlag("socket")) {
    common.socket_path = args.flags.at("socket");
    if (common.socket_path.empty()) {
      return Status::InvalidArgument(
          "--socket requires a unix socket path\n" + UsageText());
    }
  }
  if (common.port > 0 && !common.socket_path.empty()) {
    return Status::InvalidArgument(
        "--socket and --port are mutually exclusive; pick one endpoint\n" +
        UsageText());
  }
  if (args.HasFlag("max-queue")) {
    const Result<int64_t> parsed = ParseInt64(args.flags.at("max-queue"));
    if (!parsed.ok() || parsed.ValueOrDie() < 1) {
      return Status::InvalidArgument(
          "--max-queue expects a positive integer, got '" +
          args.flags.at("max-queue") + "'\n" + UsageText());
    }
    common.max_queue = parsed.ValueOrDie();
  }
  if (args.HasFlag("batch-window")) {
    const Result<int64_t> parsed = ParseInt64(args.flags.at("batch-window"));
    if (!parsed.ok() || parsed.ValueOrDie() < 0) {
      return Status::InvalidArgument(
          "--batch-window expects a non-negative integer, got '" +
          args.flags.at("batch-window") + "'\n" + UsageText());
    }
    common.batch_window = parsed.ValueOrDie();
  }
  return common;
}

namespace {

/// Result of loading a fleet directory: the usable vehicle series plus the
/// vehicles skipped because their CSV would not read or aggregate.
struct FleetLoad {
  std::vector<std::pair<std::string, data::DailySeries>> vehicles;
  std::vector<std::pair<std::string, Status>> skipped;
};

/// The sorted per-vehicle CSV worklist of a fleet directory (fleet.csv and
/// weather.csv excluded). Sorted by stem — the vehicle id — which is also
/// the strictly ascending order the corpus compactor writes in.
Result<std::vector<fs::path>> ListVehicleCsvs(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound("'" + dir + "' is not a directory");
  }
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".csv" &&
        entry.path().stem() != "fleet" &&
        entry.path().stem() != "weather") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end(),
            [](const fs::path& a, const fs::path& b) {
              return a.stem().string() < b.stem().string();
            });
  return paths;
}

/// Reads and aggregates one vehicle CSV (shared by the directory loader
/// and the streaming compactor). Not yet cleaned.
Result<data::DailySeries> ReadVehicleCsv(const fs::path& path) {
  NM_ASSIGN_OR_RETURN(data::Table table, data::ReadCsvFile(path.string()));
  // Accept either column name for the daily seconds.
  Result<data::DailySeries> loaded =
      data::AggregateDaily(table, "date", "utilization_s");
  if (!loaded.ok()) {
    loaded = data::AggregateDaily(table, "date", "usage");
  }
  if (!loaded.ok()) {
    return loaded.status().WithContext(path.string());
  }
  return loaded;
}

/// Loads every `*.csv` vehicle series in `dir` (fleet.csv excluded).
/// The file stem is the vehicle id. With `strict` the first unreadable
/// vehicle aborts the load; otherwise it is recorded in `skipped` and the
/// rest of the fleet is served (docs/fault-injection.md).
Result<FleetLoad> LoadFleetDir(const std::string& dir, bool strict) {
  NM_ASSIGN_OR_RETURN(std::vector<fs::path> paths, ListVehicleCsvs(dir));
  FleetLoad load;
  for (const fs::path& path : paths) {
    Result<data::DailySeries> loaded = ReadVehicleCsv(path);
    if (!loaded.ok()) {
      if (strict) return loaded.status();
      telemetry::Count("cli.vehicles_skipped");
      load.skipped.emplace_back(path.stem().string(), loaded.status());
      continue;
    }
    data::DailySeries series = std::move(loaded).ValueOrDie();
    data::Clean(&series);
    load.vehicles.emplace_back(path.stem().string(), std::move(series));
  }
  if (load.vehicles.empty()) {
    if (!load.skipped.empty()) {
      return load.skipped.front().second.WithContext(
          "no loadable vehicle CSVs under '" + dir + "'");
    }
    return Status::NotFound("no vehicle CSVs under '" + dir + "'");
  }
  return load;
}

/// Loads a fleet from either a CSV directory or a compacted binary corpus
/// (built by `nextmaint compact`). A regular file routes by magic: corpus
/// files decode their summary index eagerly and materialize each vehicle's
/// series from its column block — no CSV parsing on the serving path.
Result<FleetLoad> LoadFleetSource(const std::string& source, bool strict) {
  std::error_code ec;
  if (!fs::is_regular_file(source, ec)) {
    return LoadFleetDir(source, strict);
  }
  NM_ASSIGN_OR_RETURN(const bool is_corpus, storage::IsCorpusFile(source));
  if (!is_corpus) {
    return Status::InvalidArgument(
        "'" + source + "' is neither a fleet directory nor a compacted "
        "corpus (build one with `nextmaint compact`)");
  }
  NM_ASSIGN_OR_RETURN(std::unique_ptr<storage::CorpusReader> reader,
                      storage::CorpusReader::Open(source));
  FleetLoad load;
  for (const storage::CorpusVehicleSummary& summary : reader->summaries()) {
    Result<data::DailySeries> series = reader->Series(summary.vehicle_id);
    if (!series.ok()) {
      // A corrupt column block degrades that vehicle alone; the summary
      // index already validated, so the rest of the corpus stays usable.
      if (strict) return series.status().WithContext(summary.vehicle_id);
      telemetry::Count("cli.vehicles_skipped");
      load.skipped.emplace_back(summary.vehicle_id, series.status());
      continue;
    }
    load.vehicles.emplace_back(summary.vehicle_id,
                               std::move(series).ValueOrDie());
  }
  if (load.vehicles.empty()) {
    if (!load.skipped.empty()) {
      return load.skipped.front().second.WithContext(
          "no loadable vehicles in corpus '" + source + "'");
    }
    return Status::NotFound("corpus '" + source + "' holds no vehicles");
  }
  telemetry::Count("cli.corpus_loads");
  return load;
}

/// Prints one line per vehicle the loader skipped.
void ReportSkippedVehicles(const FleetLoad& load, std::ostream& out) {
  for (const auto& [id, error] : load.skipped) {
    out << "skipped vehicle " << id << ": " << error.ToString() << "\n";
  }
}

/// Prints one line per quarantined vehicle, plus a summary.
void ReportDegradationReport(const core::DegradationReport& report,
                             std::ostream& out) {
  if (report.empty()) return;
  for (const auto& d : report.vehicles) {
    out << "degraded vehicle " << d.vehicle_id << " (" << d.stage
        << "): " << d.error.ToString()
        << (d.fallback ? " [BL fallback]" : " [no fallback]") << "\n";
  }
  out << report.vehicles.size() << " vehicle(s) degraded; rerun with "
      << "--strict to fail fast\n";
}

/// Prints one line per vehicle the scheduler quarantined, plus a summary.
void ReportDegradations(const core::FleetScheduler& scheduler,
                        std::ostream& out) {
  ReportDegradationReport(scheduler.LastDegradationReport(), out);
}

/// The fleet forecast table shared by the forecast and serve commands.
void PrintForecastTable(const std::vector<core::MaintenanceForecast>& forecasts,
                        std::ostream& out) {
  out << StrFormat("%-8s %-10s %-18s %10s %12s\n", "vehicle", "category",
                   "model", "days left", "due date");
  for (const auto& f : forecasts) {
    out << StrFormat("%-8s %-10s %-18s %10.1f %12s\n", f.vehicle_id.c_str(),
                     core::VehicleCategoryName(f.category),
                     f.model_name.c_str(), f.days_left,
                     f.predicted_date.ToString().c_str());
  }
}

/// Scheduler options from the command line (--tv, --window, --tune plus the
/// shared flags). Applies the --threads cap to the process-wide thread-pool
/// default, which also bounds the model-level parallelism (RF trees, XGB
/// histograms).
Result<core::SchedulerOptions> SchedulerOptionsFromArgs(
    const ParsedArgs& args, const CommonOptions& common) {
  core::SchedulerOptions options;
  NM_ASSIGN_OR_RETURN(double tv, args.DoubleFlagOr("tv", 2'000'000.0));
  NM_ASSIGN_OR_RETURN(int64_t window, args.IntFlagOr("window", 6));
  if (common.threads > 0) {
    ThreadPool::SetDefaultThreadCount(common.threads);
  }
  options.maintenance_interval_s = tv;
  options.window = static_cast<int>(window);
  options.num_threads = common.threads;
  options.strict = common.strict;
  options.selection.tune = args.HasFlag("tune");
  options.selection.train_on_last29_only = true;
  options.selection.resampling_shifts = 2;
  return options;
}

/// Builds a scheduler from the vehicles in `dir`. Models come from the
/// `--load-models` checkpoint when given, otherwise from TrainAll. Vehicles
/// the loader skipped (non-strict mode) are reported on `out`.
Result<core::FleetScheduler> MakeTrainedScheduler(const ParsedArgs& args,
                                                  const std::string& dir,
                                                  std::ostream& out) {
  NM_ASSIGN_OR_RETURN(const CommonOptions common, ParseCommonOptions(args));
  NM_ASSIGN_OR_RETURN(FleetLoad load, LoadFleetSource(dir, common.strict));
  ReportSkippedVehicles(load, out);
  const auto& vehicles = load.vehicles;
  NM_ASSIGN_OR_RETURN(core::SchedulerOptions options,
                      SchedulerOptionsFromArgs(args, common));

  core::FleetScheduler scheduler(options);
  for (const auto& [id, series] : vehicles) {
    NM_RETURN_NOT_OK(scheduler.RegisterVehicle(id, series.start_date()));
    NM_RETURN_NOT_OK(scheduler.IngestSeries(id, series).WithContext(id));
  }
  if (!common.load_models.empty()) {
    NM_RETURN_NOT_OK(scheduler.LoadCheckpoint(common.load_models));
  } else {
    NM_RETURN_NOT_OK(scheduler.TrainAll());
  }
  return scheduler;
}

/// The `serve --daemon` mode: bulk-load every vehicle through the daemon's
/// own write path, publish an initial snapshot, then serve the binary
/// protocol on the requested endpoint until a client sends Shutdown.
Status RunServeDaemon(const ParsedArgs& args, const CommonOptions& common,
                      std::ostream& out) {
  if (common.port < 0 && common.socket_path.empty()) {
    return Status::InvalidArgument(
        "serve --daemon requires an endpoint: --socket PATH or --port N\n" +
        UsageText());
  }
  NM_ASSIGN_OR_RETURN(
      FleetLoad load, LoadFleetSource(args.flags.at("data"), common.strict));
  ReportSkippedVehicles(load, out);
  NM_ASSIGN_OR_RETURN(core::SchedulerOptions scheduler_options,
                      SchedulerOptionsFromArgs(args, common));

  serve::DaemonOptions options;
  options.scheduler = scheduler_options;
  options.shards = common.shards;
  options.max_queue = static_cast<size_t>(common.max_queue);
  options.batch_window = static_cast<uint64_t>(common.batch_window);
  serve::FleetDaemon daemon(options);
  NM_RETURN_NOT_OK(daemon.Start());

  // Bulk-load through the daemon's own write path so sharding and
  // registration follow the exact rules remote clients see.
  for (const auto& [id, series] : load.vehicles) {
    serve::protocol::LoadHistoryRequest request;
    request.vehicle_id = id;
    request.start_day = series.start_date();
    request.values.reserve(series.size());
    for (size_t i = 0; i < series.size(); ++i) {
      request.values.push_back(series[i]);
    }
    const serve::protocol::Response response = daemon.Execute(request);
    if (const auto* error =
            std::get_if<serve::protocol::ErrorResponse>(&response)) {
      const Status status = error->ToStatus().WithContext(id);
      if (common.strict) {
        daemon.Stop();
        return status;
      }
      out << "history load degraded vehicle " << id << ": "
          << status.ToString() << "\n";
    }
  }

  // Publish the initial snapshot so reads work before the first client
  // refresh. Non-strict serves an empty snapshot when this fails.
  {
    const serve::protocol::Response response =
        daemon.Execute(serve::protocol::RefreshRequest{});
    if (const auto* done =
            std::get_if<serve::protocol::RefreshDoneResponse>(&response)) {
      out << "initial refresh epoch " << done->epoch << ": "
          << done->refreshed << " refreshed, " << done->reused
          << " reused across " << done->shards << " shard(s)\n";
    } else if (const auto* error =
                   std::get_if<serve::protocol::ErrorResponse>(&response)) {
      const Status status = error->ToStatus();
      if (common.strict) {
        daemon.Stop();
        return status;
      }
      out << "initial refresh degraded: " << status.ToString() << "\n";
    }
  }

  serve::SocketServerOptions socket_options;
  socket_options.unix_path = common.socket_path;
  socket_options.tcp_port = common.port;
  serve::SocketServer server(&daemon, socket_options);
  const Status started = server.Start();
  if (!started.ok()) {
    daemon.Stop();
    return started;
  }
  out << "daemon serving " << load.vehicles.size() << " vehicle(s) on "
      << server.endpoint() << " (" << daemon.shards()
      << " shard(s)); send Shutdown to stop\n";
  server.Wait();
  daemon.Stop();

  const serve::protocol::StatsResponse stats = daemon.Stats();
  out << "daemon stopped: " << stats.frames << " frame(s), " << stats.appends
      << " append(s), " << stats.reads << " read request(s), "
      << stats.overloaded << " overloaded rejection(s), "
      << stats.decode_errors << " decode error(s)\n";
  return Status::OK();
}

}  // namespace

Status RunSimulate(const ParsedArgs& args, std::ostream& out) {
  if (!args.HasFlag("out")) {
    return Status::InvalidArgument("simulate requires --out DIR");
  }
  const std::string dir = args.flags.at("out");
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create '" + dir + "': " + ec.message());
  }

  telem::FleetOptions options;
  NM_ASSIGN_OR_RETURN(int64_t vehicles, args.IntFlagOr("vehicles", 24));
  NM_ASSIGN_OR_RETURN(int64_t days, args.IntFlagOr("days", 1735));
  NM_ASSIGN_OR_RETURN(int64_t seed, args.IntFlagOr("seed", 20150101));
  NM_ASSIGN_OR_RETURN(double tv, args.DoubleFlagOr("tv", 2'000'000.0));
  options.num_vehicles = static_cast<int>(vehicles);
  options.num_days = static_cast<int>(days);
  options.seed = static_cast<uint64_t>(seed);
  options.maintenance_interval_s = tv;
  options.start_date = Date::FromYmd(2015, 1, 1).ValueOrDie();
  options.with_weather = args.HasFlag("weather");

  NM_ASSIGN_OR_RETURN(telem::Fleet fleet, telem::SimulateFleet(options));

  // Per-vehicle daily CSVs.
  for (const auto& vehicle : fleet.vehicles) {
    NM_ASSIGN_OR_RETURN(
        data::Table table,
        data::SeriesToTable(vehicle.utilization, "utilization_s"));
    const std::string path = dir + "/" + vehicle.profile.id + ".csv";
    NM_RETURN_NOT_OK(data::WriteCsvFile(table, path));
  }

  // Fleet inventory.
  {
    data::Column id("vehicle_id", data::ColumnType::kString);
    data::Column model("model", data::ColumnType::kString);
    data::Column cycles("maintenance_events", data::ColumnType::kInt64);
    for (const auto& vehicle : fleet.vehicles) {
      id.AppendString(vehicle.profile.id);
      model.AppendString(vehicle.profile.model_name);
      cycles.AppendInt64(
          static_cast<int64_t>(vehicle.maintenance_days.size()));
    }
    data::Table inventory;
    NM_RETURN_NOT_OK(inventory.AddColumn(std::move(id)));
    NM_RETURN_NOT_OK(inventory.AddColumn(std::move(model)));
    NM_RETURN_NOT_OK(inventory.AddColumn(std::move(cycles)));
    NM_RETURN_NOT_OK(data::WriteCsvFile(inventory, dir + "/fleet.csv"));
  }

  out << "wrote " << fleet.vehicles.size() << " vehicle series ("
      << options.num_days << " days each) to " << dir << "\n";
  return Status::OK();
}

Status RunCompact(const ParsedArgs& args, std::ostream& out) {
  if (!args.HasFlag("data") || !args.HasFlag("out")) {
    return Status::InvalidArgument(
        "compact requires --data DIR and --out FILE\n" + UsageText());
  }
  NM_ASSIGN_OR_RETURN(const CommonOptions common, ParseCommonOptions(args));
  NM_ASSIGN_OR_RETURN(double tv, args.DoubleFlagOr("tv", 2'000'000.0));
  const std::string out_path = args.flags.at("out");

  // Pass 1: the sorted worklist (stems ascending — the id order the
  // corpus index requires, which also makes the output byte-deterministic
  // for a given directory). Pass 2 streams the fleet through the writer
  // one vehicle at a time: only one series is ever resident, so compaction
  // memory stays flat no matter the fleet size.
  NM_ASSIGN_OR_RETURN(std::vector<fs::path> paths,
                      ListVehicleCsvs(args.flags.at("data")));
  NM_ASSIGN_OR_RETURN(std::unique_ptr<storage::CorpusWriter> writer,
                      storage::CorpusWriter::Create(out_path, tv));
  size_t written = 0;
  size_t skipped = 0;
  for (const fs::path& path : paths) {
    const std::string id = path.stem().string();
    Result<data::DailySeries> loaded = ReadVehicleCsv(path);
    if (!loaded.ok()) {
      if (common.strict) return loaded.status();
      telemetry::Count("cli.vehicles_skipped");
      out << "skipped vehicle " << id << ": " << loaded.status().ToString()
          << "\n";
      ++skipped;
      continue;
    }
    data::DailySeries series = std::move(loaded).ValueOrDie();
    data::Clean(&series);
    NM_RETURN_NOT_OK(writer->AddVehicle(id, series).WithContext(id));
    ++written;
  }
  if (written == 0) {
    return Status::NotFound("no loadable vehicle CSVs under '" +
                            args.flags.at("data") + "'");
  }
  NM_ASSIGN_OR_RETURN(const uint64_t bytes, writer->Finish());
  out << "compacted " << written << " vehicle(s) to " << out_path << " ("
      << bytes << " bytes";
  if (skipped > 0) out << ", " << skipped << " skipped";
  out << ")\n";
  return Status::OK();
}

Status RunForecast(const ParsedArgs& args, std::ostream& out) {
  if (!args.HasFlag("data")) {
    return Status::InvalidArgument("forecast requires --data DIR");
  }
  NM_ASSIGN_OR_RETURN(core::FleetScheduler scheduler,
                      MakeTrainedScheduler(args, args.flags.at("data"), out));
  NM_ASSIGN_OR_RETURN(auto forecasts, scheduler.FleetForecast());
  ReportDegradations(scheduler, out);
  PrintForecastTable(forecasts, out);
  if (args.HasFlag("save-models")) {
    const std::string path = args.flags.at("save-models");
    NM_RETURN_NOT_OK(scheduler.SaveCheckpoint(path));
    out << "models saved to " << path << "\n";
  }
  return Status::OK();
}

Status RunPlan(const ParsedArgs& args, std::ostream& out) {
  if (!args.HasFlag("data")) {
    return Status::InvalidArgument("plan requires --data DIR");
  }
  NM_ASSIGN_OR_RETURN(core::FleetScheduler scheduler,
                      MakeTrainedScheduler(args, args.flags.at("data"), out));
  NM_ASSIGN_OR_RETURN(auto forecasts, scheduler.FleetForecast());
  ReportDegradations(scheduler, out);
  if (forecasts.empty()) {
    return Status::FailedPrecondition("no forecastable vehicle");
  }

  core::WorkshopOptions options;
  NM_ASSIGN_OR_RETURN(int64_t capacity, args.IntFlagOr("capacity", 1));
  NM_ASSIGN_OR_RETURN(int64_t horizon, args.IntFlagOr("horizon", 90));
  options.daily_capacity = static_cast<int>(capacity);
  options.horizon_days = static_cast<int>(horizon);
  options.weekend_service = args.HasFlag("weekends");

  // "Today" is the day after the last ingested observation.
  Date today;
  for (const auto& f : forecasts) {
    const Date due = f.predicted_date.AddDays(
        -static_cast<int64_t>(std::llround(f.days_left)));
    if (due > today) today = due;
  }

  NM_ASSIGN_OR_RETURN(core::ServicePlan plan,
                      core::PlanWorkshop(forecasts, today, options));
  out << "workshop plan from " << today.ToString() << " (capacity "
      << options.daily_capacity << "/day, horizon " << options.horizon_days
      << " days)\n";
  out << StrFormat("%-12s %-8s %12s %8s\n", "date", "vehicle", "due",
                   "slack");
  for (const auto& a : plan.assignments) {
    out << StrFormat("%-12s %-8s %12s %+8ld\n",
                     a.scheduled_date.ToString().c_str(),
                     a.vehicle_id.c_str(),
                     a.predicted_due_date.ToString().c_str(),
                     static_cast<long>(a.slack_days));
  }
  out << StrFormat("total cost %.1f (early days %ld, late days %ld)\n",
                   plan.total_cost,
                   static_cast<long>(plan.total_early_days),
                   static_cast<long>(plan.total_late_days));
  for (const std::string& id : plan.beyond_horizon) {
    out << "beyond horizon: " << id << "\n";
  }
  return Status::OK();
}

Status RunEvaluate(const ParsedArgs& args, std::ostream& out) {
  if (!args.HasFlag("data")) {
    return Status::InvalidArgument("evaluate requires --data DIR");
  }
  NM_ASSIGN_OR_RETURN(
      FleetLoad load,
      LoadFleetSource(args.flags.at("data"), args.HasFlag("strict")));
  ReportSkippedVehicles(load, out);
  const auto& vehicles = load.vehicles;
  NM_ASSIGN_OR_RETURN(double tv, args.DoubleFlagOr("tv", 2'000'000.0));
  NM_ASSIGN_OR_RETURN(int64_t window, args.IntFlagOr("window", 6));

  core::OldVehicleOptions options;
  options.window = static_cast<int>(window);
  options.train_on_last29_only = args.HasFlag("last29");
  options.tune = args.HasFlag("tune");
  options.resampling_shifts = 2;

  out << StrFormat("%-8s %-6s %12s %12s\n", "vehicle", "model",
                   "E_MRE(1..29)", "E_Global");
  for (const auto& [id, series] : vehicles) {
    for (const char* algorithm : {"BL", "LR", "LSVR", "RF", "XGB"}) {
      const auto eval =
          core::EvaluateAlgorithmOnVehicle(algorithm, series, tv, options);
      if (!eval.ok()) {
        out << StrFormat("%-8s %-6s skipped: %s\n", id.c_str(), algorithm,
                         eval.status().message().c_str());
        continue;
      }
      out << StrFormat("%-8s %-6s %12.2f %12.2f\n", id.c_str(), algorithm,
                       eval.ValueOrDie().emre, eval.ValueOrDie().eglobal);
    }
  }
  return Status::OK();
}

Status RunServe(const ParsedArgs& args, std::ostream& out) {
  if (!args.HasFlag("data")) {
    return Status::InvalidArgument("serve requires --data DIR");
  }
  NM_ASSIGN_OR_RETURN(const CommonOptions common, ParseCommonOptions(args));
  if (common.daemon) {
    return RunServeDaemon(args, common, out);
  }
  NM_ASSIGN_OR_RETURN(int64_t replay_days, args.IntFlagOr("replay-days", 30));
  NM_ASSIGN_OR_RETURN(int64_t refresh_every,
                      args.IntFlagOr("refresh-every", 1));
  if (replay_days < 1) {
    return Status::InvalidArgument(
        "--replay-days expects a positive integer\n" + UsageText());
  }
  if (refresh_every < 1) {
    return Status::InvalidArgument(
        "--refresh-every expects a positive integer\n" + UsageText());
  }
  NM_ASSIGN_OR_RETURN(
      FleetLoad load, LoadFleetSource(args.flags.at("data"), common.strict));
  ReportSkippedVehicles(load, out);
  NM_ASSIGN_OR_RETURN(core::SchedulerOptions options,
                      SchedulerOptionsFromArgs(args, common));
  serve::ServingEngine engine(options);

  // Everything but the trailing replay window is bulk-loaded, then the
  // last `replay_days` arrive one day at a time like a live feed.
  const size_t replay = static_cast<size_t>(replay_days);
  const auto history_size = [replay](const data::DailySeries& series) {
    return series.size() > replay ? series.size() - replay : 0;
  };
  for (const auto& [id, series] : load.vehicles) {
    NM_RETURN_NOT_OK(engine.Register(id, series.start_date()));
    const size_t history = history_size(series);
    if (history == 0) continue;
    const Status loaded = engine.LoadHistory(id, series.Slice(0, history));
    if (!loaded.ok()) {
      if (common.strict) return loaded.WithContext(id);
      out << "history load degraded vehicle " << id << ": "
          << loaded.ToString() << "\n";
    }
  }

  // One refresh. Non-strict keeps serving the previous snapshot when the
  // whole refresh fails (per-vehicle failures degrade inside the engine).
  const auto refresh = [&]() -> Status {
    const Result<serve::RefreshStats> stats = engine.RefreshForecasts();
    if (!stats.ok()) {
      if (common.strict) return stats.status();
      out << "refresh degraded: " << stats.status().ToString()
          << " (serving stale snapshot)\n";
      return Status::OK();
    }
    const serve::RefreshStats& s = stats.ValueOrDie();
    out << "refresh epoch " << s.epoch << ": " << s.refreshed
        << " refreshed, " << s.reused << " reused"
        << (s.corpus_rebuilt ? ", corpus rebuilt" : "") << "\n";
    return Status::OK();
  };

  NM_RETURN_NOT_OK(refresh());
  int64_t steps_since_refresh = 0;
  for (size_t step = 0; step < replay; ++step) {
    bool any_data_left = false;
    for (const auto& [id, series] : load.vehicles) {
      const size_t idx = history_size(series) + step;
      if (idx >= series.size()) continue;
      any_data_left = true;
      const Date day = series.start_date().AddDays(static_cast<int64_t>(idx));
      const Status appended = engine.Append(id, day, series[idx]);
      if (!appended.ok()) {
        if (common.strict) return appended.WithContext(id);
        out << "append degraded vehicle " << id << " day "
            << day.ToString() << ": " << appended.ToString() << "\n";
      }
    }
    if (!any_data_left) break;
    if (++steps_since_refresh >= refresh_every) {
      steps_since_refresh = 0;
      NM_RETURN_NOT_OK(refresh());
    }
  }
  if (engine.DirtyCount() > 0) {
    NM_RETURN_NOT_OK(refresh());
  }

  const std::shared_ptr<const serve::FleetSnapshot> snapshot =
      engine.Snapshot();
  ReportDegradationReport(snapshot->degradations, out);
  out << "fleet snapshot at epoch " << snapshot->epoch << " ("
      << snapshot->vehicle_ids.size() << " vehicles, "
      << snapshot->forecasts.size() << " forecasts)\n";
  PrintForecastTable(snapshot->forecasts, out);
  return Status::OK();
}

std::string UsageText() {
  std::string usage = "usage: nextmaint <command> [flags]\ncommands:\n";
  for (const Synopsis& synopsis : kSynopses) {
    usage += "  ";
    usage += synopsis.command;
    usage.append(9 - synopsis.command.size(), ' ');
    usage += synopsis.flags;
    usage += '\n';
  }
  return usage +
      "every command also takes --metrics-json FILE, --strict and\n"
      "--failpoints SPEC, and rejects any flag its line above does not name.\n"
      "\n"
      "compact streams the fleet's CSVs into one binary corpus file\n"
      "(docs/storage.md); every --data flag accepts that file in place of\n"
      "the CSV directory, skipping CSV parsing on later runs. Checkpoints\n"
      "(--save-models/--load-models) use the segmented mmap format: loads\n"
      "map the file and deserialize each model on first use.\n"
      "serve replays the trailing --replay-days of each vehicle through the\n"
      "incremental engine: bulk-load the leading history, then append day\n"
      "by day and refresh only the dirty vehicles (docs/serving.md).\n"
      "serve --daemon runs the long-lived sharded daemon instead: vehicles\n"
      "are sharded by stable hash across --shards serving engines and the\n"
      "versioned binary protocol is served on a unix socket or TCP\n"
      "loopback port until a client sends Shutdown. Per-shard write queues\n"
      "hold at most --max-queue requests (beyond that the daemon answers\n"
      "Overloaded), and --batch-window N refreshes a shard automatically\n"
      "every N applied appends (docs/serving.md).\n"
      "--threads N trains/forecasts the fleet on N threads (0 = all cores);\n"
      "results are bit-identical at any thread count (docs/parallelism.md).\n"
      "--metrics-json FILE records telemetry for the run and\n"
      "writes the metrics snapshot as JSON (docs/observability.md); the\n"
      "NEXTMAINT_METRICS env var enables recording without the file.\n"
      "--strict aborts on the first per-vehicle failure; by default failing\n"
      "vehicles are skipped or served the BL fallback and reported\n"
      "(docs/fault-injection.md).\n"
      "--failpoints SPEC arms deterministic fault-injection\n"
      "sites, SPEC = site[:nth[:kind]][,...]; same grammar as the\n"
      "NEXTMAINT_FAILPOINTS env var (docs/fault-injection.md).\n";
}

Status RunCommand(const std::vector<std::string>& args, std::ostream& out) {
  const ParsedArgs parsed = ParseArgs(args);
  if (parsed.positional.empty()) {
    return Status::InvalidArgument("missing command\n" + UsageText());
  }
  // One shared validation path; commands re-parse the (pure, cheap) result
  // for their own use while the dispatcher owns the side effects.
  NM_ASSIGN_OR_RETURN(const CommonOptions common, ParseCommonOptions(parsed));
  if (!common.failpoints.empty()) {
    NM_RETURN_NOT_OK(failpoints::Arm(common.failpoints));
  }
  // --metrics-json implies recording; without it telemetry follows the
  // NEXTMAINT_METRICS env default and nothing is written.
  const bool write_metrics = !common.metrics_json.empty();
  if (write_metrics) {
    telemetry::SetEnabled(true);
  }

  const std::string& command = parsed.positional.front();
  Status status;
  if (command == "simulate") {
    status = RunSimulate(parsed, out);
  } else if (command == "compact") {
    status = RunCompact(parsed, out);
  } else if (command == "forecast") {
    status = RunForecast(parsed, out);
  } else if (command == "plan") {
    status = RunPlan(parsed, out);
  } else if (command == "evaluate") {
    status = RunEvaluate(parsed, out);
  } else if (command == "serve") {
    status = RunServe(parsed, out);
  } else {
    return Status::InvalidArgument("unknown command '" + command + "'\n" +
                                   UsageText());
  }

  if (write_metrics && status.ok()) {
    NM_RETURN_NOT_OK(telemetry::WriteJsonFile(telemetry::Snapshot(),
                                              common.metrics_json));
    out << "metrics written to " << common.metrics_json << "\n";
  }
  return status;
}

}  // namespace cli
}  // namespace nextmaint
