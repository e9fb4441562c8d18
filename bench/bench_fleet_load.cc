// Fleet-serving daemon load benchmark: 100k vehicles of mixed traffic.
//
// ISSUE 7 acceptance: bench_fleet_load must complete a mixed read/append
// workload at 100k vehicles against an in-process FleetDaemon with
// non-zero read and append throughput, emitting BENCH_fleet_load.json.
//
// Phases, each timed separately:
//   0. checkpoint — mmap segmented vs legacy text checkpoint of the same
//                   fleet: save both formats, then time (and peak-RSS
//                   measure, via VmHWM with a clear_refs reset) a fresh
//                   LoadCheckpoint of each. The segmented load must be
//                   faster and no hungrier than the legacy parse — the
//                   ISSUE 10 out-of-core acceptance;
//   1. warm load  — pipelined LoadHistory waves across all shard queues;
//   2. refresh    — one Refresh barrier training every vehicle;
//   3. mixed      — 80% forecast reads / 20% single-day appends, reads
//                   answered lock-free from shard snapshots while appends
//                   flow through admission control, then a final barrier.
//
// Phase 0 runs first, on a fresh heap, so the two loads' RSS deltas
// reflect genuine allocation growth rather than allocator reuse of pages
// freed by the daemon phases.
//
// Latency percentiles come from the daemon's own SLO histograms
// (serve.daemon.{append,read}.seconds) via telemetry::Snapshot(); when the
// build compiles telemetry out the JSON reports them as 0 and flags
// "telemetry":false. Overloaded admissions are retried (and counted) so the
// bench measures steady-state throughput, not queue sizing.
//
// NEXTMAINT_FLEET_LOAD_VEHICLES overrides the fleet size (CI uses a
// smaller fleet; the quick-bench loop caps it harder). One JSON line goes
// to stdout and, when NEXTMAINT_BENCH_JSON names a file, to that file.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "bench/harness.h"
#include "common/date.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/baseline.h"
#include "core/scheduler.h"
#include "ml/serialization.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "storage/checkpoint_store.h"

namespace {

namespace serve = nextmaint::serve;
namespace protocol = nextmaint::serve::protocol;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const long long value = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0' || value <= 0) return fallback;
  return static_cast<int64_t>(value);
}

/// Percentile estimate from a histogram snapshot: the upper bound of the
/// bucket holding the q-th observation (snapshot max for the overflow
/// bucket). 0 when the histogram is empty or compiled out.
double Percentile(const nextmaint::telemetry::HistogramSnapshot& snapshot,
                  double q) {
  if (snapshot.count == 0) return 0.0;
  const uint64_t target = static_cast<uint64_t>(
      q * static_cast<double>(snapshot.count - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < snapshot.bucket_counts.size(); ++i) {
    seen += snapshot.bucket_counts[i];
    if (seen > target) {
      return i < snapshot.bounds.size() ? snapshot.bounds[i] : snapshot.max;
    }
  }
  return snapshot.max;
}

bool IsAck(const protocol::Response& response) {
  return std::holds_alternative<protocol::AckResponse>(response);
}

/// Phase 0 results: both checkpoint formats over the same fleet.
struct CheckpointBench {
  double save_seconds = 0.0;          // segmented SaveAll of the fleet
  double save_vehicle_seconds = 0.0;  // single-segment rewrite + commit
  double mmap_load_seconds = 0.0;
  double legacy_load_seconds = 0.0;
  uint64_t mmap_rss_delta = 0;    // peak-RSS growth during each load
  uint64_t legacy_rss_delta = 0;
  uint64_t checkpoint_bytes = 0;  // segmented file size
  bool rss_reset = false;  // both clear_refs resets were honoured
};

void CheckpointDie(const nextmaint::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "checkpoint phase: %s: %s\n", what,
               status.ToString().c_str());
  std::exit(1);
}

/// Saves the same fleet as a segmented mmap checkpoint and as a legacy
/// text checkpoint, then times a fresh LoadCheckpoint of each with the
/// peak-RSS watermark reset in between. Models are one shared BL body —
/// the phase measures the load path, so only their count and framing
/// matter, not their contents.
CheckpointBench RunCheckpointBench(const std::vector<std::string>& ids,
                                   double tv, nextmaint::Date start) {
  namespace bench = nextmaint::bench;
  namespace core = nextmaint::core;
  namespace storage = nextmaint::storage;
  namespace fs = std::filesystem;
  CheckpointBench out;

  std::error_code ec;
  const fs::path dir = fs::temp_directory_path() /
                       ("nextmaint_fleet_load_" + std::to_string(::getpid()));
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "checkpoint phase: cannot create %s\n",
                 dir.string().c_str());
    std::exit(1);
  }
  const std::string mmap_path = (dir / "fleet.ckpt").string();
  const std::string legacy_path = (dir / "fleet_legacy.ckpt").string();

  std::string body;
  nextmaint::ml::ModelWriter body_writer(body);
  CheckpointDie(core::BaselinePredictor(15'000.0, 1.0 / tv).Save(body_writer),
                "serialize BL body");

  std::vector<storage::VehicleRecord> records;
  records.reserve(ids.size());
  for (const std::string& id : ids) {
    records.push_back(storage::VehicleRecord{id, "BL", body});
  }
  auto store_or = storage::CheckpointStore::Open(mmap_path);
  CheckpointDie(store_or.status(), "open segmented store");
  const Clock::time_point save_start = Clock::now();
  CheckpointDie(store_or.ValueOrDie()->SaveAll(std::move(records)).status(),
                "SaveAll");
  out.save_seconds = SecondsSince(save_start);
  out.checkpoint_bytes = static_cast<uint64_t>(fs::file_size(mmap_path, ec));

  auto make_fleet = [&]() {
    core::SchedulerOptions options;
    options.maintenance_interval_s = tv;
    options.window = 3;
    auto fleet = std::make_unique<core::FleetScheduler>(options);
    for (const std::string& id : ids) {
      CheckpointDie(fleet->RegisterVehicle(id, start), "register vehicle");
    }
    return fleet;
  };

  // Derive the legacy file from the segmented one: lazy-loaded segments
  // are copied out verbatim, so both files frame identical model bytes.
  auto writer = make_fleet();
  CheckpointDie(writer->LoadCheckpoint(mmap_path), "stage for legacy save");
  CheckpointDie(writer->SaveLegacyCheckpoint(legacy_path),
                "SaveLegacyCheckpoint");
  const Clock::time_point save_vehicle_start = Clock::now();
  CheckpointDie(writer->SaveVehicleCheckpoint(mmap_path, ids.front()),
                "SaveVehicleCheckpoint");
  out.save_vehicle_seconds = SecondsSince(save_vehicle_start);

  // `writer` stays alive across both measured loads so neither one
  // recycles heap pages the other just freed.
  auto mmap_fleet = make_fleet();
  const bool reset_mmap = bench::ResetPeakRss();
  const uint64_t mmap_rss_before = bench::PeakRssBytes();
  const Clock::time_point mmap_start = Clock::now();
  CheckpointDie(mmap_fleet->LoadCheckpoint(mmap_path), "mmap LoadCheckpoint");
  out.mmap_load_seconds = SecondsSince(mmap_start);
  const uint64_t mmap_rss_after = bench::PeakRssBytes();

  auto legacy_fleet = make_fleet();
  const bool reset_legacy = bench::ResetPeakRss();
  const uint64_t legacy_rss_before = bench::PeakRssBytes();
  const Clock::time_point legacy_start = Clock::now();
  CheckpointDie(legacy_fleet->LoadCheckpoint(legacy_path),
                "legacy LoadCheckpoint");
  out.legacy_load_seconds = SecondsSince(legacy_start);
  const uint64_t legacy_rss_after = bench::PeakRssBytes();

  out.rss_reset = reset_mmap && reset_legacy;
  out.mmap_rss_delta =
      mmap_rss_after > mmap_rss_before ? mmap_rss_after - mmap_rss_before : 0;
  out.legacy_rss_delta = legacy_rss_after > legacy_rss_before
                             ? legacy_rss_after - legacy_rss_before
                             : 0;

  fs::remove_all(dir, ec);
  return out;
}

}  // namespace

int main() {
  const int64_t vehicles = EnvInt("NEXTMAINT_FLEET_LOAD_VEHICLES", 100'000);
  const int shards = static_cast<int>(EnvInt("NEXTMAINT_FLEET_LOAD_SHARDS", 4));
  // ~15k seconds/day against a 300k-second cycle: every vehicle completes
  // two maintenance cycles in 45 days and trains its own model, the
  // per-vehicle (parallelizable) path.
  const int64_t days = 45;
  const double tv = 300'000.0;
  const size_t kWave = 1024;  // in-flight writes per pipelined wave

  nextmaint::telemetry::SetEnabled(true);

  const nextmaint::Date start =
      nextmaint::Date::FromYmd(2016, 1, 1).ValueOrDie();
  std::vector<std::string> ids;
  ids.reserve(static_cast<size_t>(vehicles));
  for (int64_t v = 0; v < vehicles; ++v) {
    ids.push_back("truck-" + std::to_string(v));
  }

  // Phase 0: checkpoint format comparison, before the daemon touches the
  // heap (see the file comment).
  const CheckpointBench ckpt = RunCheckpointBench(ids, tv, start);

  serve::DaemonOptions options;
  options.scheduler.maintenance_interval_s = tv;
  options.scheduler.window = 3;
  options.scheduler.algorithms = {"BL"};
  options.scheduler.unified_algorithm = "LR";
  options.scheduler.selection.tune = false;
  options.scheduler.selection.train_on_last29_only = true;
  options.scheduler.selection.resampling_shifts = 0;
  options.scheduler.num_threads = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency() / 2));
  options.shards = shards;
  options.max_queue = 4096;
  options.batch_window = 0;

  serve::FleetDaemon daemon(std::move(options));
  if (!daemon.Start().ok()) {
    std::fprintf(stderr, "daemon failed to start\n");
    return 1;
  }

  nextmaint::Rng rng(20260808);

  // Phase 1: warm load. One LoadHistory per vehicle, pipelined in waves so
  // every shard queue stays busy without tripping admission control.
  uint64_t overloaded_retries = 0;
  const Clock::time_point load_start = Clock::now();
  {
    std::vector<std::future<protocol::Response>> wave;
    wave.reserve(kWave);
    auto drain = [&wave]() {
      for (auto& pending : wave) {
        if (!IsAck(pending.get())) {
          std::fprintf(stderr, "warm load rejected a LoadHistory\n");
          std::exit(1);
        }
      }
      wave.clear();
    };
    for (int64_t v = 0; v < vehicles; ++v) {
      protocol::LoadHistoryRequest request;
      request.vehicle_id = ids[static_cast<size_t>(v)];
      request.start_day = start;
      request.values.reserve(static_cast<size_t>(days));
      for (int64_t d = 0; d < days; ++d) {
        request.values.push_back(rng.Uniform(12'000.0, 18'000.0));
      }
      wave.push_back(daemon.SubmitAsync(std::move(request)));
      if (wave.size() >= kWave) drain();
    }
    drain();
  }
  const double load_seconds = SecondsSince(load_start);

  // Phase 2: one Refresh barrier trains the whole fleet.
  const Clock::time_point refresh_start = Clock::now();
  const protocol::Response refreshed =
      daemon.Execute(protocol::RefreshRequest{});
  const double refresh_seconds = SecondsSince(refresh_start);
  const auto* done = std::get_if<protocol::RefreshDoneResponse>(&refreshed);
  if (done == nullptr ||
      done->refreshed != static_cast<uint64_t>(vehicles)) {
    std::fprintf(stderr, "initial refresh did not train the full fleet\n");
    return 1;
  }

  // Phase 3: mixed traffic — 80% reads (4 vehicles per request, served
  // from shard snapshots) / 20% appends (queued, admission-controlled).
  // Appends extend each vehicle's series one day at a time so replayed
  // order stays valid; Overloaded answers are retried and counted.
  const int64_t mixed_ops = std::min<int64_t>(vehicles, 100'000);
  std::vector<uint32_t> appended(static_cast<size_t>(vehicles), 0);
  std::vector<std::future<protocol::Response>> pending_appends;
  pending_appends.reserve(kWave);
  uint64_t reads = 0;
  uint64_t read_vehicles = 0;
  uint64_t read_errors = 0;
  uint64_t appends = 0;
  auto drain_appends = [&pending_appends]() {
    for (auto& pending : pending_appends) {
      const protocol::Response response = pending.get();
      if (!IsAck(response) &&
          !std::holds_alternative<protocol::OverloadedResponse>(response)) {
        std::fprintf(stderr, "append failed during mixed phase\n");
        std::exit(1);
      }
    }
    pending_appends.clear();
  };
  const Clock::time_point mixed_start = Clock::now();
  for (int64_t op = 0; op < mixed_ops; ++op) {
    if (rng.UniformInt(uint64_t{5}) < 4) {
      protocol::GetForecastRequest request;
      for (int i = 0; i < 4; ++i) {
        request.vehicle_ids.push_back(
            ids[static_cast<size_t>(rng.UniformInt(
                static_cast<uint64_t>(vehicles)))]);
      }
      const protocol::Response response = daemon.Execute(std::move(request));
      const auto* batch = std::get_if<protocol::ForecastBatchResponse>(
          &response);
      if (batch == nullptr) {
        std::fprintf(stderr, "read failed during mixed phase\n");
        return 1;
      }
      for (const auto& entry : batch->entries) {
        read_vehicles += 1;
        if (entry.status_code != nextmaint::StatusCode::kOk) {
          read_errors += 1;
        }
      }
      reads += 1;
    } else {
      const size_t v = static_cast<size_t>(
          rng.UniformInt(static_cast<uint64_t>(vehicles)));
      protocol::AppendRequest request;
      request.vehicle_id = ids[v];
      request.day = start.AddDays(days + appended[v]);
      appended[v] += 1;
      request.seconds = rng.Uniform(12'000.0, 18'000.0);
      while (true) {
        std::future<protocol::Response> submitted =
            daemon.SubmitAsync(request);
        // Admission rejections resolve immediately; peek at ready futures
        // so the pipeline never stalls on in-flight ones.
        if (submitted.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          const protocol::Response response = submitted.get();
          if (std::holds_alternative<protocol::OverloadedResponse>(
                  response)) {
            overloaded_retries += 1;
            drain_appends();  // let the shard catch up, then retry
            continue;
          }
          if (!IsAck(response)) {
            std::fprintf(stderr, "append failed during mixed phase\n");
            return 1;
          }
          break;
        }
        pending_appends.push_back(std::move(submitted));
        break;
      }
      appends += 1;
      if (pending_appends.size() >= kWave) drain_appends();
    }
  }
  drain_appends();
  const protocol::Response final_refresh =
      daemon.Execute(protocol::RefreshRequest{});
  const double mixed_seconds = SecondsSince(mixed_start);
  if (!std::holds_alternative<protocol::RefreshDoneResponse>(final_refresh)) {
    std::fprintf(stderr, "final refresh failed\n");
    return 1;
  }

  const protocol::StatsResponse stats = daemon.Stats();
  daemon.Stop();

  const double read_throughput =
      mixed_seconds > 0.0 ? static_cast<double>(reads) / mixed_seconds : 0.0;
  const double append_throughput =
      mixed_seconds > 0.0 ? static_cast<double>(appends) / mixed_seconds
                          : 0.0;

  const nextmaint::telemetry::MetricsSnapshot metrics =
      nextmaint::telemetry::Snapshot();
  nextmaint::telemetry::HistogramSnapshot append_latency;
  nextmaint::telemetry::HistogramSnapshot read_latency;
  if (auto it = metrics.histograms.find("serve.daemon.append.seconds");
      it != metrics.histograms.end()) {
    append_latency = it->second;
  }
  if (auto it = metrics.histograms.find("serve.daemon.read.seconds");
      it != metrics.histograms.end()) {
    read_latency = it->second;
  }
  const bool telemetry_live =
      append_latency.count > 0 && read_latency.count > 0;

  char json[2048];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\":\"fleet_load\",\"schema\":2,\"vehicles\":%lld,"
      "\"days\":%lld,\"shards\":%d,\"load_seconds\":%.3f,"
      "\"refresh_seconds\":%.3f,\"mixed_seconds\":%.3f,"
      "\"reads\":%llu,\"read_vehicles\":%llu,\"appends\":%llu,"
      "\"read_throughput\":%.1f,\"append_throughput\":%.1f,"
      "\"overloaded_retries\":%llu,\"overloaded_total\":%llu,"
      "\"append_p50_ms\":%.3f,\"append_p99_ms\":%.3f,"
      "\"read_p50_ms\":%.3f,\"read_p99_ms\":%.3f,\"telemetry\":%s,"
      "\"ckpt_bytes\":%llu,\"ckpt_save_seconds\":%.3f,"
      "\"ckpt_save_vehicle_ms\":%.3f,\"ckpt_mmap_load_seconds\":%.4f,"
      "\"ckpt_legacy_load_seconds\":%.4f,\"ckpt_mmap_rss_mb\":%.1f,"
      "\"ckpt_legacy_rss_mb\":%.1f,\"rss_reset\":%s,"
      "\"peak_rss_mb\":%.1f}",
      static_cast<long long>(vehicles), static_cast<long long>(days), shards,
      load_seconds, refresh_seconds, mixed_seconds,
      static_cast<unsigned long long>(reads),
      static_cast<unsigned long long>(read_vehicles),
      static_cast<unsigned long long>(appends), read_throughput,
      append_throughput,
      static_cast<unsigned long long>(overloaded_retries),
      static_cast<unsigned long long>(stats.overloaded),
      Percentile(append_latency, 0.5) * 1e3,
      Percentile(append_latency, 0.99) * 1e3,
      Percentile(read_latency, 0.5) * 1e3,
      Percentile(read_latency, 0.99) * 1e3,
      telemetry_live ? "true" : "false",
      static_cast<unsigned long long>(ckpt.checkpoint_bytes),
      ckpt.save_seconds, ckpt.save_vehicle_seconds * 1e3,
      ckpt.mmap_load_seconds, ckpt.legacy_load_seconds,
      static_cast<double>(ckpt.mmap_rss_delta) / (1024.0 * 1024.0),
      static_cast<double>(ckpt.legacy_rss_delta) / (1024.0 * 1024.0),
      ckpt.rss_reset ? "true" : "false",
      static_cast<double>(nextmaint::bench::PeakRssBytes()) /
          (1024.0 * 1024.0));
  std::printf("%s\n", json);

  if (const char* path = std::getenv("NEXTMAINT_BENCH_JSON")) {
    if (*path != '\0') {
      std::FILE* file = std::fopen(path, "w");
      if (file == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 1;
      }
      std::fprintf(file, "%s\n", json);
      std::fclose(file);
    }
  }

  if (reads == 0 || appends == 0 || read_throughput <= 0.0 ||
      append_throughput <= 0.0) {
    std::fprintf(stderr, "mixed workload produced zero throughput\n");
    return 1;
  }
  if (read_errors != 0) {
    std::fprintf(stderr,
                 "%llu forecast reads came back non-OK after warm refresh\n",
                 static_cast<unsigned long long>(read_errors));
    return 1;
  }
  // The out-of-core acceptance only has teeth at scale; tiny CI fleets
  // would compare microsecond noise.
  if (vehicles >= 1000) {
    if (ckpt.mmap_load_seconds >= ckpt.legacy_load_seconds) {
      std::fprintf(stderr,
                   "segmented mmap load (%.4fs) was not faster than the "
                   "legacy text parse (%.4fs)\n",
                   ckpt.mmap_load_seconds, ckpt.legacy_load_seconds);
      return 1;
    }
    if (ckpt.rss_reset && ckpt.mmap_rss_delta > ckpt.legacy_rss_delta) {
      std::fprintf(stderr,
                   "segmented mmap load grew peak RSS by %llu bytes, more "
                   "than the legacy parse's %llu\n",
                   static_cast<unsigned long long>(ckpt.mmap_rss_delta),
                   static_cast<unsigned long long>(ckpt.legacy_rss_delta));
      return 1;
    }
  }
  return 0;
}
