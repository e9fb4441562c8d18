#include "serve/daemon.h"

#include <algorithm>
#include <utility>

#include "common/failpoints.h"
#include "common/macros.h"
#include "common/telemetry.h"
#include "data/time_series.h"

namespace nextmaint {
namespace serve {

namespace {

protocol::Response ErrorFrom(const Status& status) {
  return protocol::ErrorResponse::FromStatus(status);
}

}  // namespace

/// One pending write (or refresh leg) in a shard's queue.
struct FleetDaemon::PendingOp {
  protocol::Request request;
  std::chrono::steady_clock::time_point enqueued;
  std::promise<protocol::Response> done;
  /// Set on refresh legs: shared completion state across all shards.
  std::shared_ptr<RefreshBarrier> barrier;
};

/// Shared completion state of one Refresh barrier: the last shard in
/// merges the per-shard results and resolves the caller's future.
///
/// Lock order: a leg may resolve while its shard's lock is held, so
/// RefreshBarrier::mu is always acquired after Shard::mu, never before
/// (docs/static-analysis.md#lock-hierarchy).
struct FleetDaemon::RefreshBarrier {
  RefreshBarrier(size_t legs, std::promise<protocol::Response> done_in)
      : remaining(legs),
        shards(static_cast<uint32_t>(legs)),
        done(std::move(done_in)) {}

  Mutex mu;
  /// Shard legs not yet completed; the last leg in resolves `done`.
  size_t remaining GUARDED_BY(mu);
  uint64_t epoch GUARDED_BY(mu) = 0;
  uint64_t refreshed GUARDED_BY(mu) = 0;
  uint64_t reused GUARDED_BY(mu) = 0;
  /// Per-shard failures; the lowest failing shard's status wins so the
  /// merged error is deterministic regardless of worker finish order.
  std::vector<std::pair<uint32_t, Status>> errors GUARDED_BY(mu);
  /// Shard count at submit time (immutable after construction).
  const uint32_t shards;
  /// Resolved exactly once, by CompleteBarrier on the last leg in.
  std::promise<protocol::Response> done;
};

/// One shard: a ServingEngine (single writer: the shard worker), a bounded
/// FIFO write queue, and cross-thread stat mirrors.
struct FleetDaemon::Shard {
  Shard(size_t index_in, const core::SchedulerOptions& scheduler_options)
      : index(index_in), engine(scheduler_options) {
    const std::string prefix =
        "serve.daemon.shard" + std::to_string(index_in);
    queue_gauge = telemetry::MetricsRegistry::Global().GetGauge(
        prefix + ".queue_depth");
    dirty_gauge =
        telemetry::MetricsRegistry::Global().GetGauge(prefix + ".dirty");
  }

  const size_t index;
  ServingEngine engine;

  /// Guards the write queue. Lock order: taken before RefreshBarrier::mu
  /// (a refresh leg can fail — and complete its barrier — under this
  /// lock); never acquired while holding a barrier's lock.
  Mutex mu;
  CondVar cv;
  std::deque<PendingOp> queue GUARDED_BY(mu);
  bool stop GUARDED_BY(mu) = false;
  std::thread worker;

  // Worker-thread-only state (no locking needed once Start() ran).
  uint64_t applied_ops = 0;
  uint64_t appends_since_refresh = 0;

  // Cross-thread mirrors read by Stats()/readers without touching the
  // engine (whose bookkeeping is not thread-safe against the worker).
  std::atomic<uint64_t> vehicles{0};
  std::atomic<uint64_t> dirty{0};
  std::atomic<uint64_t> appends{0};
  std::atomic<uint64_t> overloaded{0};
  std::atomic<uint32_t> queue_depth{0};

  // Cached instrument pointers (registry pointers never dangle).
  telemetry::Gauge* queue_gauge = nullptr;
  telemetry::Gauge* dirty_gauge = nullptr;
};

FleetDaemon::FleetDaemon(DaemonOptions options) : options_(std::move(options)) {
  NM_CHECK_MSG(options_.shards >= 1, "DaemonOptions::shards must be >= 1");
  NM_CHECK_MSG(options_.max_queue >= 1,
               "DaemonOptions::max_queue must be >= 1");
  shards_.reserve(static_cast<size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(static_cast<size_t>(i), options_.scheduler));
  }
  append_latency_ = telemetry::MetricsRegistry::Global().GetHistogram(
      "serve.daemon.append.seconds");
  read_latency_ = telemetry::MetricsRegistry::Global().GetHistogram(
      "serve.daemon.read.seconds");
}

FleetDaemon::~FleetDaemon() { Stop(); }

uint64_t FleetDaemon::ShardOf(std::string_view id) const {
  return protocol::StableVehicleHash(id) % shards_.size();
}

const ServingEngine& FleetDaemon::engine(size_t shard) const {
  NM_CHECK(shard < shards_.size());
  return shards_[shard]->engine;
}

Status FleetDaemon::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("daemon already started");
  }
  telemetry::SetGauge("serve.daemon.shards",
                      static_cast<double>(shards_.size()));
  for (auto& shard : shards_) {
    shard->worker = std::thread(&FleetDaemon::ShardLoop, this, shard->index);
  }
  return Status::OK();
}

void FleetDaemon::Stop() {
  const bool was_started = started_.load();
  if (stopping_.exchange(true)) {
    // A second Stop() only needs to make sure the workers are joined.
    for (auto& shard : shards_) {
      if (shard->worker.joinable()) shard->worker.join();
    }
    return;
  }
  if (!was_started) {
    // No workers were ever spawned: fail whatever was queued pre-start so
    // no future is left hanging.
    const Status status =
        Status::FailedPrecondition("daemon stopped before Start()");
    for (auto& shard : shards_) {
      std::deque<PendingOp> orphaned;
      {
        MutexLock lock(shard->mu);
        shard->stop = true;
        orphaned.swap(shard->queue);
        shard->queue_depth.store(0);
      }
      for (PendingOp& op : orphaned) {
        FailPendingOp(*shard, op, status);
      }
    }
    return;
  }
  for (auto& shard : shards_) {
    {
      MutexLock lock(shard->mu);
      shard->stop = true;
    }
    shard->cv.NotifyAll();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void FleetDaemon::FailPendingOp(Shard& shard, PendingOp& op,
                                const Status& status) {
  if (!op.barrier) {
    op.done.set_value(ErrorFrom(status));
    return;
  }
  bool last = false;
  {
    MutexLock lock(op.barrier->mu);
    op.barrier->errors.emplace_back(static_cast<uint32_t>(shard.index),
                                    status);
    last = (--op.barrier->remaining == 0);
  }
  if (last) CompleteBarrier(*op.barrier);
}

void FleetDaemon::CompleteBarrier(RefreshBarrier& barrier) {
  // Called by the last leg in: remaining hit zero, so no other thread
  // still touches the barrier — but the fields are guarded, so read them
  // under the lock anyway. The promise resolves outside it: a caller
  // blocked in future::get() may destroy the barrier the moment the value
  // lands.
  protocol::Response response;
  {
    MutexLock lock(barrier.mu);
    if (barrier.errors.empty()) {
      protocol::RefreshDoneResponse done;
      done.epoch = barrier.epoch;
      done.refreshed = barrier.refreshed;
      done.reused = barrier.reused;
      done.shards = barrier.shards;
      response = done;
    } else {
      auto lowest = std::min_element(
          barrier.errors.begin(), barrier.errors.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      response = ErrorFrom(lowest->second.WithContext(
          "shard " + std::to_string(lowest->first) + " refresh failed"));
    }
  }
  barrier.done.set_value(std::move(response));
}

Status FleetDaemon::CheckEnqueue() {
  NEXTMAINT_FAILPOINT("serve.daemon.enqueue");
  return Status::OK();
}

std::future<protocol::Response> FleetDaemon::EnqueueWrite(size_t shard_index,
                                                          PendingOp op) {
  Shard& shard = *shards_[shard_index];
  std::future<protocol::Response> future = op.done.get_future();
  const Status admitted = CheckEnqueue();
  if (!admitted.ok()) {
    op.done.set_value(ErrorFrom(admitted));
    return future;
  }
  bool notify = false;
  {
    MutexLock lock(shard.mu);
    if (stopping_.load() || shard.stop) {
      op.done.set_value(
          ErrorFrom(Status::FailedPrecondition("daemon is stopping")));
      return future;
    }
    if (shard.queue.size() >= options_.max_queue) {
      shard.overloaded.fetch_add(1);
      total_overloaded_.fetch_add(1);
      telemetry::Count("serve.daemon.overloaded");
      protocol::OverloadedResponse overloaded;
      overloaded.shard = static_cast<uint32_t>(shard_index);
      overloaded.queue_depth = static_cast<uint32_t>(shard.queue.size());
      overloaded.max_queue = static_cast<uint32_t>(options_.max_queue);
      op.done.set_value(overloaded);
      return future;
    }
    shard.queue.push_back(std::move(op));
    const auto depth = static_cast<uint32_t>(shard.queue.size());
    shard.queue_depth.store(depth);
    shard.queue_gauge->Set(depth);
    notify = true;
  }
  if (notify) shard.cv.NotifyOne();
  return future;
}

std::future<protocol::Response> FleetDaemon::SubmitAsync(
    protocol::Request request) {
  const auto now = std::chrono::steady_clock::now();
  if (const auto* append = std::get_if<protocol::AppendRequest>(&request)) {
    const size_t shard = ShardOf(append->vehicle_id);
    PendingOp op;
    op.enqueued = now;
    op.request = std::move(request);
    return EnqueueWrite(shard, std::move(op));
  }
  if (const auto* load = std::get_if<protocol::LoadHistoryRequest>(&request)) {
    const size_t shard = ShardOf(load->vehicle_id);
    PendingOp op;
    op.enqueued = now;
    op.request = std::move(request);
    return EnqueueWrite(shard, std::move(op));
  }
  std::promise<protocol::Response> promise;
  std::future<protocol::Response> future = promise.get_future();
  if (std::holds_alternative<protocol::RefreshRequest>(request)) {
    if (!started_.load() || stopping_.load()) {
      promise.set_value(ErrorFrom(Status::FailedPrecondition(
          "refresh requires a started daemon (call Start() first)")));
      return future;
    }
    auto barrier =
        std::make_shared<RefreshBarrier>(shards_.size(), std::move(promise));
    // Refresh legs are control traffic: they bypass max_queue so a full
    // write queue can always be flushed.
    for (auto& shard : shards_) {
      PendingOp op;
      op.enqueued = now;
      op.request = protocol::RefreshRequest{};
      op.barrier = barrier;
      {
        MutexLock lock(shard->mu);
        if (shard->stop) {
          FailPendingOp(*shard, op,
                        Status::FailedPrecondition("daemon is stopping"));
          continue;
        }
        shard->queue.push_back(std::move(op));
      }
      shard->cv.NotifyOne();
    }
    return future;
  }
  if (const auto* get = std::get_if<protocol::GetForecastRequest>(&request)) {
    promise.set_value(ReadForecasts(*get));
    return future;
  }
  if (std::holds_alternative<protocol::StatsRequest>(request)) {
    promise.set_value(Stats());
    return future;
  }
  // ShutdownRequest: flip the flag; the transport observes it and winds
  // down once the acknowledgement is on the wire.
  shutdown_requested_.store(true);
  telemetry::Count("serve.daemon.shutdowns");
  promise.set_value(protocol::AckResponse{});
  return future;
}

protocol::Response FleetDaemon::Execute(const protocol::Request& request) {
  return SubmitAsync(request).get();
}

bool FleetDaemon::ShutdownRequested() const {
  return shutdown_requested_.load();
}

void FleetDaemon::ShardLoop(size_t index) {
  Shard& shard = *shards_[index];
  for (;;) {
    std::deque<PendingOp> batch;
    {
      MutexLock lock(shard.mu);
      while (!shard.stop && shard.queue.empty()) shard.cv.Wait(shard.mu);
      if (shard.queue.empty() && shard.stop) break;
      batch.swap(shard.queue);
      shard.queue_depth.store(0);
      shard.queue_gauge->Set(0.0);
    }
    for (PendingOp& op : batch) {
      if (op.barrier) {
        ApplyRefresh(shard, op);
      } else {
        ApplyOp(shard, op);
      }
    }
    if (options_.batch_window > 0 &&
        shard.appends_since_refresh >= options_.batch_window) {
      Result<RefreshStats> refreshed = RefreshShard(shard);
      if (!refreshed.ok()) {
        telemetry::Count("serve.daemon.refresh_errors");
      } else {
        telemetry::Count("serve.daemon.auto_refreshes");
      }
      shard.appends_since_refresh = 0;
    }
  }
}

void FleetDaemon::ApplyOp(Shard& shard, PendingOp& op) {
  ++shard.applied_ops;
  // Ordinal context: the op's position in this shard's deterministic apply
  // order, so armed engine-level failpoints select the same op at any
  // shard/thread configuration driven by a single submitter.
  failpoints::ScopedOrdinal ordinal(shard.applied_ops);
  Status status;
  if (const auto* append = std::get_if<protocol::AppendRequest>(&op.request)) {
    status = ApplyAppend(shard, *append);
    if (status.ok()) {
      shard.appends.fetch_add(1);
      total_appends_.fetch_add(1);
      ++shard.appends_since_refresh;
      telemetry::Count("serve.daemon.appends");
    }
  } else if (const auto* load =
                 std::get_if<protocol::LoadHistoryRequest>(&op.request)) {
    status = ApplyLoadHistory(shard, *load);
    if (status.ok()) {
      total_load_history_.fetch_add(1);
      telemetry::Count("serve.daemon.load_history");
    }
  } else {
    status = Status::Unknown("non-write request in a shard queue");
  }
  const size_t dirty = shard.engine.DirtyCount();
  shard.dirty.store(dirty);
  shard.dirty_gauge->Set(static_cast<double>(dirty));
  append_latency_->Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    op.enqueued)
          .count());
  op.done.set_value(status.ok() ? protocol::Response(protocol::AckResponse{})
                                : ErrorFrom(status));
}

Status FleetDaemon::EnsureRegistered(Shard& shard, const std::string& id,
                                     Date first_day) {
  if (shard.engine.scheduler().IsRegistered(id)) return Status::OK();
  NM_RETURN_NOT_OK(shard.engine.Register(id, first_day));
  shard.vehicles.fetch_add(1);
  telemetry::Count("serve.daemon.registered");
  return Status::OK();
}

Status FleetDaemon::ApplyAppend(Shard& shard,
                                const protocol::AppendRequest& append) {
  NM_RETURN_NOT_OK(EnsureRegistered(shard, append.vehicle_id, append.day));
  return shard.engine.Append(append.vehicle_id, append.day, append.seconds);
}

Status FleetDaemon::ApplyLoadHistory(Shard& shard,
                                     const protocol::LoadHistoryRequest& load) {
  if (load.values.empty()) {
    return Status::InvalidArgument("LoadHistory with an empty series");
  }
  NM_RETURN_NOT_OK(EnsureRegistered(shard, load.vehicle_id, load.start_day));
  return shard.engine.LoadHistory(
      load.vehicle_id, data::DailySeries(load.start_day, load.values));
}

void FleetDaemon::ApplyRefresh(Shard& shard, PendingOp& op) {
  Result<RefreshStats> result = RefreshShard(shard);
  shard.appends_since_refresh = 0;
  bool last = false;
  {
    MutexLock lock(op.barrier->mu);
    if (result.ok()) {
      const RefreshStats& stats = result.ValueOrDie();
      op.barrier->epoch = std::max(op.barrier->epoch, stats.epoch);
      op.barrier->refreshed += stats.refreshed;
      op.barrier->reused += stats.reused;
    } else {
      op.barrier->errors.emplace_back(static_cast<uint32_t>(shard.index),
                                      result.status());
    }
    last = (--op.barrier->remaining == 0);
  }
  if (last) CompleteBarrier(*op.barrier);
}

Result<RefreshStats> FleetDaemon::RefreshShard(Shard& shard) {
  // Shard index as the ordinal context: "serve.daemon.refresh:2" fails
  // exactly shard 1's leg regardless of worker scheduling.
  failpoints::ScopedOrdinal ordinal(shard.index + 1);
  NEXTMAINT_FAILPOINT("serve.daemon.refresh");
  if (shard.vehicles.load() == 0) {
    // An empty shard has nothing to refresh; report its current epoch so
    // the barrier's max-epoch stays meaningful.
    RefreshStats stats;
    stats.epoch = shard.engine.epoch();
    return stats;
  }
  telemetry::ScopedTimer timer("serve.daemon.refresh.seconds");
  Result<RefreshStats> result = shard.engine.RefreshForecasts();
  if (result.ok()) {
    shard.dirty.store(shard.engine.DirtyCount());
    shard.dirty_gauge->Set(static_cast<double>(shard.engine.DirtyCount()));
    telemetry::Count("serve.daemon.refreshes");
  }
  return result;
}

protocol::Response FleetDaemon::ReadForecasts(
    const protocol::GetForecastRequest& request) {
  telemetry::ScopedTimer timer(read_latency_);
  protocol::ForecastBatchResponse batch;
  batch.entries.reserve(request.vehicle_ids.size());
  // One snapshot acquisition per involved shard: every entry from the same
  // shard reflects the same epoch (the same guarantee
  // ServingEngine::GetForecasts documents, here per shard).
  std::vector<std::shared_ptr<const FleetSnapshot>> snapshots(shards_.size());
  for (const std::string& id : request.vehicle_ids) {
    const size_t shard_index = ShardOf(id);
    if (!snapshots[shard_index]) {
      snapshots[shard_index] = shards_[shard_index]->engine.Snapshot();
    }
    const FleetSnapshot& snapshot = *snapshots[shard_index];
    protocol::ForecastEntry entry;
    entry.vehicle_id = id;
    entry.epoch = snapshot.epoch;
    if (snapshot.Find(id) == nullptr) {
      entry.status_code = StatusCode::kNotFound;
      entry.status_message = "vehicle not in any published snapshot";
    } else if (const core::MaintenanceForecast* forecast =
                   snapshot.FindForecast(id)) {
      entry.model_name = forecast->model_name;
      entry.days_left = forecast->days_left;
      entry.predicted_date = forecast->predicted_date;
      entry.usage_seconds_left = forecast->usage_seconds_left;
    } else {
      entry.status_code = StatusCode::kFailedPrecondition;
      entry.status_message = "no published forecast for vehicle";
    }
    batch.entries.push_back(std::move(entry));
  }
  reads_.fetch_add(1);
  telemetry::Count("serve.daemon.reads");
  telemetry::Count("serve.daemon.read_vehicles",
                   request.vehicle_ids.size());
  return batch;
}

protocol::StatsResponse FleetDaemon::Stats() const {
  protocol::StatsResponse stats;
  stats.frames = frames_.load();
  stats.decode_errors = decode_errors_.load();
  stats.appends = total_appends_.load();
  stats.load_history = total_load_history_.load();
  stats.reads = reads_.load();
  stats.overloaded = total_overloaded_.load();
  stats.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    protocol::ShardStats s;
    s.shard = static_cast<uint32_t>(shard->index);
    s.vehicles = shard->vehicles.load();
    s.epoch = shard->engine.epoch();
    s.queue_depth = shard->queue_depth.load();
    s.dirty = shard->dirty.load();
    s.appends = shard->appends.load();
    s.overloaded = shard->overloaded.load();
    stats.shards.push_back(s);
  }
  return stats;
}

Result<protocol::Request> FleetDaemon::DecodeFramePayload(
    std::span<const uint8_t> payload) {
  // Two distinct seams: `accept` models a transport-level rejection of the
  // frame, `decode` a parse-stage failure. Both surface as ErrorResponse
  // frames to the peer.
  NEXTMAINT_FAILPOINT("serve.daemon.accept");
  NEXTMAINT_FAILPOINT("serve.daemon.decode");
  return protocol::DecodeRequest(payload);
}

std::vector<uint8_t> FleetDaemon::HandleFrame(
    std::span<const uint8_t> payload) {
  frames_.fetch_add(1);
  telemetry::Count("serve.daemon.frames");
  protocol::Response response;
  Result<protocol::Request> decoded = DecodeFramePayload(payload);
  if (!decoded.ok()) {
    decode_errors_.fetch_add(1);
    telemetry::Count("serve.daemon.decode_errors");
    response = protocol::ErrorResponse::FromStatus(decoded.status());
  } else {
    response = Execute(decoded.ValueOrDie());
  }
  return protocol::EncodeResponse(response);
}

}  // namespace serve
}  // namespace nextmaint
