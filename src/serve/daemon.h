#ifndef NEXTMAINT_SERVE_DAEMON_H_
#define NEXTMAINT_SERVE_DAEMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/scheduler.h"
#include "serve/protocol.h"
#include "serve/serving_engine.h"

/// \file daemon.h
/// The sharded fleet-serving daemon: a long-running front-end over N
/// ServingEngine instances.
///
/// PR 5's ServingEngine is a single-writer library; the ROADMAP wants
/// traffic. The FleetDaemon provides the front door:
///
///   - **Sharding.** Vehicles are partitioned across `shards` engines by
///     `protocol::StableVehicleHash(id) % shards` — stable across runs and
///     platforms, so clients can predict placement. Each shard owns one
///     engine, one bounded FIFO queue and one worker thread, preserving
///     the engine's one-writer contract per shard while writes to
///     different shards proceed in parallel.
///   - **Batching.** The worker drains its whole queue in one swap and
///     applies the batch before any refresh, so a burst of appends costs
///     one dirty-tracked refresh, not N. `batch_window` additionally
///     auto-refreshes a shard once that many appends have accumulated
///     since its last refresh (0 = refresh only on explicit Refresh
///     barriers).
///   - **Backpressure.** A full shard queue rejects the write *immediately*
///     with OverloadedResponse — nothing is enqueued, nothing blocks, and
///     the client decides whether to back off or drop. Reads are never
///     subject to admission control.
///   - **Lock-free reads.** GetForecast and Stats are answered on the
///     calling thread from each shard's epoch-counted immutable
///     FleetSnapshot (and relaxed atomics) — they never wait behind
///     training.
///
/// Determinism: per-vehicle event order is preserved (one queue per shard,
/// FIFO), refresh barriers run the engine's deterministic refresh under a
/// per-shard `failpoints::ScopedOrdinal`, and the engines themselves are
/// bit-identical to batch by construction. Consequence (locked in by
/// tests/serve/daemon_test.cc): a daemon-served fleet's forecasts are
/// byte-identical to one batch FleetScheduler fed the same event stream —
/// exactly at 1 shard, and at any shard count for fleets where every
/// vehicle trains on its own history (old vehicles). With >1 shard a
/// cold-start vehicle sees only its shard's corpus; docs/serving.md
/// spells out the trade.
///
/// Failpoints: `serve.daemon.accept`, `serve.daemon.decode`,
/// `serve.daemon.enqueue`, `serve.daemon.refresh` cover the frame path
/// end to end; the chaos sweep drives them through HandleFrame.

namespace nextmaint {

namespace telemetry {
class Histogram;
}  // namespace telemetry

namespace serve {

/// Configuration of a FleetDaemon.
struct DaemonOptions {
  /// Scheduler/engine options shared by every shard.
  core::SchedulerOptions scheduler;
  /// Number of ServingEngine shards (>= 1).
  int shards = 1;
  /// Admission-control bound on each shard's pending write queue.
  size_t max_queue = 1024;
  /// Auto-refresh a shard after this many applied appends since its last
  /// refresh; 0 refreshes only on explicit Refresh barriers.
  uint64_t batch_window = 0;
};

/// Long-running sharded serving daemon. Thread-safe: Execute/SubmitAsync/
/// HandleFrame may be called from any number of transport threads.
class FleetDaemon {
 public:
  explicit FleetDaemon(DaemonOptions options);
  ~FleetDaemon();

  FleetDaemon(const FleetDaemon&) = delete;
  FleetDaemon& operator=(const FleetDaemon&) = delete;

  /// Spawns the shard workers. Writes submitted before Start() are queued
  /// (and count against max_queue) but not applied. InvalidArgument on
  /// bad options; FailedPrecondition when already started.
  [[nodiscard]] Status Start();

  /// Drains every shard queue, applies pending writes and joins the
  /// workers. Idempotent; called by the destructor.
  void Stop();

  /// Executes one request synchronously (enqueue + wait for the shard
  /// worker where the request is a write).
  protocol::Response Execute(const protocol::Request& request);

  /// Submits one request; the future resolves when the shard worker has
  /// applied it (writes) or immediately (reads, admission rejections).
  std::future<protocol::Response> SubmitAsync(protocol::Request request);

  /// Transport entry point: decodes one request payload (bytes after the
  /// length prefix), executes it and returns the complete encoded
  /// response frame. Malformed payloads produce an ErrorResponse frame —
  /// never a crash, never a dropped connection.
  std::vector<uint8_t> HandleFrame(std::span<const uint8_t> payload);

  /// True once a Shutdown request has been accepted. The daemon keeps
  /// serving (so the shutdown response can be written back); the
  /// transport is expected to observe the flag and wind down.
  bool ShutdownRequested() const;

  /// Daemon-wide and per-shard statistics (same data a StatsRequest
  /// returns).
  protocol::StatsResponse Stats() const;

  /// The shard a vehicle id maps to.
  uint64_t ShardOf(std::string_view id) const;

  int shards() const { return options_.shards; }
  const DaemonOptions& options() const { return options_; }

  /// Read access to one shard's engine (tests; the daemon owns writes).
  const ServingEngine& engine(size_t shard) const;

 private:
  /// One pending write operation in a shard queue.
  struct PendingOp;
  /// Completion state shared by the per-shard legs of one Refresh barrier.
  struct RefreshBarrier;
  /// One shard: engine + queue + worker.
  struct Shard;

  /// Worker body for shard `index`.
  void ShardLoop(size_t index);
  /// Applies one queued write on the shard worker.
  void ApplyOp(Shard& shard, PendingOp& op);
  /// Runs one refresh leg on the shard worker and completes the barrier
  /// when this shard is the last one in.
  void ApplyRefresh(Shard& shard, PendingOp& op);
  /// Refreshes one shard (worker thread). Returns the engine's stats;
  /// empty-fleet shards refresh to "nothing" successfully.
  [[nodiscard]] Result<RefreshStats> RefreshShard(Shard& shard);
  /// Registers `id` on the shard's engine unless the engine already has it
  /// (the auto-registration path for Append/LoadHistory).
  [[nodiscard]] Status EnsureRegistered(Shard& shard, const std::string& id,
                                        Date first_day);
  [[nodiscard]] Status ApplyAppend(Shard& shard,
                                   const protocol::AppendRequest& append);
  [[nodiscard]] Status ApplyLoadHistory(
      Shard& shard, const protocol::LoadHistoryRequest& load);

  /// Admission control + enqueue for a write op targeting `shard`.
  std::future<protocol::Response> EnqueueWrite(size_t shard_index,
                                               PendingOp op);
  /// Evaluates the enqueue-time failpoint (a separate function so the
  /// NEXTMAINT_FAILPOINT macro has a Status-returning scope to return
  /// from).
  [[nodiscard]] Status CheckEnqueue();
  /// Completes one pending op (or barrier leg) with an error.
  void FailPendingOp(Shard& shard, PendingOp& op, const Status& status);
  /// Resolves a finished barrier into its merged response.
  void CompleteBarrier(RefreshBarrier& barrier);
  /// Evaluates the accept/decode failpoints, then decodes the payload.
  [[nodiscard]] Result<protocol::Request> DecodeFramePayload(
      std::span<const uint8_t> payload);

  /// Read paths, answered on the calling thread.
  protocol::Response ReadForecasts(const protocol::GetForecastRequest& request);

  DaemonOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};
  // Daemon-wide counters mirrored into telemetry (atomics so Stats() is
  // readable from any thread without locking the shards).
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> decode_errors_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> total_appends_{0};
  std::atomic<uint64_t> total_load_history_{0};
  std::atomic<uint64_t> total_overloaded_{0};
  // Cached SLO instruments (registry pointers never dangle).
  telemetry::Histogram* append_latency_ = nullptr;
  telemetry::Histogram* read_latency_ = nullptr;
};

}  // namespace serve
}  // namespace nextmaint

#endif  // NEXTMAINT_SERVE_DAEMON_H_
