#ifndef NEXTMAINT_SERVE_SERVING_ENGINE_H_
#define NEXTMAINT_SERVE_SERVING_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/date.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/category.h"
#include "core/scheduler.h"
#include "data/time_series.h"

/// \file serving_engine.h
/// Incremental fleet serving: O(new data) refreshes over the batch facade.
///
/// The paper's system is deployed against a telematics collector that
/// delivers utilization one day at a time, yet FleetScheduler is a batch
/// facade — one appended day costs a full-fleet retrain and re-forecast.
/// The ServingEngine closes that gap with dirty-tracking:
/// `Append(id, day, seconds)` invalidates only that vehicle, and
/// `RefreshForecasts()` retrains and re-forecasts only dirty vehicles
/// (fanning out over the shared thread pool), reusing every clean vehicle's
/// cached model and forecast.
///
/// The non-negotiable invariant: after any interleaving of appends and
/// refreshes, the published forecasts are **bit-identical** to a
/// from-scratch batch `TrainAll` + `FleetForecast` over the same data, at
/// any thread count. The engine earns this by construction, not by
/// approximation — it runs the exact same code paths the batch facade runs
/// (RefreshCorpus / TrainVehicles, whose fan-out refits Model_Uni with
/// TrainUnifiedFromCorpus / ForecastVehicles, FleetForecast's fan-out),
/// only on the subset that changed. The scheduler owns the cold-start
/// corpus; when RefreshCorpus reports it changed, the engine dirties every
/// cold-start consumer.
/// See docs/serving.md for the full argument.
///
/// The one opt-in exception: SchedulerOptions::warm_start resumes eligible
/// dirty vehicles' ensemble models with FleetScheduler::WarmStartVehicle
/// instead of retraining them cold. A warm-refreshed fleet is still
/// deterministic at any thread count, but its forecasts are no longer
/// bit-identical to the batch run — they track it within a measured
/// divergence bound enforced by bench_serving (docs/warm-start.md). A warm
/// resume that fails degrades to the cold retrain, never to a dropped
/// vehicle.
///
/// Threading contract: one writer (Register/Append/LoadHistory/
/// RefreshForecasts must be externally serialized), any number of
/// concurrent Snapshot() readers. Snapshots are immutable and published
/// atomically under an epoch counter, so a reader holds a consistent fleet
/// view while appends keep landing.

namespace nextmaint {
namespace serve {

/// Per-vehicle serving state. The cycle fields are read from the
/// scheduler's core::CycleAccumulator — the recurrence DeriveSeries itself
/// runs — so they equal a from-scratch derivation's values for the day
/// after the last observation, the day the forecast is made for.
struct VehicleServeState {
  /// Days of utilization ingested.
  uint64_t days_observed = 0;
  /// Running fleet-telemetry total: sum of all ingested seconds.
  double total_usage_s = 0.0;
  /// C_v(today): days since the cycle-opening maintenance, for the day
  /// after the last observation.
  double days_since_maintenance = 0.0;
  /// L_v(today): utilization seconds left until the next maintenance is
  /// due, for the day after the last observation.
  double usage_seconds_left = 0.0;
  /// Completed maintenance cycles so far.
  uint64_t completed_cycles = 0;
  /// True when the vehicle has changes not yet covered by a refresh.
  bool dirty = true;
  /// True when the last refresh produced a forecast for this vehicle.
  bool has_forecast = false;
  /// Epoch of the refresh that last recomputed this vehicle (0 = never).
  uint64_t last_refresh_epoch = 0;
};

/// Immutable point-in-time view of the fleet, published by
/// RefreshForecasts. Readers keep the shared_ptr for as long as they need
/// a consistent view; later refreshes publish new snapshots and never
/// mutate old ones.
struct FleetSnapshot {
  /// Refresh generation: 0 before the first refresh, +1 per refresh.
  uint64_t epoch = 0;
  /// Vehicles registered when the snapshot was published.
  size_t vehicles = 0;
  /// Forecasts sorted by predicted date (most urgent first) — the same
  /// content and order FleetForecast would return.
  std::vector<core::MaintenanceForecast> forecasts;
  /// Ids registered when the snapshot was published, sorted. Vehicles
  /// registered after this epoch are invisible until the next refresh.
  std::vector<std::string> vehicle_ids;
  /// Position in `forecasts` by vehicle id (subset of `vehicle_ids`:
  /// degraded-forecast vehicles have no entry).
  std::map<std::string, size_t> forecast_index;
  /// Vehicles currently served degraded (train entries in vehicle-id
  /// order, then forecast entries in vehicle-id order), reflecting the
  /// cached state of the whole fleet — not just the last refresh.
  core::DegradationReport degradations;

  /// True when `id` was registered at publish time. O(log n).
  bool IsRegistered(const std::string& id) const;
  /// The published forecast for `id`, or nullptr when it has none
  /// (unregistered, never refreshed, or served degraded). O(log n).
  const core::MaintenanceForecast* FindForecast(const std::string& id) const;
};

/// Bookkeeping of one RefreshForecasts call.
struct RefreshStats {
  /// Epoch this refresh published.
  uint64_t epoch = 0;
  /// Vehicles dirty at entry (before corpus invalidation fan-out).
  size_t dirty_on_entry = 0;
  /// Vehicles retrained and re-forecast by this refresh.
  size_t refreshed = 0;
  /// Vehicles whose cached model and forecast were reused untouched.
  size_t reused = 0;
  /// True on the first refresh and whenever FleetScheduler::RefreshCorpus
  /// reported a changed cold-start corpus (a first cycle closed, or a
  /// replaced history had or has one): every cold-start vehicle was then
  /// retrained and Model_Uni refitted.
  bool corpus_rebuilt = false;
  /// Vehicles refreshed by a warm-start resume instead of a cold retrain
  /// (subset of `refreshed`; always 0 without SchedulerOptions::warm_start).
  size_t warm_started = 0;
};

/// Incremental serving engine over a FleetScheduler.
class ServingEngine {
 public:
  explicit ServingEngine(core::SchedulerOptions options);

  /// Registers a vehicle whose data starts on `first_day`.
  /// AlreadyExists on duplicates. The vehicle starts dirty.
  [[nodiscard]] Status Register(const std::string& id, Date first_day);

  /// Appends one day of utilization and marks only this vehicle dirty.
  /// O(1): the vehicle's cycle state advances by one day; nothing is
  /// retrained until the next RefreshForecasts. Same validation and error
  /// codes as FleetScheduler::IngestUsage; on error the cached state is
  /// untouched and the vehicle's dirtiness is unchanged.
  [[nodiscard]] Status Append(const std::string& id, Date day, double seconds);

  /// Bulk-loads a gap-free history, replacing any prior data (the
  /// warm-start path). O(series); marks the vehicle dirty.
  [[nodiscard]] Status LoadHistory(const std::string& id,
                                   const data::DailySeries& series);

  /// Retrains and re-forecasts exactly the dirty vehicles, publishes a new
  /// FleetSnapshot and bumps the epoch. When the cold-start corpus changed
  /// (FleetScheduler::RefreshCorpus), every cold-start (non-old) vehicle is
  /// dirtied too and Model_Uni refitted — the price of staying
  /// bit-identical to a batch run. InvalidArgument for invalid options. FailedPrecondition on
  /// an empty fleet (as FleetForecast does); strict mode aborts on the
  /// first per-vehicle error, otherwise failing vehicles are quarantined
  /// behind BL fallbacks exactly as the batch facade would.
  [[nodiscard]] Result<RefreshStats> RefreshForecasts();

  /// The current published snapshot. Never null; epoch 0 with no
  /// forecasts before the first refresh. Thread-safe against the writer.
  std::shared_ptr<const FleetSnapshot> Snapshot() const
      EXCLUDES(snapshot_mu_);

  /// Batch read: per-vehicle forecasts for `ids`, in request order.
  ///
  /// **Epoch-consistency guarantee:** all results come from ONE snapshot
  /// acquisition — every returned forecast (and every error) reflects the
  /// same epoch, even while a concurrent refresh publishes a newer one.
  /// This is the daemon's read path: one call instead of N Snapshot()
  /// lookups. Per-id errors: NotFound when the id was not registered at
  /// publish time, FailedPrecondition when it was registered but has no
  /// published forecast (pre-first-refresh or served degraded).
  /// Thread-safe against the writer, like Snapshot().
  [[nodiscard]] std::vector<Result<core::MaintenanceForecast>> GetForecasts(
      std::span<const std::string> ids) const;

  /// Serving state of one vehicle (NotFound when unregistered). O(1): the
  /// cycle fields come from FleetScheduler::CycleStateOf, no series walk.
  [[nodiscard]] Result<VehicleServeState> CachedState(const std::string& id) const;

  /// Vehicles with changes not yet covered by a refresh. O(1): tracked
  /// incrementally so the daemon can publish it per write.
  size_t DirtyCount() const;

  /// Stats of the most recent refresh (all zeros before the first).
  const RefreshStats& LastRefreshStats() const { return last_stats_; }

  /// Registered ids, sorted.
  std::vector<std::string> VehicleIds() const { return scheduler_.VehicleIds(); }

  /// Current refresh generation.
  uint64_t epoch() const { return epoch_; }

  /// Persists the fleet's trained models as a segmented checkpoint
  /// (delegate; see FleetScheduler::SaveCheckpoint). Writer-side: follows
  /// the single-writer contract like Append/RefreshForecasts.
  [[nodiscard]] Status SaveCheckpoint(const std::string& path) const {
    return scheduler_.SaveCheckpoint(path);
  }

  /// Persists exactly one vehicle into an existing segmented checkpoint
  /// without rewriting the rest of the fleet (delegate; see
  /// FleetScheduler::SaveVehicleCheckpoint).
  [[nodiscard]] Status SaveVehicleCheckpoint(const std::string& path,
                                             const std::string& id) const {
    return scheduler_.SaveVehicleCheckpoint(path, id);
  }

  /// Read access to the underlying batch facade (drift checks,
  /// per-vehicle queries). The engine owns training and ingestion;
  /// mutating the scheduler behind the engine's back voids the
  /// bit-identity guarantee.
  const core::FleetScheduler& scheduler() const { return scheduler_; }

 private:
  /// Internal per-vehicle cache: the outputs of the last refresh plus the
  /// dirty bookkeeping.
  struct CacheEntry {
    /// True when the vehicle's cached model can be warm-start resumed: the
    /// last refresh trained it clean (no quarantine) onto a per-vehicle
    /// ensemble model, and its history has only grown since (LoadHistory
    /// replaces the history and clears this).
    bool warm_capable = false;
    // Cached outputs of the last refresh that touched this vehicle.
    std::optional<core::MaintenanceForecast> forecast;
    std::optional<core::VehicleDegradation> train_degradation;
    std::optional<core::VehicleDegradation> forecast_degradation;
    uint64_t last_refresh_epoch = 0;
    bool dirty = true;
  };

  /// Flags one entry dirty, keeping the incremental dirty count exact.
  void MarkDirty(CacheEntry& entry);

  /// Assembles and publishes the snapshot for the current cache contents.
  void PublishSnapshot() EXCLUDES(snapshot_mu_);

  core::SchedulerOptions options_;
  core::FleetScheduler scheduler_;
  std::map<std::string, CacheEntry> entries_;
  /// Count of entries with dirty == true (kept exact by MarkDirty /
  /// RefreshForecasts so DirtyCount() is O(1) on the daemon's write path).
  size_t dirty_count_ = 0;
  uint64_t epoch_ = 0;
  RefreshStats last_stats_;
  /// The only lock in the engine: everything else follows the single-writer
  /// contract (see the file comment) and is touched by the writer alone.
  mutable Mutex snapshot_mu_;
  std::shared_ptr<const FleetSnapshot> snapshot_ GUARDED_BY(snapshot_mu_);
};

}  // namespace serve
}  // namespace nextmaint

#endif  // NEXTMAINT_SERVE_SERVING_ENGINE_H_
