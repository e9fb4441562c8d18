#ifndef NEXTMAINT_SERVE_SERVING_ENGINE_H_
#define NEXTMAINT_SERVE_SERVING_ENGINE_H_

#include <cstdint>
#include <memory>
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
/// `Append(id, day, seconds)` dirties only that vehicle, and
/// `RefreshForecasts()` retrains and re-forecasts only dirty vehicles
/// (fanning out over the shared thread pool), reusing every clean vehicle's
/// model and published forecast.
///
/// The engine keeps no per-vehicle container: each vehicle's one record
/// (history, cycle state, model, dirty bit) is in the scheduler's registry,
/// and the published FleetSnapshot is the cache, one row per vehicle that
/// the next refresh copies when clean and replaces when dirty.
///
/// The non-negotiable invariant: after any interleaving of appends and
/// refreshes, the published forecasts are **bit-identical** to a
/// from-scratch batch `TrainAll` + `FleetForecast` over the same data, at
/// any thread count. The engine earns this by construction, not by
/// approximation — it runs the exact same code paths the batch facade runs
/// (RefreshCorpus / TrainVehicles, whose fan-out refits Model_Uni with
/// TrainUnifiedFromCorpus / ForecastVehicles, FleetForecast's fan-out),
/// only on the subset that changed. The scheduler owns the cold-start
/// corpus; when RefreshCorpus reports it changed, the scheduler dirties
/// every cold-start consumer itself.
/// See docs/serving.md for the full argument.
///
/// Threading contract: one writer (Register/Append/LoadHistory/
/// RefreshForecasts must be externally serialized), any number of
/// concurrent Snapshot() readers. Snapshots are immutable and published
/// atomically under an epoch counter, so a reader holds a consistent fleet
/// view while appends keep landing.

namespace nextmaint {
namespace serve {

/// Per-vehicle serving state.
struct VehicleServeState {
  /// The scheduler's cycle recurrence after the last ingested day — the
  /// recurrence DeriveSeries itself runs, so its C and L equal a
  /// from-scratch derivation's values for the day the forecast is made for.
  core::CycleAccumulator cycles;
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
  /// Row::forecast of a vehicle without a forecast.
  static constexpr uint32_t kNone = UINT32_MAX;

  /// One vehicle's published state; rows[i] belongs to vehicle_ids[i].
  struct Row {
    /// Position of its forecast in `forecasts`, or kNone.
    uint32_t forecast = kNone;
    /// Epoch of the refresh that last recomputed this vehicle.
    uint64_t last_refresh_epoch = 0;
    /// Its "train" and "forecast" entries of `degradations`, if any.
    std::shared_ptr<const core::VehicleDegradation> train_degradation;
    std::shared_ptr<const core::VehicleDegradation> forecast_degradation;
  };

  /// Refresh generation: 0 before the first refresh, +1 per refresh.
  uint64_t epoch = 0;
  /// Forecasts sorted by predicted date (most urgent first) — the same
  /// content and order FleetForecast would return.
  std::vector<core::MaintenanceForecast> forecasts;
  /// Ids registered when the snapshot was published, sorted. Vehicles
  /// registered after this epoch are invisible until the next refresh.
  std::vector<std::string> vehicle_ids;
  /// One row per entry of `vehicle_ids`.
  std::vector<Row> rows;
  /// Vehicles currently served degraded (train entries in vehicle-id
  /// order, then forecast entries in vehicle-id order), reflecting the
  /// cached state of the whole fleet — not just the last refresh.
  core::DegradationReport degradations;

  /// The row of `id`, or nullptr when it was not registered at publish
  /// time. O(log n).
  const Row* Find(const std::string& id) const;
  /// The published forecast for `id`, or nullptr when it has none
  /// (unregistered, never refreshed, or served degraded). O(log n).
  const core::MaintenanceForecast* FindForecast(const std::string& id) const;
};

/// Bookkeeping of one RefreshForecasts call.
struct RefreshStats {
  /// Epoch this refresh published.
  uint64_t epoch = 0;
  /// Vehicles retrained and re-forecast by this refresh.
  size_t refreshed = 0;
  /// Vehicles whose cached model and forecast were reused untouched.
  size_t reused = 0;
  /// True on the first refresh and whenever FleetScheduler::RefreshCorpus
  /// reported a changed cold-start corpus (a first cycle closed, or a
  /// replaced history had or has one): every cold-start vehicle was then
  /// retrained and Model_Uni refitted.
  bool corpus_rebuilt = false;
};

/// Incremental serving engine over a FleetScheduler.
class ServingEngine {
 public:
  explicit ServingEngine(core::SchedulerOptions options);

  /// Registers a vehicle whose data starts on `first_day`.
  /// AlreadyExists on duplicates. The vehicle starts dirty.
  [[nodiscard]] Status Register(const std::string& id, Date first_day) {
    return scheduler_.RegisterVehicle(id, first_day);
  }

  /// Appends one day of utilization and marks only this vehicle dirty.
  /// O(1): the vehicle's cycle state advances by one day; nothing is
  /// retrained until the next RefreshForecasts. Same validation and error
  /// codes as FleetScheduler::IngestUsage; on error the cached state is
  /// untouched and the vehicle's dirtiness is unchanged.
  [[nodiscard]] Status Append(const std::string& id, Date day, double seconds);

  /// Bulk-loads a gap-free history, replacing any prior data (how a
  /// vehicle's leading history is loaded before day-by-day appends).
  /// O(series); marks the vehicle dirty.
  [[nodiscard]] Status LoadHistory(const std::string& id,
                                   const data::DailySeries& series);

  /// Retrains and re-forecasts exactly the dirty vehicles, publishes a new
  /// FleetSnapshot and bumps the epoch. When the cold-start corpus changed
  /// (FleetScheduler::RefreshCorpus), every cold-start (non-old) vehicle is
  /// dirtied too and Model_Uni refitted — the price of staying
  /// bit-identical to a batch run. InvalidArgument for invalid options.
  /// FailedPrecondition on an empty fleet (as FleetForecast does); strict
  /// mode aborts on the first per-vehicle error, otherwise failing vehicles
  /// are quarantined behind BL fallbacks exactly as the batch facade would.
  /// A failed refresh publishes nothing and leaves every dirty vehicle
  /// dirty.
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

  /// Serving state of one vehicle (NotFound when unregistered). O(log n):
  /// FleetScheduler::CycleStateOf and a snapshot lookup, no series walk.
  [[nodiscard]] Result<VehicleServeState> CachedState(const std::string& id) const;

  /// Vehicles with changes not yet covered by a refresh. O(1), so the
  /// daemon can publish it per write.
  size_t DirtyCount() const { return scheduler_.DirtyCount(); }

  /// Current refresh generation, the published snapshot's. Thread-safe
  /// against the writer, like Snapshot().
  uint64_t epoch() const { return Published()->epoch; }

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

  /// Read access to the underlying batch facade (per-vehicle
  /// queries). The engine owns training and ingestion;
  /// mutating the scheduler behind the engine's back voids the
  /// bit-identity guarantee.
  const core::FleetScheduler& scheduler() const { return scheduler_; }

 private:
  /// The published snapshot, without Snapshot()'s read count.
  std::shared_ptr<const FleetSnapshot> Published() const
      EXCLUDES(snapshot_mu_);

  core::FleetScheduler scheduler_;
  /// The only lock in the engine: everything else follows the single-writer
  /// contract (see the file comment) and is touched by the writer alone.
  mutable Mutex snapshot_mu_;
  std::shared_ptr<const FleetSnapshot> snapshot_ GUARDED_BY(snapshot_mu_);
};

}  // namespace serve
}  // namespace nextmaint

#endif  // NEXTMAINT_SERVE_SERVING_ENGINE_H_
