#ifndef NEXTMAINT_CORE_SCHEDULER_H_
#define NEXTMAINT_CORE_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/date.h"
#include "common/status.h"
#include "core/category.h"
#include "core/cold_start.h"
#include "core/old_vehicle.h"
#include "data/time_series.h"
#include "ml/regressor.h"
#include "storage/checkpoint_store.h"

/// \file scheduler.h
/// The deployed-system facade ("The system we propose here is currently
/// under deployment"): a fleet-level API that ingests daily utilization,
/// categorizes each vehicle, trains the category-appropriate model and
/// answers "when is each vehicle's next maintenance due?".

namespace nextmaint {
namespace core {

/// Per-vehicle prediction produced by the scheduler.
struct MaintenanceForecast {
  std::string vehicle_id;
  VehicleCategory category = VehicleCategory::kNew;
  /// Name of the model serving this vehicle ("BL", "RF", "XGB_Uni", ...).
  std::string model_name;
  /// Predicted days until the next maintenance, from the last ingested day.
  double days_left = 0.0;
  /// Calendar date of the predicted maintenance.
  Date predicted_date;
  /// Utilization seconds left until maintenance (L on the day after the
  /// last ingested day).
  double usage_seconds_left = 0.0;
};

/// One vehicle quarantined during TrainAll or FleetForecast: the fleet run
/// carried on without it (SchedulerOptions::strict == false) and this entry
/// records why.
struct VehicleDegradation {
  std::string vehicle_id;
  /// Pipeline stage that failed: "train" or "forecast".
  std::string stage;
  /// The isolated per-vehicle error.
  Status error;
  /// True when the vehicle was served by the untrained BL baseline instead
  /// (the paper's BL needs only the usage history, so a fallback almost
  /// always exists); false when even the fallback was impossible and the
  /// vehicle is left unmodeled/unforecast.
  bool fallback = false;
};

/// Quarantine ledger of a fleet run. Ordered by vehicle id (the
/// deterministic task order of TrainAll/FleetForecast).
struct DegradationReport {
  std::vector<VehicleDegradation> vehicles;

  bool empty() const { return vehicles.empty(); }

  /// True when `vehicle_id` was quarantined in this run.
  bool Contains(const std::string& vehicle_id) const {
    for (const VehicleDegradation& d : vehicles) {
      if (d.vehicle_id == vehicle_id) return true;
    }
    return false;
  }
};

/// What FleetScheduler::ForecastVehicles produced for one id.
struct ForecastOutcome {
  /// The model's forecast, or the BL fallback when `degradation` says so;
  /// empty for an unmodeled vehicle or a quarantine without fallback.
  std::optional<MaintenanceForecast> forecast;
  /// Set when the vehicle was quarantined (stage "forecast").
  std::optional<VehicleDegradation> degradation;
};

/// Configuration of the scheduler.
struct SchedulerOptions {
  /// Allowed usage seconds between maintenances (T_v), fleet-wide default.
  /// Must be finite and > 0; every fleet entry point returns
  /// InvalidArgument otherwise.
  double maintenance_interval_s = 2'000'000.0;
  /// Feature window W used by every trained model.
  int window = 6;
  /// Candidate algorithms for old-vehicle model selection.
  std::vector<std::string> algorithms = {"BL", "LR", "RF"};
  /// Algorithm for the unified cold-start model.
  std::string unified_algorithm = "XGB";
  /// Per-vehicle evaluation/selection options (the 70/30 protocol). The
  /// window field is overwritten by `window` above.
  OldVehicleOptions selection;
  /// Cold-start options; window overwritten likewise.
  ColdStartOptions cold_start;
  /// Vehicles trained/forecast concurrently by TrainAll/FleetForecast.
  /// 0 follows the process-wide default (ThreadPool::DefaultThreadCount());
  /// negative values are InvalidArgument. Any value yields bit-identical
  /// models and forecasts; see docs/parallelism.md.
  int num_threads = 0;
  /// Fleet deployments keep serving healthy vehicles when one vehicle's
  /// data or training fails: TrainAll/FleetForecast quarantine the failing
  /// vehicle (see LastDegradationReport) and fall back to the BL baseline.
  /// `strict` restores fail-fast: the first per-vehicle error aborts the
  /// whole fleet operation (option-validation errors such as a negative
  /// num_threads or T_v always fail fast). See docs/fault-injection.md.
  bool strict = false;
  /// Tree-training core for every tree learner the scheduler trains
  /// (selection candidates, refits, cold-start models). Both cores produce
  /// byte-identical models; kRowOriented exists for differential testing.
  /// Propagated into `selection` and `cold_start` by the constructor. See
  /// docs/binned-training.md.
  ml::TreeCore tree_core = ml::TreeCore::kBinned;
};

/// Positions of `forecasts` in published order: by predicted date, most
/// urgent first, ties in the order std::sort leaves them. The one sort
/// behind FleetScheduler::FleetForecast and the serving engine's
/// snapshots, so both publish the same order for the same input.
std::vector<uint32_t> SortByPredictedDate(
    const std::vector<MaintenanceForecast>& forecasts);

/// Fleet-level next-maintenance scheduler.
///
/// Usage: RegisterVehicle -> IngestUsage (day by day or in bulk) ->
/// TrainAll -> Forecast / FleetForecast. Retraining after further ingestion
/// is allowed at any time.
///
/// Error-code contract (shared by the batch facade and the serving engine):
///  - NotFound: the vehicle id was never registered. Register it first.
///  - FailedPrecondition: the vehicle (or fleet) is registered but not in a
///    state that can answer the call — no trained model, too little data
///    for the feature window, or a FleetForecast on a fleet with zero
///    registered vehicles.
///  - InvalidArgument: malformed inputs or options (negative num_threads,
///    a maintenance interval that is not finite and positive, out-of-order
///    ingestion, utilization outside [0, 86400]).
class FleetScheduler {
 public:
  explicit FleetScheduler(SchedulerOptions options);

  /// The effective options: the constructor overwrites the window and the
  /// tree core of `selection` and `cold_start` with the fleet-wide ones.
  const SchedulerOptions& options() const { return options_; }

  /// Registers a vehicle whose data starts on `first_day`.
  /// Fails with AlreadyExists on duplicates.
  [[nodiscard]] Status RegisterVehicle(const std::string& id, Date first_day);

  /// Appends one day of utilization. Days must be ingested in order with
  /// no gaps (the telematics collector guarantees this; absent telemetry
  /// should be ingested as 0 or repaired upstream).
  [[nodiscard]] Status IngestUsage(const std::string& id, Date day, double seconds);

  /// Bulk ingestion of a gap-free series (replaces prior data).
  [[nodiscard]] Status IngestSeries(const std::string& id, const data::DailySeries& series);

  /// Current category of a vehicle.
  [[nodiscard]] Result<VehicleCategory> CategoryOf(const std::string& id) const;

  /// The vehicle's maintenance-cycle state after its last ingested day:
  /// C and L of the next day, completed cycles and total usage. O(1); kept
  /// up to date by ingestion. NotFound for unregistered ids.
  [[nodiscard]] Result<CycleAccumulator> CycleStateOf(
      const std::string& id) const;

  /// Registered ids, sorted.
  std::vector<std::string> VehicleIds() const;

  /// True when `id` is registered. O(log n).
  bool IsRegistered(const std::string& id) const {
    return vehicles_.count(id) != 0;
  }

  /// Dirty bits: the refresh set of serve::ServingEngine, which alone clears
  /// them. RegisterVehicle, a successful IngestUsage or IngestSeries and a
  /// RefreshCorpus that changed the corpus (for every vehicle that is not
  /// old) set them. DirtyCount is O(1); IsDirty is NotFound for unknown ids.
  size_t DirtyCount() const { return dirty_count_; }
  [[nodiscard]] Result<bool> IsDirty(const std::string& id) const;
  /// Sorted.
  std::vector<std::string> DirtyVehicleIds() const;
  void ClearDirty();

  /// Trains/refreshes every vehicle's model:
  ///  - old vehicles: per-vehicle model selection (E_MRE criterion), then a
  ///    refit of the winning algorithm on the vehicle's full history;
  ///  - semi-new: Model_Sim over the old vehicles' first cycles (falls back
  ///    to Model_Uni when similarity matching is impossible);
  ///  - new: Model_Uni.
  /// Vehicles whose category has no viable model (e.g. a new vehicle in a
  /// fleet with no old vehicles) are left untrained; Forecast reports the
  /// failure for them.
  ///
  /// Implemented on the public building blocks: RefreshCorpus, then
  /// TrainVehicles over VehicleIds() with Model_Uni refitted inside its
  /// fan-out (TrainAll always refits it, even over an unchanged corpus).
  /// That shared code path is what makes incremental subset retrains
  /// (serve/serving_engine.h) bit-identical to a batch run.
  [[nodiscard]] Status TrainAll();

  /// This vehicle's contribution to the cold-start corpus, extracted afresh
  /// from its history: its first completed maintenance cycle when it is an
  /// old vehicle and extraction succeeds, nullopt otherwise (no data, not
  /// old yet, or no extractable cycle). NotFound for unregistered ids;
  /// InvalidArgument for invalid options. Over every vehicle in id order it
  /// yields the corpus RefreshCorpus maintains, which is what makes it the
  /// serial reference for that corpus.
  [[nodiscard]] Result<std::optional<FirstCycleData>> CorpusContribution(
      const std::string& id) const;

  /// Brings the scheduler's cold-start corpus (the old vehicles' first
  /// cycles in id order) up to date with the ingested data. A first cycle
  /// is a fixed prefix of the history, so only vehicles marked since the
  /// last call are re-extracted: IngestUsage marks a vehicle when its first
  /// cycle closes, IngestSeries whenever it replaces a history. With no
  /// marked vehicle this costs O(1). Returns true when the corpus changed:
  /// a contribution appeared or disappeared, or a replaced history had or
  /// has one. Then the next TrainVehicles refits Model_Uni and every vehicle
  /// that is not old turns dirty. InvalidArgument for invalid options.
  [[nodiscard]] Result<bool> RefreshCorpus();

  /// Trains the unified cold-start model (Model_Uni) on `corpus`. Returns
  /// nullptr for an empty corpus or when training fails (logged as a
  /// warning) — the tolerant semantics of TrainAll.
  std::shared_ptr<ml::Regressor> TrainUnifiedFromCorpus(
      const std::vector<FirstCycleData>& corpus) const;

  /// Retrains exactly the vehicles in `ids` (category-appropriate model,
  /// same logic as TrainAll) in one fan-out over the thread pool, against
  /// the cold-start corpus as RefreshCorpus leaves it (TrainVehicles calls
  /// it first). When Model_Uni is invalid the same fan-out refits it from
  /// the corpus (TrainUnifiedFromCorpus, in the caller's failpoint ordinal
  /// context, never a vehicle's); it starts first, the vehicles that never
  /// read it follow in `ids` order and the semi-new and new vehicles come
  /// last, blocking on the fit only if it is still running. Failing
  /// vehicles are quarantined behind the BL fallback (strict mode returns
  /// the failure of the lowest position in `ids` instead);
  /// LastDegradationReport's train entries cover this call only, in `ids`
  /// order. `ids` must be registered (NotFound) and free of duplicates
  /// (InvalidArgument); nth-selecting failpoint specs address a vehicle by
  /// its 1-based position in `ids`.
  [[nodiscard]] Status TrainVehicles(const std::vector<std::string>& ids);

  /// True when `id` currently has a trained (or fallback) model, i.e. it
  /// would be included in FleetForecast. NotFound for unregistered ids.
  [[nodiscard]] Result<bool> HasTrainedModel(const std::string& id) const;

  /// Predicts the next maintenance for one vehicle (requires TrainAll).
  /// NotFound for unregistered ids; FailedPrecondition when the vehicle has
  /// no trained model or too little data for the feature window.
  [[nodiscard]] Result<MaintenanceForecast> Forecast(const std::string& id) const;

  /// Forecasts for every vehicle that has a trained model, sorted by
  /// predicted date (most urgent first): ForecastVehicles over the trained
  /// vehicles in id order, then the sort. FailedPrecondition when the fleet
  /// has no registered vehicles at all (a forecast over nothing is a caller
  /// bug, not an empty answer).
  [[nodiscard]] Result<std::vector<MaintenanceForecast>> FleetForecast() const;

  /// Forecasts the vehicles in `ids` in one fan-out over the thread pool:
  /// the forecast path of FleetForecast and of the serving engine's
  /// refresh. outcomes[i] belongs to ids[i] and is filled even when the
  /// call fails. Vehicles without a trained model are skipped; a failing
  /// forecast quarantines the vehicle behind FallbackForecast, or in strict
  /// mode returns the failure of the lowest position. Nth-selecting
  /// failpoint specs address a vehicle by its 1-based position in `ids`.
  /// Callers count telemetry and record degradations from the outcomes.
  [[nodiscard]] Status ForecastVehicles(
      const std::vector<std::string>& ids,
      std::vector<ForecastOutcome>& outcomes) const;

  /// Builds the untrained-BL forecast for `id` (paper Eq. 5/6:
  /// D_BL = L(today) / AVG). Needs only the usage history — no trained
  /// model, no feature window — so it serves quarantined vehicles in
  /// ForecastVehicles.
  [[nodiscard]] Result<MaintenanceForecast> FallbackForecast(
      const std::string& id) const;

  /// Persists every trained per-vehicle model to `path` as one atomic
  /// checkpoint. Thin wrapper over storage::CheckpointStore::SaveAll: the
  /// segmented "NMCKPT1" format (docs/storage.md), written to a temp file
  /// and renamed into place, so readers see either the previous complete
  /// checkpoint or the new one — never a truncated file (single writer per
  /// path assumed). Byte-deterministic for a given fleet state. Untrained
  /// vehicles are skipped; lazily loaded vehicles that never materialized
  /// have their segment bytes copied verbatim (no parse). The usage data
  /// itself is not saved (it lives in the telematics store); re-ingest it
  /// before forecasting with a loaded checkpoint.
  [[nodiscard]] Status SaveCheckpoint(const std::string& path) const;

  /// Persists exactly one vehicle into the segmented checkpoint at `path`:
  /// storage::CheckpointStore::SaveVehicle appends the new segment, and
  /// Commit publishes it through the alternate superblock slot — the rest
  /// of the fleet's segments are never rewritten or touched. Falls back to
  /// a full SaveCheckpoint when `path` holds no segmented checkpoint yet.
  /// NotFound for unregistered ids; FailedPrecondition when the vehicle
  /// has no model to persist.
  [[nodiscard]] Status SaveVehicleCheckpoint(const std::string& path,
                                             const std::string& id) const;

  /// Restores models from a checkpoint at `path`. Thin wrapper over
  /// storage::CheckpointStore::Load for the segmented format: the file is
  /// mmapped, only the superblock + index are read eagerly, and each
  /// vehicle's model deserializes on first touch (Forecast) from
  /// its CRC-guarded segment — corruption there surfaces as DataLoss from
  /// the touching call. Any other file, including a text checkpoint from
  /// before the segmented format, is DataLoss; regenerate it with
  /// `nextmaint forecast --save-models`. Every referenced vehicle must
  /// already be registered (NotFound otherwise); vehicles absent from the
  /// checkpoint keep their current model. Nothing is committed unless the
  /// whole index validates, so a truncated or corrupt checkpoint changes
  /// nothing.
  [[nodiscard]] Status LoadCheckpoint(const std::string& path);

  /// Vehicles quarantined by the most recent TrainAll/TrainVehicles plus
  /// those quarantined by the most recent FleetForecast, in deterministic
  /// (vehicle-id) order per stage. Empty after fully healthy runs and in
  /// strict mode (strict aborts instead of quarantining). Not synchronized
  /// with concurrent TrainAll/FleetForecast calls on the same scheduler.
  DegradationReport LastDegradationReport() const;

  /// The binning cache currently attached to `id`'s per-vehicle training
  /// (grid-search candidates and refits share it). Nullptr before the
  /// vehicle's first training, after new data invalidated the cache, and
  /// always when no candidate is a tree learner; the next TrainVehicles
  /// recreates it. Diagnostics/testing surface.
  std::shared_ptr<const ml::BinningCache> VehicleBinningCache(
      const std::string& id) const;

  /// The cache shared by every cold-start fit (unified + similarity
  /// models); created at construction and cleared when IngestSeries
  /// replaces a vehicle's history.
  std::shared_ptr<const ml::BinningCache> UnifiedBinningCache() const;

 private:
  /// What a deployment refit is a pure function of, given the fleet's
  /// options: the labeled full history (its completed cycles), the
  /// algorithm and its parameters.
  struct RefitKey {
    size_t full_cycles = 0;
    std::string algorithm;
    ml::ParamMap params;
    bool operator==(const RefitKey&) const = default;
  };

  /// The fit memo of one old vehicle (docs/serving.md, "The fit memo"):
  /// the selection's remembered candidates, and the key the deployed
  /// `model` was refitted under, which TrainOneVehicle keeps while it
  /// matches. Never created while FitMemoApplies() is false.
  struct FitMemo {
    SelectionMemo selection;
    std::optional<RefitKey> refit_key;
  };

  struct VehicleState {
    /// Gap-free history; its start date is the registered first day.
    data::DailySeries usage;
    /// The cycle recurrence advanced over `usage`.
    CycleAccumulator cycles;
    /// mutable: the const read paths (Forecast) materialize a lazily
    /// loaded model on first touch. Safe under the same per-vehicle
    /// serialization contract those paths already rely on (parallel
    /// fan-outs touch disjoint vehicles; see docs/parallelism.md).
    mutable std::shared_ptr<ml::Regressor> model;
    std::string model_name;
    /// Unparsed checkpoint segment staged by a lazy LoadCheckpoint;
    /// cleared when the model materializes, retrains or re-ingests.
    mutable storage::SegmentView pending_segment;
    /// Bin-mapper cache of this vehicle's training matrices (binned core, a
    /// tree learner among the candidates), created in TrainVehicles' serial
    /// validation pass (the training fan-out only reads it) and dropped
    /// whenever new data for the vehicle arrives — keys are
    /// content-addressed, so a stale entry could never be hit again anyway;
    /// eviction just bounds memory.
    std::shared_ptr<ml::BinningCache> binning_cache;
    /// Set when the corpus contribution may have changed since the last
    /// RefreshCorpus: the first cycle closed, or (with `history_replaced`)
    /// IngestSeries replaced the history.
    bool corpus_pending = false;
    bool history_replaced = false;
    /// Set through MarkDirty, which keeps dirty_count_ exact.
    bool dirty = false;
    /// Created by the first old-vehicle training that uses the memo and
    /// dropped by IngestSeries; behind a pointer, so a vehicle without one
    /// pays 8 bytes.
    std::unique_ptr<FitMemo> fit_memo;
  };

  /// LoadCheckpoint and a quarantine replace the model, which is then no
  /// longer the refit its key names.
  static void DropRefitKey(VehicleState& state) {
    if (state.fit_memo != nullptr) state.fit_memo->refit_key.reset();
  }

  void MarkDirty(VehicleState& state) {
    if (!state.dirty) ++dirty_count_;
    state.dirty = true;
  }

  [[nodiscard]] Result<const VehicleState*> FindVehicle(const std::string& id) const;

  /// How the deployment refit builds its dataset over the full history.
  struct RefitRecipe {
    DatasetOptions dataset;
    ResamplingOptions resampling;
  };
  RefitRecipe RefitDatasetRecipe() const;

  /// True when every old-vehicle fit depends only on the closed cycles it
  /// covers: no time-shift re-sampling (its offsets are drawn from the
  /// series length) and no context series. Only then is the fit memo used.
  bool FitMemoApplies() const;

  /// The one options check behind every fleet entry point: num_threads >= 0
  /// and a finite, positive maintenance interval (InvalidArgument).
  [[nodiscard]] Status ValidateOptions() const;

  /// The untrained BL baseline over `usage` (paper Eq. 5/6), or nullptr
  /// when the average utilization is undefined.
  std::shared_ptr<ml::Regressor> MakeBaseline(
      const data::DailySeries& usage) const;

  /// First-cycle extraction for a vehicle already known to be old.
  std::optional<FirstCycleData> ContributionForOldVehicle(
      const std::string& id, const VehicleState& state) const;

  /// One-shot latch through which TrainVehicles' tasks read Model_Uni
  /// (defined in scheduler.cc).
  class UnifiedLatch;

  /// Category-appropriate (re)training of one vehicle against the shared
  /// cold-start corpus and Model_Uni — the single training code path under
  /// both TrainAll and TrainVehicles. Only new vehicles and semi-new
  /// vehicles without a similarity model wait on `unified`.
  [[nodiscard]] Status TrainOneVehicle(
      const std::string& id, VehicleState& state,
      const std::vector<FirstCycleData>& corpus, const UnifiedLatch& unified);

  /// Parses `state`'s pending checkpoint segment into a live model on
  /// first touch (the lazy half of LoadCheckpoint). No-op when nothing is
  /// pending; kDataLoss when the segment fails its CRC.
  [[nodiscard]] Status MaterializeModel(const std::string& id,
                                        const VehicleState& state) const;

  /// One vehicle's checkpoint record: the serialized model, or the raw
  /// pending segment bytes when the model never materialized (keeps
  /// save-after-lazy-load parse-free and byte-identical).
  [[nodiscard]] Result<storage::VehicleRecord> CheckpointRecord(
      const std::string& id, const VehicleState& state) const;

  SchedulerOptions options_;
  std::map<std::string, VehicleState> vehicles_;
  size_t dirty_count_ = 0;
  /// The cold-start corpus in vehicle-id order, as of the last
  /// RefreshCorpus; `corpus_pending_` is set while any vehicle is marked.
  std::vector<FirstCycleData> corpus_;
  bool corpus_pending_ = false;
  /// Model_Uni fitted on `corpus_` (nullptr when the corpus is empty or the
  /// fit failed); valid only while `unified_fitted_` is true.
  std::shared_ptr<ml::Regressor> unified_;
  bool unified_fitted_ = false;
  /// Cache behind every cold-start fit; lives in
  /// options_.cold_start.backend (attached by the constructor), kept here
  /// for invalidation and the UnifiedBinningCache accessor.
  std::shared_ptr<ml::BinningCache> unified_binning_cache_;
  /// Quarantines recorded by the last TrainAll.
  DegradationReport train_degradation_;
  /// Quarantines recorded by the last FleetForecast (mutable: FleetForecast
  /// is const; a concurrent-FleetForecast data race is excluded by contract,
  /// see LastDegradationReport).
  mutable DegradationReport forecast_degradation_;
};

}  // namespace core
}  // namespace nextmaint

#endif  // NEXTMAINT_CORE_SCHEDULER_H_
