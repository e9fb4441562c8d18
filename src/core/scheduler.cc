#include "core/scheduler.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <string_view>
#include <utility>

#include "common/failpoints.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "common/thread_annotations.h"
#include "core/baseline.h"
#include "core/dataset_builder.h"
#include "ml/registry.h"
#include "ml/serialization.h"

namespace nextmaint {
namespace core {

std::vector<uint32_t> SortByPredictedDate(
    const std::vector<MaintenanceForecast>& forecasts) {
  std::vector<uint32_t> order(forecasts.size());
  for (uint32_t f = 0; f < order.size(); ++f) order[f] = f;
  // std::sort's moves depend only on its comparisons, so sorting positions
  // leaves ties exactly where sorting the forecasts themselves would.
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return forecasts[a].predicted_date < forecasts[b].predicted_date;
  });
  return order;
}

FleetScheduler::FleetScheduler(SchedulerOptions options)
    : options_(std::move(options)),
      unified_binning_cache_(std::make_shared<ml::BinningCache>()) {
  options_.selection.window = options_.window;
  options_.cold_start.window = options_.window;
  // One tree core fleet-wide; every cold-start fit shares one binning
  // cache (per-vehicle caches attach in TrainOneVehicle).
  options_.selection.backend.core = options_.tree_core;
  options_.cold_start.backend.core = options_.tree_core;
  if (options_.tree_core == ml::TreeCore::kBinned) {
    options_.cold_start.backend.binning_cache = unified_binning_cache_;
  }
}

Status FleetScheduler::RegisterVehicle(const std::string& id, Date first_day) {
  if (id.empty()) return Status::InvalidArgument("empty vehicle id");
  if (vehicles_.count(id) > 0) {
    return Status::AlreadyExists("vehicle '" + id + "' already registered");
  }
  VehicleState state;
  state.usage = data::DailySeries(first_day, {});
  state.cycles.maintenance_interval_s = options_.maintenance_interval_s;
  MarkDirty(vehicles_.emplace(id, std::move(state)).first->second);
  return Status::OK();
}

Status FleetScheduler::IngestUsage(const std::string& id, Date day,
                                   double seconds) {
  auto it = vehicles_.find(id);
  if (it == vehicles_.end()) {
    return Status::NotFound("vehicle '" + id + "' is not registered");
  }
  // After the lookup: an unknown id is never an ingest to fail.
  NEXTMAINT_FAILPOINT("scheduler.ingest");
  VehicleState& state = it->second;
  const Date expected = state.usage.next_date();
  if (day != expected) {
    return Status::InvalidArgument(
        "out-of-order ingestion for '" + id + "': expected " +
        expected.ToString() + ", got " + day.ToString());
  }
  if (std::isnan(seconds) || seconds < 0.0 || seconds > 86400.0) {
    telemetry::Count("scheduler.ingest.rejected");
    return Status::InvalidArgument("utilization must be in [0, 86400]");
  }
  state.usage.Append(seconds);  // nextmaint-lint: allow(unchecked-status): DailySeries::Append is void; the harvested name collides with ServingEngine::Append
  // Closing the first cycle makes the vehicle old: its corpus contribution
  // appears. Later closes leave that fixed prefix of the history alone.
  if (state.cycles.Advance(seconds) && state.cycles.completed_cycles == 1) {
    state.corpus_pending = corpus_pending_ = true;
  }
  // New data means the cached binnings of this vehicle's matrices can never
  // be hit again; drop them so the next training starts a fresh cache.
  state.binning_cache.reset();
  MarkDirty(state);
  telemetry::Count("scheduler.ingest.days");
  return Status::OK();
}

Status FleetScheduler::IngestSeries(const std::string& id,
                                    const data::DailySeries& series) {
  auto it = vehicles_.find(id);
  if (it == vehicles_.end()) {
    return Status::NotFound("vehicle '" + id + "' is not registered");
  }
  // After the lookup: an unknown id is never an ingest to fail.
  NEXTMAINT_FAILPOINT("scheduler.ingest");
  if (!series.IsComplete()) {
    return Status::DataError(
        "series contains missing values; run the cleaning step first");
  }
  it->second.usage = series;
  CycleAccumulator& cycles = it->second.cycles;
  cycles = {.maintenance_interval_s = options_.maintenance_interval_s};
  for (const double seconds : series.values()) cycles.Advance(seconds);
  it->second.model.reset();
  it->second.pending_segment = storage::SegmentView();
  it->second.binning_cache.reset();
  // The memo's keys count cycles of an append-only history.
  it->second.fit_memo.reset();
  // Unlike Append, a wholesale series replacement can change the vehicle's
  // first cycle and therefore the cold-start corpus: mark it for the next
  // RefreshCorpus, and reset the shared cold-start cache too (entries are
  // content-addressed, so this is about memory, not correctness).
  it->second.corpus_pending = it->second.history_replaced = true;
  corpus_pending_ = true;
  unified_binning_cache_->Clear();
  MarkDirty(it->second);
  telemetry::Count("scheduler.ingest.series");
  telemetry::Count("scheduler.ingest.days", series.size());
  return Status::OK();
}

Result<const FleetScheduler::VehicleState*> FleetScheduler::FindVehicle(
    const std::string& id) const {
  auto it = vehicles_.find(id);
  if (it == vehicles_.end()) {
    return Status::NotFound("vehicle '" + id + "' is not registered");
  }
  return &it->second;
}

Result<VehicleCategory> FleetScheduler::CategoryOf(
    const std::string& id) const {
  NM_ASSIGN_OR_RETURN(const VehicleState* state, FindVehicle(id));
  if (state->usage.empty()) return VehicleCategory::kNew;
  NM_RETURN_NOT_OK(ValidateOptions());
  return Categorize(state->cycles);
}

Result<CycleAccumulator> FleetScheduler::CycleStateOf(
    const std::string& id) const {
  NM_ASSIGN_OR_RETURN(const VehicleState* state, FindVehicle(id));
  return state->cycles;
}

std::vector<std::string> FleetScheduler::VehicleIds() const {
  std::vector<std::string> ids;
  ids.reserve(vehicles_.size());
  for (const auto& [id, state] : vehicles_) ids.push_back(id);
  return ids;
}

Result<bool> FleetScheduler::IsDirty(const std::string& id) const {
  NM_ASSIGN_OR_RETURN(const VehicleState* state, FindVehicle(id));
  return state->dirty;
}

std::vector<std::string> FleetScheduler::DirtyVehicleIds() const {
  std::vector<std::string> ids;
  ids.reserve(dirty_count_);
  for (const auto& [id, state] : vehicles_) {
    if (state.dirty) ids.push_back(id);
  }
  return ids;
}

void FleetScheduler::ClearDirty() {
  for (auto& [id, state] : vehicles_) state.dirty = false;
  dirty_count_ = 0;
}

Status FleetScheduler::ValidateOptions() const {
  if (options_.num_threads < 0) {
    return Status::InvalidArgument(
        "SchedulerOptions::num_threads must be >= 0 (0 = all cores), got " +
        std::to_string(options_.num_threads));
  }
  const double interval = options_.maintenance_interval_s;
  if (!std::isfinite(interval) || interval <= 0.0) {
    return Status::InvalidArgument(
        "SchedulerOptions::maintenance_interval_s must be finite and > 0, "
        "got " + std::to_string(interval));
  }
  return Status::OK();
}

Status FleetScheduler::TrainAll() {
  NM_RETURN_NOT_OK(ValidateOptions());
  telemetry::TraceSpan train_span("scheduler.train");

  // Pass 1: bring the first-cycle corpus (for cold-start models) up to
  // date, tallying the fleet's category mix along the way.
  size_t num_old = 0, num_semi_new = 0, num_new = 0;
  {
    telemetry::TraceSpan corpus_span("scheduler.train.corpus");
    NM_RETURN_NOT_OK(RefreshCorpus().status());
    for (const auto& [id, state] : vehicles_) {
      // A vehicle without data has no usage: categorically new.
      switch (Categorize(state.cycles)) {
        case VehicleCategory::kOld:
          ++num_old;
          break;
        case VehicleCategory::kSemiNew:
          ++num_semi_new;
          break;
        case VehicleCategory::kNew:
          ++num_new;
          break;
      }
    }
  }
  telemetry::SetGauge("scheduler.fleet.vehicles.old",
                      static_cast<double>(num_old));
  telemetry::SetGauge("scheduler.fleet.vehicles.semi_new",
                      static_cast<double>(num_semi_new));
  telemetry::SetGauge("scheduler.fleet.vehicles.new",
                      static_cast<double>(num_new));

  // Pass 2: one fan-out fits the unified model shared by every cold-start
  // vehicle (a batch run always refits it) and retrains every vehicle.
  unified_fitted_ = false;
  return TrainVehicles(VehicleIds());
}

std::optional<FirstCycleData> FleetScheduler::ContributionForOldVehicle(
    const std::string& id, const VehicleState& state) const {
  Result<FirstCycleData> data =
      ExtractFirstCycle(id, state.usage, options_.maintenance_interval_s,
                        options_.cold_start);
  if (!data.ok()) return std::nullopt;
  return std::move(data).ValueOrDie();
}

Result<std::optional<FirstCycleData>> FleetScheduler::CorpusContribution(
    const std::string& id) const {
  NM_ASSIGN_OR_RETURN(const VehicleState* state, FindVehicle(id));
  if (state->usage.empty()) return std::optional<FirstCycleData>();
  NM_ASSIGN_OR_RETURN(VehicleCategory category, CategoryOf(id));
  if (category != VehicleCategory::kOld) {
    return std::optional<FirstCycleData>();
  }
  return ContributionForOldVehicle(id, *state);
}

Result<bool> FleetScheduler::RefreshCorpus() {
  NM_RETURN_NOT_OK(ValidateOptions());
  if (!corpus_pending_) return false;
  // One merge walk: vehicles_ and corpus_ are both in id order, and only
  // marked vehicles are extracted again.
  std::vector<FirstCycleData> corpus;
  corpus.reserve(corpus_.size());
  auto old = corpus_.begin();
  bool changed = false;
  for (auto& [id, state] : vehicles_) {
    const bool had = old != corpus_.end() && old->vehicle_id == id;
    if (!state.corpus_pending) {
      if (had) corpus.push_back(std::move(*old++));
      continue;
    }
    if (had) ++old;
    std::optional<FirstCycleData> data;
    if (Categorize(state.cycles) == VehicleCategory::kOld) {
      data = ContributionForOldVehicle(id, state);
    }
    const bool has = data.has_value();
    if (had != has || (state.history_replaced && (had || has))) changed = true;
    if (has) corpus.push_back(*std::move(data));
    state.corpus_pending = state.history_replaced = false;
  }
  corpus_ = std::move(corpus);
  corpus_pending_ = false;
  if (changed) {
    unified_fitted_ = false;
    // Semi-new vehicles train Model_Sim on the corpus, new ones Model_Uni.
    for (auto& [id, state] : vehicles_) {
      if (Categorize(state.cycles) != VehicleCategory::kOld) MarkDirty(state);
    }
  }
  return changed;
}

std::shared_ptr<ml::Regressor> FleetScheduler::TrainUnifiedFromCorpus(
    const std::vector<FirstCycleData>& corpus) const {
  if (corpus.empty()) return nullptr;
  telemetry::TraceSpan unified_span("scheduler.train.unified");
  Result<std::unique_ptr<ml::Regressor>> uni = TrainUnifiedModel(
      options_.unified_algorithm, corpus, options_.cold_start);
  if (!uni.ok()) {
    NM_LOG(Warning) << "unified model training failed: "
                    << uni.status().ToString();
    return nullptr;
  }
  return std::move(uni).ValueOrDie();
}

/// Model_Uni as the tasks of one TrainVehicles fan-out see it: a one-shot
/// latch that the unified task releases with its fit (nullptr when the
/// corpus is empty or the fit failed). A cold-start task that needs the
/// model before the fit ends blocks in Wait().
class FleetScheduler::UnifiedLatch {
 public:
  /// Releases the latch on destruction with `model` as the fit left it, so
  /// a fit that fails, returns nullptr or throws still frees the waiters.
  class ReleaseOnExit {
   public:
    explicit ReleaseOnExit(UnifiedLatch& latch) : latch_(latch) {}
    ~ReleaseOnExit() { latch_.Release(std::move(model)); }

    ReleaseOnExit(const ReleaseOnExit&) = delete;
    ReleaseOnExit& operator=(const ReleaseOnExit&) = delete;

    std::shared_ptr<ml::Regressor> model;

   private:
    UnifiedLatch& latch_;
  };

  UnifiedLatch() = default;
  UnifiedLatch(const UnifiedLatch&) = delete;
  UnifiedLatch& operator=(const UnifiedLatch&) = delete;

  void Release(std::shared_ptr<ml::Regressor> model) EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      model_ = std::move(model);
      released_ = true;
    }
    released_cv_.NotifyAll();
  }

  std::shared_ptr<ml::Regressor> Wait() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (!released_) released_cv_.Wait(mu_);
    return model_;
  }

 private:
  mutable Mutex mu_;
  mutable CondVar released_cv_;
  std::shared_ptr<ml::Regressor> model_ GUARDED_BY(mu_);
  bool released_ GUARDED_BY(mu_) = false;
};

Status FleetScheduler::TrainOneVehicle(
    const std::string& id, VehicleState& state,
    const std::vector<FirstCycleData>& corpus, const UnifiedLatch& unified) {
  telemetry::ScopedTimer vehicle_timer("scheduler.train.vehicle.seconds");
  const auto wait_for_unified = [&unified] {
    telemetry::ScopedTimer wait_timer("scheduler.train.unified_wait.seconds");
    return unified.Wait();
  };
  // The deployed refit and its key leave the state: only a matching key
  // below puts the model back, so every other outcome, failures included,
  // leaves the vehicle as a retrain from scratch would.
  std::shared_ptr<ml::Regressor> deployed = std::move(state.model);
  std::optional<RefitKey> deployed_key;
  if (state.fit_memo != nullptr) {
    deployed_key = std::exchange(state.fit_memo->refit_key, std::nullopt);
  }
  if (!deployed_key.has_value()) deployed.reset();
  state.model_name.clear();
  state.pending_segment = storage::SegmentView();
  if (state.usage.empty()) return Status::OK();
  NM_ASSIGN_OR_RETURN(VehicleCategory category, CategoryOf(id));

  if (category == VehicleCategory::kOld) {
    // Select the best algorithm under the 70/30 protocol, then refit it
    // with its tuned hyper-parameters (none without tuning) on the
    // complete history for deployment. The vehicle's binning cache
    // (created by TrainVehicles when a candidate is a tree learner; absent
    // otherwise or when training is entered another way) makes every
    // grid-search candidate and the refit bin each training matrix once.
    // With the fit memo, candidates and a refit whose labeled data did not
    // change since the last training are reused instead of refitted.
    const bool memo = FitMemoApplies();
    if (memo && state.fit_memo == nullptr) {
      state.fit_memo = std::make_unique<FitMemo>();
    }
    OldVehicleOptions selection_options = options_.selection;
    if (state.binning_cache != nullptr) {
      selection_options.backend.binning_cache = state.binning_cache;
    }
    std::string chosen = "BL";
    ml::ParamMap chosen_params;
    VehicleSelection vehicle_selection(
        state.usage, options_.maintenance_interval_s, selection_options,
        memo ? &state.fit_memo->selection : nullptr);
    Result<ModelSelectionResult> selection = [&] {
      telemetry::ScopedTimer selection_timer(
          "scheduler.train.selection.seconds");
      return vehicle_selection.SelectBest(options_.algorithms);
    }();
    telemetry::Count("scheduler.selection.memo_hits",
                     vehicle_selection.memo_hits());
    if (selection.ok()) {
      const ModelSelectionResult& result = selection.ValueOrDie();
      chosen = result.evaluations[result.best_index].algorithm;
      chosen_params = result.evaluations[result.best_index].best_params;
    } else {
      NM_LOG(Warning) << id << ": model selection failed ("
                      << selection.status().ToString()
                      << "); falling back to BL";
    }
    telemetry::Count("scheduler.selection.winner." + chosen);

    if (chosen == "BL") {
      state.model = MakeBaseline(state.usage);
      if (state.model != nullptr) state.model_name = "BL";
      return Status::OK();
    }
    RefitKey key{.full_cycles = state.cycles.completed_cycles,
                 .algorithm = chosen,
                 .params = chosen_params};
    if (deployed != nullptr && deployed_key == key) {
      telemetry::Count("scheduler.refit.memo_hits");
      state.model = std::move(deployed);
    } else {
      // The selection already derived the full history; refit on it.
      const RefitRecipe recipe = RefitDatasetRecipe();
      NM_ASSIGN_OR_RETURN(
          ml::Dataset full_data,
          BuildResampledDataset(*vehicle_selection.series(), recipe.dataset,
                                recipe.resampling));
      NM_ASSIGN_OR_RETURN(std::unique_ptr<ml::Regressor> model,
                          ml::MakeRegressor(chosen, chosen_params,
                                            selection_options.backend));
      NM_RETURN_NOT_OK(model->Fit(full_data).WithContext(id));
      state.model = std::move(model);
    }
    state.model_name = chosen;
    if (memo) state.fit_memo->refit_key = std::move(key);
    return Status::OK();
  }

  if (category == VehicleCategory::kSemiNew) {
    // Prefer Model_Sim; fall back to Model_Uni, then BL.
    Result<std::vector<double>> first_half = FirstHalfCycleUsage(
        state.usage, options_.maintenance_interval_s);
    if (first_half.ok() && !corpus.empty()) {
      Result<SimilarityModel> sim = TrainSimilarityModel(
          options_.unified_algorithm, first_half.ValueOrDie(), corpus,
          options_.cold_start);
      if (sim.ok()) {
        SimilarityModel value = std::move(sim).ValueOrDie();
        state.model = std::move(value.model);
        state.model_name =
            options_.unified_algorithm + "_Sim(" + value.match.id + ")";
        return Status::OK();
      }
    }
    if (std::shared_ptr<ml::Regressor> uni = wait_for_unified()) {
      state.model = std::move(uni);
      state.model_name = options_.unified_algorithm + "_Uni";
      return Status::OK();
    }
    Result<std::unique_ptr<ml::Regressor>> bl = MakeSemiNewBaseline(
        state.usage, options_.maintenance_interval_s, options_.cold_start);
    if (bl.ok()) {
      state.model = std::move(bl).ValueOrDie();
      state.model_name = "BL_semi";
    }
    return Status::OK();
  }

  // New vehicle: only the unified model applies (Section 4.4.2).
  if (std::shared_ptr<ml::Regressor> uni = wait_for_unified()) {
    state.model = std::move(uni);
    state.model_name = options_.unified_algorithm + "_Uni";
  }
  return Status::OK();
}

FleetScheduler::RefitRecipe FleetScheduler::RefitDatasetRecipe() const {
  RefitRecipe recipe;
  recipe.dataset.window = options_.window;
  recipe.dataset.normalize_features = options_.selection.normalize_features;
  if (options_.selection.train_on_last29_only) {
    recipe.dataset.target_filter = DaySet::Last29();
  }
  recipe.resampling.num_shifts = options_.selection.resampling_shifts;
  // The selection's training data draws from seed ^ 0x5151; the refit
  // from the seed itself.
  recipe.resampling.seed = options_.selection.seed;
  return recipe;
}

bool FleetScheduler::FitMemoApplies() const {
  return RefitDatasetRecipe().resampling.num_shifts == 0 &&
         options_.selection.context == nullptr;
}

std::shared_ptr<ml::Regressor> FleetScheduler::MakeBaseline(
    const data::DailySeries& usage) const {
  Result<double> avg = AverageUtilization(usage);
  if (!avg.ok()) return nullptr;
  const double l_scale = options_.selection.normalize_features
                             ? 1.0 / options_.maintenance_interval_s
                             : 1.0;
  return std::make_shared<BaselinePredictor>(avg.ValueOrDie(), l_scale);
}

Status FleetScheduler::TrainVehicles(const std::vector<std::string>& ids) {
  // Also validates the options.
  NM_RETURN_NOT_OK(RefreshCorpus().status());
  // Resolve every id up front: an unknown or duplicated id must fail the
  // whole call, not quarantine mid-run (duplicates would race on the same
  // VehicleState across workers).
  std::vector<std::pair<const std::string*, VehicleState*>> work;
  work.reserve(ids.size());
  // Claim order, as positions in `work`: the Model_Uni fit (when the
  // current one is invalid) first, then the vehicles that never read it in
  // id order, then the semi-new and new vehicles in id order. ParallelFor
  // hands out tasks in this order and a lane runs the task it claims at
  // once, so the fit is running before any cold-start task can block on it
  // (the latch cannot hang), and by the time one needs the model the fit
  // has overlapped every old vehicle.
  constexpr size_t kUnifiedTask = static_cast<size_t>(-1);
  std::vector<size_t> order;
  std::vector<size_t> cold_start;
  if (!unified_fitted_) order.push_back(kUnifiedTask);
  // Only the tree learners read a per-vehicle binning cache.
  const bool per_vehicle_caches =
      options_.tree_core == ml::TreeCore::kBinned &&
      std::any_of(options_.algorithms.begin(), options_.algorithms.end(),
                  ml::IsTreeLearner);
  std::set<std::string_view> seen;
  for (const std::string& id : ids) {
    auto it = vehicles_.find(id);
    if (it == vehicles_.end()) {
      return Status::NotFound("vehicle '" + id + "' is not registered");
    }
    if (!seen.insert(id).second) {
      return Status::InvalidArgument("duplicate vehicle id '" + id +
                                     "' in TrainVehicles");
    }
    // Pre-create each vehicle's binning cache here, in the serial pass:
    // the training fan-out below only ever reads it.
    if (per_vehicle_caches && it->second.binning_cache == nullptr) {
      it->second.binning_cache = std::make_shared<ml::BinningCache>();
    }
    // Only semi-new and new vehicles with data read Model_Uni.
    const bool reads_unified =
        !it->second.usage.empty() &&
        Categorize(it->second.cycles) != VehicleCategory::kOld;
    (reads_unified ? cold_start : order).push_back(work.size());
    work.emplace_back(&it->first, &it->second);
  }
  order.insert(order.end(), cold_start.begin(), cold_start.end());

  UnifiedLatch unified;
  if (unified_fitted_) unified.Release(unified_);
  const uint64_t caller_ordinal = failpoints::CurrentOrdinal();

  // Each vehicle's training touches only its own state (corpus_ and options
  // are read-only here; Model_Uni reaches its readers only through the
  // latch), and no cross-vehicle reduction exists, so results match the
  // serial loop exactly. Failures, quarantines and failpoint ordinals all
  // key on the vehicle's position in `ids`, never on the claim order or on
  // thread scheduling, so the report follows the id order and strict mode
  // returns the lowest position's failure.
  std::vector<Status> failures(work.size());
  std::vector<std::optional<VehicleDegradation>> quarantined(work.size());
  train_degradation_.vehicles.clear();
  NM_RETURN_NOT_OK(ParallelFor(
      0, order.size(), /*grain=*/1,
      [&](size_t chunk_begin, size_t chunk_end) -> Status {
        for (size_t task = chunk_begin; task < chunk_end; ++task) {
          if (order[task] == kUnifiedTask) {
            // In the caller's ordinal context (none in TrainAll, the
            // shard's in a daemon refresh), never a vehicle's: whichever
            // lane runs the fit, an nth-selecting "ml.fit" spec selects
            // the same hit as a fit on the calling thread would.
            failpoints::ScopedOrdinal ordinal(caller_ordinal);
            UnifiedLatch::ReleaseOnExit release(unified);
            release.model = TrainUnifiedFromCorpus(corpus_);
            continue;
          }
          const size_t v = order[task];
          const std::string& id = *work[v].first;
          VehicleState& state = *work[v].second;
          // The ordinal makes nth-selecting failpoint specs
          // ("scheduler.train_vehicle:3") target the vehicle's position in
          // `ids`, independent of thread scheduling.
          failpoints::ScopedOrdinal ordinal(static_cast<uint64_t>(v) + 1);
          const Status status = [&]() -> Status {
            NEXTMAINT_FAILPOINT("scheduler.train_vehicle");
            return TrainOneVehicle(id, state, corpus_, unified);
          }();
          if (status.ok()) continue;
          if (options_.strict) {
            failures[v] = status.WithContext(id);
            continue;
          }
          // Quarantine the vehicle: drop whatever partial model state the
          // failed training left behind and serve it with the untrained BL
          // baseline so the fleet keeps a forecast for it.
          state.model = MakeBaseline(state.usage);
          state.model_name = state.model != nullptr ? "BL_fallback" : "";
          state.pending_segment = storage::SegmentView();
          DropRefitKey(state);
          VehicleDegradation degradation;
          degradation.vehicle_id = id;
          degradation.stage = "train";
          degradation.error = status;
          degradation.fallback = state.model != nullptr;
          quarantined[v] = std::move(degradation);
        }
        return Status::OK();
      },
      options_.num_threads));
  if (!unified_fitted_) {
    unified_ = unified.Wait();
    unified_fitted_ = true;
  }
  for (Status& failure : failures) {
    if (!failure.ok()) return std::move(failure);
  }
  for (std::optional<VehicleDegradation>& slot : quarantined) {
    if (!slot.has_value()) continue;
    if (slot->fallback) telemetry::Count("scheduler.train.fallback_bl");
    NM_LOG(Warning) << slot->vehicle_id << ": training degraded ("
                    << slot->error.ToString() << "); "
                    << (slot->fallback ? "serving BL fallback"
                                       : "left unmodeled");
    train_degradation_.vehicles.push_back(*std::move(slot));
  }
  telemetry::SetGauge(
      "scheduler.degraded_vehicles",
      static_cast<double>(train_degradation_.vehicles.size()));
  return Status::OK();
}

Result<bool> FleetScheduler::HasTrainedModel(const std::string& id) const {
  NM_ASSIGN_OR_RETURN(const VehicleState* state, FindVehicle(id));
  // A lazily loaded segment counts: the model exists on disk and
  // materializes on first use.
  return state->model != nullptr || state->pending_segment.valid();
}

Result<MaintenanceForecast> FleetScheduler::Forecast(
    const std::string& id) const {
  NEXTMAINT_FAILPOINT("scheduler.forecast_vehicle");
  telemetry::ScopedTimer forecast_timer("scheduler.forecast.vehicle.seconds");
  NM_ASSIGN_OR_RETURN(const VehicleState* state, FindVehicle(id));
  NM_RETURN_NOT_OK(MaterializeModel(id, *state));
  if (state->model == nullptr) {
    return Status::FailedPrecondition(
        "vehicle '" + id + "' has no trained model (run TrainAll; new "
        "vehicles need at least one old vehicle in the fleet)");
  }
  const size_t window = static_cast<size_t>(options_.window);
  if (state->usage.size() < window + 1) {
    return Status::FailedPrecondition(
        "vehicle '" + id + "' has " + std::to_string(state->usage.size()) +
        " days of data; a forecast needs at least W+1 = " +
        std::to_string(window + 1) + " (feature window W plus one)");
  }
  // Also rejects invalid options, a non-positive or non-finite T_v included.
  NM_ASSIGN_OR_RETURN(const VehicleCategory category, CategoryOf(id));
  // Forecast for "today", the day after the last observation: L(today)
  // comes from the vehicle's cycle state and yesterday is U(t-1).
  const size_t today = state->usage.size();
  const double usage_left = state->cycles.UsageLeft();
  DatasetOptions feature_options;
  feature_options.window = options_.window;
  feature_options.normalize_features =
      options_.selection.normalize_features;
  std::vector<double> row(FeatureCount(feature_options));
  NM_RETURN_NOT_OK(AssembleFeatureRow(usage_left, state->usage, today,
                                      options_.maintenance_interval_s,
                                      feature_options, row));
  NM_ASSIGN_OR_RETURN(
      double days_left,
      state->model->Predict(std::span<const double>(row.data(), row.size())));
  days_left = std::max(0.0, days_left);

  MaintenanceForecast forecast;
  forecast.vehicle_id = id;
  forecast.category = category;
  forecast.model_name = state->model_name;
  forecast.days_left = days_left;
  forecast.usage_seconds_left = usage_left;
  const Date last_day = state->usage.end_date();
  forecast.predicted_date =
      last_day.AddDays(static_cast<int64_t>(std::llround(days_left)));
  return forecast;
}

Status FleetScheduler::ForecastVehicles(
    const std::vector<std::string>& ids,
    std::vector<ForecastOutcome>& outcomes) const {
  // One task per position; results land in position-ordered slots, so the
  // outcomes (and the log below) never depend on the completion order.
  outcomes.assign(ids.size(), ForecastOutcome());
  const Status status = ParallelFor(
      0, ids.size(), /*grain=*/1,
      [&](size_t chunk_begin, size_t chunk_end) -> Status {
        for (size_t v = chunk_begin; v < chunk_end; ++v) {
          const std::string& id = ids[v];
          failpoints::ScopedOrdinal ordinal(static_cast<uint64_t>(v) + 1);
          NM_ASSIGN_OR_RETURN(const bool has_model, HasTrainedModel(id));
          if (!has_model) continue;
          Result<MaintenanceForecast> forecast = Forecast(id);
          if (forecast.ok()) {
            outcomes[v].forecast = std::move(forecast).ValueOrDie();
            continue;
          }
          if (options_.strict) return forecast.status().WithContext(id);
          // Quarantine the vehicle and serve it with the untrained BL
          // baseline (needs no model or feature window); only when even
          // that is impossible is the vehicle left without a forecast.
          VehicleDegradation degradation;
          degradation.vehicle_id = id;
          degradation.stage = "forecast";
          degradation.error = forecast.status();
          Result<MaintenanceForecast> fallback = FallbackForecast(id);
          if (fallback.ok()) {
            degradation.fallback = true;
            outcomes[v].forecast = std::move(fallback).ValueOrDie();
          }
          outcomes[v].degradation = std::move(degradation);
        }
        return Status::OK();
      },
      options_.num_threads);
  for (const ForecastOutcome& outcome : outcomes) {
    if (!outcome.degradation.has_value()) continue;
    const VehicleDegradation& degradation = *outcome.degradation;
    NM_LOG(Warning) << degradation.vehicle_id << ": forecast degraded ("
                    << degradation.error.ToString() << "); "
                    << (degradation.fallback ? "serving BL fallback"
                                             : "skipped");
  }
  return status;
}

Result<std::vector<MaintenanceForecast>> FleetScheduler::FleetForecast()
    const {
  NM_RETURN_NOT_OK(ValidateOptions());
  if (vehicles_.empty()) {
    // A forecast over nothing is a caller bug, not an empty answer; see the
    // error-code contract in scheduler.h.
    return Status::FailedPrecondition(
        "fleet forecast on an empty fleet: no vehicles registered");
  }
  telemetry::TraceSpan forecast_span("scheduler.forecast");
  // Only trained vehicles take part, so a vehicle's failpoint ordinal is
  // its position among them in id order.
  std::vector<std::string> ids;
  for (const auto& [id, state] : vehicles_) {
    if (state.model != nullptr || state.pending_segment.valid()) {
      ids.push_back(id);
    }
  }
  std::vector<ForecastOutcome> outcomes;
  const Status status = ForecastVehicles(ids, outcomes);
  forecast_degradation_.vehicles.clear();
  std::vector<MaintenanceForecast> forecasts;
  forecasts.reserve(outcomes.size());
  for (ForecastOutcome& outcome : outcomes) {
    if (outcome.degradation.has_value()) {
      telemetry::Count(outcome.degradation->fallback
                           ? "scheduler.fallback_forecasts"
                           : "scheduler.forecast.skipped");
      forecast_degradation_.vehicles.push_back(*std::move(outcome.degradation));
    } else if (outcome.forecast.has_value()) {
      telemetry::Count("scheduler.forecast.count");
    }
    if (outcome.forecast.has_value()) {
      forecasts.push_back(*std::move(outcome.forecast));
    }
  }
  NM_RETURN_NOT_OK(status);
  std::vector<MaintenanceForecast> sorted;
  sorted.reserve(forecasts.size());
  for (const uint32_t f : SortByPredictedDate(forecasts)) {
    sorted.push_back(std::move(forecasts[f]));
  }
  return sorted;
}

Result<MaintenanceForecast> FleetScheduler::FallbackForecast(
    const std::string& id) const {
  NM_ASSIGN_OR_RETURN(const VehicleState* state, FindVehicle(id));
  if (state->usage.empty()) {
    return Status::FailedPrecondition(
        "vehicle '" + id + "' has no usage data for a BL fallback forecast");
  }
  NM_ASSIGN_OR_RETURN(const double avg, AverageUtilization(state->usage));
  // Also rejects invalid options, a non-positive or non-finite T_v included.
  NM_ASSIGN_OR_RETURN(const VehicleCategory category, CategoryOf(id));
  // D_BL = L(today) / AVG, with L for the day after the last observation
  // read from the cycle state. It needs nothing else — in particular no
  // trained model and no feature window, and no failpoint sits on this
  // path, so a quarantined vehicle always reaches it.
  const double usage_left = state->cycles.UsageLeft();
  const double days_left = std::max(0.0, usage_left / avg);

  MaintenanceForecast forecast;
  forecast.vehicle_id = id;
  forecast.category = category;
  forecast.model_name = "BL_fallback";
  forecast.days_left = days_left;
  forecast.usage_seconds_left = usage_left;
  forecast.predicted_date = state->usage.end_date().AddDays(
      static_cast<int64_t>(std::llround(days_left)));
  return forecast;
}

DegradationReport FleetScheduler::LastDegradationReport() const {
  DegradationReport merged = train_degradation_;
  merged.vehicles.insert(merged.vehicles.end(),
                         forecast_degradation_.vehicles.begin(),
                         forecast_degradation_.vehicles.end());
  return merged;
}

std::shared_ptr<const ml::BinningCache> FleetScheduler::VehicleBinningCache(
    const std::string& id) const {
  auto it = vehicles_.find(id);
  return it == vehicles_.end() ? nullptr : it->second.binning_cache;
}

std::shared_ptr<const ml::BinningCache> FleetScheduler::UnifiedBinningCache()
    const {
  return unified_binning_cache_;
}


Result<DriftReport> FleetScheduler::CheckDrift(
    const std::string& id, double reference_fraction,
    const DriftOptions& options) const {
  NM_ASSIGN_OR_RETURN(const VehicleState* state, FindVehicle(id));
  if (reference_fraction <= 0.0 || reference_fraction >= 1.0) {
    return Status::InvalidArgument("reference_fraction must be in (0, 1)");
  }
  const size_t train_days = static_cast<size_t>(
      reference_fraction * static_cast<double>(state->usage.size()));
  Result<DriftReport> report =
      DetectUsageDrift(state->usage, train_days, options);
  if (report.ok()) {
    telemetry::Count("scheduler.drift.checks");
    if (report.ValueOrDie().drift_detected) {
      telemetry::Count("scheduler.drift.alarms");
    }
  }
  return report;
}

Status FleetScheduler::MaterializeModel(const std::string& id,
                                        const VehicleState& state) const {
  if (state.model != nullptr || !state.pending_segment.valid()) {
    return Status::OK();
  }
  // First touch of this vehicle's checkpoint segment: the CRC check and
  // the parse both happen here, so corruption confined to one segment
  // degrades only that vehicle.
  Result<std::string_view> payload = state.pending_segment.Payload();
  if (!payload.ok()) return payload.status().WithContext(id);
  ml::ModelReader reader(payload.ValueOrDie());
  Result<std::unique_ptr<ml::Regressor>> model = LoadAnyModel(reader);
  if (!model.ok()) return model.status().WithContext(id);
  state.model = std::move(model).ValueOrDie();
  state.pending_segment = storage::SegmentView();
  telemetry::Count("scheduler.checkpoint.lazy_materializations");
  return Status::OK();
}

Result<storage::VehicleRecord> FleetScheduler::CheckpointRecord(
    const std::string& id, const VehicleState& state) const {
  storage::VehicleRecord record;
  record.vehicle_id = id;
  record.model_name = state.model_name;
  if (state.model != nullptr) {
    // Unified models are shared across vehicles; each vehicle writes its
    // own copy so checkpoints stay self-contained.
    ml::ModelWriter writer(record.payload);
    NM_RETURN_NOT_OK(state.model->Save(writer).WithContext(id));
  } else {
    // Never-materialized lazy segment: copy the bytes verbatim — no parse,
    // and re-saving a lazily loaded fleet stays byte-identical.
    Result<std::string_view> payload = state.pending_segment.Payload();
    if (!payload.ok()) return payload.status().WithContext(id);
    record.payload = std::string(payload.ValueOrDie());
  }
  return record;
}

Status FleetScheduler::SaveCheckpoint(const std::string& path) const {
  NEXTMAINT_FAILPOINT("scheduler.save_models");
  std::vector<decltype(vehicles_)::const_pointer> saved;
  for (const auto& entry : vehicles_) {
    const VehicleState& state = entry.second;
    if (state.model != nullptr || state.pending_segment.valid()) {
      saved.push_back(&entry);
    }
  }
  // Serialize in parallel into index-ordered slots: the records stay in
  // map order, so the file's bytes do not depend on the thread count.
  std::vector<storage::VehicleRecord> records(saved.size());
  NM_RETURN_NOT_OK(ParallelFor(
      0, saved.size(), /*grain=*/1,
      [&](size_t chunk_begin, size_t chunk_end) -> Status {
        for (size_t v = chunk_begin; v < chunk_end; ++v) {
          NM_ASSIGN_OR_RETURN(records[v],
                              CheckpointRecord(saved[v]->first,
                                               saved[v]->second));
        }
        return Status::OK();
      },
      options_.num_threads));
  NM_ASSIGN_OR_RETURN(std::shared_ptr<storage::CheckpointStore> store,
                      storage::CheckpointStore::Open(path));
  Result<uint64_t> generation = store->SaveAll(std::move(records));
  if (!generation.ok()) return generation.status().WithContext(path);
  telemetry::Count("scheduler.checkpoint.save_all");
  return Status::OK();
}

Status FleetScheduler::SaveVehicleCheckpoint(const std::string& path,
                                             const std::string& id) const {
  NM_ASSIGN_OR_RETURN(const VehicleState* state, FindVehicle(id));
  if (state->model == nullptr && !state->pending_segment.valid()) {
    return Status::FailedPrecondition(
        "vehicle '" + id + "' has no trained model to checkpoint");
  }
  NM_ASSIGN_OR_RETURN(storage::CheckpointFormat format,
                      storage::SniffCheckpointFormat(path));
  if (format != storage::CheckpointFormat::kSegmented) {
    // Nothing segmented to update in place (first save, or a file that is
    // not a checkpoint): write a full checkpoint.
    return SaveCheckpoint(path);
  }
  NEXTMAINT_FAILPOINT("scheduler.save_models");
  NM_ASSIGN_OR_RETURN(storage::VehicleRecord record,
                      CheckpointRecord(id, *state));
  NM_ASSIGN_OR_RETURN(std::shared_ptr<storage::CheckpointStore> store,
                      storage::CheckpointStore::Open(path));
  NM_RETURN_NOT_OK(store->SaveVehicle(std::move(record)).WithContext(path));
  Result<uint64_t> generation = store->Commit();
  if (!generation.ok()) return generation.status().WithContext(path);
  telemetry::Count("scheduler.checkpoint.save_vehicle");
  return Status::OK();
}

Status FleetScheduler::LoadCheckpoint(const std::string& path) {
  NM_ASSIGN_OR_RETURN(storage::CheckpointFormat format,
                      storage::SniffCheckpointFormat(path));
  if (format == storage::CheckpointFormat::kMissing) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  // Segmented (kUnrecognized falls through too: the store reports the
  // garbage superblock as DataLoss with the detail, committing nothing).
  NEXTMAINT_FAILPOINT("scheduler.load_models");
  NM_ASSIGN_OR_RETURN(std::shared_ptr<storage::CheckpointStore> store,
                      storage::CheckpointStore::Open(path));
  Result<storage::CheckpointManifest> loaded = store->Load();
  if (!loaded.ok()) return loaded.status();
  const storage::CheckpointManifest& manifest = loaded.ValueOrDie();
  // Validate before mutating anything: every referenced vehicle must be
  // registered, so a rejected checkpoint commits nothing.
  for (const storage::ManifestEntry& entry : manifest.vehicles) {
    if (vehicles_.count(entry.vehicle_id) == 0) {
      return Status::NotFound("model for unregistered vehicle '" +
                              entry.vehicle_id + "'");
    }
  }
  for (const storage::ManifestEntry& entry : manifest.vehicles) {
    VehicleState& state = vehicles_.at(entry.vehicle_id);
    // Lazy: stage the segment view; the model parses on first touch
    // (MaterializeModel). The name is header-resident, so it is available
    // immediately for reporting.
    state.model.reset();
    state.model_name = entry.model_name;
    state.pending_segment = entry.segment;
    DropRefitKey(state);
  }
  telemetry::Count("scheduler.checkpoint.lazy_loads");
  telemetry::SetGauge("scheduler.checkpoint.pending_segments",
                      static_cast<double>(manifest.vehicles.size()));
  return Status::OK();
}

}  // namespace core
}  // namespace nextmaint
