#include "serve/serving_engine.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/failpoints.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/telemetry.h"

namespace nextmaint {
namespace serve {

ServingEngine::ServingEngine(core::SchedulerOptions options)
    : options_(options), scheduler_(std::move(options)) {
  snapshot_ = std::make_shared<FleetSnapshot>();
}

Status ServingEngine::Register(const std::string& id, Date first_day) {
  NM_RETURN_NOT_OK(scheduler_.RegisterVehicle(id, first_day));
  entries_.emplace(id, CacheEntry{});
  ++dirty_count_;  // new entries start dirty
  return Status::OK();
}

void ServingEngine::MarkDirty(CacheEntry& entry) {
  if (!entry.dirty) {
    entry.dirty = true;
    ++dirty_count_;
  }
}

Status ServingEngine::Append(const std::string& id, Date day,
                             double seconds) {
  NEXTMAINT_FAILPOINT("serve.append");
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return Status::NotFound("vehicle '" + id + "' is not registered");
  }
  // The scheduler validates (in-order day, utilization range), stores and
  // advances the vehicle's cycle state; a rejected append changes nothing,
  // the vehicle's dirtiness included.
  NM_RETURN_NOT_OK(scheduler_.IngestUsage(id, day, seconds));
  MarkDirty(it->second);
  telemetry::Count("serve.append.days");
  return Status::OK();
}

Status ServingEngine::LoadHistory(const std::string& id,
                                  const data::DailySeries& series) {
  NEXTMAINT_FAILPOINT("serve.append");
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return Status::NotFound("vehicle '" + id + "' is not registered");
  }
  NM_RETURN_NOT_OK(scheduler_.IngestSeries(id, series));
  MarkDirty(it->second);
  // The cached corpus contribution may describe the replaced history; the
  // next refresh must re-extract and treat it as changed. A replaced
  // history also voids warm-start eligibility — the cached model was
  // trained on data that no longer exists.
  it->second.contribution_stale = true;
  it->second.warm_capable = false;
  telemetry::Count("serve.load_history");
  return Status::OK();
}

Result<RefreshStats> ServingEngine::RefreshForecasts() {
  NEXTMAINT_FAILPOINT("serve.refresh");
  if (options_.num_threads < 0) {
    return Status::InvalidArgument(
        "SchedulerOptions::num_threads must be >= 0 (0 = all cores), got " +
        std::to_string(options_.num_threads));
  }
  if (entries_.empty()) {
    return Status::FailedPrecondition(
        "refresh on an empty fleet: no vehicles registered");
  }
  telemetry::TraceSpan refresh_span("serve.refresh");
  telemetry::ScopedTimer refresh_timer("serve.refresh.seconds");

  RefreshStats stats;
  for (const auto& [id, entry] : entries_) {
    if (entry.dirty) ++stats.dirty_on_entry;
  }
  telemetry::SetGauge("serve.dirty_vehicles",
                      static_cast<double>(stats.dirty_on_entry));

  // Phase 1 (serial, O(dirty)): refresh each dirty vehicle's first-cycle
  // corpus contribution. A contribution is append-invariant
  // once present, so the corpus changes only on a present/absent
  // transition or after a bulk history replacement.
  bool corpus_changed = epoch_ == 0;  // first refresh builds everything
  for (auto& [id, entry] : entries_) {
    if (!entry.dirty) continue;
    Result<std::optional<core::FirstCycleData>> contribution =
        scheduler_.CorpusContribution(id);
    std::optional<core::FirstCycleData> value;
    if (contribution.ok()) {
      value = std::move(contribution).ValueOrDie();
    } else if (options_.strict) {
      return contribution.status().WithContext(id);
    }
    // (Non-strict categorization errors contribute nothing, exactly like
    // TrainAll's corpus pass; the training phase quarantines the vehicle.)
    const bool had = entry.contribution.has_value();
    if (value.has_value() != had ||
        ((value.has_value() || had) && entry.contribution_stale)) {
      corpus_changed = true;
    }
    entry.contribution = std::move(value);
    entry.contribution_stale = false;
  }

  // Phase 2: rebuild the shared cold-start corpus when it changed, and
  // dirty every cold-start consumer — semi-new vehicles train Model_Sim
  // against the corpus, new vehicles serve Model_Uni, so a corpus change
  // invalidates them all (old vehicles consume neither and stay clean).
  // Model_Uni itself is refitted by phase 3's fan-out.
  if (corpus_changed) {
    stats.corpus_rebuilt = true;
    telemetry::Count("serve.refresh.corpus_rebuilds");
    cold_start_inputs_ = core::ColdStartInputs();
    for (const auto& [id, entry] : entries_) {
      if (entry.contribution.has_value()) {
        cold_start_inputs_.corpus.push_back(*entry.contribution);
      }
    }
    for (auto& [id, entry] : entries_) {
      // An uncategorizable vehicle counts as a cold-start consumer.
      if (scheduler_.CategoryOf(id).ValueOr(core::VehicleCategory::kNew) !=
          core::VehicleCategory::kOld) {
        MarkDirty(entry);
      }
    }
  }

  // Phase 2.5 (serial, opt-in): warm-start pass. Each dirty vehicle whose
  // cached ensemble model is resumable gets a WarmStartVehicle resume
  // instead of a cold retrain; everyone else falls through to phase 3.
  // The failpoint fires once per dirty vehicle (before the eligibility
  // check, so nth-selection is stable regardless of model winners); any
  // warm failure — injected or real — degrades to the cold retrain, even
  // in strict mode: the cold path IS the exact behavior, so escalating an
  // optimization failure into a fleet abort would serve no one.
  std::set<std::string> warm_ids;
  if (options_.warm_start) {
    uint64_t warm_ordinal = 0;
    for (auto& [id, entry] : entries_) {
      if (!entry.dirty) continue;
      failpoints::ScopedOrdinal ordinal(++warm_ordinal);
      const CacheEntry& e = entry;
      const std::string& vehicle_id = id;
      const Result<bool> warmed = [&]() -> Result<bool> {
        NEXTMAINT_FAILPOINT("serve.refresh.warm");
        // WarmStartVehicle itself declines vehicles that are not old.
        if (!e.warm_capable) return false;
        return scheduler_.WarmStartVehicle(vehicle_id,
                                           options_.warm_start_rounds);
      }();
      if (!warmed.ok()) {
        NM_LOG(Warning) << vehicle_id << ": warm-start degraded to cold "
                        << "retrain (" << warmed.status().ToString() << ")";
        telemetry::Count("serve.refresh.warm_fallbacks");
        continue;
      }
      if (warmed.ValueOrDie()) warm_ids.insert(vehicle_id);
    }
    stats.warm_started = warm_ids.size();
  }

  // Phase 3: retrain the dirty vehicles that were not warm-resumed against
  // the shared inputs (TrainVehicles fans out over the thread pool and
  // quarantines failures behind BL fallbacks, the same code path TrainAll
  // runs). After a corpus rebuild the same fan-out also refits Model_Uni
  // into cold_start_inputs_, even when no vehicle is left to retrain.
  std::vector<std::string> dirty_ids;
  std::vector<std::string> cold_ids;
  for (const auto& [id, entry] : entries_) {
    if (!entry.dirty) continue;
    dirty_ids.push_back(id);
    if (warm_ids.find(id) == warm_ids.end()) cold_ids.push_back(id);
  }
  NM_RETURN_NOT_OK(scheduler_.TrainVehicles(cold_ids, cold_start_inputs_));
  for (const std::string& id : dirty_ids) {
    entries_.at(id).train_degradation.reset();
  }
  for (const core::VehicleDegradation& degradation :
       scheduler_.LastDegradationReport().vehicles) {
    if (degradation.stage != "train") continue;
    auto it = entries_.find(degradation.vehicle_id);
    if (it != entries_.end()) it->second.train_degradation = degradation;
  }

  // Phase 4: re-forecast the dirty vehicles through FleetForecast's own
  // fan-out (unmodeled vehicles are skipped, failures quarantine behind the
  // BL fallback, strict aborts).
  std::vector<core::ForecastOutcome> outcomes;
  const Status forecasted = scheduler_.ForecastVehicles(dirty_ids, outcomes);
  for (const core::ForecastOutcome& outcome : outcomes) {
    if (outcome.degradation.has_value()) {
      telemetry::Count(outcome.degradation->fallback
                           ? "serve.refresh.fallback_forecasts"
                           : "serve.refresh.forecasts_skipped");
    } else if (outcome.forecast.has_value()) {
      telemetry::Count("serve.refresh.forecasts");
    }
  }
  NM_RETURN_NOT_OK(forecasted);

  // Phase 5 (serial): commit the refreshed vehicles and publish.
  ++epoch_;
  for (size_t v = 0; v < dirty_ids.size(); ++v) {
    CacheEntry& entry = entries_.at(dirty_ids[v]);
    entry.forecast = std::move(outcomes[v].forecast);
    entry.forecast_degradation = std::move(outcomes[v].degradation);
    // Warm-start eligibility for the NEXT refresh: this refresh left the
    // vehicle with a cleanly trained per-vehicle ensemble model (the
    // forecast's model name is the scheduler's model_name for the vehicle;
    // shared cold-start models report decorated names like "XGB_Uni").
    entry.warm_capable =
        entry.forecast.has_value() &&
        !entry.train_degradation.has_value() &&
        !entry.forecast_degradation.has_value() &&
        (entry.forecast->model_name == "RF" ||
         entry.forecast->model_name == "XGB");
    entry.dirty = false;
    entry.last_refresh_epoch = epoch_;
  }
  // dirty_ids held every dirty entry, and each just went clean.
  dirty_count_ -= dirty_ids.size();
  stats.refreshed = dirty_ids.size();
  stats.reused = entries_.size() - dirty_ids.size();
  stats.epoch = epoch_;
  last_stats_ = stats;
  PublishSnapshot();

  telemetry::Count("serve.refresh.count");
  telemetry::Count("serve.refresh.vehicles_refreshed", stats.refreshed);
  telemetry::Count("serve.refresh.vehicles_reused", stats.reused);
  telemetry::Count("serve.refresh.warm_refreshes", stats.warm_started);
  telemetry::SetGauge("serve.epoch", static_cast<double>(epoch_));
  telemetry::SetGauge("serve.dirty_vehicles", 0.0);
  return stats;
}

void ServingEngine::PublishSnapshot() {
  auto snapshot = std::make_shared<FleetSnapshot>();
  snapshot->epoch = epoch_;
  snapshot->vehicles = entries_.size();
  // entries_ is an ordered map, so this comes out sorted for the
  // binary-search in FleetSnapshot::IsRegistered.
  snapshot->vehicle_ids.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    snapshot->vehicle_ids.push_back(id);
  }
  // Forecasts assemble in vehicle-id order and sort with FleetForecast's
  // comparator, so the published order is exactly the batch order.
  for (const auto& [id, entry] : entries_) {
    if (entry.forecast.has_value()) {
      snapshot->forecasts.push_back(*entry.forecast);
    }
  }
  std::sort(snapshot->forecasts.begin(), snapshot->forecasts.end(),
            [](const core::MaintenanceForecast& a,
               const core::MaintenanceForecast& b) {
              return a.predicted_date < b.predicted_date;
            });
  for (size_t i = 0; i < snapshot->forecasts.size(); ++i) {
    snapshot->forecast_index.emplace(snapshot->forecasts[i].vehicle_id, i);
  }
  for (const auto& [id, entry] : entries_) {
    if (entry.train_degradation.has_value()) {
      snapshot->degradations.vehicles.push_back(*entry.train_degradation);
    }
  }
  for (const auto& [id, entry] : entries_) {
    if (entry.forecast_degradation.has_value()) {
      snapshot->degradations.vehicles.push_back(*entry.forecast_degradation);
    }
  }
  MutexLock lock(snapshot_mu_);
  snapshot_ = std::move(snapshot);
}

bool FleetSnapshot::IsRegistered(const std::string& id) const {
  return std::binary_search(vehicle_ids.begin(), vehicle_ids.end(), id);
}

const core::MaintenanceForecast* FleetSnapshot::FindForecast(
    const std::string& id) const {
  auto it = forecast_index.find(id);
  if (it == forecast_index.end()) return nullptr;
  return &forecasts[it->second];
}

std::shared_ptr<const FleetSnapshot> ServingEngine::Snapshot() const {
  telemetry::Count("serve.snapshot.reads");
  MutexLock lock(snapshot_mu_);
  return snapshot_;
}

std::vector<Result<core::MaintenanceForecast>> ServingEngine::GetForecasts(
    std::span<const std::string> ids) const {
  // ONE snapshot acquisition: every result below reflects the same epoch
  // no matter how many refreshes publish while we iterate.
  std::shared_ptr<const FleetSnapshot> snapshot = Snapshot();
  std::vector<Result<core::MaintenanceForecast>> results;
  results.reserve(ids.size());
  for (const std::string& id : ids) {
    if (!snapshot->IsRegistered(id)) {
      results.push_back(Status::NotFound(
          "vehicle '" + id + "' is not in the published snapshot (epoch " +
          std::to_string(snapshot->epoch) + ")"));
    } else if (const core::MaintenanceForecast* forecast =
                   snapshot->FindForecast(id)) {
      results.push_back(*forecast);
    } else {
      results.push_back(Status::FailedPrecondition(
          "vehicle '" + id + "' has no published forecast (epoch " +
          std::to_string(snapshot->epoch) + ")"));
    }
  }
  return results;
}

Result<VehicleServeState> ServingEngine::CachedState(
    const std::string& id) const {
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return Status::NotFound("vehicle '" + id + "' is not registered");
  }
  const CacheEntry& entry = it->second;
  NM_ASSIGN_OR_RETURN(const core::CycleAccumulator cycles,
                      scheduler_.CycleStateOf(id));
  VehicleServeState state;
  state.days_observed = cycles.days;
  state.total_usage_s = cycles.total_usage;
  state.days_since_maintenance = cycles.DaysSinceMaintenance();
  state.usage_seconds_left = cycles.UsageLeft();
  state.completed_cycles = cycles.completed_cycles;
  state.dirty = entry.dirty;
  state.has_forecast = entry.forecast.has_value();
  state.last_refresh_epoch = entry.last_refresh_epoch;
  return state;
}

size_t ServingEngine::DirtyCount() const { return dirty_count_; }

}  // namespace serve
}  // namespace nextmaint
