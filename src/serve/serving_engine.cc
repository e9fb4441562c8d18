#include "serve/serving_engine.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/failpoints.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/parallel.h"
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

void ServingEngine::AdvanceCachedState(CacheEntry& entry, double seconds,
                                       double maintenance_interval_s) {
  // One-day mirror of core::DeriveSeries' loop body (series.cc): same
  // addition, same >= comparison, same single-subtraction carry, so the
  // cached cycle state is bit-identical to a from-scratch derivation over
  // the full history.
  entry.cycle_usage += seconds;
  if (entry.cycle_usage >= maintenance_interval_s) {
    ++entry.completed_cycles;
    entry.cycle_usage -= maintenance_interval_s;  // excess carries over
    entry.cycle_start = entry.days + 1;
  }
  ++entry.days;
  entry.total_usage += seconds;
}

void ServingEngine::RecomputeCachedState(CacheEntry& entry,
                                         const data::DailySeries& series,
                                         double maintenance_interval_s) {
  entry.days = 0;
  entry.cycle_start = 0;
  entry.completed_cycles = 0;
  entry.cycle_usage = 0.0;
  entry.total_usage = 0.0;
  for (const double seconds : series.values()) {
    AdvanceCachedState(entry, seconds, maintenance_interval_s);
  }
}

Status ServingEngine::Append(const std::string& id, Date day,
                             double seconds) {
  NEXTMAINT_FAILPOINT("serve.append");
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return Status::NotFound("vehicle '" + id + "' is not registered");
  }
  // The scheduler validates (in-order day, utilization range) and stores;
  // the cache advances only after it accepts, so a rejected append leaves
  // both sides untouched and the vehicle's dirtiness unchanged.
  NM_RETURN_NOT_OK(scheduler_.IngestUsage(id, day, seconds));
  AdvanceCachedState(it->second, seconds, options_.maintenance_interval_s);
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
  RecomputeCachedState(it->second, series, options_.maintenance_interval_s);
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

  // Phase 1 (serial, O(dirty)): refresh each dirty vehicle's category and
  // first-cycle corpus contribution. A contribution is append-invariant
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
    const bool has = value.has_value();
    if (has != entry.has_contribution ||
        ((has || entry.has_contribution) && entry.contribution_stale)) {
      corpus_changed = true;
    }
    entry.has_contribution = has;
    entry.contribution = std::move(value);
    entry.contribution_stale = false;
    Result<core::VehicleCategory> category = scheduler_.CategoryOf(id);
    if (category.ok()) entry.category = category.ValueOrDie();
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
      if (entry.category != core::VehicleCategory::kOld) MarkDirty(entry);
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
        if (!e.warm_capable || e.category != core::VehicleCategory::kOld) {
          return false;
        }
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

  // Phase 4: re-forecast the dirty vehicles, mirroring FleetForecast:
  // unmodeled vehicles are excluded, failures quarantine behind the BL
  // fallback (strict aborts), and results land in index-ordered slots.
  std::vector<std::optional<core::MaintenanceForecast>> slots(
      dirty_ids.size());
  std::vector<std::optional<core::VehicleDegradation>> quarantined(
      dirty_ids.size());
  NM_RETURN_NOT_OK(ParallelFor(
      0, dirty_ids.size(), /*grain=*/1,
      [&](size_t chunk_begin, size_t chunk_end) -> Status {
        for (size_t v = chunk_begin; v < chunk_end; ++v) {
          const std::string& id = dirty_ids[v];
          failpoints::ScopedOrdinal ordinal(static_cast<uint64_t>(v) + 1);
          NM_ASSIGN_OR_RETURN(const bool has_model,
                              scheduler_.HasTrainedModel(id));
          if (!has_model) continue;  // FleetForecast excludes these too
          Result<core::MaintenanceForecast> forecast = scheduler_.Forecast(id);
          if (forecast.ok()) {
            telemetry::Count("serve.refresh.forecasts");
            slots[v] = std::move(forecast).ValueOrDie();
            continue;
          }
          if (options_.strict) return forecast.status().WithContext(id);
          core::VehicleDegradation degradation;
          degradation.vehicle_id = id;
          degradation.stage = "forecast";
          degradation.error = forecast.status();
          Result<core::MaintenanceForecast> fallback =
              scheduler_.FallbackForecast(id);
          if (fallback.ok()) {
            degradation.fallback = true;
            telemetry::Count("serve.refresh.fallback_forecasts");
            slots[v] = std::move(fallback).ValueOrDie();
          } else {
            telemetry::Count("serve.refresh.forecasts_skipped");
          }
          quarantined[v] = std::move(degradation);
        }
        return Status::OK();
      },
      options_.num_threads));

  // Phase 5 (serial): commit the refreshed vehicles and publish.
  ++epoch_;
  for (size_t v = 0; v < dirty_ids.size(); ++v) {
    CacheEntry& entry = entries_.at(dirty_ids[v]);
    entry.forecast = std::move(slots[v]);
    entry.forecast_degradation = std::move(quarantined[v]);
    if (entry.forecast_degradation.has_value()) {
      const core::VehicleDegradation& degradation =
          *entry.forecast_degradation;
      NM_LOG(Warning) << degradation.vehicle_id << ": forecast degraded ("
                      << degradation.error.ToString() << "); "
                      << (degradation.fallback ? "serving BL fallback"
                                               : "skipped");
    }
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
  VehicleServeState state;
  state.days_observed = entry.days;
  state.total_usage_s = entry.total_usage;
  // The same expressions DeriveSeries evaluates for the "virtual today"
  // (index `days`, the day after the last observation) the forecast path
  // appends: c = today - cycle_start, l = T - cycle_usage.
  state.days_since_maintenance =
      static_cast<double>(entry.days - entry.cycle_start);
  state.usage_seconds_left =
      options_.maintenance_interval_s - entry.cycle_usage;
  state.completed_cycles = entry.completed_cycles;
  state.dirty = entry.dirty;
  state.has_forecast = entry.forecast.has_value();
  state.last_refresh_epoch = entry.last_refresh_epoch;
  return state;
}

size_t ServingEngine::DirtyCount() const { return dirty_count_; }

}  // namespace serve
}  // namespace nextmaint
