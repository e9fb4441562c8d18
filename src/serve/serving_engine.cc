#include "serve/serving_engine.h"

#include <algorithm>
#include <utility>

#include "common/failpoints.h"
#include "common/macros.h"
#include "common/telemetry.h"

namespace nextmaint {
namespace serve {

ServingEngine::ServingEngine(core::SchedulerOptions options)
    : scheduler_(std::move(options)) {
  snapshot_ = std::make_shared<FleetSnapshot>();
}

Status ServingEngine::Append(const std::string& id, Date day,
                             double seconds) {
  NEXTMAINT_FAILPOINT("serve.append");
  // The scheduler validates (in-order day, utilization range), stores,
  // advances the vehicle's cycle state and dirties it; a rejected append
  // changes nothing, the vehicle's dirtiness included.
  NM_RETURN_NOT_OK(scheduler_.IngestUsage(id, day, seconds));
  telemetry::Count("serve.append.days");
  return Status::OK();
}

Status ServingEngine::LoadHistory(const std::string& id,
                                  const data::DailySeries& series) {
  NEXTMAINT_FAILPOINT("serve.append");
  NM_RETURN_NOT_OK(scheduler_.IngestSeries(id, series));
  telemetry::Count("serve.load_history");
  return Status::OK();
}

Result<RefreshStats> ServingEngine::RefreshForecasts() {
  NEXTMAINT_FAILPOINT("serve.refresh");
  // The ids of the snapshot this refresh publishes: nothing registers
  // while the single writer is in here.
  std::vector<std::string> ids = scheduler_.VehicleIds();
  if (ids.empty()) {
    return Status::FailedPrecondition(
        "refresh on an empty fleet: no vehicles registered");
  }
  telemetry::TraceSpan refresh_span("serve.refresh");
  telemetry::ScopedTimer refresh_timer("serve.refresh.seconds");
  telemetry::SetGauge("serve.dirty_vehicles",
                      static_cast<double>(DirtyCount()));

  // Phase 1: bring the scheduler's cold-start corpus up to date (which
  // validates the options too); it re-extracts only the vehicles whose
  // first cycle closed or whose history was replaced. When the corpus
  // changed the scheduler dirties every cold-start consumer: semi-new
  // vehicles train Model_Sim against the corpus, new vehicles serve
  // Model_Uni, which phase 2's fan-out refits. Old vehicles stay clean.
  RefreshStats stats;
  const std::shared_ptr<const FleetSnapshot> previous = Published();
  NM_ASSIGN_OR_RETURN(const bool corpus_changed, scheduler_.RefreshCorpus());
  if (corpus_changed || previous->epoch == 0) {
    stats.corpus_rebuilt = true;
    telemetry::Count("serve.refresh.corpus_rebuilds");
  }
  const std::vector<std::string> dirty_ids = scheduler_.DirtyVehicleIds();

  // Phase 2: retrain every dirty vehicle against the scheduler's corpus
  // (TrainVehicles fans out over the thread pool, reuses each fit the memo
  // proves unchanged and quarantines failures behind BL fallbacks, the same
  // code path TrainAll runs). After a corpus change the same fan-out also
  // refits Model_Uni, even when no vehicle is dirty.
  NM_RETURN_NOT_OK(scheduler_.TrainVehicles(dirty_ids));
  // This call's train entries, in id order.
  std::vector<core::VehicleDegradation> train_degradations;
  for (core::VehicleDegradation& d :
       scheduler_.LastDegradationReport().vehicles) {
    if (d.stage == "train") train_degradations.push_back(std::move(d));
  }

  // Phase 3: re-forecast the dirty vehicles through FleetForecast's own
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

  // Phase 4 (serial): commit. One merge walk over the registered ids builds
  // the next snapshot: dirty vehicles take this refresh's outcomes, clean
  // ones copy their row from the previous snapshot (a vehicle only turns
  // clean at a commit, so the previous snapshot holds every clean one).
  auto next = std::make_shared<FleetSnapshot>();
  next->epoch = previous->epoch + 1;
  next->rows.resize(ids.size());
  // The forecasts in id order, each with the position of its row.
  std::vector<core::MaintenanceForecast> forecasts;
  std::vector<uint32_t> forecast_rows;
  forecasts.reserve(ids.size());
  forecast_rows.reserve(ids.size());
  size_t dirty = 0, train = 0, old = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    FleetSnapshot::Row& row = next->rows[i];
    const core::MaintenanceForecast* forecast = nullptr;
    if (dirty < dirty_ids.size() && dirty_ids[dirty] == ids[i]) {
      core::ForecastOutcome& outcome = outcomes[dirty++];
      row.last_refresh_epoch = next->epoch;
      if (outcome.forecast.has_value()) forecast = &*outcome.forecast;
      if (outcome.degradation.has_value()) {
        row.forecast_degradation =
            std::make_shared<const core::VehicleDegradation>(
                *std::move(outcome.degradation));
      }
      if (train < train_degradations.size() &&
          train_degradations[train].vehicle_id == ids[i]) {
        row.train_degradation =
            std::make_shared<const core::VehicleDegradation>(
                std::move(train_degradations[train++]));
      }
    } else {
      while (previous->vehicle_ids[old] != ids[i]) ++old;
      row = previous->rows[old];
      if (row.forecast != FleetSnapshot::kNone) {
        forecast = &previous->forecasts[row.forecast];
        row.forecast = FleetSnapshot::kNone;  // set again after the sort
      }
    }
    if (forecast != nullptr) {
      forecasts.push_back(*forecast);
      forecast_rows.push_back(static_cast<uint32_t>(i));
    }
  }
  next->vehicle_ids = std::move(ids);
  // Train entries first, then forecast entries, each in id order.
  for (const auto stage : {&FleetSnapshot::Row::train_degradation,
                           &FleetSnapshot::Row::forecast_degradation}) {
    for (const FleetSnapshot::Row& row : next->rows) {
      if (row.*stage) next->degradations.vehicles.push_back(*(row.*stage));
    }
  }
  // FleetForecast's own sort over the same id-ordered forecasts makes the
  // published order exactly the batch order.
  const std::vector<uint32_t> order = core::SortByPredictedDate(forecasts);
  next->forecasts.reserve(order.size());
  for (const uint32_t f : order) {
    next->rows[forecast_rows[f]].forecast =
        static_cast<uint32_t>(next->forecasts.size());
    next->forecasts.push_back(std::move(forecasts[f]));
  }
  scheduler_.ClearDirty();
  stats.refreshed = dirty_ids.size();
  stats.reused = next->vehicle_ids.size() - dirty_ids.size();
  stats.epoch = next->epoch;
  {
    MutexLock lock(snapshot_mu_);
    snapshot_ = std::move(next);
  }

  telemetry::Count("serve.refresh.count");
  telemetry::Count("serve.refresh.vehicles_refreshed", stats.refreshed);
  telemetry::Count("serve.refresh.vehicles_reused", stats.reused);
  telemetry::SetGauge("serve.epoch", static_cast<double>(stats.epoch));
  telemetry::SetGauge("serve.dirty_vehicles", 0.0);
  return stats;
}

const FleetSnapshot::Row* FleetSnapshot::Find(const std::string& id) const {
  const auto it = std::lower_bound(vehicle_ids.begin(), vehicle_ids.end(), id);
  if (it == vehicle_ids.end() || *it != id) return nullptr;
  return &rows[static_cast<size_t>(it - vehicle_ids.begin())];
}

const core::MaintenanceForecast* FleetSnapshot::FindForecast(
    const std::string& id) const {
  const Row* row = Find(id);
  if (row == nullptr || row->forecast == kNone) return nullptr;
  return &forecasts[row->forecast];
}

std::shared_ptr<const FleetSnapshot> ServingEngine::Published() const {
  MutexLock lock(snapshot_mu_);
  return snapshot_;
}

std::shared_ptr<const FleetSnapshot> ServingEngine::Snapshot() const {
  telemetry::Count("serve.snapshot.reads");
  return Published();
}

std::vector<Result<core::MaintenanceForecast>> ServingEngine::GetForecasts(
    std::span<const std::string> ids) const {
  // ONE snapshot acquisition: every result below reflects the same epoch
  // no matter how many refreshes publish while we iterate.
  std::shared_ptr<const FleetSnapshot> snapshot = Snapshot();
  std::vector<Result<core::MaintenanceForecast>> results;
  results.reserve(ids.size());
  for (const std::string& id : ids) {
    if (snapshot->Find(id) == nullptr) {
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
  VehicleServeState state;
  NM_ASSIGN_OR_RETURN(state.cycles, scheduler_.CycleStateOf(id));
  NM_ASSIGN_OR_RETURN(state.dirty, scheduler_.IsDirty(id));
  const std::shared_ptr<const FleetSnapshot> snapshot = Published();
  if (const FleetSnapshot::Row* row = snapshot->Find(id)) {
    state.has_forecast = row->forecast != FleetSnapshot::kNone;
    state.last_refresh_epoch = row->last_refresh_epoch;
  }
  return state;
}

}  // namespace serve
}  // namespace nextmaint
