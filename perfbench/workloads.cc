#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>

#include "common/macros.h"
#include "common/parallel.h"
#include "core/category.h"
#include "core/dataset_builder.h"
#include "core/old_vehicle.h"
#include "core/series.h"
#include "ml/binned_dataset.h"
#include "ml/registry.h"

namespace nextmaint {
namespace bench {

namespace {

double Mean(const std::vector<double>& values) {
  return Sum(values) / static_cast<double>(values.size());
}

std::vector<double> Concat(std::vector<double> a,
                           const std::vector<double>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// Span name of a refit; literals, as span names must be.
const char* FitSpanName(const std::string& algorithm) {
  if (algorithm == "LR") return "ml.Fit.LR";
  if (algorithm == "RF") return "ml.Fit.RF";
  return "ml.Fit.other";
}

void HashBytes(uint64_t* hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    *hash ^= bytes[i];
    *hash *= 1099511628211ULL;
  }
}

}  // namespace

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Tracer& Context::TracerFor(size_t index) const {
  static Tracer untraced(/*enabled=*/false);
  const bool traced = index % 4 == 1 || index % 4 == 2;
  return options.traced && traced ? *tracer : untraced;
}

bool Context::MoreUnits(size_t done, Clock::time_point start) const {
  return done < (options.traced ? 2u : 1u) ||
         SecondsSince(start) < options.seconds;
}

void PhaseTimes::AddSetup(size_t index, const Context& context,
                          double seconds) {
  (context.TracerFor(index).enabled() ? setup_traced_s : setup_plain_s)
      .push_back(seconds);
}

void PhaseTimes::AddUnit(size_t index, const Context& context,
                         double seconds) {
  (context.TracerFor(index).enabled() ? unit_traced_s : unit_plain_s)
      .push_back(seconds);
}

void ReportEndToEnd(const PhaseTimes& times, Context& context) {
  Report& report = *context.report;
  const std::vector<double> setup =
      Concat(times.setup_plain_s, times.setup_traced_s);
  const std::vector<double> units =
      Concat(times.unit_plain_s, times.unit_traced_s);
  report.Add("setup_s", Median(setup), setup.size());
  report.Add("latency_p50_ms", CentralLatency(units) * 1e3, units.size());
  report.Add("latency_tail_ms", TailLatency(units) * 1e3, units.size());
  report.Add("throughput_per_s",
             times.unit_done_s.empty()
                 ? static_cast<double>(times.units) / times.measured_s
                 : WindowRate(times.unit_done_s),
             times.units);
  const double peak_rss_mb = times.unit_peak_rss_mb.empty()
                                 ? times.peak_rss_mb
                                 : Median(times.unit_peak_rss_mb);
  report.Add("peak_rss_mb", peak_rss_mb,
             std::max<size_t>(1, times.unit_peak_rss_mb.size()));
  if (!context.options.traced) return;
  report.Add("trace_overhead.setup_s",
             Median(times.setup_traced_s) / Median(times.setup_plain_s),
             setup.size());
  report.Add("trace_overhead.latency_p50_ms",
             CentralLatency(times.unit_traced_s) /
                 CentralLatency(times.unit_plain_s),
             units.size());
  report.Add("trace_overhead.latency_tail_ms",
             TailLatency(times.unit_traced_s) / TailLatency(times.unit_plain_s),
             units.size());
  // Plain over traced throughput, so that above 1 is a cost like the
  // others. In a closed loop throughput is inverse to mean latency.
  report.Add("trace_overhead.throughput_per_s",
             Mean(times.unit_traced_s) / Mean(times.unit_plain_s),
             units.size());
  const double trace_mb =
      static_cast<double>(context.tracer->MemoryBytes()) / (1024.0 * 1024.0);
  report.Add("trace_overhead.peak_rss_mb",
             peak_rss_mb / (peak_rss_mb - trace_mb), 1);
}

CpuRotation::CpuRotation(size_t index, Scope scope) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  if (count <= 1) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  int skip = static_cast<int>(index % static_cast<size_t>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && skip-- == 0) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  std::vector<pid_t> threads = {0};
  if (scope == Scope::kProcess) {
    threads.clear();
    std::error_code error;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task", error)) {
      threads.push_back(static_cast<pid_t>(
          std::strtol(task.path().filename().c_str(), nullptr, 10)));
    }
  }
  for (pid_t thread : threads) {
    cpu_set_t mask;
    if (sched_getaffinity(thread, sizeof(mask), &mask) == 0 &&
        sched_setaffinity(thread, sizeof(one), &one) == 0) {
      saved_.emplace_back(thread, mask);
    }
  }
}

CpuRotation::~CpuRotation() {
  // A thread that ended meanwhile just fails to restore.
  for (const auto& [thread, mask] : saved_) {
    sched_setaffinity(thread, sizeof(mask), &mask);
  }
}

Result<std::unique_ptr<core::FleetScheduler>> IngestFleet(
    const std::vector<VehicleInput>& fleet,
    const core::SchedulerOptions& options) {
  auto scheduler = std::make_unique<core::FleetScheduler>(options);
  for (const VehicleInput& vehicle : fleet) {
    NM_RETURN_NOT_OK(
        scheduler->RegisterVehicle(vehicle.id, vehicle.usage.start_date()));
    NM_RETURN_NOT_OK(scheduler->IngestSeries(vehicle.id, vehicle.usage));
  }
  return scheduler;
}

Result<std::vector<std::vector<SelectionOutcome>>> DecomposeTraining(
    std::span<const std::vector<VehicleInput>> fleets,
    const core::SchedulerOptions& options, Context& context) {
  Tracer& tracer = *context.tracer;
  const double tv = options.maintenance_interval_s;
  // The options TrainOneVehicle trains an old vehicle with.
  core::OldVehicleOptions selection = options.selection;
  selection.window = options.window;
  selection.backend.core = options.tree_core;
  core::DatasetOptions dataset_options;
  dataset_options.window = options.window;
  dataset_options.normalize_features = selection.normalize_features;
  if (selection.train_on_last29_only) {
    dataset_options.target_filter = core::DaySet::Last29();
  }
  core::ResamplingOptions resampling;
  resampling.num_shifts = selection.resampling_shifts;
  resampling.seed = selection.seed;

  // Every vehicle of every fleet, in one fan-out.
  std::vector<std::pair<size_t, size_t>> vehicles;
  std::vector<std::vector<SelectionOutcome>> outcomes;
  for (size_t f = 0; f < fleets.size(); ++f) {
    outcomes.emplace_back(fleets[f].size());
    for (size_t v = 0; v < fleets[f].size(); ++v) vehicles.emplace_back(f, v);
  }
  std::vector<size_t> refit_rows(vehicles.size(), 0);
  NM_RETURN_NOT_OK(ParallelFor(
      0, vehicles.size(), /*grain=*/1,
      [&](size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          const auto [f, v] = vehicles[i];
          const data::DailySeries& usage = fleets[f][v].usage;
          {
            // The forecast path: the history plus a virtual "today".
            Tracer::Scope span = tracer.Open("core.DeriveSeries");
            data::DailySeries extended = usage;
            extended.Append(0.0);
            NM_RETURN_NOT_OK(core::DeriveSeries(extended, tv).status());
          }
          NM_ASSIGN_OR_RETURN(const core::VehicleCategory category,
                              core::CategorizeUsage(usage, tv));
          if (category != core::VehicleCategory::kOld) continue;
          SelectionOutcome& outcome = outcomes[f][v];
          outcome.old = true;
          Tracer::Scope vehicle_span = tracer.Open("core.vehicle_train");
          core::OldVehicleOptions vehicle_selection = selection;
          vehicle_selection.backend.binning_cache =
              std::make_shared<ml::BinningCache>();
          Result<core::ModelSelectionResult> selected = [&] {
            Tracer::Scope span = tracer.Open("core.SelectBestModelForVehicle");
            return core::SelectBestModelForVehicle(options.algorithms, usage,
                                                   tv, vehicle_selection);
          }();
          if (!selected.ok()) {
            outcome.error = selected.status().ToString();
            continue;
          }
          const core::VehicleEvaluation& best =
              selected.ValueOrDie()
                  .evaluations[selected.ValueOrDie().best_index];
          outcome.selected = true;
          outcome.winner = best.algorithm;
          outcome.emre = best.emre;
          // The refit changes no outcome; only the traced run times it.
          if (!context.options.traced || outcome.winner == "BL") continue;
          Result<ml::Dataset> refit_data = [&] {
            Tracer::Scope span = tracer.Open("core.BuildResampledDataset");
            return core::BuildResampledDataset(usage, tv, dataset_options,
                                               resampling);
          }();
          NM_RETURN_NOT_OK(refit_data.status());
          NM_ASSIGN_OR_RETURN(
              std::unique_ptr<ml::Regressor> model,
              ml::MakeRegressor(outcome.winner, {}, vehicle_selection.backend));
          Tracer::Scope fit_span = tracer.Open(FitSpanName(outcome.winner));
          NM_RETURN_NOT_OK(model->Fit(refit_data.ValueOrDie()));
          refit_rows[i] = refit_data.ValueOrDie().num_rows();
        }
        return Status::OK();
      },
      options.num_threads));

  uint64_t old = 0;
  uint64_t failures = 0;
  std::string first_failure;
  double emre_sum = 0.0;
  std::map<std::string, double> rows_by_algorithm;
  for (size_t i = 0; i < vehicles.size(); ++i) {
    const auto [f, v] = vehicles[i];
    const SelectionOutcome& outcome = outcomes[f][v];
    if (!outcome.old) continue;
    ++old;
    if (!outcome.selected) {
      if (failures++ == 0) {
        first_failure = fleets[f][v].id + ": " + outcome.error;
      }
      continue;
    }
    emre_sum += outcome.emre;
    rows_by_algorithm[outcome.winner] += static_cast<double>(refit_rows[i]);
  }
  Report& report = *context.report;
  report.CountOps(old, failures,
                  "model selection failed, so BL is served silently (" +
                      first_failure + ")");
  const uint64_t selected = old - failures;
  report.Add("emre_days", emre_sum / static_cast<double>(selected), selected);
  if (!context.options.traced) return outcomes;

  // Per fleet: sums over the spans of every fleet, divided by their number.
  const double per_fleet = 1.0 / static_cast<double>(fleets.size());
  const auto add_sum = [&](const char* metric, const char* span) {
    const std::vector<double> seconds = tracer.Seconds(span);
    report.Add(metric, Sum(seconds) * per_fleet, seconds.size());
  };
  add_sum("core.derive_series_s", "core.DeriveSeries");
  add_sum("core.build_dataset_s", "core.BuildResampledDataset");
  add_sum("core.selection_s", "core.SelectBestModelForVehicle");
  add_sum("ml.fit_s.LR", "ml.Fit.LR");
  add_sum("ml.fit_s.RF", "ml.Fit.RF");
  const std::vector<double> vehicle_seconds =
      tracer.Seconds("core.vehicle_train");
  const double vehicle_max =
      vehicle_seconds.empty()
          ? 0.0
          : *std::max_element(vehicle_seconds.begin(), vehicle_seconds.end());
  report.Add("core.vehicle_max_s", vehicle_max, vehicle_seconds.size());
  report.Add("core.selection_failures", static_cast<double>(failures), old);
  report.Add("ml.fit_rows.LR", rows_by_algorithm["LR"] * per_fleet,
             tracer.Seconds("ml.Fit.LR").size());
  report.Add("ml.fit_rows.RF", rows_by_algorithm["RF"] * per_fleet,
             tracer.Seconds("ml.Fit.RF").size());
  return outcomes;
}

void CheckServedWinners(const std::vector<VehicleInput>& fleet,
                        const std::vector<SelectionOutcome>& outcomes,
                        const std::vector<core::MaintenanceForecast>& served,
                        Report& report) {
  std::map<std::string, const core::MaintenanceForecast*> by_id;
  for (const core::MaintenanceForecast& forecast : served) {
    by_id[forecast.vehicle_id] = &forecast;
  }
  size_t mismatches = 0;
  for (size_t v = 0; v < fleet.size(); ++v) {
    if (!outcomes[v].selected) continue;
    auto it = by_id.find(fleet[v].id);
    if (it == by_id.end() || it->second->model_name != outcomes[v].winner) {
      ++mismatches;
    }
  }
  report.Check(mismatches == 0,
               std::to_string(mismatches) +
                   " old vehicle(s) not served the model selection chose");
}

bool SameForecasts(const std::vector<core::MaintenanceForecast>& a,
                   const std::vector<core::MaintenanceForecast>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].vehicle_id != b[i].vehicle_id || a[i].category != b[i].category ||
        a[i].model_name != b[i].model_name ||
        std::bit_cast<uint64_t>(a[i].days_left) !=
            std::bit_cast<uint64_t>(b[i].days_left) ||
        std::bit_cast<uint64_t>(a[i].usage_seconds_left) !=
            std::bit_cast<uint64_t>(b[i].usage_seconds_left) ||
        a[i].predicted_date != b[i].predicted_date) {
      return false;
    }
  }
  return true;
}

uint64_t Fingerprint(const std::vector<core::MaintenanceForecast>& forecasts) {
  uint64_t hash = 14695981039346656037ULL;
  for (const core::MaintenanceForecast& f : forecasts) {
    HashBytes(&hash, f.vehicle_id.data(), f.vehicle_id.size() + 1);
    HashBytes(&hash, f.model_name.data(), f.model_name.size() + 1);
    const int category = static_cast<int>(f.category);
    const int64_t day = f.predicted_date.day_number();
    HashBytes(&hash, &category, sizeof(category));
    HashBytes(&hash, &f.days_left, sizeof(f.days_left));
    HashBytes(&hash, &f.usage_seconds_left, sizeof(f.usage_seconds_left));
    HashBytes(&hash, &day, sizeof(day));
  }
  return hash;
}

void PrintFingerprint(const Context& context, uint64_t fingerprint) {
  std::fprintf(stderr, "perfbench: %s seed %llu forecast fingerprint %016llx\n",
               context.options.workload.c_str(),
               static_cast<unsigned long long>(context.options.seed),
               static_cast<unsigned long long>(fingerprint));
}

}  // namespace bench
}  // namespace nextmaint
