// Quickstart: simulate a small fleet, inspect the derived series, train the
// paper's models on one old vehicle and compare their errors, then run the
// fleet scheduler to get next-maintenance forecasts.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "nextmaint.h"

namespace {

using nextmaint::Date;
using nextmaint::core::DaySet;
using nextmaint::core::OldVehicleOptions;
using nextmaint::core::VehicleEvaluation;

int Run() {
  // --- 1. Simulate a fleet (the stand-in for real telematics data). ------
  nextmaint::telem::FleetOptions fleet_options;
  fleet_options.num_vehicles = 6;
  fleet_options.num_days = 1200;
  fleet_options.start_date = Date::FromYmd(2015, 1, 1).ValueOrDie();
  fleet_options.seed = 7;

  auto fleet_result = nextmaint::telem::SimulateFleet(fleet_options);
  if (!fleet_result.ok()) {
    std::fprintf(stderr, "fleet simulation failed: %s\n",
                 fleet_result.status().ToString().c_str());
    return 1;
  }
  const nextmaint::telem::Fleet fleet = std::move(fleet_result).ValueOrDie();

  // --- 2. Derive the problem series for the first vehicle. ---------------
  const auto& vehicle = fleet.vehicles[0];
  auto series_result = nextmaint::core::DeriveSeries(
      vehicle.utilization, fleet_options.maintenance_interval_s);
  if (!series_result.ok()) {
    std::fprintf(stderr, "series derivation failed: %s\n",
                 series_result.status().ToString().c_str());
    return 1;
  }
  const nextmaint::core::VehicleSeries series =
      std::move(series_result).ValueOrDie();

  std::printf("vehicle %s (%s)\n", vehicle.profile.id.c_str(),
              vehicle.profile.model_name.c_str());
  std::printf("  days of data     : %zu\n", series.size());
  std::printf("  mean daily usage : %.0f s\n", series.u.MeanValue());
  std::printf("  completed cycles : %zu\n", series.completed_cycles());
  for (size_t i = 0; i < std::min<size_t>(series.cycles.size(), 5); ++i) {
    std::printf("    cycle %zu: days %zu..%zu (%zu days)\n", i + 1,
                series.cycles[i].start, series.cycles[i].end,
                series.cycles[i].length_days());
  }

  // --- 3. Evaluate the paper's algorithms on this (old) vehicle. ---------
  OldVehicleOptions options;
  options.window = 6;
  options.train_on_last29_only = true;
  options.resampling_shifts = 2;
  options.tune = false;  // defaults keep the quickstart fast

  std::printf("\n%-6s %12s %12s %12s\n", "model", "E_MRE(1..29)", "E_Global",
              "train (s)");
  for (const std::string& name :
       {std::string("BL"), std::string("LR"), std::string("LSVR"),
        std::string("RF"), std::string("XGB")}) {
    auto eval_result = nextmaint::core::EvaluateAlgorithmOnVehicle(
        name, vehicle.utilization, fleet_options.maintenance_interval_s,
        options);
    if (!eval_result.ok()) {
      std::printf("%-6s evaluation failed: %s\n", name.c_str(),
                  eval_result.status().ToString().c_str());
      continue;
    }
    const VehicleEvaluation eval = std::move(eval_result).ValueOrDie();
    std::printf("%-6s %12.2f %12.2f %12.2f\n", name.c_str(), eval.emre,
                eval.eglobal, eval.train_seconds);
  }

  // --- 4. Fleet-level forecasts through the deployed-system facade. ------
  nextmaint::core::SchedulerOptions scheduler_options;
  scheduler_options.window = 6;
  scheduler_options.selection.tune = false;
  nextmaint::core::FleetScheduler scheduler(scheduler_options);
  for (const auto& v : fleet.vehicles) {
    auto status = scheduler.RegisterVehicle(v.profile.id, fleet.start_date);
    if (status.ok()) {
      status = scheduler.IngestSeries(v.profile.id, v.utilization);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "ingestion failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  auto train_status = scheduler.TrainAll();
  if (!train_status.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 train_status.ToString().c_str());
    return 1;
  }
  auto forecasts = scheduler.FleetForecast();
  if (!forecasts.ok()) {
    std::fprintf(stderr, "forecast failed: %s\n",
                 forecasts.status().ToString().c_str());
    return 1;
  }
  std::printf("\nfleet forecast (most urgent first)\n");
  std::printf("%-5s %-10s %-16s %10s %12s\n", "id", "category", "model",
              "days left", "date");
  for (const auto& f : forecasts.ValueOrDie()) {
    std::printf("%-5s %-10s %-16s %10.1f %12s\n", f.vehicle_id.c_str(),
                nextmaint::core::VehicleCategoryName(f.category),
                f.model_name.c_str(), f.days_left,
                f.predicted_date.ToString().c_str());
  }
  return 0;
}

}  // namespace

int main() { return Run(); }
