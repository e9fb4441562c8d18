// Reproduces the Section 5.1 timing analysis with google-benchmark: mean
// per-vehicle training time of each algorithm, and its growth with the
// window size W.
//
// Paper reference (i7-8750H, including grid search): XGB 30.4 s, RF 8.1 s,
// LR 3.8 s, LSVR 2.8 s, BL 2.5 s per vehicle; "model complexity increases
// more than linearly with the number of considered features".
// Expected shape here: XGB and RF dominate; BL is near-free; training time
// grows with W for the tree ensembles.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/baseline.h"
#include "core/dataset_builder.h"
#include "core/series.h"
#include "ml/hist_gradient_boosting.h"
#include "ml/random_forest.h"
#include "ml/registry.h"

namespace {

using nextmaint::bench::BenchConfig;
using nextmaint::bench::MakeReferenceFleet;

/// One reference vehicle's training dataset, built once per (W) setting.
nextmaint::ml::Dataset MakeTrainingData(int window) {
  static const nextmaint::telem::Fleet* const kFleet = [] {
    BenchConfig config;  // fixed config: timing must not depend on env
    config.num_vehicles = 5;
    // Leaky singleton: the fleet outlives every benchmark registration.
    auto* fleet = new nextmaint::telem::Fleet(  // nextmaint-lint: allow(naked-new)
        MakeReferenceFleet(config));
    return fleet;
  }();
  const auto& vehicle = kFleet->vehicles[0];
  nextmaint::core::DatasetOptions options;
  options.window = window;
  options.target_filter = nextmaint::core::DaySet::Last29();
  nextmaint::core::ResamplingOptions resampling;
  resampling.num_shifts = 5;
  return nextmaint::core::BuildResampledDataset(
             vehicle.utilization, vehicle.profile.maintenance_interval_s,
             options, resampling)
      .ValueOrDie();
}

void TrainOnce(const std::string& algorithm,
               const nextmaint::ml::Dataset& data) {
  if (algorithm == "BL") {
    // BL "training" is computing the average utilization.
    nextmaint::core::BaselinePredictor model(10'000.0, 1.0);
    benchmark::DoNotOptimize(model.Fit(data));
    return;
  }
  auto model = nextmaint::ml::MakeRegressor(algorithm).MoveValueOrDie();
  const nextmaint::Status status = model->Fit(data);
  benchmark::DoNotOptimize(status);
}

void BM_Train(benchmark::State& state, const std::string& algorithm) {
  const int window = static_cast<int>(state.range(0));
  const nextmaint::ml::Dataset data = MakeTrainingData(window);
  for (auto _ : state) {
    TrainOnce(algorithm, data);
  }
  state.counters["rows"] = static_cast<double>(data.num_rows());
  state.counters["features"] = static_cast<double>(data.num_features());
}

// Thread-scaling sweep for the ensemble fits: wall time at 1/2/4 threads on
// the standard W=6 dataset. Any thread count yields a bit-identical model
// (the determinism contract in docs/parallelism.md), so the ratio between
// the threads:1 and threads:4 rows is pure speedup with unchanged E_MRE.
void BM_TrainThreaded(benchmark::State& state, const std::string& algorithm) {
  const int threads = static_cast<int>(state.range(0));
  const nextmaint::ml::Dataset data = MakeTrainingData(6);
  for (auto _ : state) {
    if (algorithm == "RF") {
      nextmaint::ml::RandomForestRegressor::Options options;
      options.num_threads = threads;
      nextmaint::ml::RandomForestRegressor model(options);
      benchmark::DoNotOptimize(model.Fit(data));
    } else {
      nextmaint::ml::HistGradientBoostingRegressor::Options options;
      options.num_threads = threads;
      nextmaint::ml::HistGradientBoostingRegressor model(options);
      benchmark::DoNotOptimize(model.Fit(data));
    }
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["rows"] = static_cast<double>(data.num_rows());
}

void RegisterAll() {
  for (const std::string& algorithm :
       {std::string("BL"), std::string("LR"), std::string("LSVR"),
        std::string("RF"), std::string("XGB")}) {
    auto* bench = benchmark::RegisterBenchmark(
        ("train/" + algorithm).c_str(),
        [algorithm](benchmark::State& state) { BM_Train(state, algorithm); });
    bench->Arg(0)->Arg(6)->Arg(12)->Arg(18)->Unit(benchmark::kMillisecond);
  }
  for (const std::string& algorithm : {std::string("RF"), std::string("XGB")}) {
    auto* bench = benchmark::RegisterBenchmark(
        ("train_threads/" + algorithm).c_str(),
        [algorithm](benchmark::State& state) {
          BM_TrainThreaded(state, algorithm);
        });
    bench->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  {
    // Reports per-model fit telemetry for the whole sweep when
    // NEXTMAINT_METRICS=1; a no-op (and no timing impact) otherwise.
    nextmaint::bench::MetricsReport metrics("timing sweep");
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}
