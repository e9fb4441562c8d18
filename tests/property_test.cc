// Property-based sweeps (parameterized gtest): invariants that must hold
// across seeds, vehicle archetypes and hyper-parameter settings.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "common/failpoints.h"
#include "nextmaint.h"

namespace nextmaint {
namespace {

Date Day(int offset) {
  return Date::FromYmd(2015, 1, 1).ValueOrDie().AddDays(offset);
}

// ---------------------------------------------------------------------------
// Series-derivation invariants across random vehicles.
// ---------------------------------------------------------------------------

class SeriesInvariantsTest
    : public testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(SeriesInvariantsTest, DerivedSeriesInvariantsHold) {
  const auto [seed, archetype_offset] = GetParam();
  Rng rng(seed);
  auto profiles = telem::DefaultFleetProfiles(5, &rng);
  telem::VehicleProfile profile =
      profiles[static_cast<size_t>(archetype_offset) % profiles.size()];
  profile.maintenance_interval_s = 400'000.0;
  Rng sim_rng(seed * 13 + 1);
  const auto history =
      telem::SimulateVehicle(profile, Day(0), 700, 0.0, &sim_rng)
          .ValueOrDie();
  const core::VehicleSeries s =
      core::DeriveSeries(history.utilization,
                         profile.maintenance_interval_s)
          .ValueOrDie();

  // 1. The simulator's maintenance events equal the derived cycle ends.
  std::vector<size_t> cycle_ends;
  for (const core::Cycle& cycle : s.cycles) cycle_ends.push_back(cycle.end);
  EXPECT_EQ(cycle_ends, history.maintenance_days);

  // 2. L stays in (0, T]; C counts up; D counts down to zero at cycle ends.
  for (size_t t = 0; t < s.size(); ++t) {
    EXPECT_GT(s.l[t], 0.0);
    EXPECT_LE(s.l[t], profile.maintenance_interval_s);
    if (t > 0 && s.c[t] > 0) {
      EXPECT_DOUBLE_EQ(s.c[t], s.c[t - 1] + 1);
    }
  }
  for (const core::Cycle& cycle : s.cycles) {
    EXPECT_DOUBLE_EQ(s.d[cycle.end], 0.0);
    EXPECT_DOUBLE_EQ(s.d[cycle.start],
                     static_cast<double>(cycle.length_days() - 1));
  }

  // 3. Usage within each cycle sums to at least T (and less than T plus
  // one maximal day).
  for (const core::Cycle& cycle : s.cycles) {
    double total = s.l[cycle.start] == profile.maintenance_interval_s
                       ? 0.0
                       : profile.maintenance_interval_s - s.l[cycle.start];
    for (size_t t = cycle.start; t <= cycle.end; ++t) total += s.u[t];
    EXPECT_GE(total, profile.maintenance_interval_s - 1e-6);
    EXPECT_LT(total, profile.maintenance_interval_s + 86'400.0);
  }

  // 4. Time-shift re-sampling never invents different physics: a shifted
  // derivation has cycles at least as late as the shift.
  const core::VehicleSeries shifted =
      core::DeriveSeries(history.utilization,
                         profile.maintenance_interval_s, 50)
          .ValueOrDie();
  EXPECT_EQ(shifted.size(), s.size() - 50);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SeriesInvariantsTest,
    testing::Combine(testing::Values(uint64_t{1}, uint64_t{2}, uint64_t{3},
                                     uint64_t{5}, uint64_t{8}),
                     testing::Values(0, 1, 2, 3, 4)));

// ---------------------------------------------------------------------------
// Model invariants across algorithms.
// ---------------------------------------------------------------------------

class ModelContractTest : public testing::TestWithParam<std::string> {};

TEST_P(ModelContractTest, FitPredictContract) {
  const std::string name = GetParam();
  Rng rng(99);
  ml::Dataset train;
  for (int i = 0; i < 150; ++i) {
    const double x0 = rng.Uniform(0, 10);
    const double x1 = rng.Uniform(-1, 1);
    const std::vector<double> row = {x0, x1};
    train.AddRow(std::span<const double>(row.data(), 2),
                 3.0 * x0 + rng.Normal(0, 0.1));
  }

  auto model = ml::MakeRegressor(name).MoveValueOrDie();
  // Predict before fit fails cleanly.
  const std::vector<double> probe = {5.0, 0.0};
  EXPECT_EQ(model->Predict(std::span<const double>(probe.data(), 2))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(model->Fit(train).ok());
  ASSERT_TRUE(model->is_fitted());

  // Predictions are finite and within a sane envelope of the target range.
  const std::vector<double> preds =
      model->PredictBatch(train.x()).ValueOrDie();
  for (double p : preds) {
    EXPECT_TRUE(std::isfinite(p));
    EXPECT_GT(p, -20.0);
    EXPECT_LT(p, 50.0);
  }

  // Wrong arity is rejected.
  const std::vector<double> short_row = {1.0};
  EXPECT_EQ(model->Predict(std::span<const double>(short_row.data(), 1))
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Clone preserves behaviour.
  const auto clone = model->Clone();
  EXPECT_DOUBLE_EQ(
      clone->Predict(std::span<const double>(probe.data(), 2)).ValueOrDie(),
      model->Predict(std::span<const double>(probe.data(), 2)).ValueOrDie());

  // Refit on a different dataset discards old state (predictions change).
  ml::Dataset other;
  for (int i = 0; i < 150; ++i) {
    const double x0 = rng.Uniform(0, 10);
    const std::vector<double> row = {x0, 0.0};
    other.AddRow(std::span<const double>(row.data(), 2), -3.0 * x0);
  }
  ASSERT_TRUE(model->Fit(other).ok());
  EXPECT_LT(
      model->Predict(std::span<const double>(probe.data(), 2)).ValueOrDie(),
      0.0);
}

TEST_P(ModelContractTest, DeterministicRefit) {
  const std::string name = GetParam();
  Rng rng(7);
  ml::Dataset train;
  for (int i = 0; i < 100; ++i) {
    const double x = rng.Uniform(0, 1);
    const std::vector<double> row = {x};
    train.AddRow(std::span<const double>(row.data(), 1),
                 x * x + rng.Normal(0, 0.05));
  }
  auto a = ml::MakeRegressor(name).MoveValueOrDie();
  auto b = ml::MakeRegressor(name).MoveValueOrDie();
  ASSERT_TRUE(a->Fit(train).ok());
  ASSERT_TRUE(b->Fit(train).ok());
  const std::vector<double> probe = {0.37};
  EXPECT_DOUBLE_EQ(
      a->Predict(std::span<const double>(probe.data(), 1)).ValueOrDie(),
      b->Predict(std::span<const double>(probe.data(), 1)).ValueOrDie());
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelContractTest,
                         testing::Values("LR", "LSVR", "Tree", "RF", "XGB"));

// ---------------------------------------------------------------------------
// Error-metric properties over random prediction vectors.
// ---------------------------------------------------------------------------

class ErrorMetricPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ErrorMetricPropertyTest, MetricProperties) {
  Rng rng(GetParam());
  std::vector<double> truth, perfect, noisy, noisier;
  for (int i = 0; i < 300; ++i) {
    const double d = std::floor(rng.Uniform(0, 120));
    truth.push_back(d);
    perfect.push_back(d);
    noisy.push_back(d + rng.Normal(0, 2));
    noisier.push_back(d + rng.Normal(0, 8));
  }

  // Perfect predictions give zero everywhere.
  EXPECT_DOUBLE_EQ(core::GlobalError(truth, perfect).ValueOrDie(), 0.0);
  EXPECT_DOUBLE_EQ(core::MeanResidualError(truth, perfect,
                                           core::DaySet::Last29())
                       .ValueOrDie(),
                   0.0);

  // More noise -> larger error (monotonicity in aggregate).
  EXPECT_LT(core::GlobalError(truth, noisy).ValueOrDie(),
            core::GlobalError(truth, noisier).ValueOrDie());

  // E_MRE over the full target range equals E_Global.
  EXPECT_NEAR(core::MeanResidualError(truth, noisy,
                                      core::DaySet::Range(0, 200))
                  .ValueOrDie(),
              core::GlobalError(truth, noisy).ValueOrDie(), 1e-12);

  // Signed error is bounded by the absolute error.
  EXPECT_LE(std::fabs(core::GlobalError(truth, noisy, true).ValueOrDie()),
            core::GlobalError(truth, noisy, false).ValueOrDie());

  // Restricting to disjoint ranges partitions the mass: the full-range
  // error is a convex combination of the parts.
  const double low = core::MeanResidualError(truth, noisy,
                                             core::DaySet::Range(0, 59))
                         .ValueOrDie();
  const double high = core::MeanResidualError(truth, noisy,
                                              core::DaySet::Range(60, 200))
                          .ValueOrDie();
  const double all = core::GlobalError(truth, noisy).ValueOrDie();
  EXPECT_GE(all, std::min(low, high) - 1e-12);
  EXPECT_LE(all, std::max(low, high) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ErrorMetricPropertyTest,
                         testing::Values(uint64_t{11}, uint64_t{22},
                                         uint64_t{33}, uint64_t{44}));

// ---------------------------------------------------------------------------
// Cleaning is idempotent and preserves observed values, for every policy.
// ---------------------------------------------------------------------------

class CleaningPolicyTest
    : public testing::TestWithParam<data::MissingValuePolicy> {};

TEST_P(CleaningPolicyTest, IdempotentAndValuePreserving) {
  const data::MissingValuePolicy policy = GetParam();
  Rng rng(55);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) {
    if (rng.Bernoulli(0.15)) {
      values.push_back(std::numeric_limits<double>::quiet_NaN());
    } else {
      values.push_back(rng.Uniform(0, 40'000));
    }
  }
  data::DailySeries series(Day(0), values);
  data::Clean(&series, policy);
  EXPECT_TRUE(series.IsComplete());

  // Observed values survive cleaning untouched.
  for (size_t i = 0; i < values.size(); ++i) {
    if (!std::isnan(values[i])) {
      EXPECT_DOUBLE_EQ(series[i], values[i]);
    } else {
      EXPECT_GE(series[i], 0.0);
      EXPECT_LE(series[i], 86'400.0);
    }
  }

  // A second pass changes nothing.
  data::DailySeries again = series;
  const data::CleaningReport report = data::Clean(&again, policy);
  EXPECT_EQ(report.missing_filled, 0u);
  for (size_t i = 0; i < series.size(); ++i) {
    EXPECT_DOUBLE_EQ(again[i], series[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CleaningPolicyTest,
    testing::Values(data::MissingValuePolicy::kZero,
                    data::MissingValuePolicy::kMean,
                    data::MissingValuePolicy::kForwardFill,
                    data::MissingValuePolicy::kInterpolate));

// ---------------------------------------------------------------------------
// Window sweep: every algorithm stays evaluable for any W, and the dataset
// shapes follow the contract.
// ---------------------------------------------------------------------------

class WindowSweepTest : public testing::TestWithParam<int> {};

TEST_P(WindowSweepTest, DatasetShapesFollowWindow) {
  const int window = GetParam();
  data::DailySeries u(Day(0), std::vector<double>(90, 100.0));
  const core::VehicleSeries s =
      core::DeriveSeries(u, 1'000.0).ValueOrDie();
  core::DatasetOptions options;
  options.window = window;
  const ml::Dataset dataset = core::BuildDataset(s, options).ValueOrDie();
  EXPECT_EQ(dataset.num_features(), static_cast<size_t>(window) + 1);
  EXPECT_EQ(dataset.num_rows(), 90u - static_cast<size_t>(window));
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweepTest,
                         testing::Values(0, 1, 3, 6, 9, 12, 18));


// ---------------------------------------------------------------------------
// Fleet scheduling is invariant to ingestion order and thread count: a
// scheduler fed vehicles in a random permutation and trained in parallel
// forecasts exactly what a serially-trained, canonically-ordered one does.
// ---------------------------------------------------------------------------

class IngestionOrderTest : public testing::TestWithParam<uint64_t> {};

TEST_P(IngestionOrderTest, ParallelPermutedFleetMatchesSerialCanonical) {
  const uint64_t seed = GetParam();
  constexpr double kTv = 500'000.0;
  constexpr int kFleetSize = 5;

  // Simulated series per vehicle, fixed across both schedulers.
  std::vector<data::DailySeries> series;
  for (int v = 0; v < kFleetSize; ++v) {
    Rng profile_rng(uint64_t{100} + static_cast<uint64_t>(v));
    telem::VehicleProfile profile =
        telem::DefaultFleetProfiles(1, &profile_rng)[0];
    profile.maintenance_interval_s = kTv;
    Rng sim_rng(uint64_t{17} * static_cast<uint64_t>(v) + 5);
    const int days = v == kFleetSize - 1 ? 40 : 650;  // one semi-new vehicle
    series.push_back(telem::SimulateVehicle(profile, Day(0), days, 0.0,
                                            &sim_rng)
                         .ValueOrDie()
                         .utilization);
  }

  core::SchedulerOptions options;
  options.maintenance_interval_s = kTv;
  options.window = 3;
  options.algorithms = {"BL", "LR"};
  options.unified_algorithm = "LR";
  options.selection.tune = false;
  options.selection.resampling_shifts = 0;

  const auto forecasts_for = [&](const std::vector<int>& order,
                                 int num_threads) {
    core::SchedulerOptions opts = options;
    opts.num_threads = num_threads;
    core::FleetScheduler scheduler(opts);
    for (int v : order) {
      const std::string id = "v" + std::to_string(v);
      EXPECT_TRUE(scheduler.RegisterVehicle(id, Day(0)).ok());
      EXPECT_TRUE(
          scheduler.IngestSeries(id, series[static_cast<size_t>(v)]).ok());
    }
    EXPECT_TRUE(scheduler.TrainAll().ok());
    return scheduler.FleetForecast().ValueOrDie();
  };

  std::vector<int> canonical(kFleetSize);
  for (int v = 0; v < kFleetSize; ++v) canonical[static_cast<size_t>(v)] = v;
  std::vector<int> permuted = canonical;
  Rng shuffle_rng(seed);
  shuffle_rng.Shuffle(&permuted);

  const auto serial = forecasts_for(canonical, 1);
  const auto parallel = forecasts_for(permuted, 4);

  // Compare as a set keyed by vehicle: the forecast for every vehicle must
  // be identical down to the bit, regardless of ingestion order or the
  // number of training threads.
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.size(), static_cast<size_t>(kFleetSize));
  const auto by_vehicle = [](const std::vector<core::MaintenanceForecast>& f) {
    std::map<std::string, const core::MaintenanceForecast*> index;
    for (const auto& forecast : f) index[forecast.vehicle_id] = &forecast;
    return index;
  };
  const auto serial_index = by_vehicle(serial);
  for (const auto& [id, b] : by_vehicle(parallel)) {
    ASSERT_TRUE(serial_index.count(id)) << id;
    const core::MaintenanceForecast& a = *serial_index.at(id);
    EXPECT_EQ(a.category, b->category) << id;
    EXPECT_EQ(a.model_name, b->model_name) << id;
    EXPECT_EQ(a.days_left, b->days_left) << id;
    EXPECT_EQ(a.usage_seconds_left, b->usage_seconds_left) << id;
    EXPECT_EQ(a.predicted_date, b->predicted_date) << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IngestionOrderTest,
                         testing::Values(uint64_t{3}, uint64_t{14},
                                         uint64_t{159}));

// ---------------------------------------------------------------------------
// Failure isolation: whatever random subset of vehicles has its training
// sabotaged, every non-failing vehicle's forecast is bit-identical to a
// failure-free run, the failing vehicles are served by the BL fallback,
// and the degradation report names exactly the injected set — at 1 and 4
// threads alike.
// ---------------------------------------------------------------------------

class DegradationIsolationTest : public testing::TestWithParam<uint64_t> {};

TEST_P(DegradationIsolationTest, FailingSubsetNeverPerturbsTheRest) {
  const uint64_t seed = GetParam();
  constexpr double kTv = 500'000.0;
  constexpr int kFleetSize = 5;

  std::vector<data::DailySeries> series;
  for (int v = 0; v < kFleetSize; ++v) {
    Rng profile_rng(uint64_t{300} + static_cast<uint64_t>(v));
    telem::VehicleProfile profile =
        telem::DefaultFleetProfiles(1, &profile_rng)[0];
    profile.maintenance_interval_s = kTv;
    Rng sim_rng(uint64_t{23} * static_cast<uint64_t>(v) + 9);
    series.push_back(telem::SimulateVehicle(profile, Day(0), 650, 0.0,
                                            &sim_rng)
                         .ValueOrDie()
                         .utilization);
  }

  // A random, non-empty, proper subset of failing vehicles.
  Rng subset_rng(seed);
  std::set<int> failing;
  while (failing.empty() ||
         failing.size() == static_cast<size_t>(kFleetSize)) {
    failing.clear();
    for (int v = 0; v < kFleetSize; ++v) {
      if (subset_rng.NextDouble() < 0.4) failing.insert(v);
    }
  }

  core::SchedulerOptions options;
  options.maintenance_interval_s = kTv;
  options.window = 3;
  options.algorithms = {"BL", "LR"};
  options.unified_algorithm = "LR";
  options.selection.tune = false;
  options.selection.resampling_shifts = 0;

  // Vehicles train in sorted-id order, so vehicle v maps to ordinal v + 1.
  const auto run_fleet = [&](const std::set<int>& sabotage,
                             int num_threads) {
    core::SchedulerOptions opts = options;
    opts.num_threads = num_threads;
    core::FleetScheduler scheduler(opts);
    for (int v = 0; v < kFleetSize; ++v) {
      const std::string id = std::string("v") + std::to_string(v);
      EXPECT_TRUE(scheduler.RegisterVehicle(id, Day(0)).ok());
      EXPECT_TRUE(
          scheduler.IngestSeries(id, series[static_cast<size_t>(v)]).ok());
    }
    failpoints::DisarmAll();
    for (int v : sabotage) {
      EXPECT_TRUE(
          failpoints::Arm("scheduler.train_vehicle:" + std::to_string(v + 1))
              .ok());
    }
    EXPECT_TRUE(scheduler.TrainAll().ok());
    failpoints::DisarmAll();
    auto forecasts = scheduler.FleetForecast().ValueOrDie();
    std::pair<std::vector<core::MaintenanceForecast>, core::DegradationReport>
        result{std::move(forecasts), scheduler.LastDegradationReport()};
    return result;
  };

  const auto [baseline, baseline_report] = run_fleet({}, 1);
  ASSERT_TRUE(baseline_report.empty());
  ASSERT_EQ(baseline.size(), static_cast<size_t>(kFleetSize));

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const auto [forecasts, report] = run_fleet(failing, threads);

    // The report names exactly the sabotaged vehicles, each with a BL
    // fallback in place.
    std::set<std::string> reported;
    for (const auto& entry : report.vehicles) {
      EXPECT_EQ(entry.stage, "train");
      EXPECT_TRUE(entry.fallback) << entry.vehicle_id;
      reported.insert(entry.vehicle_id);
    }
    std::set<std::string> injected;
    for (int v : failing) injected.insert("v" + std::to_string(v));
    EXPECT_EQ(reported, injected);

    // FleetForecast orders by predicted date, so compare keyed by vehicle.
    ASSERT_EQ(forecasts.size(), baseline.size());
    std::map<std::string, const core::MaintenanceForecast*> by_vehicle;
    for (const auto& forecast : forecasts) {
      by_vehicle[forecast.vehicle_id] = &forecast;
    }
    for (const auto& expected : baseline) {
      ASSERT_TRUE(by_vehicle.count(expected.vehicle_id))
          << expected.vehicle_id;
      const core::MaintenanceForecast& got =
          *by_vehicle.at(expected.vehicle_id);
      if (injected.count(expected.vehicle_id)) {
        EXPECT_EQ(got.model_name, "BL_fallback");
        EXPECT_GE(got.days_left, 0.0);
        continue;
      }
      // Bit-identical: the sabotage of other vehicles leaks nothing.
      EXPECT_EQ(got.model_name, expected.model_name);
      EXPECT_EQ(got.days_left, expected.days_left);
      EXPECT_EQ(got.usage_seconds_left, expected.usage_seconds_left);
      EXPECT_EQ(got.predicted_date, expected.predicted_date);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DegradationIsolationTest,
                         testing::Values(uint64_t{7}, uint64_t{28},
                                         uint64_t{2020}));

// ---------------------------------------------------------------------------
// Workshop-planner invariants across capacities and fleet sizes.
// ---------------------------------------------------------------------------

class PlannerPropertyTest
    : public testing::TestWithParam<std::tuple<int, int, uint64_t>> {};

TEST_P(PlannerPropertyTest, CapacityAndOrderingInvariants) {
  const auto [capacity, fleet_size, seed] = GetParam();
  Rng rng(seed);
  std::vector<core::MaintenanceForecast> forecasts;
  for (int v = 0; v < fleet_size; ++v) {
    core::MaintenanceForecast f;
    f.vehicle_id = "v" + std::to_string(v);
    const int due = static_cast<int>(rng.UniformInt(int64_t{-3}, int64_t{80}));
    f.predicted_date = Date::FromYmd(2015, 6, 1).ValueOrDie().AddDays(due);
    forecasts.push_back(f);
  }
  core::WorkshopOptions options;
  options.daily_capacity = capacity;
  options.horizon_days = 90;
  options.weekend_service = true;
  const core::ServicePlan plan =
      core::PlanWorkshop(forecasts, Date::FromYmd(2015, 6, 1).ValueOrDie(),
                         options)
          .ValueOrDie();

  // 1. Every vehicle is either booked or reported beyond the horizon.
  EXPECT_EQ(plan.assignments.size() + plan.beyond_horizon.size(),
            forecasts.size());

  // 2. No day is overbooked.
  std::map<int64_t, int> bookings;
  for (const auto& a : plan.assignments) {
    EXPECT_GE(a.scheduled_date, plan.today);
    ++bookings[a.scheduled_date.day_number()];
  }
  for (const auto& [day, count] : bookings) {
    EXPECT_LE(count, capacity);
  }

  // 3. Assignments are sorted by slot date.
  for (size_t i = 1; i < plan.assignments.size(); ++i) {
    EXPECT_LE(plan.assignments[i - 1].scheduled_date.day_number(),
              plan.assignments[i].scheduled_date.day_number());
  }

  // 4. Cost bookkeeping is self-consistent.
  EXPECT_NEAR(plan.total_cost, core::PlanCost(plan, options), 1e-9);
  int64_t early = 0, late = 0;
  for (const auto& a : plan.assignments) {
    if (a.slack_days < 0) early += -a.slack_days;
    if (a.slack_days > 0) late += a.slack_days;
  }
  EXPECT_EQ(plan.total_early_days, early);
  EXPECT_EQ(plan.total_late_days, late);

  // 5. With ample capacity, no vehicle with a future due date is late.
  if (capacity >= fleet_size) {
    for (const auto& a : plan.assignments) {
      if (a.predicted_due_date >= plan.today) {
        EXPECT_LE(a.slack_days, 0) << a.vehicle_id;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlannerPropertyTest,
    testing::Combine(testing::Values(1, 2, 5, 40),
                     testing::Values(5, 20, 40),
                     testing::Values(uint64_t{1}, uint64_t{9})));

}  // namespace
}  // namespace nextmaint
