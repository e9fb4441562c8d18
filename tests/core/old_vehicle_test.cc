#include "core/old_vehicle.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "telematics/fleet.h"

namespace nextmaint {
namespace core {
namespace {

Date Day(int offset) {
  return Date::FromYmd(2015, 1, 1).ValueOrDie().AddDays(offset);
}

/// Perfectly regular vehicle: 100 s/day, T = 1000 -> 10-day cycles. All
/// models should predict almost exactly.
data::DailySeries RegularVehicle(size_t days = 200) {
  return data::DailySeries(Day(0), std::vector<double>(days, 100.0));
}

/// A realistic simulated vehicle (long history, several cycles).
data::DailySeries SimulatedVehicle(uint64_t seed) {
  Rng rng(seed);
  telem::VehicleProfile profile = telem::DefaultFleetProfiles(1, &rng)[0];
  profile.maintenance_interval_s = 500'000.0;
  Rng sim_rng(seed + 1);
  return telem::SimulateVehicle(profile, Day(0), 900, 0.0, &sim_rng)
      .ValueOrDie()
      .utilization;
}

OldVehicleOptions FastOptions() {
  OldVehicleOptions options;
  options.tune = false;
  options.resampling_shifts = 0;
  return options;
}

TEST(EvaluateAlgorithmTest, RegularVehicleIsEasyForAllModels) {
  for (const char* algorithm : {"BL", "LR", "LSVR", "RF", "XGB"}) {
    const VehicleEvaluation eval =
        EvaluateAlgorithmOnVehicle(algorithm, RegularVehicle(), 1000.0,
                                   FastOptions())
            .ValueOrDie();
    EXPECT_LT(eval.emre, 1.5) << algorithm;
    EXPECT_EQ(eval.algorithm, algorithm);
    EXPECT_FALSE(eval.test_truth.empty());
    EXPECT_EQ(eval.test_truth.size(), eval.test_predicted.size());
    EXPECT_GE(eval.train_seconds, 0.0);
    EXPECT_NE(eval.model, nullptr);
  }
}

TEST(EvaluateAlgorithmTest, TestPeriodIsHeldOutTail) {
  const VehicleEvaluation eval =
      EvaluateAlgorithmOnVehicle("LR", RegularVehicle(), 1000.0,
                                 FastOptions())
          .ValueOrDie();
  // 200 days, 70% train -> 60 test days, all with defined targets.
  EXPECT_EQ(eval.test_truth.size(), 60u);
}

TEST(EvaluateAlgorithmTest, WindowConsumesLeadingTestDays) {
  OldVehicleOptions options = FastOptions();
  options.window = 5;
  const VehicleEvaluation eval =
      EvaluateAlgorithmOnVehicle("LR", RegularVehicle(), 1000.0, options)
          .ValueOrDie();
  EXPECT_EQ(eval.test_truth.size(), 60u);  // split=140 > W, no reduction
}

TEST(EvaluateAlgorithmTest, Last29FilterWorksOnSimulatedVehicle) {
  const data::DailySeries u = SimulatedVehicle(10);
  OldVehicleOptions all_data = FastOptions();
  OldVehicleOptions last29 = FastOptions();
  last29.train_on_last29_only = true;
  const double emre_all =
      EvaluateAlgorithmOnVehicle("RF", u, 500'000.0, all_data)
          .ValueOrDie()
          .emre;
  const double emre_29 =
      EvaluateAlgorithmOnVehicle("RF", u, 500'000.0, last29)
          .ValueOrDie()
          .emre;
  // The paper's central finding: the filter reduces near-deadline error.
  EXPECT_LT(emre_29, emre_all * 1.05);
}

TEST(EvaluateAlgorithmTest, BaselineUsesTrainingAverageOnly) {
  // A vehicle that doubles its usage rate in the test period: BL, anchored
  // to the training average, must overestimate D substantially.
  std::vector<double> values(140, 100.0);
  values.insert(values.end(), 60, 200.0);
  data::DailySeries u(Day(0), std::move(values));
  const VehicleEvaluation eval =
      EvaluateAlgorithmOnVehicle("BL", u, 1000.0, FastOptions())
          .ValueOrDie();
  // True cycles in the test period are 5 days; BL predicts ~2x.
  EXPECT_GT(eval.eglobal, 1.0);
}

TEST(EvaluateAlgorithmTest, TuningRunsGridSearch) {
  OldVehicleOptions options = FastOptions();
  options.tune = true;
  options.grid_budget = 0;
  const VehicleEvaluation eval =
      EvaluateAlgorithmOnVehicle("RF", SimulatedVehicle(20), 500'000.0,
                                 options)
          .ValueOrDie();
  EXPECT_FALSE(eval.best_params.empty());
  EXPECT_GT(eval.best_params.count("max_depth"), 0u);
}

TEST(EvaluateAlgorithmTest, ErrorCases) {
  // Unknown algorithm.
  EXPECT_FALSE(EvaluateAlgorithmOnVehicle("GBM", RegularVehicle(), 1000.0,
                                          FastOptions())
                   .ok());
  // Degenerate split.
  OldVehicleOptions bad = FastOptions();
  bad.train_fraction = 1.5;
  EXPECT_FALSE(
      EvaluateAlgorithmOnVehicle("LR", RegularVehicle(), 1000.0, bad).ok());
  // Too little data: no completed cycle anywhere.
  data::DailySeries tiny(Day(0), {10.0, 10.0, 10.0});
  EXPECT_FALSE(EvaluateAlgorithmOnVehicle("LR", tiny, 1'000'000.0,
                                          FastOptions())
                   .ok());
}

TEST(SelectBestModelTest, PicksMinEmre) {
  const ModelSelectionResult result =
      SelectBestModelForVehicle({"BL", "LR", "RF"}, SimulatedVehicle(30),
                                500'000.0, FastOptions())
          .ValueOrDie();
  ASSERT_EQ(result.evaluations.size(), 3u);
  const double best = result.evaluations[result.best_index].emre;
  for (const VehicleEvaluation& eval : result.evaluations) {
    EXPECT_LE(best, eval.emre);
  }
}

TEST(SelectBestModelTest, EmptyListFails) {
  EXPECT_FALSE(
      SelectBestModelForVehicle({}, RegularVehicle(), 1000.0, FastOptions())
          .ok());
}

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  for (double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

std::string ModelBytes(const ml::Regressor& model) {
  std::ostringstream out;
  EXPECT_TRUE(model.Save(out).ok());
  return out.str();
}

void ExpectSameEvaluation(const VehicleEvaluation& got,
                          const VehicleEvaluation& want,
                          const std::string& label) {
  EXPECT_EQ(got.algorithm, want.algorithm) << label;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.emre),
            std::bit_cast<uint64_t>(want.emre))
      << label;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.eglobal),
            std::bit_cast<uint64_t>(want.eglobal))
      << label;
  EXPECT_EQ(got.best_params, want.best_params) << label;
  EXPECT_EQ(Bits(got.test_truth), Bits(want.test_truth)) << label;
  EXPECT_EQ(Bits(got.test_predicted), Bits(want.test_predicted)) << label;
  ASSERT_NE(got.model, nullptr) << label;
  ASSERT_NE(want.model, nullptr) << label;
  EXPECT_EQ(ModelBytes(*got.model), ModelBytes(*want.model)) << label;
}

/// The first error the candidates meet when each is evaluated on its own,
/// in list order (OK when every candidate succeeds).
Status FirstCandidateError(const std::vector<std::string>& algorithms,
                           const data::DailySeries& u, double tv,
                           const OldVehicleOptions& options) {
  for (const std::string& algorithm : algorithms) {
    const Result<VehicleEvaluation> eval =
        EvaluateAlgorithmOnVehicle(algorithm, u, tv, options);
    if (!eval.ok()) return eval.status();
  }
  return Status::OK();
}

/// Candidates scored against one shared selection (one derivation, one
/// test matrix, one training dataset) match separate per-candidate
/// evaluations bit for bit.
TEST(SelectBestModelTest, SharedSelectionMatchesPerCandidateEvaluation) {
  const data::DailySeries u = SimulatedVehicle(40);
  const double tv = 500'000.0;
  std::vector<double> context(u.size());
  for (size_t i = 0; i < context.size(); ++i) {
    context[i] = 0.5 + 0.05 * static_cast<double>(i % 9);
  }
  struct Case {
    std::vector<std::string> algorithms;
    bool last29;
    int shifts;
    bool with_context;
  };
  std::vector<Case> cases;
  for (const std::vector<std::string>& algorithms :
       {std::vector<std::string>{"BL", "LR"},
        std::vector<std::string>{"BL", "LR", "RF"}}) {
    for (const bool last29 : {false, true}) {
      for (const int shifts : {0, 2}) {
        cases.push_back({algorithms, last29, shifts, false});
      }
    }
  }
  cases.push_back({{"BL", "LR"}, false, 2, true});

  for (const Case& c : cases) {
    OldVehicleOptions options = FastOptions();
    options.window = 3;
    options.train_on_last29_only = c.last29;
    options.resampling_shifts = c.shifts;
    if (c.with_context) {
      options.context = &context;
      options.context_forecast_days = 2;
    }
    std::string label = "last29=" + std::to_string(c.last29) +
                        " shifts=" + std::to_string(c.shifts) +
                        " context=" + std::to_string(c.with_context) + " [";
    for (const std::string& algorithm : c.algorithms) label += algorithm + " ";
    label += "]";

    const ModelSelectionResult selected =
        SelectBestModelForVehicle(c.algorithms, u, tv, options).ValueOrDie();
    ASSERT_EQ(selected.evaluations.size(), c.algorithms.size()) << label;
    size_t best = 0;
    for (size_t i = 0; i < c.algorithms.size(); ++i) {
      const VehicleEvaluation alone =
          EvaluateAlgorithmOnVehicle(c.algorithms[i], u, tv, options)
              .ValueOrDie();
      ExpectSameEvaluation(selected.evaluations[i], alone,
                           label + " " + c.algorithms[i]);
      if (alone.emre < selected.evaluations[best].emre) best = i;
    }
    EXPECT_EQ(selected.best_index, best) << label;
  }
}

/// A shared selection fails with exactly the error, and at exactly the
/// candidate, that separate per-candidate evaluations meet first.
TEST(SelectBestModelTest, SharedSelectionKeepsErrorOrder) {
  const double tv = 1000.0;
  // 100 s/day for 140 days, then idle: the 60-day test window completes
  // no cycle, so no test day is evaluable.
  std::vector<double> idle_tail(200, 0.0);
  std::fill(idle_tail.begin(), idle_tail.begin() + 140, 100.0);
  const data::DailySeries no_test_day(Day(0), idle_tail);
  // At T = 15,000 s the first cycle closes on day 149, after the 140-day
  // training slice: no completed training cycle, yet a scored test window.
  const data::DailySeries no_train_cycle = RegularVehicle();
  const double late_tv = 15'000.0;

  struct Case {
    std::string name;
    const data::DailySeries* u;
    double tv;
    std::vector<std::string> algorithms;
    OldVehicleOptions options;
    std::string error;
  };
  OldVehicleOptions missing_context = FastOptions();
  missing_context.context_forecast_days = 2;
  const std::string no_test = "no evaluable test day";
  const std::string no_records = "no records extracted";
  const std::string no_context = "no context series supplied";
  const std::vector<Case> cases = {
      {"no test day", &no_test_day, tv, {"BL", "LR"}, FastOptions(), no_test},
      {"no test day, LR first", &no_test_day, tv, {"LR", "BL"}, FastOptions(),
       no_test},
      {"no training cycle", &no_train_cycle, late_tv, {"BL", "LR"},
       FastOptions(), no_records},
      {"no training cycle, LR first", &no_train_cycle, late_tv, {"LR", "BL"},
       FastOptions(), no_records},
      {"missing context", &no_train_cycle, tv, {"BL", "LR"}, missing_context,
       no_context},
      {"missing context, LR first", &no_train_cycle, tv, {"LR", "BL"},
       missing_context, no_context},
  };
  for (const Case& c : cases) {
    const Status expected =
        FirstCandidateError(c.algorithms, *c.u, c.tv, c.options);
    ASSERT_FALSE(expected.ok()) << c.name;
    EXPECT_NE(expected.message().find(c.error), std::string::npos)
        << c.name << ": " << expected.ToString();
    const Result<ModelSelectionResult> selected =
        SelectBestModelForVehicle(c.algorithms, *c.u, c.tv, c.options);
    ASSERT_FALSE(selected.ok()) << c.name;
    EXPECT_EQ(selected.status().ToString(), expected.ToString()) << c.name;
  }
  // BL alone scores the vehicle without a training cycle: the error above
  // is LR's, met after BL succeeded.
  EXPECT_TRUE(
      SelectBestModelForVehicle({"BL"}, no_train_cycle, late_tv, FastOptions())
          .ok());
}

/// The same checks as ExpectSameEvaluation minus the model, which a memo
/// hit does not rebuild.
void ExpectSameScores(const VehicleEvaluation& got,
                      const VehicleEvaluation& want, const std::string& label) {
  EXPECT_EQ(got.algorithm, want.algorithm) << label;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.emre),
            std::bit_cast<uint64_t>(want.emre))
      << label;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.eglobal),
            std::bit_cast<uint64_t>(want.eglobal))
      << label;
  EXPECT_EQ(got.best_params, want.best_params) << label;
  EXPECT_EQ(Bits(got.test_truth), Bits(want.test_truth)) << label;
  EXPECT_EQ(Bits(got.test_predicted), Bits(want.test_predicted)) << label;
}

/// A selection that carries a memo across the nights of one growing
/// history scores every candidate exactly as a fresh selection does, on
/// the nights it reuses a fit and on the nights it trains again, over
/// several maintenance-cycle closes of the full history and of the
/// training slice, untuned and tuned.
TEST(SelectionMemoTest, NightByNightMatchesFreshSelection) {
  // 60-140 s/day against T = 1000 s: cycles of about ten days.
  const double tv = 1000.0;
  Rng rng(77);
  std::vector<double> usage(190);
  for (double& seconds : usage) seconds = rng.Uniform(60.0, 140.0);
  const data::DailySeries full(Day(0), usage);
  const size_t first_night = 150;

  struct Case {
    std::vector<std::string> algorithms;
    bool tune;
  };
  const std::vector<Case> cases = {{{"BL", "LR"}, false},
                                   {{"BL", "RF"}, false},
                                   {{"BL", "LR"}, true},
                                   {{"BL", "LSVR"}, true}};
  for (const Case& c : cases) {
    OldVehicleOptions options = FastOptions();
    options.window = 3;
    options.train_on_last29_only = true;
    options.tune = c.tune;
    const std::string label =
        c.algorithms[1] + (c.tune ? " tuned" : " untuned");
    SelectionMemo memo;
    size_t hits = 0, misses = 0, full_closes = 0;
    size_t full_cycles = 0;
    for (size_t n = first_night; n <= full.size(); ++n) {
      const data::DailySeries u = full.Slice(0, n);
      VehicleSelection remembered(u, tv, options, &memo);
      const ModelSelectionResult got =
          remembered.SelectBest(c.algorithms).ValueOrDie();
      const ModelSelectionResult want =
          VehicleSelection(u, tv, options).SelectBest(c.algorithms)
              .ValueOrDie();
      const std::string night = label + " n=" + std::to_string(n);
      ASSERT_EQ(got.evaluations.size(), want.evaluations.size()) << night;
      for (size_t i = 0; i < got.evaluations.size(); ++i) {
        ExpectSameScores(got.evaluations[i], want.evaluations[i], night);
      }
      EXPECT_EQ(got.best_index, want.best_index) << night;
      // Only the non-BL candidate is ever remembered.
      ASSERT_LE(remembered.memo_hits(), 1u) << night;
      (remembered.memo_hits() == 1 ? hits : misses) += 1;
      const size_t cycles = remembered.series()->completed_cycles();
      if (n > first_night && cycles > full_cycles) ++full_closes;
      full_cycles = cycles;
    }
    EXPECT_GE(full_closes, 3u) << label;
    EXPECT_GT(hits, 0u) << label;
    // The first night and every cycle close train again.
    EXPECT_GT(misses, full_closes) << label;
  }
}

/// Re-sampled time shifts and context series depend on more than the
/// closed cycles, so a selection with either never reads or fills a memo.
TEST(SelectionMemoTest, ShiftsAndContextBypassTheMemo) {
  const data::DailySeries u = SimulatedVehicle(42);
  std::vector<double> context(u.size(), 0.5);
  OldVehicleOptions shifted = FastOptions();
  shifted.resampling_shifts = 2;
  OldVehicleOptions with_context = FastOptions();
  with_context.context = &context;
  with_context.context_forecast_days = 1;
  for (const OldVehicleOptions& options : {shifted, with_context}) {
    SelectionMemo memo;
    for (int night = 0; night < 2; ++night) {
      VehicleSelection selection(u, 500'000.0, options, &memo);
      ASSERT_TRUE(selection.SelectBest({"BL", "LR"}).ok());
      EXPECT_EQ(selection.memo_hits(), 0u);
      EXPECT_TRUE(memo.empty());
    }
  }
}

TEST(PerDayResidualsTest, ComputesCurve) {
  VehicleEvaluation eval;
  eval.test_truth = {3, 2, 1, 3, 2, 1};
  eval.test_predicted = {4, 2, 1, 5, 2, 1};
  const std::vector<double> curve = PerDayResiduals(eval, 1, 3);
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_DOUBLE_EQ(curve[0], 0.0);  // d=1
  EXPECT_DOUBLE_EQ(curve[1], 0.0);  // d=2
  EXPECT_DOUBLE_EQ(curve[2], 1.5);  // d=3
}

TEST(PerDayResidualsTest, MissingDaysAreNaN) {
  VehicleEvaluation eval;
  eval.test_truth = {1.0};
  eval.test_predicted = {1.0};
  const std::vector<double> curve = PerDayResiduals(eval, 1, 2);
  EXPECT_DOUBLE_EQ(curve[0], 0.0);
  EXPECT_TRUE(std::isnan(curve[1]));
}

}  // namespace
}  // namespace core
}  // namespace nextmaint
