// EarlyStopping (ml/early_stopping.h) unit tests, plus the grid-search
// integration: a plateaued sweep with early stopping must select the same
// winner as the full exhaustive sweep, just cheaper.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ml/early_stopping.h"
#include "ml/model_selection.h"
#include "ml/regressor.h"

namespace nextmaint {
namespace ml {
namespace {

// ---------------------------------------------------------------------------
// Plateau detector

TEST(EarlyStoppingTest, MonotoneImprovingMetricNeverStops) {
  EarlyStopping stopper(EarlyStopping::Options{/*patience=*/3,
                                               /*min_delta=*/1e-12});
  for (int round = 0; round < 200; ++round) {
    EXPECT_FALSE(stopper.Update(100.0 - round)) << "round " << round;
  }
  EXPECT_FALSE(stopper.stopped());
  EXPECT_EQ(stopper.rounds_observed(), 200);
  EXPECT_EQ(stopper.best_round(), 199);
  EXPECT_DOUBLE_EQ(stopper.best_metric(), 100.0 - 199);
}

TEST(EarlyStoppingTest, PlateauedMetricStopsWithinPatience) {
  const int patience = 4;
  EarlyStopping stopper(EarlyStopping::Options{patience, 1e-12});
  for (int round = 0; round < 5; ++round) {
    EXPECT_FALSE(stopper.Update(10.0 - round));
  }
  // Constant from here: exactly `patience` stale rounds, then stop.
  for (int stale = 1; stale < patience; ++stale) {
    EXPECT_FALSE(stopper.Update(6.0)) << "stale round " << stale;
  }
  EXPECT_TRUE(stopper.Update(6.0));
  EXPECT_TRUE(stopper.stopped());
  EXPECT_EQ(stopper.best_round(), 4);
  EXPECT_EQ(stopper.rounds_observed(), 5 + patience);
  // The detector never un-stops, even on a late improvement.
  EXPECT_TRUE(stopper.Update(0.0));
}

TEST(EarlyStoppingTest, ImprovementsBelowMinDeltaCountAsStale) {
  EarlyStopping stopper(EarlyStopping::Options{/*patience=*/2,
                                               /*min_delta=*/0.5});
  EXPECT_FALSE(stopper.Update(10.0));
  // Neither 9.6 nor 9.55 beats best - min_delta = 9.5: two stale rounds.
  EXPECT_FALSE(stopper.Update(9.6));
  EXPECT_TRUE(stopper.Update(9.55));
  EXPECT_DOUBLE_EQ(stopper.best_metric(), 10.0);
  EXPECT_EQ(stopper.best_round(), 0);
}

TEST(EarlyStoppingTest, ResetStartsAFreshStream) {
  EarlyStopping stopper(EarlyStopping::Options{1, 1e-12});
  EXPECT_FALSE(stopper.Update(5.0));
  EXPECT_TRUE(stopper.Update(5.0));
  stopper.Reset();
  EXPECT_FALSE(stopper.stopped());
  EXPECT_EQ(stopper.rounds_observed(), 0);
  EXPECT_EQ(stopper.best_round(), -1);
  EXPECT_EQ(stopper.best_metric(), std::numeric_limits<double>::infinity());
  EXPECT_FALSE(stopper.Update(7.0));
}

// ---------------------------------------------------------------------------
// Grid-search early stopping
//
// A constant model predicting its single hyper-parameter "c" against
// all-zero targets makes every fold's MAE exactly |c| — the CV score is a
// provable, deterministic function of the grid point, so both the full
// sweep's winner and the plateau behavior can be asserted exactly.

class ConstantModel final : public Regressor {
 public:
  explicit ConstantModel(double value) : value_(value) {}

  Result<double> Predict(std::span<const double> /*features*/) const override {
    return value_;
  }
  std::string name() const override { return "Const"; }
  bool is_fitted() const override { return fitted_; }
  std::unique_ptr<Regressor> Clone() const override {
    return std::make_unique<ConstantModel>(*this);
  }

 protected:
  Status FitImpl(const Dataset& /*train*/) override {
    fitted_ = true;
    return Status::OK();
  }
  // Test-only model: never serialized.
  void SaveBody(ModelWriter& /*out*/) const override {}

 private:
  double value_ = 0.0;
  bool fitted_ = false;
};

Dataset ZeroTargetData(int rows) {
  Dataset d;
  for (int i = 0; i < rows; ++i) {
    const std::vector<double> row = {static_cast<double>(i)};
    d.AddRow(std::span<const double>(row.data(), 1), 0.0);
  }
  return d;
}

RegressorFactory ConstantFactory() {
  return [](const ParamMap& params) -> std::unique_ptr<Regressor> {
    return std::make_unique<ConstantModel>(params.at("c"));
  };
}

TEST(GridSearchEarlyStoppingTest, PlateauedGridSelectsSameWinnerAsFullSweep) {
  // Scores descend to 2 then plateau: the truncated sweep must stop inside
  // the plateau having already recorded the full sweep's winner.
  ParamGrid grid;
  grid.Add("c", {6.0, 5.0, 4.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0});
  const Dataset train = ZeroTargetData(40);

  GridSearchOptions full_options;
  const GridSearchResult full =
      GridSearchCV(ConstantFactory(), grid, train, full_options)
          .ValueOrDie();
  EXPECT_FALSE(full.stopped_early);
  EXPECT_EQ(full.points_evaluated, 10u);

  GridSearchOptions stopped_options;
  stopped_options.early_stopping_patience = 3;
  const GridSearchResult stopped =
      GridSearchCV(ConstantFactory(), grid, train, stopped_options)
          .ValueOrDie();
  EXPECT_TRUE(stopped.stopped_early);
  EXPECT_LT(stopped.points_evaluated, full.points_evaluated);
  EXPECT_EQ(stopped.best_params.at("c"), full.best_params.at("c"));
  EXPECT_DOUBLE_EQ(stopped.best_score, full.best_score);
}

TEST(GridSearchEarlyStoppingTest, ImprovingGridRunsTheFullSweep) {
  ParamGrid grid;
  grid.Add("c", {9.0, 7.0, 5.0, 3.0, 1.0});
  const Dataset train = ZeroTargetData(40);
  GridSearchOptions options;
  options.early_stopping_patience = 2;
  const GridSearchResult result =
      GridSearchCV(ConstantFactory(), grid, train, options).ValueOrDie();
  EXPECT_FALSE(result.stopped_early);
  EXPECT_EQ(result.points_evaluated, 5u);
  EXPECT_EQ(result.best_params.at("c"), 1.0);
}

TEST(GridSearchEarlyStoppingTest, ZeroPatienceKeepsTheExhaustiveDefault) {
  ParamGrid grid;
  grid.Add("c", {3.0, 3.0, 3.0, 3.0, 3.0, 3.0});
  const Dataset train = ZeroTargetData(40);
  const GridSearchResult result =
      GridSearchCV(ConstantFactory(), grid, train).ValueOrDie();
  EXPECT_FALSE(result.stopped_early);
  EXPECT_EQ(result.points_evaluated, 6u);
}

}  // namespace
}  // namespace ml
}  // namespace nextmaint
