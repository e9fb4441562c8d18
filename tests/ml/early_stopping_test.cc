// EarlyStopping (ml/early_stopping.h) unit tests: the plateau detector
// behind XGB's tail-holdout early stopping.

#include <gtest/gtest.h>

#include <limits>

#include "ml/early_stopping.h"

namespace nextmaint {
namespace ml {
namespace {

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

}  // namespace
}  // namespace ml
}  // namespace nextmaint
