// Tests for the tree-based models: DecisionTreeRegressor,
// RandomForestRegressor and HistGradientBoostingRegressor.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ml/decision_tree.h"
#include "ml/hist_gradient_boosting.h"
#include "ml/random_forest.h"

namespace nextmaint {
namespace ml {
namespace {

/// A step function: y = 10 for x < 0.5, y = -10 otherwise. Trees should fit
/// it exactly; linear models cannot.
Dataset MakeStepData(size_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.Uniform(0, 1);
    const std::vector<double> row = {x};
    d.AddRow(std::span<const double>(row.data(), 1),
             x < 0.5 ? 10.0 : -10.0);
  }
  return d;
}

/// Nonlinear two-feature target: y = x0 * x1 (interaction).
Dataset MakeInteractionData(size_t n, uint64_t seed, double noise = 0.0) {
  Rng rng(seed);
  Dataset d;
  for (size_t i = 0; i < n; ++i) {
    const double x0 = rng.Uniform(0, 4);
    const double x1 = rng.Uniform(0, 4);
    const std::vector<double> row = {x0, x1};
    d.AddRow(std::span<const double>(row.data(), 2),
             x0 * x1 + rng.Normal(0.0, noise));
  }
  return d;
}

double Mae(const Regressor& model, const Dataset& data) {
  const std::vector<double> preds =
      model.PredictBatch(data.x()).ValueOrDie();
  double acc = 0.0;
  for (size_t i = 0; i < preds.size(); ++i) {
    acc += std::fabs(preds[i] - data.y()[i]);
  }
  return acc / static_cast<double>(preds.size());
}

TEST(DecisionTreeTest, FitsStepFunctionExactly) {
  DecisionTreeRegressor tree;
  const Dataset data = MakeStepData(200, 1);
  ASSERT_TRUE(tree.Fit(data).ok());
  EXPECT_LT(Mae(tree, data), 1e-9);
  EXPECT_GE(tree.leaf_count(), 2u);
}

TEST(DecisionTreeTest, SingleLeafForConstantTarget) {
  Dataset d;
  for (double x = 0; x < 10; ++x) {
    const std::vector<double> row = {x};
    d.AddRow(std::span<const double>(row.data(), 1), 4.0);
  }
  DecisionTreeRegressor tree;
  ASSERT_TRUE(tree.Fit(d).ok());
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.depth(), 0);
  const std::vector<double> probe = {99.0};
  EXPECT_DOUBLE_EQ(
      tree.Predict(std::span<const double>(probe.data(), 1)).ValueOrDie(),
      4.0);
}

TEST(DecisionTreeTest, MaxDepthLimitsTree) {
  DecisionTreeRegressor::Options options;
  options.max_depth = 2;
  DecisionTreeRegressor tree(options);
  ASSERT_TRUE(tree.Fit(MakeInteractionData(500, 2)).ok());
  EXPECT_LE(tree.depth(), 2);
  EXPECT_LE(tree.leaf_count(), 4u);
}

TEST(DecisionTreeTest, MinSamplesLeafRespected) {
  DecisionTreeRegressor::Options options;
  options.min_samples_leaf = 50;
  DecisionTreeRegressor tree(options);
  const Dataset data = MakeInteractionData(200, 3);
  ASSERT_TRUE(tree.Fit(data).ok());
  // 200 samples with min leaf 50 allows at most 4 leaves.
  EXPECT_LE(tree.leaf_count(), 4u);
}

TEST(DecisionTreeTest, ConstantFeatureNeverSplit) {
  Rng rng(5);
  Dataset d;
  for (int i = 0; i < 100; ++i) {
    const double x = rng.Uniform(0, 1);
    const std::vector<double> row = {5.0, x};  // feature 0 constant
    d.AddRow(std::span<const double>(row.data(), 2), x > 0.5 ? 1.0 : 0.0);
  }
  DecisionTreeRegressor tree;
  ASSERT_TRUE(tree.Fit(d).ok());
  EXPECT_LT(Mae(tree, d), 1e-9);  // splits on feature 1 alone
}

TEST(DecisionTreeTest, FitIndicesUsesSubset) {
  const Dataset data = MakeStepData(100, 7);
  DecisionTreeRegressor tree;
  // Train only on the x < 0.5 half: predictions collapse to 10 everywhere.
  std::vector<size_t> subset;
  for (size_t i = 0; i < data.num_rows(); ++i) {
    if (data.x()(i, 0) < 0.5) subset.push_back(i);
  }
  ASSERT_TRUE(tree.FitIndices(data, subset).ok());
  const std::vector<double> probe = {0.9};
  EXPECT_DOUBLE_EQ(
      tree.Predict(std::span<const double>(probe.data(), 1)).ValueOrDie(),
      10.0);
}

TEST(DecisionTreeTest, ErrorPaths) {
  DecisionTreeRegressor tree;
  EXPECT_FALSE(tree.Fit(Dataset()).ok());
  EXPECT_FALSE(tree.is_fitted());
  const std::vector<double> probe = {1.0};
  EXPECT_EQ(tree.Predict(std::span<const double>(probe.data(), 1))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  DecisionTreeRegressor::Options bad;
  bad.min_samples_leaf = 0;
  DecisionTreeRegressor invalid(bad);
  EXPECT_FALSE(invalid.Fit(MakeStepData(10, 8)).ok());
}

TEST(DecisionTreeTest, PredictValidatesFeatureCount) {
  DecisionTreeRegressor tree;
  ASSERT_TRUE(tree.Fit(MakeInteractionData(50, 9)).ok());
  const std::vector<double> wrong = {1.0};
  EXPECT_EQ(tree.Predict(std::span<const double>(wrong.data(), 1))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(RandomForestTest, BeatsSingleTreeOnNoisyData) {
  const Dataset train = MakeInteractionData(400, 10, /*noise=*/2.0);
  const Dataset test = MakeInteractionData(400, 11, /*noise=*/0.0);

  DecisionTreeRegressor tree;
  ASSERT_TRUE(tree.Fit(train).ok());
  RandomForestRegressor::Options options;
  options.num_estimators = 50;
  RandomForestRegressor forest(options);
  ASSERT_TRUE(forest.Fit(train).ok());

  EXPECT_LT(Mae(forest, test), Mae(tree, test));
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  const Dataset data = MakeInteractionData(200, 12, 1.0);
  RandomForestRegressor a, b;
  ASSERT_TRUE(a.Fit(data).ok());
  ASSERT_TRUE(b.Fit(data).ok());
  const std::vector<double> probe = {1.5, 2.5};
  EXPECT_DOUBLE_EQ(
      a.Predict(std::span<const double>(probe.data(), 2)).ValueOrDie(),
      b.Predict(std::span<const double>(probe.data(), 2)).ValueOrDie());
}

TEST(RandomForestTest, DifferentSeedsDifferentForests) {
  const Dataset data = MakeInteractionData(200, 13, 1.0);
  RandomForestRegressor::Options oa, ob;
  oa.seed = 1;
  ob.seed = 2;
  RandomForestRegressor a(oa), b(ob);
  ASSERT_TRUE(a.Fit(data).ok());
  ASSERT_TRUE(b.Fit(data).ok());
  const std::vector<double> probe = {1.5, 2.5};
  EXPECT_NE(
      a.Predict(std::span<const double>(probe.data(), 2)).ValueOrDie(),
      b.Predict(std::span<const double>(probe.data(), 2)).ValueOrDie());
}

TEST(RandomForestTest, TreeCountMatchesOption) {
  RandomForestRegressor::Options options;
  options.num_estimators = 7;
  RandomForestRegressor forest(options);
  ASSERT_TRUE(forest.Fit(MakeStepData(100, 14)).ok());
  EXPECT_EQ(forest.tree_count(), 7u);
}

TEST(RandomForestTest, HeldOutErrorIsReasonable) {
  RandomForestRegressor::Options options;
  options.num_estimators = 30;
  RandomForestRegressor forest(options);
  ASSERT_TRUE(forest.Fit(MakeStepData(300, 15)).ok());
  // Step data is easy: the MAE on fresh rows should be far below the
  // target spread (20).
  EXPECT_LT(Mae(forest, MakeStepData(300, 115)), 2.0);
}

TEST(RandomForestTest, InvalidOptions) {
  const Dataset data = MakeStepData(50, 16);
  {
    RandomForestRegressor::Options options;
    options.num_estimators = 0;
    RandomForestRegressor forest(options);
    EXPECT_FALSE(forest.Fit(data).ok());
  }
  {
    RandomForestRegressor::Options options;
    options.bootstrap_fraction = 1.5;
    RandomForestRegressor forest(options);
    EXPECT_FALSE(forest.Fit(data).ok());
  }
}

TEST(RandomForestTest, OptionsFromParams) {
  const auto options = RandomForestRegressor::OptionsFromParams(
      {{"num_estimators", 250}, {"max_depth", 12}, {"min_samples_leaf", 3}});
  EXPECT_EQ(options.num_estimators, 250);
  EXPECT_EQ(options.max_depth, 12);
  EXPECT_EQ(options.min_samples_leaf, 3);
}

TEST(HistGradientBoostingTest, FitsStepFunction) {
  HistGradientBoostingRegressor model;
  const Dataset data = MakeStepData(300, 20);
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_LT(Mae(model, data), 0.5);
}

TEST(HistGradientBoostingTest, FitsInteraction) {
  HistGradientBoostingRegressor::Options options;
  options.num_iterations = 200;
  options.min_samples_leaf = 5;
  HistGradientBoostingRegressor model(options);
  const Dataset train = MakeInteractionData(2000, 21);
  const Dataset test = MakeInteractionData(500, 22);
  ASSERT_TRUE(model.Fit(train).ok());
  // Targets range over [0, 16]; a good fit is well under 1.0 MAE.
  EXPECT_LT(Mae(model, test), 1.0);
}

TEST(HistGradientBoostingTest, TrainingLossDecreases) {
  HistGradientBoostingRegressor model;
  ASSERT_TRUE(model.Fit(MakeInteractionData(500, 23)).ok());
  const std::vector<double>& losses = model.training_loss_curve();
  ASSERT_GE(losses.size(), 2u);
  EXPECT_LT(losses.back(), losses.front());
  // Squared loss under shrinkage is monotone non-increasing.
  for (size_t i = 1; i < losses.size(); ++i) {
    EXPECT_LE(losses[i], losses[i - 1] + 1e-9);
  }
}

TEST(HistGradientBoostingTest, LearningRateTradesIterations) {
  const Dataset data = MakeInteractionData(500, 24);
  HistGradientBoostingRegressor::Options slow;
  slow.learning_rate = 0.01;
  slow.num_iterations = 20;
  HistGradientBoostingRegressor slow_model(slow);
  ASSERT_TRUE(slow_model.Fit(data).ok());
  HistGradientBoostingRegressor::Options fast;
  fast.learning_rate = 0.3;
  fast.num_iterations = 20;
  HistGradientBoostingRegressor fast_model(fast);
  ASSERT_TRUE(fast_model.Fit(data).ok());
  // With few iterations, the faster learning rate fits the data tighter.
  EXPECT_LT(Mae(fast_model, data), Mae(slow_model, data));
}

TEST(HistGradientBoostingTest, FewBinsStillWork) {
  HistGradientBoostingRegressor::Options options;
  options.max_bins = 4;
  HistGradientBoostingRegressor model(options);
  const Dataset data = MakeStepData(200, 25);
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_LT(Mae(model, data), 3.0);
}

TEST(HistGradientBoostingTest, ConstantTargetConvergesImmediately) {
  Dataset d;
  for (double x = 0; x < 50; ++x) {
    const std::vector<double> row = {x};
    d.AddRow(std::span<const double>(row.data(), 1), 3.0);
  }
  HistGradientBoostingRegressor model;
  ASSERT_TRUE(model.Fit(d).ok());
  const std::vector<double> probe = {25.0};
  EXPECT_NEAR(
      model.Predict(std::span<const double>(probe.data(), 1)).ValueOrDie(),
      3.0, 1e-9);
  // Early stop: far fewer trees than requested.
  EXPECT_LT(model.tree_count(), 100u);
}

TEST(HistGradientBoostingTest, InvalidOptions) {
  const Dataset data = MakeStepData(50, 26);
  {
    HistGradientBoostingRegressor::Options options;
    options.num_iterations = 0;
    HistGradientBoostingRegressor model(options);
    EXPECT_FALSE(model.Fit(data).ok());
  }
  {
    HistGradientBoostingRegressor::Options options;
    options.learning_rate = 0.0;
    HistGradientBoostingRegressor model(options);
    EXPECT_FALSE(model.Fit(data).ok());
  }
  {
    HistGradientBoostingRegressor::Options options;
    options.max_bins = 1;
    HistGradientBoostingRegressor model(options);
    EXPECT_FALSE(model.Fit(data).ok());
  }
}

TEST(HistGradientBoostingTest, OptionsFromParams) {
  const auto options = HistGradientBoostingRegressor::OptionsFromParams(
      {{"num_iterations", 500},
       {"max_depth", 4},
       {"learning_rate", 0.05},
       {"max_bins", 64}});
  EXPECT_EQ(options.num_iterations, 500);
  EXPECT_EQ(options.max_depth, 4);
  EXPECT_DOUBLE_EQ(options.learning_rate, 0.05);
  EXPECT_EQ(options.max_bins, 64);
}


TEST(HistGradientBoostingTest, EarlyStoppingHaltsOnPlateau) {
  // Pure-noise target: the validation loss cannot improve, so boosting
  // must stop after ~early_stopping_rounds stages instead of 400.
  Rng rng(40);
  Dataset d;
  for (int i = 0; i < 400; ++i) {
    const std::vector<double> row = {rng.Uniform(0, 1)};
    d.AddRow(std::span<const double>(row.data(), 1), rng.Normal(0, 1));
  }
  HistGradientBoostingRegressor::Options options;
  options.num_iterations = 400;
  options.validation_fraction = 0.25;
  options.early_stopping_rounds = 5;
  HistGradientBoostingRegressor model(options);
  ASSERT_TRUE(model.Fit(d).ok());
  EXPECT_LT(model.tree_count(), 100u);
  EXPECT_FALSE(model.validation_loss_curve().empty());
}

TEST(HistGradientBoostingTest, EarlyStoppingKeepsLearnableSignal) {
  // Strong signal: early stopping must not fire prematurely, and the fit
  // quality should be close to the no-validation run.
  const Dataset train = MakeInteractionData(1500, 41);
  const Dataset test = MakeInteractionData(400, 42);
  HistGradientBoostingRegressor::Options options;
  options.num_iterations = 150;
  options.validation_fraction = 0.2;
  options.early_stopping_rounds = 10;
  options.min_samples_leaf = 5;
  HistGradientBoostingRegressor with_es(options);
  ASSERT_TRUE(with_es.Fit(train).ok());
  EXPECT_LT(Mae(with_es, test), 1.5);
}

TEST(HistGradientBoostingTest, EarlyStoppingOptionValidation) {
  const Dataset data = MakeStepData(50, 43);
  {
    HistGradientBoostingRegressor::Options options;
    options.validation_fraction = 1.0;
    HistGradientBoostingRegressor model(options);
    EXPECT_FALSE(model.Fit(data).ok());
  }
  {
    HistGradientBoostingRegressor::Options options;
    options.validation_fraction = 0.2;
    options.early_stopping_rounds = 0;
    HistGradientBoostingRegressor model(options);
    EXPECT_FALSE(model.Fit(data).ok());
  }
}

TEST(RandomForestTest, PredictBatchMatchesPerRowPredict) {
  RandomForestRegressor::Options options;
  options.num_estimators = 20;
  RandomForestRegressor forest(options);
  const Dataset train = MakeInteractionData(300, 17, 1.0);
  const Dataset test = MakeInteractionData(100, 18);
  ASSERT_TRUE(forest.Fit(train).ok());
  const std::vector<double> batch =
      forest.PredictBatch(test.x()).ValueOrDie();
  ASSERT_EQ(batch.size(), test.num_rows());
  // The dedicated override must accumulate in the exact per-row order, so
  // the results are bit-identical, not merely close.
  for (size_t r = 0; r < test.num_rows(); ++r) {
    EXPECT_EQ(batch[r], forest.Predict(test.x().Row(r)).ValueOrDie()) << r;
  }
  EXPECT_TRUE(forest.PredictBatch(Matrix(0, 2)).ValueOrDie().empty());

  RandomForestRegressor unfitted;
  EXPECT_EQ(unfitted.PredictBatch(test.x()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(HistGradientBoostingTest, PredictBatchMatchesPerRowPredict) {
  HistGradientBoostingRegressor model;
  const Dataset train = MakeInteractionData(500, 27);
  const Dataset test = MakeInteractionData(100, 28);
  ASSERT_TRUE(model.Fit(train).ok());
  const std::vector<double> batch =
      model.PredictBatch(test.x()).ValueOrDie();
  ASSERT_EQ(batch.size(), test.num_rows());
  for (size_t r = 0; r < test.num_rows(); ++r) {
    EXPECT_EQ(batch[r], model.Predict(test.x().Row(r)).ValueOrDie()) << r;
  }
  EXPECT_TRUE(model.PredictBatch(Matrix(0, 2)).ValueOrDie().empty());
  EXPECT_EQ(model.PredictBatch(Matrix(3, 5)).status().code(),
            StatusCode::kInvalidArgument);

  HistGradientBoostingRegressor unfitted;
  EXPECT_EQ(unfitted.PredictBatch(test.x()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(BinMapperTest, QuantileBinsAreMonotone) {
  Rng rng(30);
  Matrix x(1000, 1);
  for (size_t r = 0; r < 1000; ++r) x(r, 0) = rng.Normal(0, 1);
  BinMapper mapper;
  mapper.Compute(x, 16);
  EXPECT_LE(mapper.BinCount(0), 16u);
  // Bins are monotone in the raw value.
  uint16_t prev = mapper.BinOf(0, -10.0);
  for (double v = -10.0; v <= 10.0; v += 0.25) {
    const uint16_t bin = mapper.BinOf(0, v);
    EXPECT_GE(bin, prev);
    prev = bin;
  }
}

TEST(BinMapperTest, FewDistinctValuesOneBinEach) {
  Matrix x(6, 1);
  const double values[] = {1, 1, 2, 2, 3, 3};
  for (size_t r = 0; r < 6; ++r) x(r, 0) = values[r];
  BinMapper mapper;
  mapper.Compute(x, 256);
  EXPECT_EQ(mapper.BinCount(0), 3u);
  EXPECT_NE(mapper.BinOf(0, 1.0), mapper.BinOf(0, 2.0));
  EXPECT_NE(mapper.BinOf(0, 2.0), mapper.BinOf(0, 3.0));
}

TEST(BinMapperTest, UpperBoundBracketsBin) {
  Matrix x(4, 1);
  const double values[] = {0.0, 1.0, 2.0, 3.0};
  for (size_t r = 0; r < 4; ++r) x(r, 0) = values[r];
  BinMapper mapper;
  mapper.Compute(x, 256);
  for (double v : values) {
    const uint16_t bin = mapper.BinOf(0, v);
    EXPECT_LE(v, mapper.UpperBound(0, bin));
  }
}

}  // namespace
}  // namespace ml
}  // namespace nextmaint
