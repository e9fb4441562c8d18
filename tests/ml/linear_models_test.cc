// Tests for the two linear models: LinearRegression (OLS/ridge) and
// LinearSvr (epsilon-insensitive dual coordinate descent).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/linear_regression.h"
#include "ml/linear_svr.h"
#include "ml/serialization.h"

namespace nextmaint {
namespace ml {
namespace {

/// y = 3 + 2*x0 - x1 plus optional noise.
Dataset MakeLinearData(size_t n, double noise_stddev, uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  for (size_t i = 0; i < n; ++i) {
    const double x0 = rng.Uniform(-5, 5);
    const double x1 = rng.Uniform(0, 10);
    const double y = 3.0 + 2.0 * x0 - x1 + rng.Normal(0.0, noise_stddev);
    const std::vector<double> row = {x0, x1};
    d.AddRow(std::span<const double>(row.data(), 2), y);
  }
  return d;
}

TEST(LinearRegressionTest, RecoversExactCoefficients) {
  LinearRegression model;
  ASSERT_TRUE(model.Fit(MakeLinearData(200, 0.0, 1)).ok());
  ASSERT_TRUE(model.is_fitted());
  EXPECT_NEAR(model.weights()[0], 2.0, 1e-8);
  EXPECT_NEAR(model.weights()[1], -1.0, 1e-8);
  EXPECT_NEAR(model.intercept(), 3.0, 1e-8);
}

TEST(LinearRegressionTest, PredictsUnseenPoints) {
  LinearRegression model;
  ASSERT_TRUE(model.Fit(MakeLinearData(200, 0.0, 2)).ok());
  const std::vector<double> point = {1.0, 2.0};
  EXPECT_NEAR(model.Predict(std::span<const double>(point.data(), 2))
                  .ValueOrDie(),
              3.0 + 2.0 - 2.0, 1e-8);
}

TEST(LinearRegressionTest, RobustToNoise) {
  LinearRegression model;
  ASSERT_TRUE(model.Fit(MakeLinearData(5000, 0.5, 3)).ok());
  EXPECT_NEAR(model.weights()[0], 2.0, 0.05);
  EXPECT_NEAR(model.weights()[1], -1.0, 0.05);
}

TEST(LinearRegressionTest, RidgeShrinksTowardZero) {
  const Dataset data = MakeLinearData(100, 0.0, 4);
  LinearRegression plain;
  ASSERT_TRUE(plain.Fit(data).ok());
  LinearRegression::Options options;
  options.l2 = 1000.0;
  LinearRegression ridge(options);
  ASSERT_TRUE(ridge.Fit(data).ok());
  EXPECT_LT(std::fabs(ridge.weights()[0]), std::fabs(plain.weights()[0]));
  // The intercept is unpenalized: predictions at the feature mean stay
  // close to the target mean.
}

TEST(LinearRegressionTest, NoInterceptOption) {
  LinearRegression::Options options;
  options.fit_intercept = false;
  LinearRegression model(options);
  // y = 2x without intercept.
  Dataset d;
  for (double x = 1; x <= 5; ++x) {
    const std::vector<double> row = {x};
    d.AddRow(std::span<const double>(row.data(), 1), 2 * x);
  }
  ASSERT_TRUE(model.Fit(d).ok());
  EXPECT_NEAR(model.weights()[0], 2.0, 1e-10);
  EXPECT_DOUBLE_EQ(model.intercept(), 0.0);
}

TEST(LinearRegressionTest, ConstantTargetGivesInterceptOnly) {
  Dataset d;
  for (double x = 0; x < 10; ++x) {
    const std::vector<double> row = {x};
    d.AddRow(std::span<const double>(row.data(), 1), 7.0);
  }
  LinearRegression model;
  ASSERT_TRUE(model.Fit(d).ok());
  EXPECT_NEAR(model.weights()[0], 0.0, 1e-10);
  EXPECT_NEAR(model.intercept(), 7.0, 1e-10);
}

TEST(LinearRegressionTest, ErrorPaths) {
  LinearRegression model;
  EXPECT_FALSE(model.Fit(Dataset()).ok());
  EXPECT_FALSE(model.is_fitted());
  const std::vector<double> point = {1.0};
  EXPECT_EQ(model.Predict(std::span<const double>(point.data(), 1))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(model.Fit(MakeLinearData(50, 0.0, 5)).ok());
  EXPECT_EQ(model.Predict(std::span<const double>(point.data(), 1))
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // needs 2 features
}

TEST(LinearRegressionTest, RejectsNonFiniteFeatures) {
  Dataset d = MakeLinearData(10, 0.0, 6);
  Dataset poisoned = d;
  Matrix x = poisoned.x();
  x(0, 0) = std::nan("");
  poisoned = Dataset::Create(std::move(x), d.y()).ValueOrDie();
  LinearRegression model;
  EXPECT_FALSE(model.Fit(poisoned).ok());
}

TEST(LinearRegressionTest, CloneCarriesFittedState) {
  LinearRegression model;
  ASSERT_TRUE(model.Fit(MakeLinearData(100, 0.0, 7)).ok());
  const auto clone = model.Clone();
  ASSERT_TRUE(clone->is_fitted());
  const std::vector<double> point = {2.0, 3.0};
  EXPECT_DOUBLE_EQ(
      clone->Predict(std::span<const double>(point.data(), 2)).ValueOrDie(),
      model.Predict(std::span<const double>(point.data(), 2)).ValueOrDie());
}

TEST(LinearRegressionTest, OptionsFromParams) {
  const auto options = LinearRegression::OptionsFromParams({{"l2", 0.5}});
  EXPECT_DOUBLE_EQ(options.l2, 0.5);
}

/// The fit as it was before the fused normal equations: center every
/// entry explicitly, then Matrix::Gram + TransposeMultiplyVector, then the
/// shared solve. `cholesky_failed` reports whether the solve needed its
/// jitter retry.
struct ReferenceFit {
  std::vector<double> weights;
  double intercept = 0.0;
  bool cholesky_failed = false;
};

ReferenceFit FitByExplicitCentering(const Dataset& d,
                                    const LinearRegression::Options& options) {
  const size_t n = d.num_rows();
  const size_t p = d.num_features();
  std::vector<double> means(p, 0.0);
  double target_mean = 0.0;
  if (options.fit_intercept) {
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < p; ++c) means[c] += d.x()(r, c);
      target_mean += d.y()[r];
    }
    for (double& m : means) m /= static_cast<double>(n);
    target_mean /= static_cast<double>(n);
  }
  Matrix centered(n, p);
  std::vector<double> centered_y(n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < p; ++c) centered(r, c) = d.x()(r, c) - means[c];
    centered_y[r] = d.y()[r] - target_mean;
  }
  Matrix gram = centered.Gram();
  const std::vector<double> xty = centered.TransposeMultiplyVector(
      std::span<const double>(centered_y.data(), n));

  ReferenceFit fit;
  Matrix regularized = gram;
  for (size_t i = 0; i < p; ++i) regularized(i, i) += options.l2;
  fit.cholesky_failed =
      !CholeskySolve(regularized, std::span<const double>(xty.data(), p)).ok();
  fit.weights = SolveNormalEquations(std::move(gram),
                                     std::span<const double>(xty.data(), p),
                                     options.l2)
                    .ValueOrDie();
  fit.intercept = target_mean;
  for (size_t c = 0; c < p; ++c) fit.intercept -= fit.weights[c] * means[c];
  if (!options.fit_intercept) fit.intercept = 0.0;
  return fit;
}

Dataset FromRows(const std::vector<std::vector<double>>& rows,
                 const std::vector<double>& y) {
  return Dataset::Create(Matrix::FromRows(rows), y).ValueOrDie();
}

std::string SaveBytes(const Regressor& model) {
  std::ostringstream out;
  EXPECT_TRUE(model.Save(out).ok());
  return out.str();
}

/// Save bytes of an LR model holding exactly `weights` and `intercept`.
std::string ReferenceSaveBytes(const std::vector<double>& weights,
                               double intercept) {
  std::string body;
  ModelWriter writer(body);
  writer.Put("weights ").Put(weights.size());
  for (double w : weights) writer.Put(' ').Put(w);
  writer.Put('\n');
  writer.Line("intercept", intercept);
  writer.Line("end");
  ModelReader reader(body);
  return SaveBytes(LinearRegression::LoadBody(reader).ValueOrDie());
}

/// The fused single-pass fit reproduces the explicit-centering reference
/// bit for bit, including the cases where a zero skip decides the sign of
/// a zero sum and where the solve needs its jitter retry.
TEST(LinearRegressionTest, FusedFitMatchesExplicitCenteringBitForBit) {
  struct Case {
    std::string name;
    Dataset data;
    bool needs_jitter_with_intercept;
  };
  std::vector<Case> cases;
  {
    // Column 0 takes its own mean (2) on every fifth row; column 1 is
    // constant, so its centered entries are all exactly zero and the
    // centered Gram matrix is singular.
    std::vector<std::vector<double>> rows;
    std::vector<double> y;
    for (int r = 0; r < 60; ++r) {
      rows.push_back({static_cast<double>(r % 5), 5.0,
                      0.25 * static_cast<double>((r * 7) % 11)});
      y.push_back(static_cast<double>(r % 3));  // mean 1: zero centered targets
    }
    cases.push_back({"mean_valued_and_constant", FromRows(rows, y), true});
  }
  {
    // Signed zeros in features and targets.
    std::vector<std::vector<double>> rows;
    std::vector<double> y;
    const double values[] = {-0.0, 0.0, 1.5, -2.25, -0.0};
    for (int r = 0; r < 40; ++r) {
      rows.push_back({values[r % 5], values[(r + 2) % 5],
                      static_cast<double>(r) * 0.125});
      y.push_back(r % 4 == 0 ? -0.0 : values[(r + 1) % 5] + 0.5 * r);
    }
    cases.push_back({"signed_zeros", FromRows(rows, y), false});
  }
  {
    // Exactly collinear columns: x1 = 2 * x0, x2 = x0 + 1. The centered
    // entries are +-0.5 and +-1, so the Cholesky pivots cancel exactly.
    std::vector<std::vector<double>> rows;
    std::vector<double> y;
    for (int r = 0; r < 64; ++r) {
      const double x0 = static_cast<double>(r % 2);
      rows.push_back({x0, 2.0 * x0, x0 + 1.0});
      y.push_back(3.0 * x0 - 1.0 + 0.125 * static_cast<double>(r % 3));
    }
    cases.push_back({"collinear", FromRows(rows, y), true});
  }
  cases.push_back({"noisy", MakeLinearData(300, 0.5, 11), false});

  for (const Case& c : cases) {
    for (const bool fit_intercept : {true, false}) {
      for (const double l2 : {0.0, 0.75}) {
        LinearRegression::Options options;
        options.fit_intercept = fit_intercept;
        options.l2 = l2;
        const std::string label = c.name + " intercept=" +
                                  std::to_string(fit_intercept) +
                                  " l2=" + std::to_string(l2);
        const ReferenceFit reference = FitByExplicitCentering(c.data, options);
        if (c.needs_jitter_with_intercept && fit_intercept && l2 == 0.0) {
          EXPECT_TRUE(reference.cholesky_failed) << label;
        }
        LinearRegression model(options);
        ASSERT_TRUE(model.Fit(c.data).ok()) << label;
        ASSERT_EQ(model.weights().size(), reference.weights.size()) << label;
        for (size_t i = 0; i < reference.weights.size(); ++i) {
          EXPECT_EQ(std::bit_cast<uint64_t>(model.weights()[i]),
                    std::bit_cast<uint64_t>(reference.weights[i]))
              << label << " w" << i;
        }
        EXPECT_EQ(std::bit_cast<uint64_t>(model.intercept()),
                  std::bit_cast<uint64_t>(reference.intercept))
            << label;
        EXPECT_EQ(SaveBytes(model),
                  ReferenceSaveBytes(reference.weights, reference.intercept))
            << label;
      }
    }
  }
}

TEST(LinearRegressionTest, ZeroFeatureDatasetIsAnEmptyDesignMatrix) {
  const Dataset d =
      Dataset::Create(Matrix(3, 0), std::vector<double>{1.0, 2.0, 3.0})
          .ValueOrDie();
  LinearRegression model;
  const Status status = model.Fit(d);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("empty design matrix"), std::string::npos);
  EXPECT_FALSE(model.is_fitted());
}

TEST(LinearSvrTest, FitsCleanLinearData) {
  LinearSvr::Options options;
  options.c = 10.0;
  options.epsilon = 0.01;
  LinearSvr model(options);
  ASSERT_TRUE(model.Fit(MakeLinearData(500, 0.0, 11)).ok());
  EXPECT_NEAR(model.weights()[0], 2.0, 0.05);
  EXPECT_NEAR(model.weights()[1], -1.0, 0.05);
  EXPECT_NEAR(model.intercept(), 3.0, 0.2);
}

TEST(LinearSvrTest, PredictionErrorWithinTube) {
  LinearSvr::Options options;
  options.c = 10.0;
  options.epsilon = 0.5;
  LinearSvr model(options);
  const Dataset data = MakeLinearData(500, 0.0, 13);
  ASSERT_TRUE(model.Fit(data).ok());
  // On noiseless data the fit should be within ~epsilon everywhere.
  const std::vector<double> preds = model.PredictBatch(data.x()).ValueOrDie();
  double max_err = 0.0;
  for (size_t i = 0; i < preds.size(); ++i) {
    max_err = std::max(max_err, std::fabs(preds[i] - data.y()[i]));
  }
  EXPECT_LT(max_err, 1.0);
}

TEST(LinearSvrTest, InsensitiveToOutliersComparedToLr) {
  // One wild outlier: SVR's L1 loss bounds its influence; OLS chases it.
  Dataset data = MakeLinearData(100, 0.0, 17);
  const std::vector<double> outlier_row = {0.0, 0.0};
  data.AddRow(std::span<const double>(outlier_row.data(), 2), 1000.0);

  LinearRegression lr;
  ASSERT_TRUE(lr.Fit(data).ok());
  LinearSvr::Options options;
  options.c = 1.0;
  options.epsilon = 0.1;
  LinearSvr svr(options);
  ASSERT_TRUE(svr.Fit(data).ok());

  const std::vector<double> probe = {0.0, 0.0};
  const double lr_pred =
      lr.Predict(std::span<const double>(probe.data(), 2)).ValueOrDie();
  const double svr_pred =
      svr.Predict(std::span<const double>(probe.data(), 2)).ValueOrDie();
  // True value at the probe is 3.0.
  EXPECT_GT(std::fabs(lr_pred - 3.0), std::fabs(svr_pred - 3.0));
  EXPECT_NEAR(svr_pred, 3.0, 1.0);
}

TEST(LinearSvrTest, ConvergesAndReportsIterations) {
  LinearSvr model;
  ASSERT_TRUE(model.Fit(MakeLinearData(200, 0.1, 19)).ok());
  EXPECT_GT(model.iterations_run(), 0);
  EXPECT_LE(model.iterations_run(), model.options().max_iterations);
}

TEST(LinearSvrTest, InvalidOptionsRejected) {
  const Dataset data = MakeLinearData(10, 0.0, 23);
  {
    LinearSvr::Options options;
    options.c = 0.0;
    LinearSvr model(options);
    EXPECT_FALSE(model.Fit(data).ok());
  }
  {
    LinearSvr::Options options;
    options.epsilon = -1.0;
    LinearSvr model(options);
    EXPECT_FALSE(model.Fit(data).ok());
  }
}

TEST(LinearSvrTest, ErrorPaths) {
  LinearSvr model;
  EXPECT_FALSE(model.Fit(Dataset()).ok());
  const std::vector<double> point = {1.0, 2.0};
  EXPECT_EQ(model.Predict(std::span<const double>(point.data(), 2))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(LinearSvrTest, DeterministicGivenSeed) {
  const Dataset data = MakeLinearData(200, 0.2, 29);
  LinearSvr a, b;
  ASSERT_TRUE(a.Fit(data).ok());
  ASSERT_TRUE(b.Fit(data).ok());
  ASSERT_EQ(a.weights().size(), b.weights().size());
  for (size_t i = 0; i < a.weights().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.weights()[i], b.weights()[i]);
  }
  EXPECT_DOUBLE_EQ(a.intercept(), b.intercept());
}

TEST(LinearSvrTest, OptionsFromParams) {
  const auto options =
      LinearSvr::OptionsFromParams({{"C", 50.0}, {"epsilon", 2.5}});
  EXPECT_DOUBLE_EQ(options.c, 50.0);
  EXPECT_DOUBLE_EQ(options.epsilon, 2.5);
}

TEST(LinearSvrTest, ConstantFeatureGetsNoWeight) {
  // Second feature constant: standardization maps it to zero, weight 0.
  Rng rng(31);
  Dataset d;
  for (int i = 0; i < 100; ++i) {
    const double x = rng.Uniform(0, 1);
    const std::vector<double> row = {x, 5.0};
    d.AddRow(std::span<const double>(row.data(), 2), 2.0 * x);
  }
  LinearSvr model;
  ASSERT_TRUE(model.Fit(d).ok());
  EXPECT_NEAR(model.weights()[1], 0.0, 1e-9);
}

}  // namespace
}  // namespace ml
}  // namespace nextmaint
