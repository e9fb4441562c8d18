// Tests for regression metrics and feature scalers.

#include <gtest/gtest.h>

#include "ml/metrics.h"
#include "ml/scaler.h"

namespace nextmaint {
namespace ml {
namespace {

TEST(MetricsTest, MseBasics) {
  EXPECT_DOUBLE_EQ(MeanSquaredError({1, 2, 3}, {1, 2, 3}).ValueOrDie(), 0.0);
  EXPECT_DOUBLE_EQ(MeanSquaredError({0, 0}, {3, 4}).ValueOrDie(), 12.5);
}

TEST(MetricsTest, MaeBasics) {
  EXPECT_DOUBLE_EQ(MeanAbsoluteError({1, 2}, {2, 0}).ValueOrDie(), 1.5);
  EXPECT_DOUBLE_EQ(MeanAbsoluteError({-1}, {1}).ValueOrDie(), 2.0);
}

TEST(MetricsTest, ErrorOnShapeProblems) {
  EXPECT_FALSE(MeanSquaredError({1, 2}, {1}).ok());
  EXPECT_FALSE(MeanAbsoluteError({}, {}).ok());
}

TEST(MinMaxScalerTest, ScalesColumnsIndependently) {
  const Matrix x = Matrix::FromRows({{0, 100}, {5, 200}, {10, 300}});
  MinMaxScaler scaler;
  const Matrix scaled = scaler.FitTransform(x).ValueOrDie();
  EXPECT_DOUBLE_EQ(scaled(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(scaled(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(scaled(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(scaled(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(scaled(2, 1), 1.0);
}

TEST(MinMaxScalerTest, TransformUsesTrainingRange) {
  const Matrix train = Matrix::FromRows({{0.0}, {10.0}});
  MinMaxScaler scaler;
  ASSERT_TRUE(scaler.Fit(train).ok());
  const Matrix test = Matrix::FromRows({{20.0}});
  EXPECT_DOUBLE_EQ(scaler.Transform(test).ValueOrDie()(0, 0), 2.0);
}

TEST(MinMaxScalerTest, ConstantColumnMapsToZero) {
  const Matrix x = Matrix::FromRows({{7.0}, {7.0}});
  MinMaxScaler scaler;
  const Matrix scaled = scaler.FitTransform(x).ValueOrDie();
  EXPECT_DOUBLE_EQ(scaled(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(scaled(1, 0), 0.0);
}

TEST(MinMaxScalerTest, ErrorPaths) {
  MinMaxScaler scaler;
  EXPECT_FALSE(scaler.Fit(Matrix()).ok());
  EXPECT_FALSE(scaler.Transform(Matrix::FromRows({{1.0}})).ok());
  ASSERT_TRUE(scaler.Fit(Matrix::FromRows({{1.0}, {2.0}})).ok());
  EXPECT_FALSE(scaler.Transform(Matrix::FromRows({{1.0, 2.0}})).ok());
}

TEST(StandardScalerTest, ZeroMeanUnitVariance) {
  const Matrix x = Matrix::FromRows({{1.0}, {2.0}, {3.0}, {4.0}});
  StandardScaler scaler;
  const Matrix scaled = scaler.FitTransform(x).ValueOrDie();
  double mean = 0.0, var = 0.0;
  for (size_t r = 0; r < 4; ++r) mean += scaled(r, 0);
  mean /= 4.0;
  for (size_t r = 0; r < 4; ++r) {
    var += (scaled(r, 0) - mean) * (scaled(r, 0) - mean);
  }
  var /= 4.0;
  EXPECT_NEAR(mean, 0.0, 1e-12);
  EXPECT_NEAR(var, 1.0, 1e-12);
}

TEST(StandardScalerTest, ConstantColumnShiftsOnly) {
  const Matrix x = Matrix::FromRows({{5.0}, {5.0}});
  StandardScaler scaler;
  const Matrix scaled = scaler.FitTransform(x).ValueOrDie();
  EXPECT_DOUBLE_EQ(scaled(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(scaler.stds()[0], 1.0);
}

TEST(StandardScalerTest, TransformAppliesTrainingStats) {
  const Matrix train = Matrix::FromRows({{0.0}, {2.0}});  // mean 1, std 1
  StandardScaler scaler;
  ASSERT_TRUE(scaler.Fit(train).ok());
  const Matrix test = Matrix::FromRows({{3.0}});
  EXPECT_DOUBLE_EQ(scaler.Transform(test).ValueOrDie()(0, 0), 2.0);
}

TEST(StandardScalerTest, ErrorPaths) {
  StandardScaler scaler;
  EXPECT_FALSE(scaler.Fit(Matrix()).ok());
  EXPECT_FALSE(scaler.Transform(Matrix::FromRows({{1.0}})).ok());
}

}  // namespace
}  // namespace ml
}  // namespace nextmaint
