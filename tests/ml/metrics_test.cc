// Tests for the regression metric used in cross-validation.

#include <gtest/gtest.h>

#include "ml/metrics.h"

namespace nextmaint {
namespace ml {
namespace {

TEST(MetricsTest, MaeBasics) {
  EXPECT_DOUBLE_EQ(MeanAbsoluteError({1, 2}, {2, 0}).ValueOrDie(), 1.5);
  EXPECT_DOUBLE_EQ(MeanAbsoluteError({-1}, {1}).ValueOrDie(), 2.0);
}

TEST(MetricsTest, ErrorOnShapeProblems) {
  EXPECT_FALSE(MeanAbsoluteError({1, 2}, {1}).ok());
  EXPECT_FALSE(MeanAbsoluteError({}, {}).ok());
}

}  // namespace
}  // namespace ml
}  // namespace nextmaint
