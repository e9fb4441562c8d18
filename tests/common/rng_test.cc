#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

namespace nextmaint {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  size_t equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_EQ(equal, 0u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.Uniform(-3.5, 12.25);
    EXPECT_GE(v, -3.5);
    EXPECT_LT(v, 12.25);
  }
}

TEST(RngTest, UniformIntCoversFullRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int draws = 100'000;
  for (int i = 0; i < draws; ++i) {
    ++counts[rng.UniformInt(uint64_t{10})];
  }
  // Chi-squared-ish sanity: every bucket within 10% of expectation.
  for (int count : counts) {
    EXPECT_NEAR(count, draws / 10, draws / 100);
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(13);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(int64_t{-2}, int64_t{2});
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values hit in 1000 draws
}

TEST(RngTest, NormalMatchesMoments) {
  Rng rng(17);
  const int n = 200'000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(RngTest, NormalWithParamsShiftsAndScales) {
  Rng rng(19);
  const int n = 100'000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Normal(100.0, 5.0);
  EXPECT_NEAR(sum / n, 100.0, 0.1);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(31);
  const int n = 100'000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Exponential(0.25);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(61);
  std::vector<int> values(50);
  std::iota(values.begin(), values.end(), 0);
  std::vector<int> shuffled = values;
  rng.Shuffle(&shuffled);
  EXPECT_FALSE(std::equal(values.begin(), values.end(), shuffled.begin()));
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RngTest, ShuffleEmptyAndSingleton) {
  Rng rng(67);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one = {5};
  rng.Shuffle(&one);
  EXPECT_EQ(one, std::vector<int>{5});
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(71);
  Rng child = parent.Fork();
  // The child stream must differ from the parent's continuation.
  size_t equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextUint64() == child.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2u);
}

TEST(RngTest, ForkIsDeterministic) {
  Rng a(73), b(73);
  Rng fa = a.Fork();
  Rng fb = b.Fork();
  EXPECT_EQ(fa.NextUint64(), fb.NextUint64());
}

}  // namespace
}  // namespace nextmaint
