#include "ml/dataset.h"

#include <gtest/gtest.h>

#include "ml/binned_dataset.h"

namespace nextmaint {
namespace ml {
namespace {

Dataset MakeDataset() {
  Matrix x = Matrix::FromRows({{1, 10}, {2, 20}, {3, 30}, {4, 40}});
  return Dataset::Create(std::move(x), {1, 2, 3, 4}, {"a", "b"})
      .ValueOrDie();
}

TEST(DatasetTest, CreateValidatesShapes) {
  Matrix x = Matrix::FromRows({{1}, {2}});
  EXPECT_TRUE(Dataset::Create(x, {1, 2}).ok());
  EXPECT_FALSE(Dataset::Create(x, {1, 2, 3}).ok());
  EXPECT_FALSE(Dataset::Create(x, {1, 2}, {"a", "b"}).ok());  // 1 feature
}

TEST(DatasetTest, Accessors) {
  const Dataset d = MakeDataset();
  EXPECT_EQ(d.num_rows(), 4u);
  EXPECT_EQ(d.num_features(), 2u);
  EXPECT_FALSE(d.empty());
  EXPECT_EQ(d.feature_names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_DOUBLE_EQ(d.y()[2], 3.0);
  EXPECT_DOUBLE_EQ(d.x()(2, 1), 30.0);
}

TEST(DatasetTest, AddRow) {
  Dataset d = MakeDataset();
  const std::vector<double> row = {5, 50};
  d.AddRow(std::span<const double>(row.data(), 2), 5.0);
  EXPECT_EQ(d.num_rows(), 5u);
  EXPECT_DOUBLE_EQ(d.y().back(), 5.0);
}

TEST(DatasetTest, SelectRowsWithDuplicates) {
  const Dataset d = MakeDataset();
  const Dataset sub = d.SelectRows({3, 3, 0});
  EXPECT_EQ(sub.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(sub.y()[0], 4.0);
  EXPECT_DOUBLE_EQ(sub.y()[1], 4.0);
  EXPECT_DOUBLE_EQ(sub.y()[2], 1.0);
  EXPECT_EQ(sub.feature_names(), d.feature_names());
}

TEST(DatasetTest, ConcatAppendsRows) {
  Dataset a = MakeDataset();
  const Dataset b = MakeDataset();
  ASSERT_TRUE(a.Concat(b).ok());
  EXPECT_EQ(a.num_rows(), 8u);
  EXPECT_DOUBLE_EQ(a.y()[4], 1.0);
}

TEST(DatasetTest, ConcatIntoEmptyAdopts) {
  Dataset empty;
  ASSERT_TRUE(empty.Concat(MakeDataset()).ok());
  EXPECT_EQ(empty.num_rows(), 4u);
  EXPECT_EQ(empty.num_features(), 2u);
}

TEST(DatasetTest, ConcatRejectsFeatureMismatch) {
  Dataset a = MakeDataset();
  Matrix x = Matrix::FromRows({{1}});
  Dataset b = Dataset::Create(std::move(x), {1}).ValueOrDie();
  EXPECT_FALSE(a.Concat(b).ok());
}

// ---------------------------------------------------------------------------
// BinMapper degenerate-column contract (see binned_dataset.h): an
// all-identical feature column collapses to a single bin that absorbs every
// query, and the histogram split search can therefore never split on it.

TEST(BinMapperDegenerateTest, AllIdenticalColumnGetsSingleBin) {
  const Matrix x = Matrix::FromRows({{7.5}, {7.5}, {7.5}, {7.5}});
  BinMapper mapper;
  mapper.Compute(x, /*max_bins=*/256);
  ASSERT_EQ(mapper.num_features(), 1u);
  EXPECT_EQ(mapper.BinCount(0), 1u);
  EXPECT_DOUBLE_EQ(mapper.UpperBound(0, 0), 7.5);
  // Below, equal and above the stored boundary all land in bin 0.
  EXPECT_EQ(mapper.BinOf(0, 7.5), 0);
  EXPECT_EQ(mapper.BinOf(0, -100.0), 0);
  EXPECT_EQ(mapper.BinOf(0, 100.0), 0);
}

TEST(BinMapperDegenerateTest, SingleRowMatrixGetsSingleBinPerFeature) {
  const Matrix x = Matrix::FromRows({{1.0, -3.0}});
  BinMapper mapper;
  mapper.Compute(x, /*max_bins=*/16);
  EXPECT_EQ(mapper.BinCount(0), 1u);
  EXPECT_EQ(mapper.BinCount(1), 1u);
  EXPECT_DOUBLE_EQ(mapper.UpperBound(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(mapper.UpperBound(1, 0), -3.0);
}

TEST(BinMapperDegenerateTest, AllZeroColumnKeepsZeroBoundary) {
  // Zero-usage days are the common real-world degenerate column; the single
  // boundary must be the value itself, not a sentinel.
  const Matrix x = Matrix::FromRows({{0.0}, {0.0}, {0.0}});
  BinMapper mapper;
  mapper.Compute(x, /*max_bins=*/256);
  EXPECT_EQ(mapper.BinCount(0), 1u);
  EXPECT_DOUBLE_EQ(mapper.UpperBound(0, 0), 0.0);
  EXPECT_EQ(mapper.BinOf(0, 0.0), 0);
}

TEST(BinMapperDegenerateTest, MixedDegenerateAndRealColumnsBinIndependently) {
  const Matrix x = Matrix::FromRows({{5.0, 1.0}, {5.0, 2.0}, {5.0, 3.0}});
  BinMapper mapper;
  mapper.Compute(x, /*max_bins=*/256);
  EXPECT_EQ(mapper.BinCount(0), 1u);
  EXPECT_EQ(mapper.BinCount(1), 3u);
  EXPECT_EQ(mapper.BinOf(1, 2.0), 1);
  // A BinnedDataset built over the degenerate column stores bin 0
  // everywhere and stays narrow (uint8_t).
  BinnedDataset binned;
  binned.Build(x, mapper);
  EXPECT_TRUE(binned.IsNarrow(0));
  for (size_t r = 0; r < 3; ++r) EXPECT_EQ(binned.Bin(0, r), 0u);
}

}  // namespace
}  // namespace ml
}  // namespace nextmaint
