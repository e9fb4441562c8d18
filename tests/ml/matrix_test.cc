#include "ml/matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace nextmaint {
namespace ml {
namespace {

TEST(MatrixTest, ConstructionAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FALSE(m.empty());
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 0), -2.0);
}

TEST(MatrixTest, EmptyMatrix) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
}

TEST(MatrixTest, FromRows) {
  const Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(MatrixTest, RowSpanViewsUnderlyingData) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  std::span<const double> row = m.Row(1);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_DOUBLE_EQ(row[0], 3.0);
  m.MutableRow(1)[0] = 9.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 9.0);
}

TEST(MatrixTest, ColCopies) {
  const Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_EQ(m.Col(1), (std::vector<double>{2, 4}));
}

TEST(MatrixTest, AppendRowSetsWidth) {
  Matrix m;
  const std::vector<double> row = {1, 2, 3};
  m.AppendRow(std::span<const double>(row.data(), row.size()));
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.cols(), 3u);
}

TEST(MatrixTest, AppendRowWrongWidthAborts) {
  Matrix m = Matrix::FromRows({{1, 2}});
  const std::vector<double> bad = {1, 2, 3};
  EXPECT_DEATH(m.AppendRow(std::span<const double>(bad.data(), bad.size())),
               "row length");
}

TEST(MatrixTest, SelectRowsAllowsDuplicates) {
  const Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  const Matrix sub = m.SelectRows({2, 0, 2});
  EXPECT_EQ(sub.rows(), 3u);
  EXPECT_DOUBLE_EQ(sub(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(sub(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(sub(2, 0), 5.0);
}

TEST(MatrixTest, Transposed) {
  const Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  const Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(MatrixTest, Multiply) {
  const Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  const Matrix c = a.Multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, GramEqualsTransposeTimesSelf) {
  const Matrix x = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  const Matrix gram = x.Gram();
  const Matrix reference = x.Transposed().Multiply(x);
  ASSERT_EQ(gram.rows(), reference.rows());
  for (size_t i = 0; i < gram.rows(); ++i) {
    for (size_t j = 0; j < gram.cols(); ++j) {
      EXPECT_DOUBLE_EQ(gram(i, j), reference(i, j));
    }
  }
}

TEST(MatrixTest, TransposeMultiplyVector) {
  const Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  const std::vector<double> v = {1, 1};
  EXPECT_EQ(m.TransposeMultiplyVector(std::span<const double>(v.data(), 2)),
            (std::vector<double>{4, 6}));
}

TEST(MatrixTest, AllFinite) {
  Matrix m = Matrix::FromRows({{1, 2}});
  EXPECT_TRUE(m.AllFinite());
  m(0, 1) = std::nan("");
  EXPECT_FALSE(m.AllFinite());
  m(0, 1) = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(m.AllFinite());
}

TEST(DotTest, Basic) {
  const std::vector<double> a = {1, 2, 3}, b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(Dot(std::span<const double>(a.data(), 3),
                       std::span<const double>(b.data(), 3)),
                   32.0);
}

TEST(CholeskySolveTest, SolvesSpdSystem) {
  // A = [[4,2],[2,3]], b = [6,5] -> x = [1,1].
  const Matrix a = Matrix::FromRows({{4, 2}, {2, 3}});
  const std::vector<double> b = {6, 5};
  const std::vector<double> x =
      CholeskySolve(a, std::span<const double>(b.data(), 2)).ValueOrDie();
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(CholeskySolveTest, RejectsNonSpd) {
  const Matrix indefinite = Matrix::FromRows({{1, 2}, {2, 1}});
  const std::vector<double> b = {1, 1};
  EXPECT_FALSE(
      CholeskySolve(indefinite, std::span<const double>(b.data(), 2)).ok());
}

TEST(CholeskySolveTest, RejectsShapeErrors) {
  const Matrix rect = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  const std::vector<double> b = {1, 1};
  EXPECT_FALSE(CholeskySolve(rect, std::span<const double>(b.data(), 2)).ok());
  const Matrix square = Matrix::FromRows({{1, 0}, {0, 1}});
  const std::vector<double> wrong = {1, 2, 3};
  EXPECT_FALSE(
      CholeskySolve(square, std::span<const double>(wrong.data(), 3)).ok());
}

TEST(SolveLeastSquaresTest, ExactFitOnConsistentSystem) {
  // y = 2*x0 + 3*x1 exactly.
  const Matrix x = Matrix::FromRows({{1, 0}, {0, 1}, {1, 1}, {2, 1}});
  const std::vector<double> y = {2, 3, 5, 7};
  const std::vector<double> w =
      SolveLeastSquares(x, std::span<const double>(y.data(), y.size()))
          .ValueOrDie();
  EXPECT_NEAR(w[0], 2.0, 1e-10);
  EXPECT_NEAR(w[1], 3.0, 1e-10);
}

TEST(SolveLeastSquaresTest, RidgeShrinksWeights) {
  const Matrix x = Matrix::FromRows({{1.0}, {2.0}, {3.0}});
  const std::vector<double> y = {2, 4, 6};
  const double plain =
      SolveLeastSquares(x, std::span<const double>(y.data(), 3), 0.0)
          .ValueOrDie()[0];
  const double ridge =
      SolveLeastSquares(x, std::span<const double>(y.data(), 3), 100.0)
          .ValueOrDie()[0];
  EXPECT_NEAR(plain, 2.0, 1e-10);
  EXPECT_LT(ridge, plain);
  EXPECT_GT(ridge, 0.0);
}

TEST(SolveLeastSquaresTest, CollinearFeaturesHandledByJitter) {
  // Second column duplicates the first: the Gram matrix is singular; the
  // jitter retry must still produce a finite solution reproducing y.
  const Matrix x = Matrix::FromRows({{1, 1}, {2, 2}, {3, 3}});
  const std::vector<double> y = {2, 4, 6};
  const auto w =
      SolveLeastSquares(x, std::span<const double>(y.data(), 3)).ValueOrDie();
  EXPECT_NEAR(w[0] + w[1], 2.0, 1e-4);
}

TEST(SolveLeastSquaresTest, RejectsShapeMismatch) {
  const Matrix x = Matrix::FromRows({{1}, {2}});
  const std::vector<double> y = {1, 2, 3};
  EXPECT_FALSE(
      SolveLeastSquares(x, std::span<const double>(y.data(), 3)).ok());
}

}  // namespace
}  // namespace ml
}  // namespace nextmaint
