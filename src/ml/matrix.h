#ifndef NEXTMAINT_ML_MATRIX_H_
#define NEXTMAINT_ML_MATRIX_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

/// \file matrix.h
/// Dense row-major matrix and the small amount of linear algebra the model
/// zoo needs (Cholesky factorization for ridge/OLS normal equations).
///
/// Feature matrices here are tall and thin (thousands of rows, W+1 <= ~20
/// columns), so a simple contiguous row-major layout is both the fastest and
/// the simplest choice; no expression templates or BLAS needed.

namespace nextmaint {
namespace ml {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  /// An empty 0x0 matrix.
  Matrix() = default;

  /// A rows x cols matrix initialized to `fill`.
  Matrix(size_t rows, size_t cols, double fill = 0.0);

  /// Builds a matrix from nested initializer-style data; all inner vectors
  /// must have equal length (checked).
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }

  /// Read-only view of row r.
  std::span<const double> Row(size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }
  /// Mutable view of row r.
  std::span<double> MutableRow(size_t r) {
    return {data_.data() + r * cols_, cols_};
  }

  /// Copies column c into a vector.
  std::vector<double> Col(size_t c) const;

  /// Appends one row; its length must equal cols() (or sets cols() when the
  /// matrix is empty).
  void AppendRow(std::span<const double> row);

  /// Matrix with the rows whose indices appear in `indices`, in order.
  Matrix SelectRows(const std::vector<size_t>& indices) const;

  /// Matrix with only the listed columns, in order.
  Matrix SelectCols(const std::vector<size_t>& indices) const;

  /// Transpose.
  Matrix Transposed() const;

  /// this * other. Aborts on shape mismatch (programmer error).
  Matrix Multiply(const Matrix& other) const;

  /// this^T * this (Gram matrix), computed without materializing the
  /// transpose.
  Matrix Gram() const;

  /// this * v for a vector v of length cols().
  std::vector<double> MultiplyVector(std::span<const double> v) const;

  /// this^T * v for a vector v of length rows().
  std::vector<double> TransposeMultiplyVector(std::span<const double> v) const;

  /// True when every entry is finite.
  bool AllFinite() const;

  /// Human-readable rendering (for debugging/tests).
  std::string ToString(int precision = 4) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves A x = b for symmetric positive-definite A via Cholesky
/// factorization. Returns NumericError when A is not positive definite
/// (within tolerance). A is n x n, b has length n.
[[nodiscard]] Result<std::vector<double>> CholeskySolve(const Matrix& a,
                                          std::span<const double> b);

/// Solves the ridge-regularized least squares problem
///   min_w ||X w - y||^2 + l2 * ||w||^2
/// via the normal equations (X^T X + l2 I) w = X^T y.
/// With l2 = 0 a tiny jitter is retried on numerically singular systems.
[[nodiscard]] Result<std::vector<double>> SolveLeastSquares(const Matrix& x,
                                              std::span<const double> y,
                                              double l2 = 0.0);

/// Solves the normal equations (gram + l2 I) w = xty, where `gram` is
/// X^T X and `xty` is X^T y. With l2 = 0 a tiny jitter is retried on
/// numerically singular systems.
[[nodiscard]] Result<std::vector<double>> SolveNormalEquations(
    Matrix gram, std::span<const double> xty, double l2);

/// Dot product over equal-length spans.
double Dot(std::span<const double> a, std::span<const double> b);

}  // namespace ml
}  // namespace nextmaint

#endif  // NEXTMAINT_ML_MATRIX_H_
