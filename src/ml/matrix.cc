#include "ml/matrix.h"

#include <cmath>
#include <sstream>

#include "common/macros.h"

namespace nextmaint {
namespace ml {

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  Matrix m;
  for (const auto& row : rows) {
    m.AppendRow(std::span<const double>(row.data(), row.size()));
  }
  return m;
}

std::vector<double> Matrix::Col(size_t c) const {
  NM_CHECK(c < cols_);
  std::vector<double> out(rows_);
  for (size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::AppendRow(std::span<const double> row) {
  if (rows_ == 0 && cols_ == 0) {
    cols_ = row.size();
  }
  NM_CHECK_MSG(row.size() == cols_, "row length mismatch");
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
}

Matrix Matrix::SelectRows(const std::vector<size_t>& indices) const {
  Matrix out(indices.size(), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    NM_CHECK(indices[i] < rows_);
    std::span<const double> src = Row(indices[i]);
    std::copy(src.begin(), src.end(), out.MutableRow(i).begin());
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  NM_CHECK_MSG(cols_ == other.rows_, "shape mismatch in Multiply");
  Matrix out(rows_, other.cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      for (size_t j = 0; j < other.cols_; ++j) {
        out(i, j) += aik * other(k, j);
      }
    }
  }
  return out;
}

Matrix Matrix::Gram() const {
  Matrix out(cols_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    std::span<const double> row = Row(r);
    for (size_t i = 0; i < cols_; ++i) {
      const double xi = row[i];
      if (xi == 0.0) continue;
      for (size_t j = i; j < cols_; ++j) {
        out(i, j) += xi * row[j];
      }
    }
  }
  // Mirror the upper triangle.
  for (size_t i = 0; i < cols_; ++i) {
    for (size_t j = 0; j < i; ++j) out(i, j) = out(j, i);
  }
  return out;
}

std::vector<double> Matrix::TransposeMultiplyVector(
    std::span<const double> v) const {
  NM_CHECK(v.size() == rows_);
  std::vector<double> out(cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    const double vr = v[r];
    if (vr == 0.0) continue;
    std::span<const double> row = Row(r);
    for (size_t c = 0; c < cols_; ++c) out[c] += vr * row[c];
  }
  return out;
}

bool Matrix::AllFinite() const {
  for (double v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

std::string Matrix::ToString(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed;
  for (size_t r = 0; r < rows_; ++r) {
    os << "[";
    for (size_t c = 0; c < cols_; ++c) {
      if (c > 0) os << ", ";
      os << (*this)(r, c);
    }
    os << "]\n";
  }
  return os.str();
}

Result<std::vector<double>> CholeskySolve(const Matrix& a,
                                          std::span<const double> b) {
  const size_t n = a.rows();
  if (a.cols() != n) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  if (b.size() != n) {
    return Status::InvalidArgument("rhs length mismatch");
  }

  // Factor A = L L^T in place (lower triangle of `l`).
  Matrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        if (sum <= 0.0 || !std::isfinite(sum)) {
          return Status::NumericError(
              "matrix is not positive definite (pivot " +
              std::to_string(sum) + " at " + std::to_string(i) + ")");
        }
        l(i, i) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }

  // Forward substitution: L z = b.
  std::vector<double> z(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) sum -= l(i, k) * z[k];
    z[i] = sum / l(i, i);
  }
  // Back substitution: L^T x = z.
  std::vector<double> x(n);
  for (size_t ii = n; ii-- > 0;) {
    double sum = z[ii];
    for (size_t k = ii + 1; k < n; ++k) sum -= l(k, ii) * x[k];
    x[ii] = sum / l(ii, ii);
  }
  return x;
}

Result<std::vector<double>> SolveLeastSquares(const Matrix& x,
                                              std::span<const double> y,
                                              double l2) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("X rows != y length");
  }
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("empty design matrix");
  }
  std::vector<double> xty = x.TransposeMultiplyVector(y);
  return SolveNormalEquations(x.Gram(),
                              std::span<const double>(xty.data(), xty.size()),
                              l2);
}

Result<std::vector<double>> SolveNormalEquations(Matrix gram,
                                                 std::span<const double> xty,
                                                 double l2) {
  if (gram.rows() == 0) {
    return Status::InvalidArgument("empty design matrix");
  }
  for (size_t i = 0; i < gram.rows(); ++i) gram(i, i) += l2;

  Result<std::vector<double>> solution = CholeskySolve(gram, xty);
  if (solution.ok()) return solution;

  // Singular normal equations (e.g. perfectly collinear features): retry
  // with a jitter proportional to the matrix scale.
  double trace = 0.0;
  for (size_t i = 0; i < gram.rows(); ++i) trace += gram(i, i);
  const double jitter =
      1e-10 * (trace > 0 ? trace / static_cast<double>(gram.rows()) : 1.0) +
      1e-12;
  for (size_t i = 0; i < gram.rows(); ++i) gram(i, i) += jitter;
  Result<std::vector<double>> retry = CholeskySolve(gram, xty);
  if (!retry.ok()) {
    return retry.status().WithContext("least squares failed even with jitter");
  }
  return retry;
}

double Dot(std::span<const double> a, std::span<const double> b) {
  NM_CHECK(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

}  // namespace ml
}  // namespace nextmaint
