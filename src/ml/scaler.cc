#include "ml/scaler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"

namespace nextmaint {
namespace ml {

Status MinMaxScaler::Fit(const Matrix& x) {
  if (x.empty()) {
    return Status::InvalidArgument("cannot fit scaler on empty matrix");
  }
  mins_.assign(x.cols(), std::numeric_limits<double>::infinity());
  maxs_.assign(x.cols(), -std::numeric_limits<double>::infinity());
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) {
      mins_[c] = std::min(mins_[c], x(r, c));
      maxs_[c] = std::max(maxs_[c], x(r, c));
    }
  }
  return Status::OK();
}

Result<Matrix> MinMaxScaler::Transform(const Matrix& x) const {
  if (!is_fitted()) {
    return Status::FailedPrecondition("MinMaxScaler is not fitted");
  }
  if (x.cols() != mins_.size()) {
    return Status::InvalidArgument("column count mismatch in Transform");
  }
  Matrix out(x.rows(), x.cols());
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) {
      const double range = maxs_[c] - mins_[c];
      out(r, c) = range > 0.0 ? (x(r, c) - mins_[c]) / range : 0.0;
    }
  }
  return out;
}

Result<Matrix> MinMaxScaler::FitTransform(const Matrix& x) {
  NM_RETURN_NOT_OK(Fit(x));
  return Transform(x);
}

Status StandardScaler::Fit(const Matrix& x) {
  if (x.empty()) {
    return Status::InvalidArgument("cannot fit scaler on empty matrix");
  }
  const double n = static_cast<double>(x.rows());
  means_.assign(x.cols(), 0.0);
  stds_.assign(x.cols(), 0.0);
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) means_[c] += x(r, c);
  }
  for (double& m : means_) m /= n;
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) {
      const double d = x(r, c) - means_[c];
      stds_[c] += d * d;
    }
  }
  for (double& s : stds_) {
    s = std::sqrt(s / n);
    if (s < 1e-12) s = 1.0;  // constant column: shift only
  }
  return Status::OK();
}

Result<Matrix> StandardScaler::Transform(const Matrix& x) const {
  if (!is_fitted()) {
    return Status::FailedPrecondition("StandardScaler is not fitted");
  }
  if (x.cols() != means_.size()) {
    return Status::InvalidArgument("column count mismatch in Transform");
  }
  Matrix out(x.rows(), x.cols());
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) {
      out(r, c) = (x(r, c) - means_[c]) / stds_[c];
    }
  }
  return out;
}

Result<Matrix> StandardScaler::FitTransform(const Matrix& x) {
  NM_RETURN_NOT_OK(Fit(x));
  return Transform(x);
}

}  // namespace ml
}  // namespace nextmaint
