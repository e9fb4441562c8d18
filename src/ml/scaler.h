#ifndef NEXTMAINT_ML_SCALER_H_
#define NEXTMAINT_ML_SCALER_H_

#include <vector>

#include "common/status.h"
#include "ml/matrix.h"

/// \file scaler.h
/// Column-wise feature scaling fitted on training data and applied to test
/// data — the "normalization" step of the paper's preparation pipeline as it
/// applies to model inputs ("scale the values of the utilization times to a
/// uniform value range (e.g., from 0 to 1) thus avoiding to introduce bias
/// in regression model learning").

namespace nextmaint {
namespace ml {

/// Scales each column to [0, 1] using training min/max.
class MinMaxScaler {
 public:
  /// Learns per-column min/max. Fails on an empty matrix.
  [[nodiscard]] Status Fit(const Matrix& x);

  /// Maps each column through (v - min) / (max - min); constant columns
  /// map to 0. Must be fitted; column count must match.
  [[nodiscard]] Result<Matrix> Transform(const Matrix& x) const;

  /// Fit followed by Transform on the same data.
  [[nodiscard]] Result<Matrix> FitTransform(const Matrix& x);

  bool is_fitted() const { return !mins_.empty(); }
  const std::vector<double>& mins() const { return mins_; }
  const std::vector<double>& maxs() const { return maxs_; }

 private:
  std::vector<double> mins_;
  std::vector<double> maxs_;
};

/// Scales each column to zero mean and unit variance.
class StandardScaler {
 public:
  [[nodiscard]] Status Fit(const Matrix& x);
  [[nodiscard]] Result<Matrix> Transform(const Matrix& x) const;
  [[nodiscard]] Result<Matrix> FitTransform(const Matrix& x);

  bool is_fitted() const { return !means_.empty(); }
  const std::vector<double>& means() const { return means_; }
  /// Per-column standard deviation; constant columns report 1.0 so the
  /// transform is a no-op shift for them.
  const std::vector<double>& stds() const { return stds_; }

 private:
  std::vector<double> means_;
  std::vector<double> stds_;
};

}  // namespace ml
}  // namespace nextmaint

#endif  // NEXTMAINT_ML_SCALER_H_
