#ifndef NEXTMAINT_ML_DATASET_H_
#define NEXTMAINT_ML_DATASET_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "ml/matrix.h"

/// \file dataset.h
/// Supervised regression dataset: a feature matrix plus a target vector.

namespace nextmaint {
namespace ml {

/// A supervised dataset (X, y) with optional feature names.
///
/// Invariant: X.rows() == y.size() and feature_names (when non-empty) has
/// X.cols() entries. Enforced at construction via Create().
class Dataset {
 public:
  Dataset() = default;

  /// Validates shapes and builds a dataset.
  [[nodiscard]] static Result<Dataset> Create(Matrix x, std::vector<double> y,
                                std::vector<std::string> feature_names = {});

  size_t num_rows() const { return x_.rows(); }
  size_t num_features() const { return x_.cols(); }
  bool empty() const { return num_rows() == 0; }

  const Matrix& x() const { return x_; }
  const std::vector<double>& y() const { return y_; }
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }

  /// Appends one example (copies the row).
  void AddRow(std::span<const double> features, double target);

  /// Subset of rows, in the given order (duplicates allowed, enabling
  /// bootstrap sampling).
  Dataset SelectRows(const std::vector<size_t>& indices) const;

  /// Appends all rows of `other`; feature counts must match.
  [[nodiscard]] Status Concat(const Dataset& other);

 private:
  Matrix x_;
  std::vector<double> y_;
  std::vector<std::string> feature_names_;
};

}  // namespace ml
}  // namespace nextmaint

#endif  // NEXTMAINT_ML_DATASET_H_
