#include "ml/dataset.h"

#include "common/macros.h"

namespace nextmaint {
namespace ml {

Result<Dataset> Dataset::Create(Matrix x, std::vector<double> y,
                                std::vector<std::string> feature_names) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument(
        "X has " + std::to_string(x.rows()) + " rows but y has " +
        std::to_string(y.size()) + " entries");
  }
  if (!feature_names.empty() && feature_names.size() != x.cols()) {
    return Status::InvalidArgument("feature_names length != X columns");
  }
  Dataset d;
  d.x_ = std::move(x);
  d.y_ = std::move(y);
  d.feature_names_ = std::move(feature_names);
  return d;
}

void Dataset::AddRow(std::span<const double> features, double target) {
  x_.AppendRow(features);
  y_.push_back(target);
}

Dataset Dataset::SelectRows(const std::vector<size_t>& indices) const {
  Dataset out;
  out.x_ = x_.SelectRows(indices);
  out.y_.reserve(indices.size());
  for (size_t i : indices) {
    NM_CHECK(i < y_.size());
    out.y_.push_back(y_[i]);
  }
  out.feature_names_ = feature_names_;
  return out;
}

Status Dataset::Concat(const Dataset& other) {
  if (num_rows() == 0) {
    *this = other;
    return Status::OK();
  }
  if (other.num_features() != num_features()) {
    return Status::InvalidArgument("feature count mismatch in Concat");
  }
  for (size_t r = 0; r < other.num_rows(); ++r) {
    AddRow(other.x_.Row(r), other.y_[r]);
  }
  return Status::OK();
}

}  // namespace ml
}  // namespace nextmaint
