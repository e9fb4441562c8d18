#include "ml/metrics.h"

#include <cmath>

#include "common/macros.h"

namespace nextmaint {
namespace ml {

namespace {

Status ValidatePair(const std::vector<double>& truth,
                    const std::vector<double>& predicted) {
  if (truth.size() != predicted.size()) {
    return Status::InvalidArgument("metric input lengths differ");
  }
  if (truth.empty()) {
    return Status::InvalidArgument("metric inputs are empty");
  }
  return Status::OK();
}

}  // namespace

Result<double> MeanSquaredError(const std::vector<double>& truth,
                                const std::vector<double>& predicted) {
  NM_RETURN_NOT_OK(ValidatePair(truth, predicted));
  double acc = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    const double d = truth[i] - predicted[i];
    acc += d * d;
  }
  return acc / static_cast<double>(truth.size());
}

Result<double> MeanAbsoluteError(const std::vector<double>& truth,
                                 const std::vector<double>& predicted) {
  NM_RETURN_NOT_OK(ValidatePair(truth, predicted));
  double acc = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    acc += std::fabs(truth[i] - predicted[i]);
  }
  return acc / static_cast<double>(truth.size());
}

}  // namespace ml
}  // namespace nextmaint
