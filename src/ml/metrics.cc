#include "ml/metrics.h"

#include <cmath>

namespace nextmaint {
namespace ml {

Result<double> MeanAbsoluteError(const std::vector<double>& truth,
                                 const std::vector<double>& predicted) {
  if (truth.size() != predicted.size()) {
    return Status::InvalidArgument("metric input lengths differ");
  }
  if (truth.empty()) {
    return Status::InvalidArgument("metric inputs are empty");
  }
  double acc = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    acc += std::fabs(truth[i] - predicted[i]);
  }
  return acc / static_cast<double>(truth.size());
}

}  // namespace ml
}  // namespace nextmaint
