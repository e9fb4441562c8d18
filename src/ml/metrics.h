#ifndef NEXTMAINT_ML_METRICS_H_
#define NEXTMAINT_ML_METRICS_H_

#include <vector>

#include "common/status.h"

/// \file metrics.h
/// Generic regression metrics. The paper-specific error definitions
/// (E_Global, E_MRE) live in core/errors.h; these are the standard metrics
/// used inside cross-validation and tests.

namespace nextmaint {
namespace ml {

/// Mean squared error. Fails on length mismatch or empty input.
[[nodiscard]] Result<double> MeanSquaredError(const std::vector<double>& truth,
                                const std::vector<double>& predicted);

/// Mean absolute error.
[[nodiscard]] Result<double> MeanAbsoluteError(const std::vector<double>& truth,
                                 const std::vector<double>& predicted);

}  // namespace ml
}  // namespace nextmaint

#endif  // NEXTMAINT_ML_METRICS_H_
