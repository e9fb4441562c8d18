#ifndef NEXTMAINT_ML_METRICS_H_
#define NEXTMAINT_ML_METRICS_H_

#include <vector>

#include "common/status.h"

/// \file metrics.h
/// The generic regression metric that scores cross-validation folds. The
/// paper-specific error definitions (E_Global, E_MRE) live in
/// core/errors.h.

namespace nextmaint {
namespace ml {

/// Mean absolute error. Fails on length mismatch or empty input.
[[nodiscard]] Result<double> MeanAbsoluteError(const std::vector<double>& truth,
                                 const std::vector<double>& predicted);

}  // namespace ml
}  // namespace nextmaint

#endif  // NEXTMAINT_ML_METRICS_H_
