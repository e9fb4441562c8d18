#ifndef NEXTMAINT_CORE_CATEGORY_H_
#define NEXTMAINT_CORE_CATEGORY_H_

#include <string>

#include "common/status.h"
#include "core/series.h"

/// \file category.h
/// Vehicle categorization by available history (Section 2):
///  - Old: at least one maintenance cycle completed since acquisition began;
///  - Semi-new: first cycle not completed, but at least T_v/2 seconds of
///    usage already observed;
///  - New: less than T_v/2 seconds of usage observed.
/// The category decides the modelling strategy (per-vehicle model vs.
/// similarity-based vs. unified cross-vehicle model).

namespace nextmaint {
namespace core {

enum class VehicleCategory {
  kOld,
  kSemiNew,
  kNew,
};

/// Canonical lowercase name ("old", "semi-new", "new").
const char* VehicleCategoryName(VehicleCategory category);

/// Categorizes from a vehicle's cycle state (completed cycles, total usage).
VehicleCategory Categorize(const CycleAccumulator& cycles);

/// Categorizes a raw utilization series by running the cycle recurrence
/// over it (stopping at the first completed cycle). Fails on NaN or
/// non-positive T_v.
Result<VehicleCategory> CategorizeUsage(const data::DailySeries& u,
                                        double maintenance_interval_s);

}  // namespace core
}  // namespace nextmaint

#endif  // NEXTMAINT_CORE_CATEGORY_H_
