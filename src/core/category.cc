#include "core/category.h"

namespace nextmaint {
namespace core {

const char* VehicleCategoryName(VehicleCategory category) {
  switch (category) {
    case VehicleCategory::kOld:
      return "old";
    case VehicleCategory::kSemiNew:
      return "semi-new";
    case VehicleCategory::kNew:
      return "new";
  }
  return "?";
}

VehicleCategory Categorize(const CycleAccumulator& cycles) {
  if (cycles.completed_cycles >= 1) return VehicleCategory::kOld;
  if (cycles.total_usage >= cycles.maintenance_interval_s / 2.0) {
    return VehicleCategory::kSemiNew;
  }
  return VehicleCategory::kNew;
}

Result<VehicleCategory> CategorizeUsage(const data::DailySeries& u,
                                        double maintenance_interval_s) {
  if (maintenance_interval_s <= 0.0) {
    return Status::InvalidArgument("maintenance_interval_s must be positive");
  }
  if (!u.IsComplete()) {
    return Status::DataError("utilization series contains missing values");
  }
  CycleAccumulator cycles{.maintenance_interval_s = maintenance_interval_s};
  for (size_t t = 0; t < u.size(); ++t) {
    if (cycles.Advance(u[t])) break;  // the first completed cycle decides
  }
  return Categorize(cycles);
}

}  // namespace core
}  // namespace nextmaint
