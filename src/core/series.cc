#include "core/series.h"

#include <cmath>
#include <limits>

namespace nextmaint {
namespace core {

Result<VehicleSeries> DeriveSeries(const data::DailySeries& u,
                                   double maintenance_interval_s,
                                   size_t offset) {
  if (maintenance_interval_s <= 0.0) {
    return Status::InvalidArgument("maintenance_interval_s must be positive");
  }
  VehicleSeries out;
  out.u = offset == 0 ? u : u.Slice(offset, u.size());
  const data::DailySeries& shifted = out.u;
  if (shifted.empty()) {
    return Status::InvalidArgument("utilization series is empty");
  }
  if (!shifted.IsComplete()) {
    return Status::DataError(
        "utilization series contains missing values; run the cleaning step "
        "before deriving series");
  }

  const size_t n = shifted.size();
  out.maintenance_interval_s = maintenance_interval_s;
  out.c.resize(n);
  out.l.resize(n);
  out.d.assign(n, std::numeric_limits<double>::quiet_NaN());

  CycleAccumulator cycles{.maintenance_interval_s = maintenance_interval_s};
  for (size_t t = 0; t < n; ++t) {
    out.c[t] = cycles.DaysSinceMaintenance();
    out.l[t] = cycles.UsageLeft();
    const size_t cycle_start = cycles.cycle_start;
    if (cycles.Advance(shifted[t])) {
      // Maintenance at the end of day t closes the cycle.
      out.cycles.push_back(Cycle{cycle_start, t});
      for (size_t i = cycle_start; i <= t; ++i) {
        out.d[i] = static_cast<double>(t - i);
      }
    }
  }
  return out;
}

}  // namespace core
}  // namespace nextmaint
