#ifndef NEXTMAINT_CORE_SERIES_H_
#define NEXTMAINT_CORE_SERIES_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/status.h"
#include "data/time_series.h"

/// \file series.h
/// Derivation of the paper's problem-statement series (Section 2) from the
/// daily utilization series — the "enrichment" step of the preparation
/// pipeline. Given U_v(t) and the allowed usage time T_v, computes:
///
///  - C_v(t): days already passed since the last maintenance operation;
///  - L_v(t): utilization seconds left to the next maintenance,
///            L_v(t) = T_v - sum_{i = t - C_v(t)}^{t-1} U_v(i)   (Eq. 1);
///  - D_v(t): days left to the next maintenance (the target), which
///            decreases monotonically to 0 on each maintenance day (Fig. 2).
///
/// Maintenance timing follows Section 3: "After a fixed time amount of
/// usage (T_v = 2,000,000 s), every vehicle needs to go under maintenance"
/// — an operation happens at the end of the first day on which cumulative
/// usage since the previous operation reaches T_v; the excess carries over.
///
/// CycleAccumulator is the one implementation of that rule: DeriveSeries
/// loops over it, categorization reads it, and the fleet scheduler keeps
/// one per vehicle, so forecasts read today's C and L in O(1).

namespace nextmaint {
namespace core {

/// One maintenance cycle inside a vehicle's history.
struct Cycle {
  /// Day index of the first day of the cycle.
  size_t start = 0;
  /// Day index of the maintenance day closing the cycle (inclusive).
  size_t end = 0;

  size_t length_days() const { return end - start + 1; }
};

/// The maintenance-cycle recurrence, advanced one day at a time.
///
/// Each day's usage is added to the open cycle; when the cycle's usage
/// reaches T_v, maintenance closes it at the end of that day and T_v is
/// subtracted once — the excess carries over, even when one day used more
/// than 2·T_v. Between calls the fields describe the start of day `days`.
struct CycleAccumulator {
  double maintenance_interval_s = 0.0;
  /// Days advanced so far, i.e. the index of the next day.
  size_t days = 0;
  /// Index of the first day of the open cycle.
  size_t cycle_start = 0;
  /// Usage accumulated in the open cycle, carry included.
  double cycle_usage = 0.0;
  size_t completed_cycles = 0;
  /// Sum of every day's usage, added in day order.
  double total_usage = 0.0;

  /// Adds day `days`' usage. Returns true when maintenance closes the
  /// cycle at the end of that day.
  bool Advance(double seconds) {
    cycle_usage += seconds;
    total_usage += seconds;
    const bool closes = cycle_usage >= maintenance_interval_s;
    if (closes) {
      cycle_usage -= maintenance_interval_s;  // excess carries over
      ++completed_cycles;
      cycle_start = days + 1;
    }
    ++days;
    return closes;
  }
  /// C(days): days since the maintenance that opened the open cycle.
  double DaysSinceMaintenance() const {
    return static_cast<double>(days - cycle_start);
  }
  /// L(days): usage seconds left until the next maintenance (Eq. 1, minus
  /// the carried-over excess).
  double UsageLeft() const { return maintenance_interval_s - cycle_usage; }
};

/// All derived per-day series for one vehicle.
///
/// For trailing days after the last completed maintenance the target D is
/// unknown (the closing maintenance lies beyond the data) and is NaN; C and
/// L remain defined everywhere.
struct VehicleSeries {
  /// The (cleaned, gap-free) input utilization series.
  data::DailySeries u;
  /// T_v used for the derivation.
  double maintenance_interval_s = 0.0;
  /// C_v(t): days since last maintenance (0 on the first day of a cycle).
  std::vector<double> c;
  /// L_v(t): utilization seconds left to next maintenance at the *start*
  /// of day t (Eq. 1: sums usage of the preceding C(t) days only).
  std::vector<double> l;
  /// D_v(t): days left to next maintenance; 0 on maintenance days; NaN on
  /// trailing days whose closing maintenance is unobserved.
  std::vector<double> d;
  /// Completed maintenance cycles in order.
  std::vector<Cycle> cycles;

  size_t size() const { return u.size(); }
  /// Number of completed maintenance cycles.
  size_t completed_cycles() const { return cycles.size(); }
  /// True when day t has a defined target.
  bool HasTarget(size_t t) const { return !std::isnan(d[t]); }
};

/// Derives C, L, D and the cycle list from a utilization series.
///
/// Requirements: `u` must be gap-free (run the cleaning step first; fails
/// with DataError on NaN) and `maintenance_interval_s` positive. `offset`
/// drops the first `offset` days before deriving — the primitive behind the
/// paper's time-shift re-sampling ("we can shift the time reference ...
/// without introducing errors").
[[nodiscard]] Result<VehicleSeries> DeriveSeries(const data::DailySeries& u,
                                   double maintenance_interval_s,
                                   size_t offset = 0);

}  // namespace core
}  // namespace nextmaint

#endif  // NEXTMAINT_CORE_SERIES_H_
