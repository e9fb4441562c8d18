#ifndef NEXTMAINT_DATA_TIME_SERIES_H_
#define NEXTMAINT_DATA_TIME_SERIES_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/date.h"
#include "common/status.h"

/// \file time_series.h
/// Daily-granularity time series, the central data type of the pipeline.
///
/// A DailySeries couples a start date with a dense vector of doubles, one per
/// consecutive calendar day. Missing observations are represented as NaN and
/// handled explicitly by the preparation pipeline (see preprocess.h); all the
/// modelling code downstream requires gap-free series.

namespace nextmaint {
namespace data {

/// A dense daily time series starting at a given calendar date.
class DailySeries {
 public:
  /// An empty series starting at the epoch.
  DailySeries() = default;

  /// A series of `values[i]` observed on `start.AddDays(i)`.
  DailySeries(Date start, std::vector<double> values)
      : start_(start), values_(std::move(values)) {}

  /// Number of days covered.
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  Date start_date() const { return start_; }
  /// Date of the last observation; equals start_date() for 1-element series.
  /// Aborts on empty series.
  Date end_date() const;

  /// Date the next Append() would cover: the day after end_date(), or
  /// start_date() for an empty series. This is the "virtual today" the
  /// serving path forecasts from and the date an in-order ingestor must
  /// supply next.
  Date next_date() const {
    return start_.AddDays(static_cast<int64_t>(values_.size()));
  }

  /// Value on day index `i` (0-based from start_date()).
  double operator[](size_t i) const { return values_[i]; }
  double& operator[](size_t i) { return values_[i]; }

  const std::vector<double>& values() const { return values_; }
  std::vector<double>& mutable_values() { return values_; }

  /// Appends one observation for the day following end_date().
  void Append(double value) { values_.push_back(value); }

  /// Value observed on `date`; NotFound when the date falls outside the
  /// covered range.
  [[nodiscard]] Result<double> At(Date date) const;

  /// Index of `date` within the series; NotFound when outside the range.
  [[nodiscard]] Result<size_t> IndexOf(Date date) const;

  /// Sub-series of `count` days starting at day index `offset`.
  /// Clamps to the available range.
  DailySeries Slice(size_t offset, size_t count) const;

  /// True when no value is NaN.
  bool IsComplete() const;

  /// Number of NaN entries.
  size_t MissingCount() const;

  /// Sum of all non-NaN values.
  double Sum() const;

  /// Mean of all non-NaN values; 0 when empty or all-NaN.
  double MeanValue() const;

 private:
  Date start_;
  std::vector<double> values_;
};

/// Utilization values of the first half of a vehicle's first maintenance
/// cycle: the days until cumulative usage reaches T_v/2, inclusive. This is
/// the similarity key of semi-new vehicles (Section 4.4.1), used by the
/// cold-start models and the scheduler (core).
/// InvalidArgument when T_v is not positive or total usage stays below
/// T_v/2 (the vehicle is "new"); DataError on missing values.
[[nodiscard]] Result<std::vector<double>> FirstHalfCycleUsage(
    const DailySeries& u, double maintenance_interval_s);

}  // namespace data
}  // namespace nextmaint

#endif  // NEXTMAINT_DATA_TIME_SERIES_H_
