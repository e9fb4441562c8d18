#include "data/time_series.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace nextmaint {
namespace data {

Date DailySeries::end_date() const {
  NM_CHECK(!values_.empty());
  return start_.AddDays(static_cast<int64_t>(values_.size()) - 1);
}

Result<double> DailySeries::At(Date date) const {
  NM_ASSIGN_OR_RETURN(size_t index, IndexOf(date));
  return values_[index];
}

Result<size_t> DailySeries::IndexOf(Date date) const {
  const int64_t offset = date.DaysSince(start_);
  if (offset < 0 || offset >= static_cast<int64_t>(values_.size())) {
    return Status::NotFound("date " + date.ToString() +
                            " outside series range");
  }
  return static_cast<size_t>(offset);
}

DailySeries DailySeries::Slice(size_t offset, size_t count) const {
  if (offset >= values_.size()) {
    return DailySeries(start_.AddDays(static_cast<int64_t>(offset)), {});
  }
  const size_t end = std::min(values_.size(), offset + count);
  return DailySeries(
      start_.AddDays(static_cast<int64_t>(offset)),
      std::vector<double>(values_.begin() + static_cast<ptrdiff_t>(offset),
                          values_.begin() + static_cast<ptrdiff_t>(end)));
}

bool DailySeries::IsComplete() const { return MissingCount() == 0; }

size_t DailySeries::MissingCount() const {
  size_t count = 0;
  for (double v : values_) {
    if (std::isnan(v)) ++count;
  }
  return count;
}

double DailySeries::Sum() const {
  double sum = 0.0;
  for (double v : values_) {
    if (!std::isnan(v)) sum += v;
  }
  return sum;
}

double DailySeries::MeanValue() const {
  double sum = 0.0;
  size_t n = 0;
  for (double v : values_) {
    if (!std::isnan(v)) {
      sum += v;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::vector<double> DailySeries::CumulativeSum() const {
  std::vector<double> out(values_.size());
  double acc = 0.0;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (!std::isnan(values_[i])) acc += values_[i];
    out[i] = acc;
  }
  return out;
}

Result<std::vector<double>> FirstHalfCycleUsage(
    const DailySeries& u, double maintenance_interval_s) {
  if (maintenance_interval_s <= 0.0) {
    return Status::InvalidArgument("maintenance_interval_s must be positive");
  }
  if (!u.IsComplete()) {
    return Status::DataError("utilization series contains missing values");
  }
  std::vector<double> out;
  double cumulative = 0.0;
  for (size_t t = 0; t < u.size(); ++t) {
    cumulative += u[t];
    out.push_back(u[t]);
    if (cumulative >= maintenance_interval_s / 2.0) return out;
  }
  return Status::InvalidArgument(
      "vehicle has used less than T_v/2 seconds (category: new)");
}

}  // namespace data
}  // namespace nextmaint
