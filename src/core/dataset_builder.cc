#include "core/dataset_builder.h"

#include <cmath>

#include "common/macros.h"

namespace nextmaint {
namespace core {

namespace {

/// Feature names for the layout [L, U(t-1..t-W), CTX(t..t+k-1)].
std::vector<std::string> FeatureNames(int window, int context_days) {
  std::vector<std::string> names = {"L"};
  for (int k = 1; k <= window; ++k) {
    names.push_back("U(t-" + std::to_string(k) + ")");
  }
  for (int k = 0; k < context_days; ++k) {
    names.push_back("CTX(t+" + std::to_string(k) + ")");
  }
  return names;
}

}  // namespace

Result<std::vector<double>> BuildFeatureRow(const VehicleSeries& series,
                                            size_t t,
                                            const DatasetOptions& options) {
  if (t >= series.size()) {
    return Status::InvalidArgument("day index out of range");
  }
  return AssembleFeatureRow(series.l[t], series.u, t,
                            series.maintenance_interval_s, options);
}

Result<std::vector<double>> AssembleFeatureRow(
    double usage_left, const data::DailySeries& u, size_t t,
    double maintenance_interval_s, const DatasetOptions& options) {
  if (options.window < 0) {
    return Status::InvalidArgument("window must be non-negative");
  }
  if (options.context_forecast_days < 0) {
    return Status::InvalidArgument(
        "context_forecast_days must be non-negative");
  }
  if (options.context_forecast_days > 0 &&
      (options.context == nullptr || options.context->empty())) {
    return Status::InvalidArgument(
        "context_forecast_days set but no context series supplied");
  }
  const size_t w = static_cast<size_t>(options.window);
  if (t > u.size()) {
    return Status::InvalidArgument("day index out of range");
  }
  if (t < w) {
    return Status::InvalidArgument(
        "day " + std::to_string(t) + " has fewer than W=" +
        std::to_string(w) + " preceding days");
  }
  const double l_scale =
      options.normalize_features ? 1.0 / maintenance_interval_s : 1.0;
  const double u_scale = options.normalize_features ? 1.0 / 86400.0 : 1.0;

  std::vector<double> row;
  const size_t context_days =
      static_cast<size_t>(options.context_forecast_days);
  row.reserve(w + 1 + context_days);
  row.push_back(usage_left * l_scale);
  for (size_t k = 1; k <= w; ++k) {
    row.push_back(u[t - k] * u_scale);
  }
  for (size_t k = 0; k < context_days; ++k) {
    const size_t index = std::min(t + k, options.context->size() - 1);
    row.push_back((*options.context)[index]);
  }
  return row;
}

Result<ml::Dataset> BuildDataset(const VehicleSeries& series,
                                 const DatasetOptions& options) {
  if (options.window < 0) {
    return Status::InvalidArgument("window must be non-negative");
  }
  const size_t w = static_cast<size_t>(options.window);
  ml::Dataset dataset;
  for (size_t t = w; t < series.size(); ++t) {
    if (!series.HasTarget(t)) continue;
    if (options.target_filter.has_value() &&
        !options.target_filter->Contains(series.d[t])) {
      continue;
    }
    NM_ASSIGN_OR_RETURN(std::vector<double> row,
                        BuildFeatureRow(series, t, options));
    dataset.AddRow(std::span<const double>(row.data(), row.size()),
                   series.d[t]);
  }
  if (dataset.empty()) {
    return Status::InvalidArgument(
        "no records extracted (window too large, no completed cycle, or "
        "empty target filter)");
  }
  // Rebuild with names attached (Dataset::Create validates shapes).
  return ml::Dataset::Create(
      dataset.x(), dataset.y(),
      FeatureNames(options.window, options.context_forecast_days));
}

Result<ml::Dataset> BuildResampledDataset(
    const data::DailySeries& u, double maintenance_interval_s,
    const DatasetOptions& options, const ResamplingOptions& resampling) {
  if (resampling.num_shifts < 0) {
    return Status::InvalidArgument("num_shifts must be non-negative");
  }
  if (resampling.max_shift_fraction < 0.0 ||
      resampling.max_shift_fraction >= 1.0) {
    return Status::InvalidArgument("max_shift_fraction must be in [0, 1)");
  }

  NM_ASSIGN_OR_RETURN(VehicleSeries base,
                      DeriveSeries(u, maintenance_interval_s));
  NM_ASSIGN_OR_RETURN(ml::Dataset combined, BuildDataset(base, options));

  Rng rng(resampling.seed);
  const size_t max_shift = static_cast<size_t>(
      resampling.max_shift_fraction * static_cast<double>(u.size()));
  for (int s = 0; s < resampling.num_shifts; ++s) {
    if (max_shift == 0) break;
    const size_t offset = 1 + static_cast<size_t>(rng.UniformInt(
                                  static_cast<uint64_t>(max_shift)));
    Result<VehicleSeries> shifted =
        DeriveSeries(u, maintenance_interval_s, offset);
    if (!shifted.ok()) continue;  // shift consumed the whole series
    // Contextual series must shift with the time reference so day t of the
    // shifted series still sees its own day's context.
    DatasetOptions shifted_options = options;
    std::vector<double> shifted_context;
    if (options.context != nullptr && options.context_forecast_days > 0) {
      if (offset >= options.context->size()) continue;
      shifted_context.assign(
          options.context->begin() + static_cast<ptrdiff_t>(offset),
          options.context->end());
      shifted_options.context = &shifted_context;
    }
    Result<ml::Dataset> extra =
        BuildDataset(shifted.ValueOrDie(), shifted_options);
    if (!extra.ok()) continue;  // shift left no complete cycle
    NM_RETURN_NOT_OK(combined.Concat(extra.ValueOrDie()));
  }
  return combined;
}

}  // namespace core
}  // namespace nextmaint
