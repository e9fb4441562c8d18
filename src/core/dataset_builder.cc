#include "core/dataset_builder.h"

#include <algorithm>
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

Status ValidateResampling(const ResamplingOptions& resampling) {
  if (resampling.num_shifts < 0) {
    return Status::InvalidArgument("num_shifts must be non-negative");
  }
  if (resampling.max_shift_fraction < 0.0 ||
      resampling.max_shift_fraction >= 1.0) {
    return Status::InvalidArgument("max_shift_fraction must be in [0, 1)");
  }
  return Status::OK();
}

}  // namespace

size_t FeatureCount(const DatasetOptions& options) {
  return 1 + static_cast<size_t>(std::max(options.window, 0)) +
         static_cast<size_t>(std::max(options.context_forecast_days, 0));
}

Result<std::vector<double>> BuildFeatureRow(const VehicleSeries& series,
                                            size_t t,
                                            const DatasetOptions& options) {
  if (t >= series.size()) {
    return Status::InvalidArgument("day index out of range");
  }
  std::vector<double> row(FeatureCount(options));
  NM_RETURN_NOT_OK(AssembleFeatureRow(series.l[t], series.u, t,
                                      series.maintenance_interval_s, options,
                                      row));
  return row;
}

Status AssembleFeatureRow(double usage_left, const data::DailySeries& u,
                          size_t t, double maintenance_interval_s,
                          const DatasetOptions& options,
                          std::span<double> row) {
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
  NM_CHECK_MSG(row.size() == FeatureCount(options),
               "feature row buffer has the wrong length");
  const double l_scale =
      options.normalize_features ? 1.0 / maintenance_interval_s : 1.0;
  const double u_scale = options.normalize_features ? 1.0 / 86400.0 : 1.0;

  row[0] = usage_left * l_scale;
  for (size_t k = 1; k <= w; ++k) {
    row[k] = u[t - k] * u_scale;
  }
  const size_t context_days =
      static_cast<size_t>(options.context_forecast_days);
  for (size_t k = 0; k < context_days; ++k) {
    const size_t index = std::min(t + k, options.context->size() - 1);
    row[1 + w + k] = (*options.context)[index];
  }
  return Status::OK();
}

Result<Records> ExtractRecords(const VehicleSeries& series, size_t first_day,
                               const DatasetOptions& options) {
  if (options.window < 0) {
    return Status::InvalidArgument("window must be non-negative");
  }
  const size_t begin =
      std::max(first_day, static_cast<size_t>(options.window));
  const auto keep = [&](size_t t) {
    return series.HasTarget(t) && (!options.target_filter.has_value() ||
                                   options.target_filter->Contains(series.d[t]));
  };
  size_t rows = 0;
  for (size_t t = begin; t < series.size(); ++t) rows += keep(t) ? 1 : 0;

  Records records{ml::Matrix(rows, FeatureCount(options)),
                  std::vector<double>(rows)};
  size_t i = 0;
  for (size_t t = begin; t < series.size(); ++t) {
    if (!keep(t)) continue;
    NM_RETURN_NOT_OK(AssembleFeatureRow(series.l[t], series.u, t,
                                        series.maintenance_interval_s, options,
                                        records.x.MutableRow(i)));
    records.y[i++] = series.d[t];
  }
  return records;
}

Result<ml::Dataset> BuildDataset(const VehicleSeries& series,
                                 const DatasetOptions& options) {
  NM_ASSIGN_OR_RETURN(Records records, ExtractRecords(series, 0, options));
  if (records.y.empty()) {
    return Status::InvalidArgument(
        "no records extracted (window too large, no completed cycle, or "
        "empty target filter)");
  }
  return ml::Dataset::Create(
      std::move(records.x), std::move(records.y),
      FeatureNames(options.window, options.context_forecast_days));
}

Result<ml::Dataset> BuildResampledDataset(
    const data::DailySeries& u, double maintenance_interval_s,
    const DatasetOptions& options, const ResamplingOptions& resampling) {
  NM_RETURN_NOT_OK(ValidateResampling(resampling));
  NM_ASSIGN_OR_RETURN(VehicleSeries series,
                      DeriveSeries(u, maintenance_interval_s));
  return BuildResampledDataset(series, options, resampling);
}

Result<ml::Dataset> BuildResampledDataset(const VehicleSeries& series,
                                          const DatasetOptions& options,
                                          const ResamplingOptions& resampling) {
  NM_RETURN_NOT_OK(ValidateResampling(resampling));
  NM_ASSIGN_OR_RETURN(ml::Dataset combined, BuildDataset(series, options));

  const data::DailySeries& u = series.u;
  const double maintenance_interval_s = series.maintenance_interval_s;
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
