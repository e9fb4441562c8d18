#ifndef NEXTMAINT_CORE_DATASET_BUILDER_H_
#define NEXTMAINT_CORE_DATASET_BUILDER_H_

#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/errors.h"
#include "core/series.h"
#include "ml/dataset.h"

/// \file dataset_builder.h
/// The "transformation" step of the preparation pipeline (Section 4):
/// turns derived per-vehicle series into the relational dataset the
/// regressors consume.
///
/// "each record corresponds to a different day t and consists of a set of
/// attributes denoting the past utilization levels ... Given a window size
/// W, the attributes include the values U_v(x) [t-W <= x <= t-1]. Along
/// with the utilization level series, the attributes include the current
/// time left until the next maintenance, i.e., L_v(t), and the target
/// variable ... D_v(t)."
///
/// Feature layout: column 0 is always L(t); columns 1..W are
/// U(t-1) ... U(t-W). W = 0 yields the univariate model of Eq. 7, W > 0 the
/// multivariate model of Eq. 8. The BL baseline reads L(t) from column 0.

namespace nextmaint {
namespace core {

/// Options controlling record extraction.
struct DatasetOptions {
  /// Window size W of past utilization features (0 = univariate).
  int window = 0;
  /// When set, only records whose target D(t) lies in the set are kept —
  /// the paper's "trained on D in {1..29}" regime (Table 1, right column).
  std::optional<DaySet> target_filter;
  /// Scale L by 1/T_v and U features by 1/86400 so every feature lies in
  /// [0, 1] (the normalization step of the preparation pipeline). The
  /// target stays in raw days.
  bool normalize_features = true;

  // --- Contextual enrichment (the paper's future-work extension). ---
  /// Optional per-day contextual series aligned with the utilization
  /// series (same day indexing), e.g. weather workability factors. Not
  /// owned; must outlive the builder calls.
  const std::vector<double>* context = nullptr;
  /// Number of forward context values appended as features:
  /// context[t], ..., context[t + k - 1]. Unlike utilization, context is
  /// known ahead of time in deployment (weather forecasts), so looking
  /// forward does not leak the target. Days running past the end of the
  /// context series repeat its last value.
  int context_forecast_days = 0;
};

/// Builds the relational dataset of one vehicle from its derived series.
/// Records cover days t with W <= t < size where D(t) is defined. Fails
/// when no record survives (e.g. window longer than the series).
[[nodiscard]] Result<ml::Dataset> BuildDataset(const VehicleSeries& series,
                                 const DatasetOptions& options);

/// The records of one vehicle as a bare matrix and target vector.
struct Records {
  ml::Matrix x;
  std::vector<double> y;
};

/// The records BuildDataset keeps, restricted to days t >= `first_day`:
/// row i of `x` is the feature row of the i-th such day and y[i] its D(t).
/// Each row is written in place into the presized matrix. Either may come
/// back empty; BuildDataset and the old-vehicle test window both read
/// their rows from here.
[[nodiscard]] Result<Records> ExtractRecords(const VehicleSeries& series,
                                             size_t first_day,
                                             const DatasetOptions& options);

/// Builds the feature row for day `t` of `series` (no target needed), e.g.
/// for predicting on the current day in deployment. Fails when t < W.
[[nodiscard]] Result<std::vector<double>> BuildFeatureRow(const VehicleSeries& series,
                                            size_t t,
                                            const DatasetOptions& options);

/// Length of a feature row under `options`: 1 + W + context_forecast_days
/// (negative counts, which the writer rejects, count as 0).
size_t FeatureCount(const DatasetOptions& options);

/// The one writer of the feature layout: writes the row of day `t` from
/// L(t) = `usage_left` and the utilization series `u` into `row`, which
/// must hold FeatureCount(options) values. `t` may be u.size(), the day
/// after the last observation. Fails when t < W or t > u.size().
[[nodiscard]] Status AssembleFeatureRow(double usage_left,
                                        const data::DailySeries& u, size_t t,
                                        double maintenance_interval_s,
                                        const DatasetOptions& options,
                                        std::span<double> row);

/// Options for time-shift re-sampling augmentation (Section 4):
/// "Since we do not know when the vehicle actually had the maintenance
/// done, we can shift the time reference ... We randomly re-sampled
/// multiple times the time reference starting from different time points
/// within the training data."
struct ResamplingOptions {
  /// Number of additional random shifts (0 disables augmentation; the
  /// unshifted dataset is always included).
  int num_shifts = 0;
  /// Largest allowed shift, as a fraction of the series length.
  double max_shift_fraction = 0.5;
  uint64_t seed = 99;
};

/// Builds the union of the unshifted dataset and `num_shifts` datasets
/// derived after dropping a random prefix of the utilization series (which
/// re-phases every maintenance cycle). Duplicated shift draws are allowed.
[[nodiscard]] Result<ml::Dataset> BuildResampledDataset(const data::DailySeries& u,
                                          double maintenance_interval_s,
                                          const DatasetOptions& options,
                                          const ResamplingOptions& resampling);

/// The same dataset from an already derived unshifted series (offset 0),
/// so a caller holding DeriveSeries(u, T_v) does not derive it again.
[[nodiscard]] Result<ml::Dataset> BuildResampledDataset(
    const VehicleSeries& series, const DatasetOptions& options,
    const ResamplingOptions& resampling);

}  // namespace core
}  // namespace nextmaint

#endif  // NEXTMAINT_CORE_DATASET_BUILDER_H_
