#include "core/dataset_builder.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"

namespace nextmaint {
namespace core {
namespace {

Date Day(int offset) {
  return Date::FromYmd(2015, 1, 1).ValueOrDie().AddDays(offset);
}

// 12 days at 100 s/day with T = 300: four 3-day cycles, D sawtooth 2,1,0.
VehicleSeries MakeSeries() {
  data::DailySeries u(Day(0), std::vector<double>(12, 100.0));
  return DeriveSeries(u, 300.0).ValueOrDie();
}

TEST(BuildFeatureRowTest, UnivariateLayout) {
  const VehicleSeries s = MakeSeries();
  DatasetOptions options;
  options.window = 0;
  options.normalize_features = false;
  const std::vector<double> row = BuildFeatureRow(s, 1, options).ValueOrDie();
  ASSERT_EQ(row.size(), 1u);
  EXPECT_DOUBLE_EQ(row[0], 200.0);  // L(1)
}

TEST(BuildFeatureRowTest, MultivariateLayout) {
  const VehicleSeries s = MakeSeries();
  DatasetOptions options;
  options.window = 3;
  options.normalize_features = false;
  const std::vector<double> row = BuildFeatureRow(s, 5, options).ValueOrDie();
  ASSERT_EQ(row.size(), 4u);
  EXPECT_DOUBLE_EQ(row[0], s.l[5]);
  EXPECT_DOUBLE_EQ(row[1], 100.0);  // U(4)
  EXPECT_DOUBLE_EQ(row[2], 100.0);  // U(3)
  EXPECT_DOUBLE_EQ(row[3], 100.0);  // U(2)
}

TEST(BuildFeatureRowTest, NormalizationScalesLAndU) {
  const VehicleSeries s = MakeSeries();
  DatasetOptions options;
  options.window = 1;
  options.normalize_features = true;
  const std::vector<double> row = BuildFeatureRow(s, 1, options).ValueOrDie();
  EXPECT_DOUBLE_EQ(row[0], 200.0 / 300.0);   // L / T_v
  EXPECT_DOUBLE_EQ(row[1], 100.0 / 86400.0);  // U / day
}

TEST(BuildFeatureRowTest, ErrorCases) {
  const VehicleSeries s = MakeSeries();
  DatasetOptions options;
  options.window = 3;
  EXPECT_FALSE(BuildFeatureRow(s, 2, options).ok());   // t < W
  EXPECT_FALSE(BuildFeatureRow(s, 99, options).ok());  // out of range
  options.window = -1;
  EXPECT_FALSE(BuildFeatureRow(s, 5, options).ok());
}

TEST(BuildDatasetTest, RowPerTargetedDay) {
  const VehicleSeries s = MakeSeries();
  DatasetOptions options;
  options.window = 0;
  const ml::Dataset dataset = BuildDataset(s, options).ValueOrDie();
  // All 12 days have targets (four complete cycles).
  EXPECT_EQ(dataset.num_rows(), 12u);
  EXPECT_EQ(dataset.num_features(), 1u);
  EXPECT_EQ(dataset.feature_names()[0], "L");
}

TEST(BuildDatasetTest, WindowReducesRowsAndAddsNames) {
  const VehicleSeries s = MakeSeries();
  DatasetOptions options;
  options.window = 4;
  const ml::Dataset dataset = BuildDataset(s, options).ValueOrDie();
  EXPECT_EQ(dataset.num_rows(), 8u);  // days 4..11
  EXPECT_EQ(dataset.num_features(), 5u);
  EXPECT_EQ(dataset.feature_names()[1], "U(t-1)");
  EXPECT_EQ(dataset.feature_names()[4], "U(t-4)");
}

TEST(BuildDatasetTest, TargetFilterKeepsLast29Style) {
  const VehicleSeries s = MakeSeries();
  DatasetOptions options;
  options.window = 0;
  options.target_filter = DaySet::Range(1, 1);  // only D == 1 days
  const ml::Dataset dataset = BuildDataset(s, options).ValueOrDie();
  EXPECT_EQ(dataset.num_rows(), 4u);  // one D=1 day per cycle
  for (double y : dataset.y()) {
    EXPECT_DOUBLE_EQ(y, 1.0);
  }
}

TEST(BuildDatasetTest, SkipsTrailingUndefinedTargets) {
  data::DailySeries u(Day(0), std::vector<double>(10, 100.0));
  // T=300: cycles end at days 2,5,8; day 9 has no target.
  const VehicleSeries s = DeriveSeries(u, 300.0).ValueOrDie();
  DatasetOptions options;
  options.window = 0;
  const ml::Dataset dataset = BuildDataset(s, options).ValueOrDie();
  EXPECT_EQ(dataset.num_rows(), 9u);
}

TEST(BuildDatasetTest, FailsWhenNothingSurvives) {
  const VehicleSeries s = MakeSeries();
  DatasetOptions options;
  options.window = 50;  // longer than the series
  EXPECT_FALSE(BuildDataset(s, options).ok());
  options.window = 0;
  options.target_filter = DaySet::Range(100, 200);  // no such targets
  EXPECT_FALSE(BuildDataset(s, options).ok());
}

TEST(BuildResampledDatasetTest, ZeroShiftsEqualsPlainDataset) {
  data::DailySeries u(Day(0), std::vector<double>(12, 100.0));
  DatasetOptions options;
  options.window = 0;
  ResamplingOptions resampling;
  resampling.num_shifts = 0;
  const ml::Dataset resampled =
      BuildResampledDataset(u, 300.0, options, resampling).ValueOrDie();
  const ml::Dataset plain =
      BuildDataset(DeriveSeries(u, 300.0).ValueOrDie(), options)
          .ValueOrDie();
  EXPECT_EQ(resampled.num_rows(), plain.num_rows());
}

TEST(BuildResampledDatasetTest, ShiftsAddRows) {
  data::DailySeries u(Day(0), std::vector<double>(60, 100.0));
  DatasetOptions options;
  options.window = 0;
  ResamplingOptions resampling;
  resampling.num_shifts = 3;
  const ml::Dataset resampled =
      BuildResampledDataset(u, 300.0, options, resampling).ValueOrDie();
  const ml::Dataset plain =
      BuildDataset(DeriveSeries(u, 300.0).ValueOrDie(), options)
          .ValueOrDie();
  EXPECT_GT(resampled.num_rows(), plain.num_rows());
}

TEST(BuildResampledDatasetTest, AugmentedRowsAreConsistent) {
  // Every augmented record must still satisfy the constant-usage relation
  // D = L/100 - 1 (L counts the current day's upcoming usage).
  data::DailySeries u(Day(0), std::vector<double>(60, 100.0));
  DatasetOptions options;
  options.window = 0;
  options.normalize_features = false;
  ResamplingOptions resampling;
  resampling.num_shifts = 5;
  const ml::Dataset resampled =
      BuildResampledDataset(u, 300.0, options, resampling).ValueOrDie();
  for (size_t r = 0; r < resampled.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(resampled.y()[r], resampled.x()(r, 0) / 100.0 - 1.0);
  }
}

TEST(BuildResampledDatasetTest, DeterministicGivenSeed) {
  data::DailySeries u(Day(0), std::vector<double>(60, 100.0));
  DatasetOptions options;
  ResamplingOptions resampling;
  resampling.num_shifts = 4;
  const auto a =
      BuildResampledDataset(u, 300.0, options, resampling).ValueOrDie();
  const auto b =
      BuildResampledDataset(u, 300.0, options, resampling).ValueOrDie();
  EXPECT_EQ(a.num_rows(), b.num_rows());
}

TEST(BuildResampledDatasetTest, InvalidOptionsRejected) {
  data::DailySeries u(Day(0), std::vector<double>(12, 100.0));
  DatasetOptions options;
  ResamplingOptions resampling;
  resampling.num_shifts = -1;
  EXPECT_FALSE(BuildResampledDataset(u, 300.0, options, resampling).ok());
  resampling.num_shifts = 1;
  resampling.max_shift_fraction = 1.0;
  EXPECT_FALSE(BuildResampledDataset(u, 300.0, options, resampling).ok());
}


/// Rows of a dataset as built before the in-place writer: one
/// AssembleFeatureRow call per kept day, each into its own vector.
struct RowwiseRecords {
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
};

Status AppendRowwise(const VehicleSeries& s, const DatasetOptions& options,
                     RowwiseRecords& out) {
  if (options.window < 0) {
    return Status::InvalidArgument("window must be non-negative");
  }
  for (size_t t = static_cast<size_t>(options.window); t < s.size(); ++t) {
    if (!s.HasTarget(t)) continue;
    if (options.target_filter.has_value() &&
        !options.target_filter->Contains(s.d[t])) {
      continue;
    }
    std::vector<double> row(FeatureCount(options));
    NM_RETURN_NOT_OK(AssembleFeatureRow(s.l[t], s.u, t,
                                        s.maintenance_interval_s, options,
                                        row));
    out.rows.push_back(std::move(row));
    out.y.push_back(s.d[t]);
  }
  return Status::OK();
}

/// BuildResampledDataset's shift draws, spelled out over AppendRowwise.
RowwiseRecords ResampledRowwise(const data::DailySeries& u, double tv,
                                const DatasetOptions& options,
                                const ResamplingOptions& resampling) {
  RowwiseRecords out;
  EXPECT_TRUE(
      AppendRowwise(DeriveSeries(u, tv).ValueOrDie(), options, out).ok());
  Rng rng(resampling.seed);
  const size_t max_shift = static_cast<size_t>(
      resampling.max_shift_fraction * static_cast<double>(u.size()));
  for (int k = 0; k < resampling.num_shifts && max_shift > 0; ++k) {
    const size_t offset =
        1 + static_cast<size_t>(rng.UniformInt(max_shift));
    const Result<VehicleSeries> shifted = DeriveSeries(u, tv, offset);
    if (!shifted.ok()) continue;
    DatasetOptions shifted_options = options;
    std::vector<double> shifted_context;
    if (options.context != nullptr && options.context_forecast_days > 0) {
      if (offset >= options.context->size()) continue;
      shifted_context.assign(
          options.context->begin() + static_cast<ptrdiff_t>(offset),
          options.context->end());
      shifted_options.context = &shifted_context;
    }
    RowwiseRecords extra;
    if (!AppendRowwise(shifted.ValueOrDie(), shifted_options, extra).ok() ||
        extra.rows.empty()) {
      continue;
    }
    out.rows.insert(out.rows.end(), extra.rows.begin(), extra.rows.end());
    out.y.insert(out.y.end(), extra.y.begin(), extra.y.end());
  }
  return out;
}

std::vector<std::string> ExpectedNames(int window, int context_days) {
  std::vector<std::string> names = {"L"};
  for (int k = 1; k <= window; ++k) {
    names.push_back("U(t-" + std::to_string(k) + ")");
  }
  for (int k = 0; k < context_days; ++k) {
    names.push_back("CTX(t+" + std::to_string(k) + ")");
  }
  return names;
}

void ExpectSameRecords(const ml::Dataset& got, const RowwiseRecords& want,
                       const DatasetOptions& options,
                       const std::string& label) {
  ASSERT_EQ(got.num_rows(), want.rows.size()) << label;
  ASSERT_EQ(got.num_features(), FeatureCount(options)) << label;
  EXPECT_EQ(got.feature_names(),
            ExpectedNames(options.window, options.context_forecast_days))
      << label;
  for (size_t r = 0; r < want.rows.size(); ++r) {
    for (size_t c = 0; c < want.rows[r].size(); ++c) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got.x()(r, c)),
                std::bit_cast<uint64_t>(want.rows[r][c]))
          << label << " row " << r << " col " << c;
    }
    ASSERT_EQ(std::bit_cast<uint64_t>(got.y()[r]),
              std::bit_cast<uint64_t>(want.y[r]))
        << label << " row " << r;
  }
}

/// 90 days of uneven usage with T = 500 s: cycles of a few days each.
data::DailySeries UnevenUsage() {
  Rng rng(31);
  std::vector<double> values(90);
  for (double& v : values) v = rng.Uniform(40.0, 160.0);
  return data::DailySeries(Day(0), values);
}

TEST(InPlaceRowsTest, DatasetsMatchRowByRowReference) {
  const data::DailySeries u = UnevenUsage();
  const double tv = 500.0;
  const VehicleSeries series = DeriveSeries(u, tv).ValueOrDie();
  std::vector<double> context(u.size());
  for (size_t i = 0; i < context.size(); ++i) {
    context[i] = 0.1 * static_cast<double>(i % 13);
  }
  for (const int window : {0, 3, 6}) {
    for (const int context_days : {0, 2}) {
      for (const bool normalize : {true, false}) {
        for (const bool last29 : {false, true}) {
          DatasetOptions options;
          options.window = window;
          options.normalize_features = normalize;
          if (context_days > 0) {
            options.context = &context;
            options.context_forecast_days = context_days;
          }
          if (last29) options.target_filter = DaySet::Last29();
          const std::string label =
              "W=" + std::to_string(window) +
              " ctx=" + std::to_string(context_days) +
              " normalize=" + std::to_string(normalize) +
              " last29=" + std::to_string(last29);

          RowwiseRecords plain;
          ASSERT_TRUE(AppendRowwise(series, options, plain).ok()) << label;
          ExpectSameRecords(BuildDataset(series, options).ValueOrDie(), plain,
                            options, label);

          ResamplingOptions resampling;
          resampling.num_shifts = 3;
          const RowwiseRecords resampled =
              ResampledRowwise(u, tv, options, resampling);
          ASSERT_GT(resampled.rows.size(), plain.rows.size()) << label;
          ExpectSameRecords(
              BuildResampledDataset(u, tv, options, resampling).ValueOrDie(),
              resampled, options, label + " resampled");
          ExpectSameRecords(
              BuildResampledDataset(series, options, resampling)
                  .ValueOrDie(),
              resampled, options, label + " resampled from series");
        }
      }
    }
  }
}

TEST(InPlaceRowsTest, ErrorsMatchRowByRowReference) {
  const VehicleSeries series = DeriveSeries(UnevenUsage(), 500.0).ValueOrDie();
  DatasetOptions negative_window;
  negative_window.window = -1;
  DatasetOptions missing_context;
  missing_context.window = 2;
  missing_context.context_forecast_days = 2;
  DatasetOptions negative_context;
  negative_context.context_forecast_days = -1;
  for (const DatasetOptions& options :
       {negative_window, missing_context, negative_context}) {
    RowwiseRecords ignored;
    const Status expected = AppendRowwise(series, options, ignored);
    ASSERT_FALSE(expected.ok());
    const Result<ml::Dataset> built = BuildDataset(series, options);
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().ToString(), expected.ToString());
  }
  // With no kept day the writer never runs: the empty result is reported
  // even though the context options are invalid.
  missing_context.target_filter = DaySet::Range(1000, 1001);
  const Result<ml::Dataset> empty = BuildDataset(series, missing_context);
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.status().message().find("no records extracted"),
            std::string::npos);
}

TEST(InPlaceRowsTest, ExtractRecordsStartsAtFirstDayAndWindow) {
  const VehicleSeries series = DeriveSeries(UnevenUsage(), 500.0).ValueOrDie();
  DatasetOptions options;
  options.window = 4;
  const Records all = ExtractRecords(series, 0, options).ValueOrDie();
  const Records tail = ExtractRecords(series, 60, options).ValueOrDie();
  const Records past_end = ExtractRecords(series, 500, options).ValueOrDie();
  EXPECT_TRUE(past_end.y.empty());
  EXPECT_EQ(past_end.x.cols(), 5u);
  ASSERT_LT(tail.y.size(), all.y.size());
  // The tail records are the last rows of the full extraction.
  const size_t skip = all.y.size() - tail.y.size();
  for (size_t r = 0; r < tail.y.size(); ++r) {
    EXPECT_EQ(tail.y[r], all.y[skip + r]);
    for (size_t c = 0; c < tail.x.cols(); ++c) {
      EXPECT_EQ(std::bit_cast<uint64_t>(tail.x(r, c)),
                std::bit_cast<uint64_t>(all.x(skip + r, c)));
    }
  }
}

TEST(ContextFeaturesTest, ForwardContextAppended) {
  const VehicleSeries s = MakeSeries();
  std::vector<double> context(12);
  for (size_t i = 0; i < context.size(); ++i) {
    context[i] = static_cast<double>(i) / 10.0;
  }
  DatasetOptions options;
  options.window = 1;
  options.context = &context;
  options.context_forecast_days = 3;
  const std::vector<double> row = BuildFeatureRow(s, 5, options).ValueOrDie();
  ASSERT_EQ(row.size(), 5u);  // L + U(t-1) + 3 context
  EXPECT_DOUBLE_EQ(row[2], 0.5);  // context[5]
  EXPECT_DOUBLE_EQ(row[3], 0.6);  // context[6]
  EXPECT_DOUBLE_EQ(row[4], 0.7);  // context[7]
}

TEST(ContextFeaturesTest, PastEndRepeatsLastValue) {
  const VehicleSeries s = MakeSeries();
  std::vector<double> context(12, 0.0);
  context.back() = 9.0;
  DatasetOptions options;
  options.context = &context;
  options.context_forecast_days = 3;
  const std::vector<double> row =
      BuildFeatureRow(s, 11, options).ValueOrDie();
  ASSERT_EQ(row.size(), 4u);
  EXPECT_DOUBLE_EQ(row[1], 9.0);  // context[11]
  EXPECT_DOUBLE_EQ(row[2], 9.0);  // clamped
  EXPECT_DOUBLE_EQ(row[3], 9.0);  // clamped
}

TEST(ContextFeaturesTest, DatasetGetsContextNamesAndColumns) {
  const VehicleSeries s = MakeSeries();
  std::vector<double> context(12, 0.5);
  DatasetOptions options;
  options.window = 2;
  options.context = &context;
  options.context_forecast_days = 2;
  const ml::Dataset dataset = BuildDataset(s, options).ValueOrDie();
  EXPECT_EQ(dataset.num_features(), 5u);
  EXPECT_EQ(dataset.feature_names()[3], "CTX(t+0)");
  EXPECT_EQ(dataset.feature_names()[4], "CTX(t+1)");
  for (size_t r = 0; r < dataset.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(dataset.x()(r, 3), 0.5);
  }
}

TEST(ContextFeaturesTest, MissingContextSeriesRejected) {
  const VehicleSeries s = MakeSeries();
  DatasetOptions options;
  options.context_forecast_days = 2;  // but no context series
  EXPECT_FALSE(BuildFeatureRow(s, 5, options).ok());
}

TEST(ContextFeaturesTest, ResamplingShiftsContextWithSeries) {
  // Context equal to the original day index. Correct behaviour shifts the
  // context with the time reference, so a row from a block shifted by
  // offset o carries CTX = o + t while its in-cycle position is t mod 3.
  data::DailySeries u(Day(0), std::vector<double>(60, 100.0));
  std::vector<double> context(60);
  for (size_t i = 0; i < 60; ++i) context[i] = static_cast<double>(i);
  DatasetOptions options;
  options.window = 0;
  options.normalize_features = false;
  options.context = &context;
  options.context_forecast_days = 1;
  ResamplingOptions resampling;
  resampling.num_shifts = 4;
  const ml::Dataset dataset =
      BuildResampledDataset(u, 300.0, options, resampling).ValueOrDie();

  size_t phase_mismatches = 0;
  for (size_t r = 0; r < dataset.num_rows(); ++r) {
    const double l = dataset.x()(r, 0);
    const double ctx = dataset.x()(r, 1);
    // Context values are always genuine day indices (integers in range),
    // never interpolated or recycled garbage.
    EXPECT_DOUBLE_EQ(ctx, std::floor(ctx));
    EXPECT_GE(ctx, 0.0);
    EXPECT_LT(ctx, 60.0);
    const double in_cycle_day = (300.0 - l) / 100.0;
    // The unshifted block (first 60 rows) keeps ctx == absolute day, so
    // phase matches exactly.
    if (r < 60) {
      EXPECT_DOUBLE_EQ(std::fmod(ctx, 3.0), in_cycle_day) << "row " << r;
    } else if (std::fmod(ctx, 3.0) != in_cycle_day) {
      // Shifted blocks: ctx = offset + t, so the phases differ whenever
      // the offset is not a multiple of the cycle length.
      ++phase_mismatches;
    }
  }
  // If the context had NOT been shifted along with the series, every row
  // would phase-match; with 4 random offsets at least one block must not.
  EXPECT_GT(phase_mismatches, 0u);
}

}  // namespace
}  // namespace core
}  // namespace nextmaint
