#ifndef NEXTMAINT_DATA_PREPROCESS_H_
#define NEXTMAINT_DATA_PREPROCESS_H_

#include <string>
#include <vector>

#include "common/date.h"
#include "common/status.h"
#include "data/table.h"
#include "data/time_series.h"

/// \file preprocess.h
/// Steps (i) and (iii) of the paper's data-preparation pipeline (Section 3):
/// cleaning and aggregation. Step (ii) normalization scales the features,
/// not the series (DatasetOptions::normalize_features in
/// core/dataset_builder.h). Steps (iv) enrichment (derived series C, L, D)
/// and (v) transformation (windowed features) operate on the
/// problem-specific types and live in core/series.h and
/// core/dataset_builder.h.

namespace nextmaint {
namespace data {

/// Summary of the repairs applied by Clean().
struct CleaningReport {
  size_t missing_filled = 0;     ///< NaN cells repaired.
  size_t clamped_high = 0;       ///< values above 86,400 s.
  size_t clamped_low = 0;        ///< negative values.
};

/// Repairs missing and inconsistent values of a utilization series in
/// place: values are first clamped to [0, 86400] (a day has at most 86,400
/// seconds, and negative utilization is impossible), then NaN days are set
/// to 0 (no CAN reports on a day generally means no usage).
CleaningReport Clean(DailySeries* series);

/// Aggregates a report-level table into one daily utilization series.
///
/// The table must have a date column (string "YYYY-MM-DD" or int64 day
/// number) and a numeric duration column. Rows belonging to the same day are
/// summed — exactly what the on-board controller's summary reports require.
/// Calendar days missing entirely from the table become NaN (to be handled by
/// Clean()); null duration cells contribute nothing but mark the day observed.
[[nodiscard]] Result<DailySeries> AggregateDaily(const Table& table,
                                   const std::string& date_column,
                                   const std::string& duration_column);

/// Converts a daily series to a two-column table (date, value). Useful for
/// exporting prepared data back to CSV.
[[nodiscard]] Result<Table> SeriesToTable(const DailySeries& series,
                            const std::string& value_column_name);

}  // namespace data
}  // namespace nextmaint

#endif  // NEXTMAINT_DATA_PREPROCESS_H_
