#include "core/cold_start.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/statistics.h"
#include "core/baseline.h"
#include "ml/registry.h"

namespace nextmaint {
namespace core {

namespace {

/// Builds the relational dataset restricted to the first cycle of `series`.
Result<ml::Dataset> FirstCycleDataset(const VehicleSeries& series,
                                      const ColdStartOptions& options) {
  if (series.completed_cycles() == 0) {
    return Status::InvalidArgument("vehicle has no completed cycle");
  }
  const size_t cycle_end = series.cycles[0].end;
  DatasetOptions dataset_options;
  dataset_options.window = options.window;
  dataset_options.normalize_features = options.normalize_features;

  ml::Dataset dataset;
  for (size_t t = static_cast<size_t>(options.window); t <= cycle_end; ++t) {
    if (!series.HasTarget(t)) continue;
    NM_ASSIGN_OR_RETURN(std::vector<double> row,
                        BuildFeatureRow(series, t, dataset_options));
    dataset.AddRow(std::span<const double>(row.data(), row.size()),
                   series.d[t]);
  }
  if (dataset.empty()) {
    return Status::InvalidArgument(
        "first cycle yields no records (window too large?)");
  }
  return dataset;
}

}  // namespace

Result<FirstCycleData> ExtractFirstCycle(const std::string& vehicle_id,
                                         const data::DailySeries& u,
                                         double maintenance_interval_s,
                                         const ColdStartOptions& options) {
  FirstCycleData data;
  data.vehicle_id = vehicle_id;
  NM_ASSIGN_OR_RETURN(VehicleSeries series,
                      DeriveSeries(u, maintenance_interval_s));
  NM_ASSIGN_OR_RETURN(data.dataset, FirstCycleDataset(series, options));
  NM_ASSIGN_OR_RETURN(data.first_half_usage,
                      FirstHalfCycleUsage(u, maintenance_interval_s));
  return data;
}

Result<std::unique_ptr<ml::Regressor>> TrainUnifiedModel(
    const std::string& algorithm, const std::vector<FirstCycleData>& corpus,
    const ColdStartOptions& options) {
  if (corpus.empty()) {
    return Status::InvalidArgument("empty training corpus");
  }
  // The merge is sized once. Grown row by row it reallocates about
  // log2(rows) times, and since the fit runs beside the vehicle fan-out
  // (FleetScheduler::TrainVehicles) the discarded copies would stay
  // resident in the allocator. Rows keep corpus order; features and names
  // come from the first non-empty dataset, as with Dataset::Concat.
  const ml::Dataset* first = nullptr;
  size_t rows = 0;
  for (const FirstCycleData& vehicle : corpus) {
    if (vehicle.dataset.num_rows() == 0) continue;
    if (first == nullptr) first = &vehicle.dataset;
    if (vehicle.dataset.num_features() != first->num_features()) {
      return Status::InvalidArgument("feature count mismatch in Concat")
          .WithContext(vehicle.vehicle_id);
    }
    rows += vehicle.dataset.num_rows();
  }
  ml::Matrix x(rows, first == nullptr ? 0 : first->num_features());
  std::vector<double> y;
  y.reserve(rows);
  for (const FirstCycleData& vehicle : corpus) {
    for (size_t r = 0; r < vehicle.dataset.num_rows(); ++r) {
      const std::span<const double> row = vehicle.dataset.x().Row(r);
      std::copy(row.begin(), row.end(), x.MutableRow(y.size()).begin());
      y.push_back(vehicle.dataset.y()[r]);
    }
  }
  NM_ASSIGN_OR_RETURN(
      ml::Dataset merged,
      ml::Dataset::Create(std::move(x), std::move(y),
                          first == nullptr ? std::vector<std::string>()
                                           : first->feature_names()));
  NM_ASSIGN_OR_RETURN(std::unique_ptr<ml::Regressor> model,
                      ml::MakeRegressor(algorithm, options.model_params,
                                        options.backend));
  NM_RETURN_NOT_OK(model->Fit(merged).WithContext("Model_Uni " + algorithm));
  return model;
}

Result<SimilarityModel> TrainSimilarityModel(
    const std::string& algorithm,
    const std::vector<double>& target_first_half_usage,
    const std::vector<FirstCycleData>& corpus,
    const ColdStartOptions& options) {
  if (corpus.empty()) {
    return Status::InvalidArgument("empty training corpus");
  }
  std::vector<SimilarityCandidate> candidates;
  candidates.reserve(corpus.size());
  for (const FirstCycleData& vehicle : corpus) {
    candidates.push_back(
        SimilarityCandidate{vehicle.vehicle_id, vehicle.first_half_usage});
  }
  const SimilarityMeasure measure =
      options.similarity ? options.similarity : AverageDistanceMeasure();
  SimilarityModel out;
  NM_ASSIGN_OR_RETURN(out.match, MostSimilar(target_first_half_usage,
                                             candidates, measure));
  NM_ASSIGN_OR_RETURN(out.model,
                      ml::MakeRegressor(algorithm, options.model_params,
                                        options.backend));
  NM_RETURN_NOT_OK(out.model->Fit(corpus[out.match.index].dataset)
                       .WithContext("Model_Sim " + algorithm + " on " +
                                    out.match.id));
  return out;
}

Result<SimilarityMatch> MostSimilarFromCorpus(
    const std::vector<double>& target_first_half_usage,
    const std::vector<storage::CorpusVehicleSummary>& summaries,
    const ColdStartOptions& options) {
  std::vector<SimilarityCandidate> candidates;
  candidates.reserve(summaries.size());
  for (const storage::CorpusVehicleSummary& summary : summaries) {
    // Vehicles without a similarity key (category "new" at compaction
    // time) cannot be matched against; skip, don't fail — the corpus may
    // legitimately mix them in.
    if (summary.first_half_usage.empty()) continue;
    candidates.push_back(
        SimilarityCandidate{summary.vehicle_id, summary.first_half_usage});
  }
  if (candidates.empty()) {
    return Status::InvalidArgument(
        "no corpus vehicle carries a first-half-cycle similarity key");
  }
  const SimilarityMeasure measure =
      options.similarity ? options.similarity : AverageDistanceMeasure();
  return MostSimilar(target_first_half_usage, candidates, measure);
}

Result<std::unique_ptr<ml::Regressor>> MakeSemiNewBaseline(
    const data::DailySeries& u, double maintenance_interval_s,
    const ColdStartOptions& options) {
  NM_ASSIGN_OR_RETURN(std::vector<double> first_half,
                      FirstHalfCycleUsage(u, maintenance_interval_s));
  const double avg = Mean(first_half);
  if (avg <= 0.0) {
    return Status::NumericError("zero average usage in first half cycle");
  }
  const double l_scale =
      options.normalize_features ? 1.0 / maintenance_interval_s : 1.0;
  return std::unique_ptr<ml::Regressor>(
      std::make_unique<BaselinePredictor>(avg, l_scale));
}

Result<ColdStartEvaluation> EvaluateColdStartModel(
    const ml::Regressor& model, const data::DailySeries& test_u,
    double maintenance_interval_s, const ColdStartOptions& options,
    bool compute_emre) {
  NM_ASSIGN_OR_RETURN(VehicleSeries series,
                      DeriveSeries(test_u, maintenance_interval_s));
  if (series.completed_cycles() == 0) {
    return Status::InvalidArgument(
        "test vehicle's first cycle is not complete in the data; ground "
        "truth for it is unknown");
  }
  DatasetOptions feature_options;
  feature_options.window = options.window;
  feature_options.normalize_features = options.normalize_features;

  ColdStartEvaluation eval;
  eval.algorithm = model.name();
  const size_t cycle_end = series.cycles[0].end;
  for (size_t t = static_cast<size_t>(options.window); t <= cycle_end; ++t) {
    if (!series.HasTarget(t)) continue;
    NM_ASSIGN_OR_RETURN(std::vector<double> row,
                        BuildFeatureRow(series, t, feature_options));
    NM_ASSIGN_OR_RETURN(
        double prediction,
        model.Predict(std::span<const double>(row.data(), row.size())));
    eval.truth.push_back(series.d[t]);
    eval.predicted.push_back(prediction);
  }
  if (eval.truth.empty()) {
    return Status::InvalidArgument("no evaluable day in the first cycle");
  }
  NM_ASSIGN_OR_RETURN(eval.eglobal, GlobalError(eval.truth, eval.predicted));
  if (compute_emre) {
    NM_ASSIGN_OR_RETURN(
        eval.emre,
        MeanResidualError(eval.truth, eval.predicted, options.eval_days));
  } else {
    eval.emre = std::numeric_limits<double>::quiet_NaN();
  }
  return eval;
}

}  // namespace core
}  // namespace nextmaint
