#ifndef NEXTMAINT_CORE_COLD_START_H_
#define NEXTMAINT_CORE_COLD_START_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/dataset_builder.h"
#include "core/errors.h"
#include "core/series.h"
#include "core/similarity.h"
#include "ml/binned_dataset.h"
#include "ml/regressor.h"

/// \file cold_start.h
/// Methodology for new and semi-new vehicles (Section 4.4).
///
/// Both strategies train exclusively on *first-cycle* data of old training
/// vehicles, because "the first maintenance cycle of most vehicles appears
/// to have peculiar characteristics, with less usage":
///
///  - Model_Uni: one model over the merged first cycles of all training
///    vehicles; the only option for brand-new vehicles.
///  - Model_Sim: a model trained on the single most similar training
///    vehicle, where similarity compares utilization over the first half of
///    the first cycle (point-wise average distance by default).
///  - BL (semi-new only): AVG_v over the first half of the target's first
///    cycle, then D = L / AVG.

namespace nextmaint {
namespace core {

/// Feature/evaluation options shared by the cold-start strategies.
struct ColdStartOptions {
  /// Window size W of past utilization features.
  int window = 0;
  /// Scale features to [0, 1].
  bool normalize_features = true;
  /// E_MRE restriction for semi-new evaluation (paper: {1..29}).
  DaySet eval_days = DaySet::Last29();
  /// Similarity measure for Model_Sim (default: the paper's average-usage
  /// distance). Null restores the default.
  SimilarityMeasure similarity;
  /// Hyper-parameters forwarded to the trained models (keys a model does
  /// not recognise are ignored, so one map can serve several algorithms).
  ml::ParamMap model_params;
  uint64_t seed = 77;
  /// Tree-learner training backend (core selection + optional shared
  /// binning cache, e.g. the scheduler's unified-corpus cache).
  ml::TrainingBackend backend{};
};

/// First-cycle training material extracted from one old vehicle.
struct FirstCycleData {
  std::string vehicle_id;
  /// Utilization of the first half of the first cycle (the similarity key).
  std::vector<double> first_half_usage;
  /// Relational dataset over the complete first cycle.
  ml::Dataset dataset;
};

/// Extracts first-cycle training material from an old vehicle's usage
/// series. Fails when the vehicle has no completed cycle.
[[nodiscard]] Result<FirstCycleData> ExtractFirstCycle(const std::string& vehicle_id,
                                         const data::DailySeries& u,
                                         double maintenance_interval_s,
                                         const ColdStartOptions& options);

/// Trains Model_Uni: one `algorithm` model on the union of the given
/// first-cycle datasets.
[[nodiscard]] Result<std::unique_ptr<ml::Regressor>> TrainUnifiedModel(
    const std::string& algorithm, const std::vector<FirstCycleData>& corpus,
    const ColdStartOptions& options);

/// Trains Model_Sim for a target vehicle: finds the most similar training
/// vehicle by comparing `target_first_half_usage` against each candidate's
/// first-half usage, then trains `algorithm` on that single vehicle's first
/// cycle. Returns the model and the match that was used.
struct SimilarityModel {
  std::unique_ptr<ml::Regressor> model;
  SimilarityMatch match;
};
[[nodiscard]] Result<SimilarityModel> TrainSimilarityModel(
    const std::string& algorithm,
    const std::vector<double>& target_first_half_usage,
    const std::vector<FirstCycleData>& corpus,
    const ColdStartOptions& options);

/// The semi-new BL baseline: AVG over the first half of the target's first
/// cycle (Section 4.4.1). Fails when less than half a cycle of usage exists
/// (the vehicle would be "new") or the average is zero.
[[nodiscard]] Result<std::unique_ptr<ml::Regressor>> MakeSemiNewBaseline(
    const data::DailySeries& u, double maintenance_interval_s,
    const ColdStartOptions& options);

/// The similarity key (data/time_series.h).
using data::FirstHalfCycleUsage;

/// Evaluation of one cold-start model on one test vehicle.
struct ColdStartEvaluation {
  std::string algorithm;
  /// E_MRE(eval_days) over the first cycle (semi-new metric); NaN when not
  /// computed.
  double emre = 0.0;
  /// E_Global over the first cycle (new-vehicle metric).
  double eglobal = 0.0;
  std::vector<double> truth;
  std::vector<double> predicted;
};

/// Evaluates a trained cold-start model on a test vehicle's complete first
/// cycle. `compute_emre` selects the semi-new metric (E_MRE) in addition to
/// E_Global; for new vehicles the paper argues E_MRE is meaningless and
/// only E_Global is reported.
[[nodiscard]] Result<ColdStartEvaluation> EvaluateColdStartModel(
    const ml::Regressor& model, const data::DailySeries& test_u,
    double maintenance_interval_s, const ColdStartOptions& options,
    bool compute_emre);

}  // namespace core
}  // namespace nextmaint

#endif  // NEXTMAINT_CORE_COLD_START_H_
