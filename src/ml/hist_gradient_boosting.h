#ifndef NEXTMAINT_ML_HIST_GRADIENT_BOOSTING_H_
#define NEXTMAINT_ML_HIST_GRADIENT_BOOSTING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/binned_dataset.h"
#include "ml/regressor.h"
#include "ml/tree_node.h"

/// \file hist_gradient_boosting.h
/// Histogram-based gradient boosting regressor — the paper's "XGB" model
/// ("a popular ensemble method relying on a boosting strategy ... combining
/// many decision tree regressors"; the authors used a histogram-based
/// implementation).
///
/// Training: feature values are quantized into at most `max_bins` quantile
/// bins once up front; each boosting stage fits a depth-limited tree to the
/// current squared-loss gradients by accumulating per-bin gradient
/// histograms and choosing the split with the largest XGBoost-style gain
///   gain = GL^2/(HL+l2) + GR^2/(HR+l2) - G^2/(H+l2).
/// For squared loss the hessian of each sample is 1, so H terms are counts.
///
/// Trees are grown by the shared histogram grower (ml/histogram.h) on
/// either tree core (ml/binned_dataset.h); both cores are bit-identical.

namespace nextmaint {
namespace ml {

/// Gradient-boosted ensemble of histogram trees.
class HistGradientBoostingRegressor final : public Regressor {
 public:
  struct Options {
    /// Number of boosting stages (trees).
    int num_iterations = 100;
    /// Shrinkage applied to each tree's contribution.
    double learning_rate = 0.1;
    /// Per-tree depth limit; <= 0 means unlimited (bounded in practice by
    /// min_samples_leaf).
    int max_depth = 6;
    /// Minimum samples in each child of a split.
    int min_samples_leaf = 20;
    /// Maximum quantile bins per feature (1..65535; 256 is the classic
    /// histogram-GBM setting).
    int max_bins = 256;
    /// L2 regularization on leaf values.
    double l2 = 0.0;
    /// Minimum gain for a split to be kept.
    double min_gain = 1e-12;
    /// Concurrency for binning, per-feature split search and the per-row
    /// prediction update. <= 0 follows the process-wide default
    /// (ThreadPool::DefaultThreadCount()). Any value yields bit-identical
    /// models; see docs/parallelism.md.
    int num_threads = 0;
    /// Which tree core executes training (byte-identical either way; see
    /// docs/binned-training.md).
    TreeCore core = TreeCore::kBinned;
    /// Optional shared cache of pre-binned matrices (binned core only).
    std::shared_ptr<BinningCache> binning_cache;
  };

  HistGradientBoostingRegressor() = default;
  explicit HistGradientBoostingRegressor(Options options)
      : options_(options) {}

  /// Recognised ParamMap keys: "num_iterations", "max_depth",
  /// "learning_rate", "min_samples_leaf", "max_bins", "num_threads".
  static Options OptionsFromParams(const ParamMap& params);

  [[nodiscard]] Result<double> Predict(std::span<const double> features) const override;
  std::string name() const override { return "XGB"; }
  bool is_fitted() const override { return fitted_; }
  std::unique_ptr<Regressor> Clone() const override {
    return std::make_unique<HistGradientBoostingRegressor>(*this);
  }
  /// Reads a model body serialized by Save (header already consumed).
  [[nodiscard]] static Result<HistGradientBoostingRegressor> LoadBody(ModelReader& in);

  /// Number of trees in the fitted ensemble.
  size_t tree_count() const { return trees_.size(); }
  const Options& options() const { return options_; }

 protected:
  [[nodiscard]] Status FitImpl(const Dataset& train) override;
  void SaveBody(ModelWriter& out) const override;

 private:
  Options options_;
  double base_score_ = 0.0;
  std::vector<std::vector<GrowNode>> trees_;
  size_t num_features_ = 0;
  bool fitted_ = false;
};

}  // namespace ml
}  // namespace nextmaint

#endif  // NEXTMAINT_ML_HIST_GRADIENT_BOOSTING_H_
