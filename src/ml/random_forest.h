#ifndef NEXTMAINT_ML_RANDOM_FOREST_H_
#define NEXTMAINT_ML_RANDOM_FOREST_H_

#include <memory>
#include <vector>

#include "ml/decision_tree.h"
#include "ml/regressor.h"

/// \file random_forest.h
/// Random forest regressor — the paper's "RF" model: "an established
/// ensemble method combining the predictions of multiple decision trees ...
/// trained on different bootstraps (samples of the training data with
/// replacement)". Predictions are the plain average over trees.

namespace nextmaint {
namespace ml {

/// Bagged ensemble of CART trees with per-split feature subsampling.
class RandomForestRegressor final : public Regressor {
 public:
  struct Options {
    /// Number of trees.
    int num_estimators = 100;
    /// Per-tree depth limit; <= 0 means unlimited.
    int max_depth = -1;
    int min_samples_split = 2;
    int min_samples_leaf = 1;
    /// Features examined per split; <= 0 means all features (sklearn's
    /// regression default). Set ~p/3 for stronger decorrelation.
    int max_features = 0;
    /// Bootstrap sample size as a fraction of the training size.
    double bootstrap_fraction = 1.0;
    uint64_t seed = 42;
    /// Trees fitted concurrently (one task per tree). <= 0 follows the
    /// process-wide default (ThreadPool::DefaultThreadCount()). Any value
    /// yields bit-identical models; see docs/parallelism.md.
    int num_threads = 0;
    /// Maximum quantile bins per feature for the histogram split search
    /// (2..65535). The forest computes one BinMapper over the full training
    /// matrix and shares it across every tree.
    int max_bins = 256;
    /// Which tree core executes training (byte-identical either way; see
    /// docs/binned-training.md).
    TreeCore core = TreeCore::kBinned;
    /// Optional shared cache of pre-binned matrices (binned core only).
    std::shared_ptr<BinningCache> binning_cache;
  };

  RandomForestRegressor() = default;
  explicit RandomForestRegressor(Options options) : options_(options) {}

  /// Recognised ParamMap keys: "num_estimators", "max_depth",
  /// "min_samples_leaf", "num_threads", "max_bins".
  static Options OptionsFromParams(const ParamMap& params);

  [[nodiscard]] Result<double> Predict(std::span<const double> features) const override;
  std::string name() const override { return "RF"; }
  bool is_fitted() const override { return !trees_.empty(); }
  std::unique_ptr<Regressor> Clone() const override {
    return std::make_unique<RandomForestRegressor>(*this);
  }
  /// Reads a model body serialized by Save (header already consumed).
  [[nodiscard]] static Result<RandomForestRegressor> LoadBody(ModelReader& in);

  size_t tree_count() const { return trees_.size(); }
  const Options& options() const { return options_; }

 protected:
  [[nodiscard]] Status FitImpl(const Dataset& train) override;
  void SaveBody(ModelWriter& out) const override;

 private:
  Options options_;
  std::vector<DecisionTreeRegressor> trees_;
};

}  // namespace ml
}  // namespace nextmaint

#endif  // NEXTMAINT_ML_RANDOM_FOREST_H_
