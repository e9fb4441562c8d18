#ifndef NEXTMAINT_ML_DECISION_TREE_H_
#define NEXTMAINT_ML_DECISION_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/binned_dataset.h"
#include "ml/regressor.h"
#include "ml/tree_node.h"

/// \file decision_tree.h
/// CART regression tree: binary axis-aligned splits chosen by histogram
/// search over quantile bins (ml/histogram.h) to maximize variance
/// reduction (equivalently, minimize the sum of squared errors of the two
/// children). Split thresholds are bin upper bounds; with max_bins >= the
/// number of distinct values per feature the candidate set is exact. The
/// building block of the random forest.

namespace nextmaint {
namespace ml {

class TreeBinning;  // ml/histogram.h

/// A single regression tree.
class DecisionTreeRegressor final : public Regressor {
 public:
  struct Options {
    /// Maximum tree depth; the root is depth 0. <= 0 means unlimited.
    int max_depth = -1;
    /// A node with fewer samples than this becomes a leaf.
    int min_samples_split = 2;
    /// Both children of a split must contain at least this many samples.
    int min_samples_leaf = 1;
    /// Number of features examined per split; <= 0 means all features.
    /// Random forests pass ~p/3 for decorrelation.
    int max_features = -1;
    /// Seed for feature subsampling (only used when max_features limits
    /// the candidate set).
    uint64_t seed = 13;
    /// Maximum quantile bins per feature for the histogram split search
    /// (2..65535).
    int max_bins = 256;
    /// Which tree core executes training (byte-identical either way; see
    /// docs/binned-training.md).
    TreeCore core = TreeCore::kBinned;
    /// Optional shared cache of pre-binned matrices (binned core only).
    std::shared_ptr<BinningCache> binning_cache;
  };

  DecisionTreeRegressor() = default;
  explicit DecisionTreeRegressor(Options options) : options_(options) {}

  /// Recognised ParamMap keys: "max_depth", "min_samples_leaf", "max_bins".
  static Options OptionsFromParams(const ParamMap& params);

  /// Fits on the subset of `train` given by `indices` (duplicates allowed).
  /// Bins train.x() per this tree's own options (core, max_bins, cache).
  [[nodiscard]] Status FitIndices(const Dataset& train, const std::vector<size_t>& indices);

  [[nodiscard]] Result<double> Predict(std::span<const double> features) const override;
  std::string name() const override { return "Tree"; }
  bool is_fitted() const override { return !nodes_.empty(); }
  std::unique_ptr<Regressor> Clone() const override {
    return std::make_unique<DecisionTreeRegressor>(*this);
  }
  /// Reads a model body serialized by Save (header already consumed).
  [[nodiscard]] static Result<DecisionTreeRegressor> LoadBody(ModelReader& in);

  /// Total node count of the fitted tree.
  size_t node_count() const { return nodes_.size(); }
  /// Number of leaves of the fitted tree.
  size_t leaf_count() const;
  /// Depth of the fitted tree (0 for a single-leaf tree).
  int depth() const;
  const Options& options() const { return options_; }

 protected:
  [[nodiscard]] Status FitImpl(const Dataset& train) override;
  void SaveBody(ModelWriter& out) const override;

 private:
  // The forest grows every tree on one shared binning.
  friend class RandomForestRegressor;

  /// FitIndices on `binning`, which the caller built over train.x() after
  /// checking that train is non-empty and finite.
  [[nodiscard]] Status FitBinned(const Dataset& train,
                                 const TreeBinning& binning,
                                 const std::vector<size_t>& indices);

  Options options_;
  size_t num_features_ = 0;
  std::vector<GrowNode> nodes_;
};

}  // namespace ml
}  // namespace nextmaint

#endif  // NEXTMAINT_ML_DECISION_TREE_H_
