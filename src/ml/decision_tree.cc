#include "ml/decision_tree.h"

#include <algorithm>
#include <numeric>

#include "common/macros.h"
#include "ml/histogram.h"
#include "ml/serialization.h"

namespace nextmaint {
namespace ml {

DecisionTreeRegressor::Options DecisionTreeRegressor::OptionsFromParams(
    const ParamMap& params) {
  Options options;
  if (auto it = params.find("max_depth"); it != params.end()) {
    options.max_depth = static_cast<int>(it->second);
  }
  if (auto it = params.find("min_samples_leaf"); it != params.end()) {
    options.min_samples_leaf = static_cast<int>(it->second);
  }
  if (auto it = params.find("max_bins"); it != params.end()) {
    options.max_bins = static_cast<int>(it->second);
  }
  return options;
}

Status DecisionTreeRegressor::FitImpl(const Dataset& train) {
  std::vector<size_t> indices(train.num_rows());
  std::iota(indices.begin(), indices.end(), 0);
  return FitIndices(train, indices);
}

Status DecisionTreeRegressor::FitIndices(const Dataset& train,
                                         const std::vector<size_t>& indices) {
  nodes_.clear();
  if (train.empty() || indices.empty()) {
    return Status::InvalidArgument("cannot fit a tree on an empty dataset");
  }
  if (options_.max_bins < 2 || options_.max_bins > 65535) {
    return Status::InvalidArgument("tree requires 2 <= max_bins <= 65535");
  }
  if (!train.x().AllFinite()) {
    return Status::InvalidArgument("tree features contain non-finite values");
  }
  const TreeBinning binning(train.x(), options_.max_bins, options_.core,
                            options_.binning_cache, /*num_threads=*/1);
  return FitBinned(train, binning, indices);
}

Status DecisionTreeRegressor::FitBinned(const Dataset& train,
                                        const TreeBinning& binning,
                                        const std::vector<size_t>& indices) {
  nodes_.clear();
  if (options_.min_samples_leaf < 1) {
    return Status::InvalidArgument("min_samples_leaf must be >= 1");
  }
  num_features_ = train.num_features();

  GrowSpec spec;
  spec.depth_limited = options_.max_depth >= 0;
  spec.max_depth = options_.max_depth;
  // size_t casts preserve the historic semantics: a negative setting wraps
  // to a huge threshold (every node becomes a leaf immediately).
  spec.min_samples_split = static_cast<size_t>(options_.min_samples_split);
  spec.min_samples_leaf = static_cast<size_t>(options_.min_samples_leaf);
  if (options_.max_features > 0) {
    spec.max_features = static_cast<size_t>(options_.max_features);
  }
  spec.seed = options_.seed;
  // A single tree stays serial: the forest already runs one tree per lane.
  spec.num_threads = 1;

  DataPartition partition;
  partition.Reset(indices);
  nodes_ = binning.Grow(train.y(), &partition, spec);
  return Status::OK();
}

Result<double> DecisionTreeRegressor::Predict(
    std::span<const double> features) const {
  if (nodes_.empty()) {
    return Status::FailedPrecondition("tree is not fitted");
  }
  if (features.size() != num_features_) {
    return Status::InvalidArgument(
        "feature count mismatch: got " + std::to_string(features.size()) +
        ", trained with " + std::to_string(num_features_));
  }
  return LeafValue(nodes_, features);
}

size_t DecisionTreeRegressor::leaf_count() const {
  size_t count = 0;
  for (const GrowNode& node : nodes_) {
    if (node.is_leaf()) ++count;
  }
  return count;
}

int DecisionTreeRegressor::depth() const {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the implicit tree structure.
  std::vector<std::pair<int32_t, int>> stack = {{0, 0}};
  int max_depth = 0;
  while (!stack.empty()) {
    auto [index, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const GrowNode& node = nodes_[static_cast<size_t>(index)];
    if (!node.is_leaf()) {
      stack.push_back({node.left, d + 1});
      stack.push_back({node.right, d + 1});
    }
  }
  return max_depth;
}

void DecisionTreeRegressor::SaveBody(ModelWriter& out) const {
  out.Line("features", num_features_);
  WriteTreeNodes(out, nodes_);
  out.Line("end");
}

Result<DecisionTreeRegressor> DecisionTreeRegressor::LoadBody(
    ModelReader& in) {
  DecisionTreeRegressor model;
  if (!in.Expect("features") || !in.Read(model.num_features_)) {
    return Status::DataError("Tree: expected 'features <p>'");
  }
  NM_ASSIGN_OR_RETURN(model.nodes_,
                      ReadTreeNodes(in, "Tree", model.num_features_));
  if (!in.Expect("end")) {
    return Status::DataError("Tree: missing end marker");
  }
  return model;
}

}  // namespace ml
}  // namespace nextmaint
