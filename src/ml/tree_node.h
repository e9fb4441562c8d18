#ifndef NEXTMAINT_ML_TREE_NODE_H_
#define NEXTMAINT_ML_TREE_NODE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

/// \file tree_node.h
/// The one fitted-tree representation of the tree learners (Tree, RF and
/// XGB): the shared grower (ml/histogram.h) emits a GrowNode list and the
/// learners store, traverse, rank and serialize (ml/serialization.h) that
/// list as it is.

namespace nextmaint {
namespace ml {

/// One node of a fitted tree. Nodes are stored in preorder (node, left
/// subtree, right subtree), so a split's children come after it.
struct GrowNode {
  int32_t left = -1;
  int32_t right = -1;
  int32_t feature = -1;
  double threshold = 0.0;  ///< raw-value threshold (bin upper bound)
  double value = 0.0;      ///< leaf payload (mean or Newton weight)
  double gain = 0.0;       ///< split gain (0 for leaves; not persisted)
  bool is_leaf() const { return left < 0; }
};

/// The value of the leaf `features` reaches in the non-empty tree `nodes`;
/// the caller has checked the feature count.
inline double LeafValue(std::span<const GrowNode> nodes,
                        std::span<const double> features) {
  const GrowNode* node = &nodes[0];
  while (!node->is_leaf()) {
    node = features[static_cast<size_t>(node->feature)] <= node->threshold
               ? &nodes[static_cast<size_t>(node->left)]
               : &nodes[static_cast<size_t>(node->right)];
  }
  return node->value;
}

/// Impurity importances of `trees`: every split's gain added to its
/// feature, trees and nodes in order, normalized to sum to 1 (all-zeros
/// when no tree splits, or the gains were not persisted).
inline std::vector<double> GainImportances(
    std::span<const std::vector<GrowNode>> trees, size_t num_features) {
  std::vector<double> importances(num_features, 0.0);
  double total = 0.0;
  for (const std::vector<GrowNode>& tree : trees) {
    for (const GrowNode& node : tree) {
      if (node.is_leaf()) continue;
      importances[static_cast<size_t>(node.feature)] += node.gain;
      total += node.gain;
    }
  }
  if (total > 0.0) {
    for (double& v : importances) v /= total;
  }
  return importances;
}

}  // namespace ml
}  // namespace nextmaint

#endif  // NEXTMAINT_ML_TREE_NODE_H_
