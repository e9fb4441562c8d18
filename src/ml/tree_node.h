#ifndef NEXTMAINT_ML_TREE_NODE_H_
#define NEXTMAINT_ML_TREE_NODE_H_

#include <cstddef>
#include <cstdint>
#include <span>

/// \file tree_node.h
/// The one fitted-tree representation of the tree learners (Tree, RF and
/// XGB): the shared grower (ml/histogram.h) emits a GrowNode list and the
/// learners store, traverse and serialize (ml/serialization.h) that list as
/// it is.

namespace nextmaint {
namespace ml {

/// One node of a fitted tree. Nodes are stored in preorder (node, left
/// subtree, right subtree), so a split's children come after it. Every
/// field is persisted; a node holds nothing training alone reads.
struct GrowNode {
  int32_t left = -1;
  int32_t right = -1;
  int32_t feature = -1;
  double threshold = 0.0;  ///< raw-value threshold (bin upper bound)
  double value = 0.0;      ///< leaf payload (mean or Newton weight)
  bool is_leaf() const { return left < 0; }
};
static_assert(sizeof(GrowNode) == 32, "every stored node is 32 bytes");

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

}  // namespace ml
}  // namespace nextmaint

#endif  // NEXTMAINT_ML_TREE_NODE_H_
