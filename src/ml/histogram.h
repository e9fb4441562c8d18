#ifndef NEXTMAINT_ML_HISTOGRAM_H_
#define NEXTMAINT_ML_HISTOGRAM_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/parallel.h"
#include "ml/binned_dataset.h"
#include "ml/tree_node.h"

/// \file histogram.h
/// Histogram-based tree growing shared by DecisionTreeRegressor,
/// RandomForestRegressor and HistGradientBoostingRegressor. One templated
/// grower runs for both the row-oriented reference core and the columnar
/// binned core — the template parameter only changes where a (feature, row)
/// bin comes from — so the two cores agree bit-for-bit by construction
/// (tests/ml/binned_equality_test.cc).
///
/// Kernels here consume pre-binned sources exclusively: nextmaint_lint bans
/// raw-matrix row iteration in this file and histogram.cc (rule
/// row-iteration), keeping the hot path columnar.

namespace nextmaint {
namespace ml {

/// Flat per-feature histogram addressing: feature f owns the half-open
/// slice [feature_offset(f), feature_offset(f) + feature_bins(f)). Every
/// slice starts on a multiple of 64, so bin b of feature f maps to bit
/// b % 64 of occupancy word feature_offset(f) / 64 + b / 64 and no
/// occupancy word is shared by two features (per-feature fill tasks never
/// race on one).
class HistogramLayout {
 public:
  static constexpr size_t kWordBits = 64;

  HistogramLayout() = default;
  explicit HistogramLayout(const BinMapper& mapper) {
    offsets_.reserve(mapper.num_features() + 1);
    bins_.reserve(mapper.num_features());
    for (size_t f = 0; f < mapper.num_features(); ++f) {
      bins_.push_back(mapper.BinCount(f));
      offsets_.push_back(offsets_.back() +
                         WordsFor(bins_.back()) * kWordBits);
    }
  }

  size_t num_features() const { return bins_.size(); }
  size_t feature_offset(size_t f) const { return offsets_[f]; }
  size_t feature_bins(size_t f) const { return bins_[f]; }
  size_t feature_words(size_t f) const { return WordsFor(bins_[f]); }
  /// Histogram slots, padding included (a multiple of kWordBits).
  size_t total_bins() const { return offsets_.back(); }
  size_t total_words() const { return offsets_.back() / kWordBits; }

 private:
  static size_t WordsFor(size_t bins) {
    return (bins + kWordBits - 1) / kWordBits;
  }

  std::vector<size_t> offsets_ = {0};
  std::vector<size_t> bins_;
};

/// Calls `visit(bin)` for every set bit of words[0, num_words) in ascending
/// bin order; stops early once `visit` returns false.
template <class Visit>
inline void ForEachSetBit(const uint64_t* words, size_t num_words,
                          Visit visit) {
  for (size_t w = 0; w < num_words; ++w) {
    for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      const size_t bin = w * HistogramLayout::kWordBits +
                         static_cast<size_t>(std::countr_zero(bits));
      if (!visit(bin)) return;
    }
  }
}

/// Per-node histogram: gradient sum and sample count per bin, all features
/// in one flat buffer, plus one occupancy bit per bin. Invariant: a bin
/// whose bit is clear has count 0 and grad +0.0 (the Reset state), so
/// Reset, SubtractFeature and the split scan only ever visit set bits and
/// a node's cost is O(occupied bins), not O(bins). A set bit may still
/// hold count 0 with a non-zero residual grad (fractional gradients that
/// did not cancel exactly under subtraction); such bins stay visible to
/// the scan exactly as a dense walk would see them.
class NodeHistogram {
 public:
  /// Zeroes the occupied bins (the whole buffer on first use).
  void Reset(const HistogramLayout& layout);

  /// Writable view of one feature's slice; Add is the fill step.
  struct FeatureSlice {
    double* grad;
    uint32_t* count;
    uint64_t* occupancy;

    void Add(uint32_t bin, double value) const {
      grad[bin] += value;
      ++count[bin];
      occupancy[bin / HistogramLayout::kWordBits] |=
          uint64_t{1} << (bin % HistogramLayout::kWordBits);
    }
  };
  FeatureSlice feature(const HistogramLayout& layout, size_t f) {
    const size_t offset = layout.feature_offset(f);
    return {grad_.data() + offset, count_.data() + offset,
            occupancy_.data() + offset / HistogramLayout::kWordBits};
  }

  const double* grad(const HistogramLayout& layout, size_t f) const {
    return grad_.data() + layout.feature_offset(f);
  }
  const uint32_t* count(const HistogramLayout& layout, size_t f) const {
    return count_.data() + layout.feature_offset(f);
  }
  /// Feature f's layout.feature_words(f) occupancy words.
  const uint64_t* occupancy(const HistogramLayout& layout, size_t f) const {
    return occupancy_.data() +
           layout.feature_offset(f) / HistogramLayout::kWordBits;
  }

  /// Parent-minus-sibling subtraction for one feature slice, in place:
  /// this (the parent's buffer) becomes the larger child's histogram. Only
  /// the sibling's occupied bins are visited — everywhere else the sibling
  /// holds (0, +0.0), and subtracting that is the identity.
  void SubtractFeature(const HistogramLayout& layout, size_t f,
                       const NodeHistogram& sibling);

 private:
  std::vector<double> grad_;
  std::vector<uint32_t> count_;
  std::vector<uint64_t> occupancy_;
};

/// The index permutation a growing tree partitions, plus the leaf ranges it
/// ends up with. Rows are stored as a multiset (bootstrap duplicates
/// allowed); Split only ever permutes [begin, end), so the leaf ranges of a
/// finished tree tile the whole index array — no sample is lost or
/// duplicated (LeavesCoverAll, pinned by tests/ml/binned_property_test.cc).
class DataPartition {
 public:
  /// Identity permutation over [0, n).
  void Reset(size_t n);
  /// Explicit row multiset (the forest's bootstrap entry point).
  void Reset(const std::vector<size_t>& rows);

  size_t size() const { return indices_.size(); }
  uint32_t row(size_t i) const { return indices_[i]; }
  std::span<const uint32_t> indices() const {
    return {indices_.data(), indices_.size()};
  }

  /// Partitions [begin, end) so rows satisfying `pred` come first; returns
  /// the boundary position.
  template <class Pred>
  size_t Split(size_t begin, size_t end, Pred pred) {
    const auto first = indices_.begin() + static_cast<ptrdiff_t>(begin);
    const auto last = indices_.begin() + static_cast<ptrdiff_t>(end);
    const auto mid = std::partition(first, last, pred);
    return static_cast<size_t>(mid - indices_.begin());
  }

  void AddLeaf(size_t begin, size_t end) { leaves_.emplace_back(begin, end); }
  const std::vector<std::pair<size_t, size_t>>& leaf_ranges() const {
    return leaves_;
  }
  /// True when the recorded leaf ranges tile [0, size()) contiguously in
  /// order — the no-sample-lost invariant of a completed grow.
  bool LeavesCoverAll() const;

 private:
  std::vector<uint32_t> indices_;
  std::vector<std::pair<size_t, size_t>> leaves_;
};

/// Growth policy. The two leaf modes cover the learners:
///  - newton == false (Tree/RF): leaf value is the target mean, split gain
///    is the SSE reduction and min_gain is relative to the parent score;
///  - newton == true (XGB): leaf value is -learning_rate * G / (H + l2)
///    with unit hessians (H == count), min_gain is absolute.
struct GrowSpec {
  bool depth_limited = false;
  int max_depth = 0;
  size_t min_samples_split = 2;
  size_t min_samples_leaf = 1;
  /// Candidate features per split; 0 means all. The subset is drawn with a
  /// partial Fisher-Yates from `seed`, consumed at split attempts only, so
  /// both cores draw identical subsets.
  size_t max_features = 0;
  uint64_t seed = 0;
  bool newton = false;
  double learning_rate = 1.0;
  double l2 = 0.0;
  double min_gain = 1e-12;
  /// Per-feature fill/scan concurrency; candidates are reduced serially in
  /// candidate order, so any value is bit-identical.
  int num_threads = 1;
  /// Nodes below this many rows stay serial (pool hand-off not amortized).
  size_t min_rows_for_parallel = 512;
};

namespace internal {

/// SplitMix64 step for cheap feature subsampling without dragging a full
/// Rng through the recursion.
inline uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Adds one grown tree's split-scan tallies to the ml.hist.bins_scanned
/// (occupied bins visited) and ml.hist.bins_total (candidate split bins a
/// dense walk would visit) counters.
void RecordScanTally(uint64_t bins_scanned, uint64_t bins_total);

/// The shared grower. BinSource provides `uint32_t Bin(feature, row)`:
/// BinnedDataset streams materialized columns, OnTheFlyBins re-derives each
/// bin from the raw value — everything else is identical between the cores.
template <class BinSource>
class HistTreeGrower {
 public:
  HistTreeGrower(const BinSource& bins, const BinMapper& mapper,
                 const HistogramLayout& layout, std::span<const double> values,
                 DataPartition* partition, const GrowSpec& spec)
      : bins_(bins),
        mapper_(mapper),
        layout_(layout),
        values_(values),
        partition_(partition),
        spec_(spec) {}

  std::vector<GrowNode> Grow() {
    NM_CHECK(partition_->size() > 0);
    nodes_.reserve(64);
    uint64_t rng_state = spec_.seed;
    NodeHistogram* root = AcquireHistogram(0);
    FillHistogram(0, partition_->size(), /*parent=*/nullptr, root);
    BuildNode(0, partition_->size(), 0, root, &rng_state);
    NM_CHECK(partition_->LeavesCoverAll());
    RecordScanTally(bins_scanned_, bins_total_);
    // The learners store the list as returned: drop the growth slack.
    nodes_.shrink_to_fit();
    return std::move(nodes_);
  }

 private:
  struct Best {
    double gain = 0.0;
    size_t feature = 0;
    uint32_t bin = 0;
    size_t scanned = 0;  ///< occupied bins the scan visited
  };

  NodeHistogram* AcquireHistogram(size_t level) {
    while (pool_.size() <= level) {
      pool_.push_back(std::make_unique<NodeHistogram>());
    }
    return pool_[level].get();
  }

  /// Runs body(chunk_begin, chunk_end) over [0, n), one chunk per lane, for
  /// a node of `rows` rows. A single lane calls the body directly: most
  /// nodes are small, and handing them to ParallelFor would heap-allocate
  /// a std::function per call for nothing.
  template <class Body>
  void RunChunks(size_t rows, size_t n, const Body& body) const {
    const int threads = rows >= spec_.min_rows_for_parallel
                            ? ResolveThreadCount(spec_.num_threads)
                            : 1;
    if (threads <= 1) {
      body(size_t{0}, n);
      return;
    }
    const size_t grain = (n - 1) / static_cast<size_t>(threads) + 1;
    const Status status = ParallelFor(
        0, n, grain,
        [&](size_t chunk_begin, size_t chunk_end) -> Status {
          body(chunk_begin, chunk_end);
          return Status::OK();
        },
        threads);
    NM_CHECK(status.ok());  // the bodies have no failure path
  }

  /// Accumulates [begin, end) into `hist` (per-feature tasks, one chunk per
  /// lane). When `parent` is given, each finished feature slice is
  /// immediately subtracted from the parent in place — the fused
  /// fill-smaller-child / derive-larger-child step.
  void FillHistogram(size_t begin, size_t end, NodeHistogram* parent,
                     NodeHistogram* hist) {
    hist->Reset(layout_);
    RunChunks(
        end - begin, layout_.num_features(),
        [&](size_t chunk_begin, size_t chunk_end) {
          const uint32_t* rows = partition_->indices().data();
          for (size_t f = chunk_begin; f < chunk_end; ++f) {
            const NodeHistogram::FeatureSlice slice =
                hist->feature(layout_, f);
            if constexpr (std::is_same_v<BinSource, BinnedDataset>) {
              // The binned fast path: hoist the column's storage pointer
              // and the narrow/wide dispatch out of the row loop. Same
              // rows, same order, same additions — bit-identical to the
              // generic loop below, just without the per-access dispatch.
              if (bins_.IsNarrow(f)) {
                const uint8_t* column = bins_.NarrowColumn(f);
                for (size_t i = begin; i < end; ++i) {
                  const uint32_t row = rows[i];
                  slice.Add(column[row], values_[row]);
                }
              } else {
                const uint16_t* column = bins_.WideColumn(f);
                for (size_t i = begin; i < end; ++i) {
                  const uint32_t row = rows[i];
                  slice.Add(column[row], values_[row]);
                }
              }
            } else {
              for (size_t i = begin; i < end; ++i) {
                const uint32_t row = rows[i];
                slice.Add(bins_.Bin(f, row), values_[row]);
              }
            }
            if (parent != nullptr) {
              parent->SubtractFeature(layout_, f, *hist);
            }
          }
        });
  }

  int32_t BuildNode(size_t begin, size_t end, int depth, NodeHistogram* hist,
                    uint64_t* rng_state) {
    const size_t count = end - begin;
    NM_CHECK(count > 0);

    // Node aggregate from the raw values in partition-index order, not from
    // the histogram: leaf payloads must not depend on bin layout, and the
    // index order is shared by both cores.
    double grad_sum = 0.0;
    for (size_t i = begin; i < end; ++i) {
      grad_sum += values_[partition_->row(i)];
    }

    const int32_t node_index = static_cast<int32_t>(nodes_.size());
    nodes_.push_back(GrowNode{});
    nodes_[node_index].value =
        spec_.newton ? -spec_.learning_rate * grad_sum /
                           (static_cast<double>(count) + spec_.l2)
                     : grad_sum / static_cast<double>(count);

    const bool depth_exhausted =
        spec_.depth_limited && depth >= spec_.max_depth;
    if (depth_exhausted || count < spec_.min_samples_split ||
        count < 2 * spec_.min_samples_leaf) {
      partition_->AddLeaf(begin, end);
      return node_index;
    }

    const double parent_score =
        grad_sum * grad_sum / (static_cast<double>(count) + spec_.l2);

    // Candidate features: all, or a random subset of size max_features
    // (partial Fisher-Yates: the first num_candidates entries become the
    // subset).
    const size_t num_features = layout_.num_features();
    features_.resize(num_features);
    std::iota(features_.begin(), features_.end(), size_t{0});
    size_t num_candidates = num_features;
    if (spec_.max_features > 0 && spec_.max_features < num_features) {
      num_candidates = spec_.max_features;
      for (size_t i = 0; i < num_candidates; ++i) {
        const size_t j =
            i + static_cast<size_t>(NextRandom(rng_state) %
                                    (num_features - i));
        std::swap(features_[i], features_[j]);
      }
    }

    // Per-candidate histogram scan: each candidate lands its best split in
    // candidate_best_[ci] and the winner is reduced serially in candidate
    // order below, so the chosen split is the one the serial left-to-right
    // scan would pick (strict '>' keeps the earliest candidate/bin on
    // ties) at any thread count.
    candidate_best_.assign(num_candidates, Best{});
    RunChunks(
        count, num_candidates,
        [&](size_t chunk_begin, size_t chunk_end) {
          for (size_t ci = chunk_begin; ci < chunk_end; ++ci) {
            const size_t f = features_[ci];
            Best local;
            local.feature = f;
            const size_t num_bins = layout_.feature_bins(f);
            if (num_bins < 2) {
              candidate_best_[ci] = local;
              continue;
            }
            // Occupied bins only, ascending. At a skipped (0, +0.0) bin a
            // dense walk would repeat the previous visited bin's sums and
            // gain, which the strict '>' never picks, so the chosen split
            // is the dense walk's (docs/binned-training.md).
            const double* grad = hist->grad(layout_, f);
            const uint32_t* bin_count = hist->count(layout_, f);
            double left_grad = 0.0;
            size_t left_count = 0;
            ForEachSetBit(
                hist->occupancy(layout_, f), layout_.feature_words(f),
                [&](size_t b) {
                  // The last bin is never a split point.
                  if (b + 1 >= num_bins) return false;
                  ++local.scanned;
                  left_grad += grad[b];
                  left_count += bin_count[b];
                  if (left_count < spec_.min_samples_leaf) return true;
                  const size_t right_count = count - left_count;
                  if (right_count < spec_.min_samples_leaf) return false;
                  const double right_grad = grad_sum - left_grad;
                  const double gain =
                      left_grad * left_grad /
                          (static_cast<double>(left_count) + spec_.l2) +
                      right_grad * right_grad /
                          (static_cast<double>(right_count) + spec_.l2) -
                      parent_score;
                  if (gain > local.gain) {
                    local.gain = gain;
                    local.bin = static_cast<uint32_t>(b);
                  }
                  return true;
                });
            candidate_best_[ci] = local;
          }
        });
    Best best;
    for (const Best& candidate : candidate_best_) {
      if (candidate.gain > best.gain) best = candidate;
      bins_scanned_ += candidate.scanned;
      bins_total_ += layout_.feature_bins(candidate.feature) - 1;
    }

    // Mean mode measures the SSE-reduction floor relative to the parent
    // score (the historic exact-search rejection rule); Newton mode uses
    // the absolute XGBoost-style floor.
    const double gain_floor =
        spec_.newton ? spec_.min_gain
                     : spec_.min_gain * std::fabs(parent_score);
    if (best.gain <= gain_floor) {
      partition_->AddLeaf(begin, end);
      return node_index;
    }

    const size_t mid =
        partition_->Split(begin, end, [&](uint32_t row) {
          return bins_.Bin(best.feature, row) <= best.bin;
        });
    // left_count is derived from exact uint32 bin counts, so both children
    // are guaranteed non-empty.
    NM_CHECK(mid > begin && mid < end);

    nodes_[node_index].feature = static_cast<int32_t>(best.feature);
    nodes_[node_index].threshold =
        mapper_.UpperBound(best.feature, static_cast<uint16_t>(best.bin));
    nodes_[node_index].gain = best.gain;

    // Children via the parent-minus-sibling trick: the smaller child is
    // accumulated directly into a fresh buffer; the fused fill turns the
    // parent's buffer into the larger child's histogram in place. Buffer
    // reuse by recursion level is safe: a node at depth d only ever holds a
    // buffer acquired at level <= d, so level d+1 is free for its smaller
    // child, and the first-child subtree only acquires levels >= d+2.
    NodeHistogram* child =
        AcquireHistogram(static_cast<size_t>(depth) + 1);
    const bool left_smaller = mid - begin <= end - mid;
    if (left_smaller) {
      FillHistogram(begin, mid, hist, child);
    } else {
      FillHistogram(mid, end, hist, child);
    }
    NodeHistogram* left_hist = left_smaller ? child : hist;
    NodeHistogram* right_hist = left_smaller ? hist : child;
    const int32_t left =
        BuildNode(begin, mid, depth + 1, left_hist, rng_state);
    const int32_t right =
        BuildNode(mid, end, depth + 1, right_hist, rng_state);
    nodes_[node_index].left = left;
    nodes_[node_index].right = right;
    return node_index;
  }

  const BinSource& bins_;
  const BinMapper& mapper_;
  const HistogramLayout& layout_;
  std::span<const double> values_;
  DataPartition* partition_;
  const GrowSpec& spec_;
  std::vector<GrowNode> nodes_;
  std::vector<std::unique_ptr<NodeHistogram>> pool_;
  std::vector<size_t> features_;
  std::vector<Best> candidate_best_;
  // Split-scan tallies for the ml.hist.* counters, emitted once per tree.
  uint64_t bins_scanned_ = 0;
  uint64_t bins_total_ = 0;
};

}  // namespace internal

/// Grows one regression tree over the rows currently held by `partition`
/// (which ends up holding the leaf index ranges). `values` are the training
/// targets (mean mode) or current gradients (Newton mode), indexed by row
/// id. Nodes come back in preorder.
template <class BinSource>
std::vector<GrowNode> GrowHistTree(const BinSource& bins,
                                   const BinMapper& mapper,
                                   const HistogramLayout& layout,
                                   std::span<const double> values,
                                   DataPartition* partition,
                                   const GrowSpec& spec) {
  internal::HistTreeGrower<BinSource> grower(bins, mapper, layout, values,
                                             partition, spec);
  return grower.Grow();
}

/// The binning preamble every tree-learner fit starts with. It turns
/// (core, cache) into a BinMapper over the whole training matrix (not a
/// bootstrap subset, so every tree of a forest and both cores search the
/// same bin boundaries) plus, on the binned core, the materialized
/// columns, and grows trees on the BinSource the core names. Only the
/// binned core looks the matrix up in the cache; the row-oriented
/// reference core never touches one.
class TreeBinning {
 public:
  /// `x` must outlive the binning. `num_threads` parallelizes the column
  /// build (any value bins identically).
  TreeBinning(const Matrix& x, int max_bins, TreeCore core,
              const std::shared_ptr<BinningCache>& cache, int num_threads);

  /// GrowHistTree over the core's bin source; nodes come back in preorder.
  std::vector<GrowNode> Grow(std::span<const double> values,
                             DataPartition* partition,
                             const GrowSpec& spec) const;

 private:
  const Matrix& x_;
  TreeCore core_;
  std::shared_ptr<const PreBinned> prebinned_;
  HistogramLayout layout_;
};

}  // namespace ml
}  // namespace nextmaint

#endif  // NEXTMAINT_ML_HISTOGRAM_H_
