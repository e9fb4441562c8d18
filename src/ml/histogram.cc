#include "ml/histogram.h"

#include "common/telemetry.h"

namespace nextmaint {
namespace ml {

void NodeHistogram::Reset(const HistogramLayout& layout) {
  if (grad_.size() != layout.total_bins()) {
    grad_.assign(layout.total_bins(), 0.0);
    count_.assign(layout.total_bins(), 0);
    occupancy_.assign(layout.total_words(), 0);
    return;
  }
  ForEachSetBit(occupancy_.data(), occupancy_.size(), [&](size_t bin) {
    grad_[bin] = 0.0;
    count_[bin] = 0;
    return true;
  });
  std::fill(occupancy_.begin(), occupancy_.end(), uint64_t{0});
}

void NodeHistogram::SubtractFeature(const HistogramLayout& layout, size_t f,
                                    const NodeHistogram& sibling) {
  const FeatureSlice slice = feature(layout, f);
  const double* sibling_grad = sibling.grad(layout, f);
  const uint32_t* sibling_count = sibling.count(layout, f);
  // The sibling's rows are a subset of this node's, so each of its
  // occupied bins is occupied here too. A bin is released once it is back
  // to (0, 0.0): the values are sums starting from +0.0, so a zero grad is
  // never -0.0 and the released bin is exactly in its Reset state.
  ForEachSetBit(
      sibling.occupancy(layout, f), layout.feature_words(f), [&](size_t bin) {
        slice.grad[bin] -= sibling_grad[bin];
        slice.count[bin] -= sibling_count[bin];
        if (slice.count[bin] == 0 && slice.grad[bin] == 0.0) {
          slice.occupancy[bin / HistogramLayout::kWordBits] &=
              ~(uint64_t{1} << (bin % HistogramLayout::kWordBits));
        }
        return true;
      });
}

void DataPartition::Reset(size_t n) {
  indices_.resize(n);
  std::iota(indices_.begin(), indices_.end(), uint32_t{0});
  leaves_.clear();
}

void DataPartition::Reset(const std::vector<size_t>& rows) {
  indices_.clear();
  indices_.reserve(rows.size());
  for (const size_t row : rows) {
    indices_.push_back(static_cast<uint32_t>(row));
  }
  leaves_.clear();
}

namespace internal {

void RecordScanTally(uint64_t bins_scanned, uint64_t bins_total) {
  if (!telemetry::Enabled()) return;
  static telemetry::Counter* const scanned =
      telemetry::MetricsRegistry::Global().GetCounter(
          "ml.hist.bins_scanned");
  static telemetry::Counter* const total =
      telemetry::MetricsRegistry::Global().GetCounter("ml.hist.bins_total");
  scanned->Increment(bins_scanned);
  total->Increment(bins_total);
}

}  // namespace internal

TreeBinning::TreeBinning(const Matrix& x, int max_bins, TreeCore core,
                         const std::shared_ptr<BinningCache>& cache,
                         int num_threads)
    : x_(x), core_(core) {
  if (core == TreeCore::kBinned && cache != nullptr) {
    prebinned_ = cache->GetOrCompute(x, max_bins, num_threads);
  } else {
    auto local = std::make_shared<PreBinned>();
    local->mapper.Compute(x, max_bins);
    if (core == TreeCore::kBinned) {
      local->binned.Build(x, local->mapper, num_threads);
    }
    prebinned_ = std::move(local);
  }
  layout_ = HistogramLayout(prebinned_->mapper);
}

std::vector<GrowNode> TreeBinning::Grow(std::span<const double> values,
                                        DataPartition* partition,
                                        const GrowSpec& spec) const {
  const BinMapper& mapper = prebinned_->mapper;
  if (core_ == TreeCore::kBinned) {
    return GrowHistTree(prebinned_->binned, mapper, layout_, values,
                        partition, spec);
  }
  return GrowHistTree(OnTheFlyBins{&x_, &mapper}, mapper, layout_, values,
                      partition, spec);
}

bool DataPartition::LeavesCoverAll() const {
  size_t cursor = 0;
  for (const auto& [begin, end] : leaves_) {
    if (begin != cursor || end <= begin) return false;
    cursor = end;
  }
  return cursor == indices_.size();
}

}  // namespace ml
}  // namespace nextmaint
