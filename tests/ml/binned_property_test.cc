// Property suite for the binned training core (docs/binned-training.md):
// randomized corpora — degenerate constant and duplicate-heavy columns,
// feature cardinalities on both sides of the 256-distinct-value bin-width
// boundary — must train to byte-identical models on both cores, the
// DataPartition leaf ranges of a completed grow must never lose a sample,
// and a NodeHistogram's occupancy tracking must leave every bin exactly
// where a dense histogram would have it.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"
#include "ml/binned_dataset.h"
#include "ml/histogram.h"
#include "ml/matrix.h"
#include "ml/registry.h"

namespace nextmaint {
namespace ml {
namespace {

/// Ways a feature column can be shaped; the degenerate ones are the bin
/// mapper's edge cases.
enum class ColumnKind {
  kConstant,       // single distinct value -> single-bin mapper
  kFewDistinct,    // heavy duplicates, far fewer values than bins
  kContinuous,     // effectively all-distinct
  kManyDistinct,   // > 256 distinct values -> wide (uint16_t) columns
};

/// Builds a randomized corpus: `rows` rows of `kinds`-shaped feature
/// columns plus a target correlated with the non-degenerate features.
Dataset MakeCorpus(Rng* rng, size_t rows,
                   const std::vector<ColumnKind>& kinds) {
  std::vector<std::vector<double>> columns;
  for (const ColumnKind kind : kinds) {
    std::vector<double> column(rows);
    switch (kind) {
      case ColumnKind::kConstant: {
        const double value = rng->Uniform(-5, 5);
        std::fill(column.begin(), column.end(), value);
        break;
      }
      case ColumnKind::kFewDistinct:
        for (double& cell : column) {
          cell = static_cast<double>(rng->UniformInt(uint64_t{6}));
        }
        break;
      case ColumnKind::kContinuous:
        for (double& cell : column) cell = rng->Uniform(0, 100);
        break;
      case ColumnKind::kManyDistinct:
        // i + jitter keeps every cell distinct, so distinct count == rows.
        for (size_t i = 0; i < rows; ++i) {
          column[i] = static_cast<double>(i) + rng->Uniform(0.0, 0.5);
        }
        break;
    }
    columns.push_back(std::move(column));
  }
  Dataset d;
  std::vector<double> row(kinds.size());
  for (size_t r = 0; r < rows; ++r) {
    double target = 0.0;
    for (size_t f = 0; f < kinds.size(); ++f) {
      row[f] = columns[f][r];
      target += (f + 1) * 0.3 * row[f];
    }
    d.AddRow(std::span<const double>(row.data(), row.size()),
             target + rng->Normal(0, 0.25));
  }
  return d;
}

std::string TrainedBytes(const std::string& algorithm, const ParamMap& params,
                         TreeCore core, const Dataset& train) {
  TrainingBackend backend;
  backend.core = core;
  auto model = MakeRegressor(algorithm, params, backend).MoveValueOrDie();
  EXPECT_TRUE(model->Fit(train).ok()) << algorithm;
  std::ostringstream out;
  EXPECT_TRUE(model->Save(out).ok()) << algorithm;
  return std::move(out).str();
}

// ---------------------------------------------------------------------------
// Cross-core equality on randomized corpora.

TEST(BinnedPropertyTest, RandomizedCorporaTrainIdenticallyAcrossCores) {
  const std::vector<std::string> algorithms = {"Tree", "RF", "XGB"};
  Rng rng(20260808);
  for (int trial = 0; trial < 12; ++trial) {
    // Random fleet-corpus size and a random mix of column shapes, always
    // including at least one degenerate column.
    const size_t rows = 30 + rng.UniformInt(uint64_t{170});
    std::vector<ColumnKind> kinds = {ColumnKind::kConstant};
    const size_t extra = 1 + rng.UniformInt(uint64_t{3});
    for (size_t f = 0; f < extra; ++f) {
      kinds.push_back(
          static_cast<ColumnKind>(rng.UniformInt(uint64_t{4})));
    }
    const Dataset train = MakeCorpus(&rng, rows, kinds);
    const ParamMap params = {{"num_estimators", 8},
                             {"num_iterations", 8},
                             {"max_depth", 5},
                             {"max_bins", 64},
                             {"min_samples_leaf", 2}};
    for (const std::string& algorithm : algorithms) {
      EXPECT_EQ(TrainedBytes(algorithm, params, TreeCore::kRowOriented, train),
                TrainedBytes(algorithm, params, TreeCore::kBinned, train))
          << algorithm << " diverged on trial " << trial << " (" << rows
          << " rows, " << kinds.size() << " features)";
    }
  }
}

// Crossing the 256-distinct boundary flips the binned columns from uint8_t
// to uint16_t storage; the numbers the grower sees must not change.
TEST(BinnedPropertyTest, WideBinCountsCrossTheNarrowStorageBoundary) {
  Rng rng(55);
  const Dataset train =
      MakeCorpus(&rng, 400,
                 {ColumnKind::kManyDistinct, ColumnKind::kFewDistinct});

  // Pin the storage-width dispatch itself.
  BinMapper mapper;
  mapper.Compute(train.x(), /*max_bins=*/400);
  ASSERT_GT(mapper.BinCount(0), 256u);
  ASSERT_LE(mapper.BinCount(1), 256u);
  BinnedDataset binned;
  binned.Build(train.x(), mapper);
  EXPECT_FALSE(binned.IsNarrow(0));
  EXPECT_TRUE(binned.IsNarrow(1));
  for (size_t r = 0; r < train.num_rows(); ++r) {
    EXPECT_EQ(binned.Bin(0, r), mapper.BinOf(0, train.x()(r, 0)));
  }

  // Both sides of the boundary train identically across cores.
  for (const double max_bins : {128.0, 400.0}) {
    const ParamMap params = {{"num_iterations", 10},
                             {"max_depth", 4},
                             {"max_bins", max_bins}};
    EXPECT_EQ(TrainedBytes("XGB", params, TreeCore::kRowOriented, train),
              TrainedBytes("XGB", params, TreeCore::kBinned, train))
        << "max_bins=" << max_bins;
    EXPECT_EQ(TrainedBytes("RF",
                           {{"num_estimators", 6},
                            {"max_depth", 4},
                            {"max_bins", max_bins}},
                           TreeCore::kRowOriented, train),
              TrainedBytes("RF",
                           {{"num_estimators", 6},
                            {"max_depth", 4},
                            {"max_bins", max_bins}},
                           TreeCore::kBinned, train))
        << "max_bins=" << max_bins;
  }
}

// ---------------------------------------------------------------------------
// DataPartition: the grower's in-place permutation must conserve the row
// multiset, and the recorded leaf ranges must tile it exactly.

std::map<uint32_t, size_t> RowMultiset(const DataPartition& partition) {
  std::map<uint32_t, size_t> counts;
  for (const uint32_t row : partition.indices()) ++counts[row];
  return counts;
}

TEST(BinnedPropertyTest, PartitionSplitConservesTheRowMultiset) {
  Rng rng(91);
  for (int trial = 0; trial < 20; ++trial) {
    // Bootstrap-style multiset: random rows drawn with replacement.
    const size_t n = 5 + rng.UniformInt(uint64_t{60});
    std::vector<size_t> rows(n);
    for (size_t& row : rows) row = rng.UniformInt(uint64_t{40});
    DataPartition partition;
    partition.Reset(rows);
    ASSERT_EQ(partition.size(), n);
    const std::map<uint32_t, size_t> before = RowMultiset(partition);

    // A chain of random nested splits touching random sub-ranges.
    const uint32_t pivot1 = static_cast<uint32_t>(rng.UniformInt(uint64_t{40}));
    const size_t mid = partition.Split(
        0, n, [&](uint32_t row) { return row < pivot1; });
    ASSERT_LE(mid, n);
    const uint32_t pivot2 = static_cast<uint32_t>(rng.UniformInt(uint64_t{40}));
    partition.Split(mid, n, [&](uint32_t row) { return row % 2 == 0 &&
                                                       row < pivot2; });
    EXPECT_EQ(RowMultiset(partition), before) << "trial " << trial;
  }
}

TEST(BinnedPropertyTest, LeavesCoverAllDetectsLostAndDuplicatedRanges) {
  DataPartition partition;
  partition.Reset(size_t{10});

  // Exact in-order tiling passes.
  partition.AddLeaf(0, 4);
  partition.AddLeaf(4, 9);
  partition.AddLeaf(9, 10);
  EXPECT_TRUE(partition.LeavesCoverAll());

  // A gap (lost samples) fails.
  partition.Reset(size_t{10});
  partition.AddLeaf(0, 4);
  partition.AddLeaf(5, 10);
  EXPECT_FALSE(partition.LeavesCoverAll());

  // An overlap (double-counted samples) fails.
  partition.Reset(size_t{10});
  partition.AddLeaf(0, 6);
  partition.AddLeaf(5, 10);
  EXPECT_FALSE(partition.LeavesCoverAll());

  // A truncated tiling (missing tail) fails.
  partition.Reset(size_t{10});
  partition.AddLeaf(0, 4);
  EXPECT_FALSE(partition.LeavesCoverAll());

  // An empty leaf range can never appear in a completed grow.
  partition.Reset(size_t{10});
  partition.AddLeaf(0, 10);
  partition.AddLeaf(10, 10);
  EXPECT_FALSE(partition.LeavesCoverAll());
}

// End-to-end: a completed grow on a randomized corpus records leaf ranges
// that tile every bootstrap sample exactly once.
TEST(BinnedPropertyTest, CompletedGrowTilesEverySample) {
  Rng rng(123);
  const Dataset train = MakeCorpus(
      &rng, 160, {ColumnKind::kContinuous, ColumnKind::kFewDistinct,
                  ColumnKind::kConstant});
  BinMapper mapper;
  mapper.Compute(train.x(), /*max_bins=*/64);
  const HistogramLayout layout(mapper);
  BinnedDataset binned;
  binned.Build(train.x(), mapper);

  std::vector<size_t> bootstrap(train.num_rows());
  for (size_t& row : bootstrap) row = rng.UniformInt(train.num_rows());
  DataPartition partition;
  partition.Reset(bootstrap);
  const std::map<uint32_t, size_t> before = RowMultiset(partition);

  GrowSpec spec;
  spec.depth_limited = true;
  spec.max_depth = 6;
  spec.min_samples_leaf = 2;
  const std::vector<GrowNode> nodes = GrowHistTree(
      binned, mapper, layout, train.y(), &partition, spec);
  ASSERT_FALSE(nodes.empty());
  EXPECT_TRUE(partition.LeavesCoverAll());
  EXPECT_EQ(RowMultiset(partition), before);

  // Leaf range sizes sum to the sample count.
  size_t covered = 0;
  for (const auto& [begin, end] : partition.leaf_ranges()) {
    ASSERT_LT(begin, end);
    covered += end - begin;
  }
  EXPECT_EQ(covered, train.num_rows());
}

// ---------------------------------------------------------------------------
// NodeHistogram occupancy: fills and chains of parent-minus-sibling
// subtractions must keep every unoccupied bin in its Reset state, and every
// bin bit-equal to a dense histogram that touches every bin.

/// The dense reference: grad/count per (feature, bin), every bin filled,
/// subtracted and reset.
struct DenseHistogram {
  std::vector<std::vector<double>> grad;
  std::vector<std::vector<uint32_t>> count;

  explicit DenseHistogram(const HistogramLayout& layout) {
    for (size_t f = 0; f < layout.num_features(); ++f) {
      grad.emplace_back(layout.feature_bins(f), 0.0);
      count.emplace_back(layout.feature_bins(f), 0u);
    }
  }
  void Subtract(const DenseHistogram& sibling) {
    for (size_t f = 0; f < grad.size(); ++f) {
      for (size_t b = 0; b < grad[f].size(); ++b) {
        grad[f][b] -= sibling.grad[f][b];
        count[f][b] -= sibling.count[f][b];
      }
    }
  }
};

/// One histogram row: a bin per feature plus the value it adds.
struct HistRow {
  std::vector<uint32_t> bins;
  double value = 0.0;
};

void Fill(const HistogramLayout& layout, const std::vector<HistRow>& rows,
          NodeHistogram* hist, DenseHistogram* dense) {
  hist->Reset(layout);
  for (size_t f = 0; f < layout.num_features(); ++f) {
    const NodeHistogram::FeatureSlice slice = hist->feature(layout, f);
    for (const HistRow& row : rows) {
      slice.Add(row.bins[f], row.value);
      dense->grad[f][row.bins[f]] += row.value;
      ++dense->count[f][row.bins[f]];
    }
  }
}

/// Counts of the bins seen in each interesting state, so the test can show
/// it reached them.
struct OccupancyTally {
  size_t released = 0;  // bit clear after having been filled
  size_t residual = 0;  // bit set, count 0, grad != 0
  size_t cancelled = 0;  // bit set, count > 0, grad == 0
};

size_t OccupiedBins(const HistogramLayout& layout, const NodeHistogram& hist,
                    size_t f) {
  size_t occupied = 0;
  for (size_t w = 0; w < layout.feature_words(f); ++w) {
    occupied += static_cast<size_t>(std::popcount(hist.occupancy(layout, f)[w]));
  }
  return occupied;
}

void ExpectMatchesDense(const HistogramLayout& layout,
                        const NodeHistogram& hist, const DenseHistogram& dense,
                        OccupancyTally* tally) {
  for (size_t f = 0; f < layout.num_features(); ++f) {
    const double* grad = hist.grad(layout, f);
    const uint32_t* count = hist.count(layout, f);
    const uint64_t* occupancy = hist.occupancy(layout, f);
    const size_t bins = layout.feature_bins(f);
    constexpr size_t kBits = HistogramLayout::kWordBits;
    for (size_t b = 0; b < layout.feature_words(f) * kBits; ++b) {
      const bool occupied = (occupancy[b / kBits] >> (b % kBits)) & 1;
      if (b >= bins) {
        ASSERT_FALSE(occupied) << "padding bit " << b << " of feature " << f;
        continue;
      }
      ASSERT_EQ(std::bit_cast<uint64_t>(grad[b]),
                std::bit_cast<uint64_t>(dense.grad[f][b]))
          << "feature " << f << " bin " << b;
      ASSERT_EQ(count[b], dense.count[f][b]) << "feature " << f << " bin " << b;
      if (!occupied) {
        ASSERT_EQ(count[b], 0u) << "feature " << f << " bin " << b;
        ASSERT_TRUE(grad[b] == 0.0) << "feature " << f << " bin " << b;
      } else if (count[b] == 0) {
        ++tally->residual;
      } else if (grad[b] == 0.0) {
        ++tally->cancelled;
      }
    }
  }
}

TEST(NodeHistogramTest, OccupancyTracksADenseHistogramBitForBit) {
  // Feature cardinalities on both sides of every occupancy-word boundary
  // and of the 256-bin storage boundary, plus a single-bin feature.
  const std::vector<size_t> cardinalities = {1, 2, 63, 64, 65, 128, 300};
  Matrix x(300, cardinalities.size());
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t f = 0; f < cardinalities.size(); ++f) {
      x(r, f) = static_cast<double>(r % cardinalities[f]);
    }
  }
  BinMapper mapper;
  mapper.Compute(x, /*max_bins=*/65535);
  const HistogramLayout layout(mapper);
  for (size_t f = 0; f < cardinalities.size(); ++f) {
    ASSERT_EQ(layout.feature_bins(f), cardinalities[f]);
    ASSERT_EQ(layout.feature_offset(f) % HistogramLayout::kWordBits, 0u);
  }

  Rng rng(4242);
  OccupancyTally tally;
  // Two buffers swap parent/sibling roles down the chain, so every fill
  // starts from a Reset of a stale, previously occupied buffer.
  NodeHistogram buffers[2];
  for (int trial = 0; trial < 40; ++trial) {
    // Rows crowd into a few bins per feature (a deep node's shape); values
    // are fractional, exact -0.0, or +v/-v pairs that cancel in a bin.
    const size_t num_rows = 2 + rng.UniformInt(uint64_t{160});
    std::vector<std::vector<uint32_t>> hot_bins(cardinalities.size());
    for (size_t f = 0; f < cardinalities.size(); ++f) {
      const uint64_t num_hot = 1 + rng.UniformInt(uint64_t{8});
      for (uint64_t i = 0; i < num_hot; ++i) {
        hot_bins[f].push_back(
            static_cast<uint32_t>(rng.UniformInt(uint64_t{cardinalities[f]})));
      }
    }
    std::vector<HistRow> rows;
    while (rows.size() < num_rows) {
      HistRow row;
      for (const std::vector<uint32_t>& hot : hot_bins) {
        row.bins.push_back(hot[rng.UniformInt(uint64_t{hot.size()})]);
      }
      const uint64_t kind = rng.UniformInt(uint64_t{4});
      row.value = kind == 0 ? -0.0 : rng.Uniform(-3.0, 3.0) / 7.0;
      rows.push_back(row);
      if (kind == 1) {
        row.value = -row.value;
        rows.push_back(row);
      }
    }

    NodeHistogram* parent = &buffers[trial % 2];
    NodeHistogram* sibling = &buffers[1 - trial % 2];
    DenseHistogram dense_parent(layout);
    Fill(layout, rows, parent, &dense_parent);
    ASSERT_NO_FATAL_FAILURE(
        ExpectMatchesDense(layout, *parent, dense_parent, &tally));

    // Split off random sibling subsets until one row is left, continuing
    // down either child, as the grower does.
    while (rows.size() > 1) {
      std::vector<HistRow> taken, kept;
      for (const HistRow& row : rows) {
        (rng.UniformInt(uint64_t{3}) == 0 ? taken : kept).push_back(row);
      }
      if (taken.empty() || kept.empty()) continue;
      DenseHistogram dense_sibling(layout);
      Fill(layout, taken, sibling, &dense_sibling);
      for (size_t f = 0; f < layout.num_features(); ++f) {
        const size_t before = OccupiedBins(layout, *parent, f);
        parent->SubtractFeature(layout, f, *sibling);
        tally.released += before - OccupiedBins(layout, *parent, f);
      }
      dense_parent.Subtract(dense_sibling);
      ASSERT_NO_FATAL_FAILURE(
          ExpectMatchesDense(layout, *parent, dense_parent, &tally));
      ASSERT_NO_FATAL_FAILURE(
          ExpectMatchesDense(layout, *sibling, dense_sibling, &tally));
      if (rng.UniformInt(uint64_t{2}) == 0) {
        rows = std::move(kept);
      } else {
        std::swap(parent, sibling);
        dense_parent = std::move(dense_sibling);
        rows = std::move(taken);
      }
    }
  }
  // The chains must have reached every state the invariant distinguishes.
  EXPECT_GT(tally.released, 0u);
  EXPECT_GT(tally.residual, 0u);
  EXPECT_GT(tally.cancelled, 0u);
}

// The ml.hist.* counters expose the scan's sparsity: an unlimited-depth tree
// is mostly small nodes, whose scans visit a fraction of the bins a dense
// walk would. Recording them must not move a byte of the model.
TEST(NodeHistogramTest, ScanTalliesReportTheSparsity) {
  Rng rng(321);
  const Dataset train = MakeCorpus(
      &rng, 200, {ColumnKind::kContinuous, ColumnKind::kContinuous,
                  ColumnKind::kFewDistinct});
  const ParamMap params = {{"max_depth", -1}, {"max_bins", 256}};
  telemetry::SetEnabled(false);
  const std::string bytes_off =
      TrainedBytes("Tree", params, TreeCore::kBinned, train);
  telemetry::SetEnabled(true);
  telemetry::MetricsRegistry::Global().Reset();
  const std::string bytes_on =
      TrainedBytes("Tree", params, TreeCore::kBinned, train);
  const telemetry::MetricsSnapshot snapshot = telemetry::Snapshot();
  telemetry::MetricsRegistry::Global().Reset();
  telemetry::SetEnabled(false);

  EXPECT_EQ(bytes_on, bytes_off);
  const uint64_t scanned = snapshot.counters.at("ml.hist.bins_scanned");
  const uint64_t total = snapshot.counters.at("ml.hist.bins_total");
  EXPECT_GT(scanned, 0u);
  EXPECT_LT(4 * scanned, total);
}

}  // namespace
}  // namespace ml
}  // namespace nextmaint
