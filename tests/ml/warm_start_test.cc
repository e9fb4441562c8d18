// Warm-start differential harness (docs/warm-start.md): ContinueFit must
// (a) be a byte-identical no-op at extra_rounds == 0, (b) resume
// identically after a serialization round trip, (c) be bit-identical at
// any thread count over a randomized append schedule, and (d) track the
// equivalent cold retrain within a divergence bound. A golden fingerprint
// file pins the warm-resumed model bytes (same pattern as
// binned_equality.golden).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "ml/hist_gradient_boosting.h"
#include "ml/linear_regression.h"
#include "ml/random_forest.h"
#include "ml/regressor.h"
#include "ml/serialization.h"

namespace nextmaint {
namespace ml {
namespace {

/// Deterministic fleet-shaped data. Generated in one pass so any prefix of
/// a larger call is bit-identical to a smaller call — the append schedule
/// below takes prefixes of one full matrix.
Dataset MakeFleetData(uint64_t seed, int rows) {
  Rng rng(seed);
  Dataset d;
  for (int i = 0; i < rows; ++i) {
    const double x0 = rng.Uniform(0, 12);
    const double x1 = 0.5 * static_cast<double>(rng.UniformInt(uint64_t{24}));
    const double x2 = static_cast<double>(rng.UniformInt(uint64_t{7}));
    const double x3 = rng.Uniform(-4, 4);
    const std::vector<double> row = {x0, x1, x2, x3};
    d.AddRow(std::span<const double>(row.data(), 4),
             30.0 - 1.5 * x0 - x1 + 0.5 * x2 * x2 + rng.Normal(0, 0.4));
  }
  return d;
}

Dataset Prefix(const Dataset& full, size_t rows) {
  std::vector<size_t> indices(rows);
  std::iota(indices.begin(), indices.end(), size_t{0});
  return full.SelectRows(indices);
}

std::string SerializedBytes(const Regressor& model) {
  std::ostringstream out;
  EXPECT_TRUE(model.Save(out).ok());
  return std::move(out).str();
}

/// A randomized append schedule: initial fit on `initial` rows, then
/// `steps` grows of rng-drawn size, each followed by a ContinueFit for
/// `extra_rounds` units on the grown prefix.
struct AppendSchedule {
  size_t initial = 0;
  std::vector<size_t> sizes_after_append;  // cumulative row counts
};

AppendSchedule MakeSchedule(uint64_t seed, size_t initial, size_t max_rows,
                            int steps) {
  AppendSchedule schedule;
  schedule.initial = initial;
  Rng rng(seed);
  size_t rows = initial;
  for (int s = 0; s < steps; ++s) {
    rows += 20 + static_cast<size_t>(rng.UniformInt(uint64_t{41}));
    if (rows > max_rows) rows = max_rows;
    schedule.sizes_after_append.push_back(rows);
  }
  return schedule;
}

HistGradientBoostingRegressor::Options XgbOptions(int threads) {
  HistGradientBoostingRegressor::Options options;
  options.num_iterations = 15;
  options.max_depth = 3;
  options.num_threads = threads;
  return options;
}

RandomForestRegressor::Options RfOptions(int threads) {
  RandomForestRegressor::Options options;
  options.num_estimators = 15;
  options.max_depth = 6;
  options.num_threads = threads;
  return options;
}

/// Runs the warm path over a schedule and returns the serialized model.
template <typename Model, typename Options>
std::unique_ptr<Model> WarmModel(const Options& options, const Dataset& full,
                                 const AppendSchedule& schedule,
                                 int extra_rounds) {
  auto model = std::make_unique<Model>(options);
  EXPECT_TRUE(model->Fit(Prefix(full, schedule.initial)).ok());
  for (const size_t rows : schedule.sizes_after_append) {
    EXPECT_TRUE(model->ContinueFit(Prefix(full, rows), extra_rounds).ok());
  }
  return model;
}

// ---------------------------------------------------------------------------
// extra_rounds == 0: byte-identical no-op, even on grown data.

TEST(WarmStartTest, ZeroExtraRoundsIsByteIdenticalNoOp) {
  const Dataset full = MakeFleetData(991, 260);
  {
    HistGradientBoostingRegressor model(XgbOptions(1));
    ASSERT_TRUE(model.Fit(Prefix(full, 180)).ok());
    const std::string before = SerializedBytes(model);
    ASSERT_TRUE(model.ContinueFit(full, 0).ok());
    EXPECT_EQ(before, SerializedBytes(model)) << "XGB";
  }
  {
    RandomForestRegressor model(RfOptions(1));
    ASSERT_TRUE(model.Fit(Prefix(full, 180)).ok());
    const std::string before = SerializedBytes(model);
    ASSERT_TRUE(model.ContinueFit(full, 0).ok());
    EXPECT_EQ(before, SerializedBytes(model)) << "RF";
  }
}

// ---------------------------------------------------------------------------
// Contract errors.

TEST(WarmStartTest, UnfittedModelRefusesContinueFit) {
  const Dataset data = MakeFleetData(5, 60);
  HistGradientBoostingRegressor xgb(XgbOptions(1));
  EXPECT_EQ(xgb.ContinueFit(data, 5).code(),
            StatusCode::kFailedPrecondition);
  RandomForestRegressor rf(RfOptions(1));
  EXPECT_EQ(rf.ContinueFit(data, 5).code(), StatusCode::kFailedPrecondition);
}

TEST(WarmStartTest, NegativeExtraRoundsIsRejected) {
  const Dataset data = MakeFleetData(6, 80);
  HistGradientBoostingRegressor model(XgbOptions(1));
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_EQ(model.ContinueFit(data, -1).code(),
            StatusCode::kInvalidArgument);
}

TEST(WarmStartTest, NonEnsembleModelsRefuseWarmStart) {
  const Dataset data = MakeFleetData(7, 80);
  LinearRegression lr;
  ASSERT_TRUE(lr.Fit(data).ok());
  const Status refused = lr.ContinueFit(data, 3);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
}

TEST(WarmStartTest, FeatureCountMismatchIsRejectedWithoutMutation) {
  const Dataset data = MakeFleetData(8, 120);
  Dataset narrow;
  for (int i = 0; i < 40; ++i) {
    const std::vector<double> row = {static_cast<double>(i)};
    narrow.AddRow(std::span<const double>(row.data(), 1), 1.0);
  }
  HistGradientBoostingRegressor model(XgbOptions(1));
  ASSERT_TRUE(model.Fit(data).ok());
  const std::string before = SerializedBytes(model);
  EXPECT_EQ(model.ContinueFit(narrow, 4).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(before, SerializedBytes(model));
}

// ---------------------------------------------------------------------------
// Serialization round trip: save -> load -> continue must equal continue.
// The 'resume' line persists every hyper-parameter (and for RF the seed)
// the continuation stream depends on.

TEST(WarmStartTest, SaveLoadContinueMatchesInMemoryContinue) {
  const Dataset full = MakeFleetData(2024, 260);
  {
    HistGradientBoostingRegressor model(XgbOptions(1));
    ASSERT_TRUE(model.Fit(Prefix(full, 170)).ok());
    std::istringstream in(SerializedBytes(model));
    auto loaded = LoadRegressor(in).MoveValueOrDie();
    ASSERT_TRUE(model.ContinueFit(full, 6).ok());
    ASSERT_TRUE(loaded->ContinueFit(full, 6).ok());
    EXPECT_EQ(SerializedBytes(model), SerializedBytes(*loaded)) << "XGB";
  }
  {
    RandomForestRegressor model(RfOptions(1));
    ASSERT_TRUE(model.Fit(Prefix(full, 170)).ok());
    std::istringstream in(SerializedBytes(model));
    auto loaded = LoadRegressor(in).MoveValueOrDie();
    ASSERT_TRUE(model.ContinueFit(full, 6).ok());
    ASSERT_TRUE(loaded->ContinueFit(full, 6).ok());
    EXPECT_EQ(SerializedBytes(model), SerializedBytes(*loaded)) << "RF";
  }
}

// ---------------------------------------------------------------------------
// Determinism across thread counts over a randomized append schedule.

TEST(WarmStartTest, AppendScheduleIsBitIdenticalAcrossThreadCounts) {
  const Dataset full = MakeFleetData(31337, 320);
  const AppendSchedule schedule = MakeSchedule(17, 160, 320, 3);
  {
    const auto one = WarmModel<HistGradientBoostingRegressor>(
        XgbOptions(1), full, schedule, 5);
    const auto four = WarmModel<HistGradientBoostingRegressor>(
        XgbOptions(4), full, schedule, 5);
    EXPECT_EQ(SerializedBytes(*one), SerializedBytes(*four)) << "XGB";
  }
  {
    const auto one =
        WarmModel<RandomForestRegressor>(RfOptions(1), full, schedule, 5);
    const auto four =
        WarmModel<RandomForestRegressor>(RfOptions(4), full, schedule, 5);
    EXPECT_EQ(SerializedBytes(*one), SerializedBytes(*four)) << "RF";
  }
}

// ---------------------------------------------------------------------------
// Divergence bound: the warm model is an approximation of the cold retrain
// with the same total ensemble size on the final data. It need not be
// bit-identical — that is the whole point of the trade — but it must track
// the cold model within the documented bound (docs/warm-start.md).

double MeanRelativeDivergence(const Regressor& warm, const Regressor& cold,
                              const Dataset& probes) {
  double total = 0.0;
  for (size_t r = 0; r < probes.num_rows(); ++r) {
    const double w = warm.Predict(probes.x().Row(r)).ValueOrDie();
    const double c = cold.Predict(probes.x().Row(r)).ValueOrDie();
    total += std::fabs(w - c) / std::max(std::fabs(c), 1.0);
  }
  return total / static_cast<double>(probes.num_rows());
}

TEST(WarmStartTest, WarmTracksColdWithinDivergenceBound) {
  // Bound shared with ServingEngineWarmStartTest and docs/warm-start.md.
  constexpr double kBound = 0.25;
  const Dataset full = MakeFleetData(555, 320);
  const Dataset probes = MakeFleetData(556, 80);
  const AppendSchedule schedule = MakeSchedule(23, 160, 320, 3);
  const int extra_rounds = 5;
  const int total_extra =
      extra_rounds * static_cast<int>(schedule.sizes_after_append.size());
  {
    const auto warm = WarmModel<HistGradientBoostingRegressor>(
        XgbOptions(1), full, schedule, extra_rounds);
    HistGradientBoostingRegressor::Options cold_options = XgbOptions(1);
    cold_options.num_iterations += total_extra;
    HistGradientBoostingRegressor cold(cold_options);
    ASSERT_TRUE(cold.Fit(full).ok());
    const double divergence = MeanRelativeDivergence(*warm, cold, probes);
    EXPECT_LT(divergence, kBound) << "XGB";
  }
  {
    const auto warm = WarmModel<RandomForestRegressor>(RfOptions(1), full,
                                                       schedule, extra_rounds);
    RandomForestRegressor::Options cold_options = RfOptions(1);
    cold_options.num_estimators += total_extra;
    RandomForestRegressor cold(cold_options);
    ASSERT_TRUE(cold.Fit(full).ok());
    const double divergence = MeanRelativeDivergence(*warm, cold, probes);
    EXPECT_LT(divergence, kBound) << "RF";
  }
}

// ---------------------------------------------------------------------------
// Resumed ensembles actually grow, and the loss curves grow with them.

TEST(WarmStartTest, ResumeExtendsEnsembleAndLossCurves) {
  const Dataset full = MakeFleetData(777, 240);
  HistGradientBoostingRegressor xgb(XgbOptions(1));
  ASSERT_TRUE(xgb.Fit(Prefix(full, 160)).ok());
  const size_t trees_before = xgb.tree_count();
  const size_t losses_before = xgb.training_loss_curve().size();
  ASSERT_TRUE(xgb.ContinueFit(full, 7).ok());
  EXPECT_EQ(xgb.tree_count(), trees_before + 7);
  EXPECT_EQ(xgb.training_loss_curve().size(), losses_before + 7);

  RandomForestRegressor rf(RfOptions(1));
  ASSERT_TRUE(rf.Fit(Prefix(full, 160)).ok());
  ASSERT_TRUE(rf.ContinueFit(full, 7).ok());
  EXPECT_EQ(rf.tree_count(), 22u);
}

// A resume with the tail-holdout early stopping configured may stop before
// exhausting extra_rounds, but never exceeds it and stays deterministic.
TEST(WarmStartTest, ResumeHonorsTailHoldoutEarlyStopping) {
  const Dataset full = MakeFleetData(888, 300);
  HistGradientBoostingRegressor::Options options = XgbOptions(1);
  options.validation_fraction = 0.2;
  options.early_stopping_rounds = 3;
  HistGradientBoostingRegressor model(options);
  ASSERT_TRUE(model.Fit(Prefix(full, 200)).ok());
  const size_t trees_before = model.tree_count();
  ASSERT_TRUE(model.ContinueFit(full, 50).ok());
  EXPECT_GT(model.tree_count(), trees_before);
  EXPECT_LE(model.tree_count(), trees_before + 50);
  EXPECT_GT(model.validation_loss_curve().size(), 0u);
}

// ---------------------------------------------------------------------------
// Golden fingerprints: the warm-resumed model bytes for a fixed schedule
// are pinned, binned_equality.golden-style.

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string HexFingerprint(uint64_t hash) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

std::string GoldenPath() {
  return std::string(NEXTMAINT_ML_GOLDEN_DIR) + "/warm_start.golden";
}

std::map<std::string, std::string> ReadGolden() {
  std::map<std::string, std::string> golden;
  std::ifstream in(GoldenPath());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string id, fingerprint;
    fields >> id >> fingerprint;
    if (!id.empty() && !fingerprint.empty()) golden[id] = fingerprint;
  }
  return golden;
}

TEST(WarmStartTest, WarmResumedModelBytesMatchGoldenFingerprints) {
  const Dataset full = MakeFleetData(1234, 300);
  const AppendSchedule schedule = MakeSchedule(99, 150, 300, 2);
  std::map<std::string, std::string> current;
  current["XGB_warm_i15_d3_r5"] = HexFingerprint(
      Fnv1a(SerializedBytes(*WarmModel<HistGradientBoostingRegressor>(
          XgbOptions(1), full, schedule, 5))));
  current["RF_warm_e15_d6_r5"] = HexFingerprint(Fnv1a(SerializedBytes(
      *WarmModel<RandomForestRegressor>(RfOptions(1), full, schedule, 5))));

  if (std::getenv("NEXTMAINT_REGEN_GOLDEN") != nullptr) {
    std::ifstream existing(GoldenPath());
    std::vector<std::string> header;
    std::string line;
    while (std::getline(existing, line)) {
      if (!line.empty() && line[0] == '#') header.push_back(line);
    }
    existing.close();
    std::ofstream out(GoldenPath(), std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot rewrite " << GoldenPath();
    for (const std::string& kept : header) out << kept << "\n";
    for (const auto& [id, fingerprint] : current) {
      out << id << " " << fingerprint << "\n";
    }
    GTEST_SKIP() << "golden fingerprints regenerated at " << GoldenPath();
  }

  const std::map<std::string, std::string> golden = ReadGolden();
  ASSERT_FALSE(golden.empty())
      << "missing or empty golden file " << GoldenPath();
  for (const auto& [id, fingerprint] : current) {
    const auto it = golden.find(id);
    ASSERT_NE(it, golden.end()) << "no golden entry for " << id;
    EXPECT_EQ(it->second, fingerprint)
        << id << ": warm-resumed model bytes drifted from the golden pin; "
        << "if this is an intentional re-pin, document it in the golden "
        << "header and rerun with NEXTMAINT_REGEN_GOLDEN=1";
  }
  EXPECT_EQ(golden.size(), current.size())
      << "golden file has stale entries; regenerate it";
}

}  // namespace
}  // namespace ml
}  // namespace nextmaint
