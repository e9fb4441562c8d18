// The binned-vs-row differential suite (docs/binned-training.md): both
// training cores run the exact same histogram grower, so serialized model
// bytes and forecasts must be bit-identical across cores and thread counts
// for every learner in the tree zoo. A golden fingerprint file additionally
// pins the absolute model bytes so silent re-pins of the shared grower are
// caught; intentional re-pins are documented in the golden file header and
// applied with NEXTMAINT_REGEN_GOLDEN=1.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/dataset_builder.h"
#include "ml/binned_dataset.h"
#include "ml/registry.h"
#include "telematics/fleet.h"

namespace nextmaint {
namespace ml {
namespace {

/// One grid point of the differential sweep. `id` keys the golden file;
/// `rows` sizes the training fleet (enough distinct values for wide bins
/// where a point needs them).
struct SweepConfig {
  std::string id;
  std::string algorithm;
  ParamMap params;
  int rows = 240;
};

const std::vector<SweepConfig>& Grid() {
  static const std::vector<SweepConfig> kGrid = {
      {"RF_e20_d6_b32",
       "RF",
       {{"num_estimators", 20}, {"max_depth", 6}, {"max_bins", 32}}},
      {"RF_e10_d3_b256",
       "RF",
       {{"num_estimators", 10}, {"max_depth", 3}, {"max_bins", 256}}},
      {"XGB_i25_d4_b64",
       "XGB",
       {{"num_iterations", 25}, {"max_depth", 4}, {"max_bins", 64}}},
      {"XGB_i15_d2_b256",
       "XGB",
       {{"num_iterations", 15}, {"max_depth", 2}, {"max_bins", 256}}},
      {"Tree_d6_b128", "Tree", {{"max_depth", 6}, {"max_bins", 128}}},
      // Unlimited depth: most nodes hold a few rows, so most bins of a
      // node histogram are empty (the sparse-histogram fast path).
      {"RF_e8_dinf_b256",
       "RF",
       {{"num_estimators", 8}, {"max_depth", -1}, {"max_bins", 256}}},
      {"Tree_dinf_b256", "Tree", {{"max_depth", -1}, {"max_bins", 256}}},
      {"RF_e8_dinf_b64_leaf3",
       "RF",
       {{"num_estimators", 8},
        {"max_depth", -1},
        {"min_samples_leaf", 3},
        {"max_bins", 64}}},
      {"Tree_d8_b128_leaf3",
       "Tree",
       {{"max_depth", 8}, {"min_samples_leaf", 3}, {"max_bins", 128}}},
      // Bin counts on and around the 64-bin occupancy-word boundary.
      {"Tree_dinf_b2", "Tree", {{"max_depth", -1}, {"max_bins", 2}}},
      {"Tree_dinf_b63", "Tree", {{"max_depth", -1}, {"max_bins", 63}}},
      {"RF_e6_dinf_b64",
       "RF",
       {{"num_estimators", 6}, {"max_depth", -1}, {"max_bins", 64}}},
      {"XGB_i15_d6_b65",
       "XGB",
       {{"num_iterations", 15},
        {"max_depth", 6},
        {"min_samples_leaf", 2},
        {"max_bins", 65}}},
      // More than 256 distinct values: uint16_t binned columns.
      {"RF_e6_dinf_b300_r600",
       "RF",
       {{"num_estimators", 6}, {"max_depth", -1}, {"max_bins", 300}},
       600},
      // Deep boosting with fractional gradients: subtraction leaves
      // residual non-zero gradient sums in bins whose count is zero.
      {"XGB_i20_d8_lr03_leaf2_b256",
       "XGB",
       {{"num_iterations", 20},
        {"max_depth", 8},
        {"learning_rate", 0.3},
        {"min_samples_leaf", 2},
        {"max_bins", 256}}},
  };
  return kGrid;
}

/// Deterministic fleet-shaped training data: a continuous utilization
/// column, a heavily duplicated quantized column, a small-cardinality
/// categorical-ish column and a noisy mixed column.
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

/// Trains one model with the given core/thread configuration and returns
/// its serialized bytes (precision-17 text; byte equality pins the model).
std::string TrainedModelBytes(const SweepConfig& config, TreeCore core,
                              int threads, const Dataset& train,
                              std::shared_ptr<BinningCache> cache = nullptr) {
  ParamMap params = config.params;
  params["num_threads"] = static_cast<double>(threads);
  TrainingBackend backend;
  backend.core = core;
  backend.binning_cache = std::move(cache);
  auto model =
      MakeRegressor(config.algorithm, params, backend).MoveValueOrDie();
  EXPECT_TRUE(model->Fit(train).ok()) << config.id;
  std::ostringstream out;
  EXPECT_TRUE(model->Save(out).ok()) << config.id;
  return std::move(out).str();
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string GoldenPath() {
  return std::string(NEXTMAINT_ML_GOLDEN_DIR) + "/binned_equality.golden";
}

/// Parses "<config-id> <16-hex-digit-fingerprint>" lines; '#' comments and
/// blank lines are skipped.
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

std::string HexFingerprint(uint64_t hash) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

// ---------------------------------------------------------------------------
// Model bytes must be identical across cores and thread counts: the two
// cores share one grower, and the parallel split search reduces in a fixed
// candidate order, so neither knob may move a single byte.

TEST(BinnedEqualityTest, CoresAndThreadCountsProduceIdenticalModelBytes) {
  for (const SweepConfig& config : Grid()) {
    const Dataset train = MakeFleetData(1234, config.rows);
    const std::string reference =
        TrainedModelBytes(config, TreeCore::kRowOriented, 1, train);
    ASSERT_FALSE(reference.empty()) << config.id;
    EXPECT_EQ(reference,
              TrainedModelBytes(config, TreeCore::kRowOriented, 4, train))
        << config.id << ": row core diverges across thread counts";
    EXPECT_EQ(reference,
              TrainedModelBytes(config, TreeCore::kBinned, 1, train))
        << config.id << ": binned core diverges from row core";
    EXPECT_EQ(reference,
              TrainedModelBytes(config, TreeCore::kBinned, 4, train))
        << config.id << ": threaded binned core diverges from row core";
    // The row-oriented reference core bins on its own even when a cache
    // is attached: it never looks one up.
    auto cache = std::make_shared<BinningCache>();
    EXPECT_EQ(reference,
              TrainedModelBytes(config, TreeCore::kRowOriented, 1, train,
                                cache))
        << config.id << ": an attached cache changed the row core";
    EXPECT_EQ(cache->stats().lookups, 0u) << config.id;
  }
}

TEST(BinnedEqualityTest, SharedBinningCacheDoesNotChangeModelBytes) {
  const Dataset train = MakeFleetData(777, 180);
  auto cache = std::make_shared<BinningCache>();
  for (const SweepConfig& config : Grid()) {
    const std::string uncached =
        TrainedModelBytes(config, TreeCore::kBinned, 1, train);
    EXPECT_EQ(uncached,
              TrainedModelBytes(config, TreeCore::kBinned, 1, train, cache))
        << config.id << ": cached binning changed the model";
  }
  // One lookup per grid point, all over one matrix: only the first grid
  // point at each max_bins setting computes, every later one reuses.
  std::set<double> max_bins_settings;
  for (const SweepConfig& config : Grid()) {
    max_bins_settings.insert(config.params.at("max_bins"));
  }
  const BinningCache::Stats stats = cache->stats();
  EXPECT_EQ(stats.lookups, Grid().size());
  EXPECT_EQ(stats.hits, Grid().size() - max_bins_settings.size());
}

// Forecasts must be bit-identical, not merely near: serving compares
// checkpoint bytes, so a 1-ULP drift would surface as fleet-wide churn.
TEST(BinnedEqualityTest, ForecastsAreBitIdenticalAcrossCores) {
  for (const SweepConfig& config : Grid()) {
    const Dataset train = MakeFleetData(4321, config.rows);
    ParamMap row_params = config.params;
    row_params["num_threads"] = 1.0;
    TrainingBackend row_backend;
    row_backend.core = TreeCore::kRowOriented;
    auto row_model =
        MakeRegressor(config.algorithm, row_params, row_backend)
            .MoveValueOrDie();
    ASSERT_TRUE(row_model->Fit(train).ok()) << config.id;

    ParamMap binned_params = config.params;
    binned_params["num_threads"] = 4.0;
    TrainingBackend binned_backend;
    binned_backend.core = TreeCore::kBinned;
    auto binned_model =
        MakeRegressor(config.algorithm, binned_params, binned_backend)
            .MoveValueOrDie();
    ASSERT_TRUE(binned_model->Fit(train).ok()) << config.id;

    Rng rng(99);
    for (int i = 0; i < 50; ++i) {
      const std::vector<double> probe = {
          rng.Uniform(0, 12), 0.5 * static_cast<double>(rng.UniformInt(
                                        uint64_t{24})),
          static_cast<double>(rng.UniformInt(uint64_t{7})),
          rng.Uniform(-4, 4)};
      const auto span = std::span<const double>(probe.data(), 4);
      const double row_prediction = row_model->Predict(span).ValueOrDie();
      const double binned_prediction =
          binned_model->Predict(span).ValueOrDie();
      EXPECT_EQ(std::bit_cast<uint64_t>(row_prediction),
                std::bit_cast<uint64_t>(binned_prediction))
          << config.id << " probe " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// The grid-search sweep on real fleet data: the candidate grid a tuned
// selection searches (library-default bins, larger ensembles, leaf sizes the
// grid above never sets), fit on one reference vehicle's resampled training
// set. The binned side shares one BinningCache across every candidate, as
// the scheduler's grid search does; the row side binds no cache. No golden
// pin: the equality itself is the contract.

const std::vector<SweepConfig>& FleetSweepGrid() {
  static const std::vector<SweepConfig> kGrid = {
      {"RF_e60_d10_leaf5",
       "RF",
       {{"num_estimators", 60}, {"max_depth", 10}, {"min_samples_leaf", 5}}},
      {"RF_e60_d10_leaf20",
       "RF",
       {{"num_estimators", 60}, {"max_depth", 10}, {"min_samples_leaf", 20}}},
      {"RF_e120_d10_leaf5",
       "RF",
       {{"num_estimators", 120}, {"max_depth", 10}, {"min_samples_leaf", 5}}},
      {"RF_e120_d10_leaf20",
       "RF",
       {{"num_estimators", 120}, {"max_depth", 10}, {"min_samples_leaf", 20}}},
      {"XGB_i60_d4", "XGB", {{"num_iterations", 60}, {"max_depth", 4}}},
      {"XGB_i60_d6", "XGB", {{"num_iterations", 60}, {"max_depth", 6}}},
      {"XGB_i120_d4", "XGB", {{"num_iterations", 120}, {"max_depth", 4}}},
      {"XGB_i120_d6", "XGB", {{"num_iterations", 120}, {"max_depth", 6}}},
  };
  return kGrid;
}

/// Vehicle v1 of the 5-vehicle reference fleet (1735 days, T_v 2,000,000 s):
/// W = 6, Last29 targets, 5 time-shift resamplings.
Dataset ReferenceVehicleTrainingSet() {
  telem::FleetOptions fleet_options;
  fleet_options.num_vehicles = 5;
  fleet_options.start_date = Date::FromYmd(2015, 1, 1).ValueOrDie();
  const telem::Fleet fleet = telem::SimulateFleet(fleet_options).ValueOrDie();
  const telem::VehicleHistory& vehicle = fleet.vehicles[0];
  core::DatasetOptions options;
  options.window = 6;
  options.target_filter = core::DaySet::Last29();
  core::ResamplingOptions resampling;
  resampling.num_shifts = 5;
  return core::BuildResampledDataset(vehicle.utilization,
                                     vehicle.profile.maintenance_interval_s,
                                     options, resampling)
      .ValueOrDie();
}

TEST(BinnedEqualityTest, FleetGridSearchSweepIsIdenticalAcrossCores) {
  const Dataset train = ReferenceVehicleTrainingSet();
  auto cache = std::make_shared<BinningCache>();
  for (const SweepConfig& config : FleetSweepGrid()) {
    // Thread count 0 is the default pool: bytes do not depend on it.
    EXPECT_EQ(TrainedModelBytes(config, TreeCore::kRowOriented, 0, train),
              TrainedModelBytes(config, TreeCore::kBinned, 0, train, cache))
        << config.id << ": binned core diverges from row core";
  }
  // Every candidate uses the default bin count, so only the first one
  // bins the matrix and the rest reuse it.
  EXPECT_EQ(cache->stats().lookups, FleetSweepGrid().size());
  EXPECT_EQ(cache->stats().hits, FleetSweepGrid().size() - 1);
}

// Absolute pin: the grower's arithmetic is frozen by fingerprint. A diff
// here that is NOT an intentional re-pin is a regression; an intentional
// re-pin must update the golden header's changelog and regenerate with
// NEXTMAINT_REGEN_GOLDEN=1 (instructions in the golden file).
TEST(BinnedEqualityTest, ModelBytesMatchGoldenFingerprints) {
  std::map<std::string, std::string> current;
  for (const SweepConfig& config : Grid()) {
    const Dataset train = MakeFleetData(1234, config.rows);
    current[config.id] = HexFingerprint(
        Fnv1a(TrainedModelBytes(config, TreeCore::kBinned, 1, train)));
  }

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
        << id << ": model bytes drifted from the golden pin; if this is an "
        << "intentional re-pin, document it in the golden header and rerun "
        << "with NEXTMAINT_REGEN_GOLDEN=1";
  }
  EXPECT_EQ(golden.size(), current.size())
      << "golden file has stale entries; regenerate it";
}

}  // namespace
}  // namespace ml
}  // namespace nextmaint
