// The batch workload: the reference fleet trained the way `nextmaint
// forecast` trains it, with its checkpoint round trip (`forecast
// --save-models`, then a later `forecast --load-models`).

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/date.h"
#include "common/macros.h"
#include "common/rng.h"
#include "core/baseline.h"
#include "core/category.h"
#include "data/csv.h"
#include "data/preprocess.h"
#include "storage/checkpoint_store.h"
#include "telematics/fleet.h"
#include "workloads.h"

namespace nextmaint {
namespace bench {

namespace {

/// Training threads, as `nextmaint forecast --threads 4`.
constexpr int kThreads = 4;
/// Fleets per run: usage draws of the reference fleet that the set-ups load
/// and the units train in turn. One draw's training cost and memory vary by
/// about 15% with the seed (the number of vehicles whose selection picks RF
/// varies), and its mean E_MRE by about 14% (quartile distance over the
/// median of 40 draws; 6 draws pooled: 5%), so a run's medians and its
/// emre_days span several draws. A 30-second run has a few more units than
/// fleets, so it trains every draw.
constexpr size_t kReferenceFleets = 8;
/// Set-ups per run, each loading every fleet of the run; setup_s is their
/// median. One takes a few tenths of a second, and single ones vary by a
/// quarter with the CPU they land on.
constexpr size_t kTrainingSetups = 9;
/// Calls per vehicle behind core.forecast_us.
constexpr size_t kForecastRounds = 10;

/// The paper's reference fleet: 24 vehicles over Jan 2015 – Sep 2019 with
/// T_v = 2,000,000 s.
struct BatchScale {
  int vehicles = 24;
  int days = 1735;
};

BatchScale ScaleOf(const Context& context) {
  return context.options.smoke ? BatchScale{8, 1735} : BatchScale{};
}

/// Fleets a run draws: `full`, or two at smoke scale.
size_t FleetCount(const Context& context, size_t full) {
  return context.options.smoke ? std::min<size_t>(full, 2) : full;
}

/// `nextmaint forecast`'s options: W = 6, candidates BL/LR/RF, XGB as the
/// unified cold-start model, Last29 training, 2 re-sampling shifts, no
/// tuning.
core::SchedulerOptions BatchOptions() {
  core::SchedulerOptions options;
  options.num_threads = kThreads;
  options.selection.tune = false;
  options.selection.train_on_last29_only = true;
  options.selection.resampling_shifts = 2;
  return options;
}

/// The first days of `usage` whose total stays below `seconds`, re-dated
/// to end on `last_day`: a recently acquired vehicle part-way through its
/// first cycle.
data::DailySeries CutToUsage(const data::DailySeries& usage, double seconds,
                             Date last_day) {
  std::vector<double> kept;
  double total = 0.0;
  for (size_t day = 0; day < usage.size() && total + usage[day] < seconds;
       ++day) {
    total += usage[day];
    kept.push_back(usage[day]);
  }
  const Date first_day =
      last_day.AddDays(1 - static_cast<int64_t>(kept.size()));
  return data::DailySeries(first_day, std::move(kept));
}

/// Simulates the reference fleet for `seed` and turns its last quarter into
/// cold-start vehicles, as in the paper's Section 5.2 mix: the first half
/// cut to 25% of a first cycle's usage (new), the rest to 75% (semi-new).
///
/// The vehicles themselves are the same for every seed: the profiles
/// `nextmaint simulate` draws for its default seed. The seed draws their
/// daily usage. Drawing the profiles too would make each seed a different
/// fleet whose training cost differs by more than the metrics' bounds.
Result<std::vector<VehicleInput>> SimulateReferenceFleet(
    uint64_t seed, const BatchScale& scale, double tv) {
  telem::FleetOptions options;
  options.num_vehicles = scale.vehicles;
  options.num_days = scale.days;
  options.maintenance_interval_s = tv;
  options.seed = seed;
  options.start_date = Date::FromYmd(2015, 1, 1).ValueOrDie();
  // The profile stream telem::SimulateFleet derives from the CLI's default
  // seed 20150101.
  Rng profile_rng(20150101ULL ^ 0xABCDEF);
  const std::vector<telem::VehicleProfile> profiles =
      telem::DefaultFleetProfiles(scale.vehicles, &profile_rng);
  NM_ASSIGN_OR_RETURN(telem::Fleet simulated,
                      telem::SimulateFleetWithProfiles(options, profiles));
  const Date last_day = options.start_date.AddDays(scale.days - 1);
  const size_t cold = simulated.vehicles.size() / 4;
  const size_t first_cold = simulated.vehicles.size() - cold;
  std::vector<VehicleInput> fleet;
  for (size_t v = 0; v < simulated.vehicles.size(); ++v) {
    const telem::VehicleHistory& vehicle = simulated.vehicles[v];
    data::DailySeries usage = vehicle.utilization;
    if (v >= first_cold) {
      const double share = v < first_cold + cold / 2 ? 0.25 : 0.75;
      usage = CutToUsage(usage, share * tv, last_day);
    }
    fleet.push_back(VehicleInput{vehicle.profile.id, std::move(usage)});
  }
  return fleet;
}

/// One fleet's inputs: a directory of daily CSVs, one per vehicle.
struct FleetFiles {
  std::string dir;
  std::vector<std::string> ids;
};

Status WriteFleetCsv(const std::string& dir,
                     const std::vector<VehicleInput>& fleet) {
  for (const VehicleInput& vehicle : fleet) {
    NM_ASSIGN_OR_RETURN(data::Table table,
                        data::SeriesToTable(vehicle.usage, "utilization_s"));
    NM_RETURN_NOT_OK(
        data::WriteCsvFile(table, dir + "/" + vehicle.id + ".csv"));
  }
  return Status::OK();
}

/// Reads one daily CSV per vehicle and cleans it, as the CLI's fleet
/// loader does.
Result<std::vector<VehicleInput>> ReadFleetCsv(const FleetFiles& files,
                                               Tracer& tracer) {
  std::vector<VehicleInput> fleet;
  for (const std::string& id : files.ids) {
    Result<data::Table> table = [&] {
      Tracer::Scope span = tracer.Open("data.ReadCsvFile");
      return data::ReadCsvFile(files.dir + "/" + id + ".csv");
    }();
    NM_RETURN_NOT_OK(table.status());
    Result<data::DailySeries> usage = [&] {
      Tracer::Scope span = tracer.Open("data.AggregateDaily");
      return data::AggregateDaily(table.ValueOrDie(), "date", "utilization_s");
    }();
    NM_RETURN_NOT_OK(usage.status());
    VehicleInput vehicle{id, std::move(usage).ValueOrDie()};
    data::Clean(&vehicle.usage);
    fleet.push_back(std::move(vehicle));
  }
  return fleet;
}

/// Set-up `index`: read every fleet's CSVs and ingest each fleet into a
/// scheduler.
Result<std::vector<std::vector<VehicleInput>>> LoadFleets(
    const std::vector<FleetFiles>& files,
    const core::SchedulerOptions& options, size_t index, Context& context,
    PhaseTimes* times) {
  const CpuRotation cpu(index);
  const Clock::time_point start = Clock::now();
  std::vector<std::vector<VehicleInput>> fleets;
  for (const FleetFiles& fleet_files : files) {
    NM_ASSIGN_OR_RETURN(std::vector<VehicleInput> fleet,
                        ReadFleetCsv(fleet_files, context.TracerFor(index)));
    NM_RETURN_NOT_OK(IngestFleet(fleet, options).status());
    fleets.push_back(std::move(fleet));
  }
  times->AddSetup(index, context, SecondsSince(start));
  return fleets;
}

/// The fleet the `index`-th unit works on. Units cycle through the fleets;
/// the traced run takes each fleet twice in a row, once traced and once
/// not, so that the trace overhead compares units on the same inputs.
size_t UnitFleet(const Context& context, size_t index, size_t fleets) {
  return (context.options.traced ? index / 2 : index) % fleets;
}

struct TrainedFleet {
  std::unique_ptr<core::FleetScheduler> scheduler;
  std::vector<core::MaintenanceForecast> forecasts;
};

/// One `nextmaint forecast` run on already-loaded data: a fresh scheduler
/// (cold caches), TrainAll, FleetForecast.
Result<TrainedFleet> TrainFleet(const std::vector<VehicleInput>& fleet,
                                const core::SchedulerOptions& options,
                                Tracer& tracer) {
  TrainedFleet trained;
  NM_ASSIGN_OR_RETURN(trained.scheduler, IngestFleet(fleet, options));
  {
    Tracer::Scope span = tracer.Open("core.FleetScheduler.TrainAll");
    NM_RETURN_NOT_OK(trained.scheduler->TrainAll());
  }
  Result<std::vector<core::MaintenanceForecast>> forecasts = [&] {
    Tracer::Scope span = tracer.Open("core.FleetScheduler.FleetForecast");
    return trained.scheduler->FleetForecast();
  }();
  NM_ASSIGN_OR_RETURN(trained.forecasts, std::move(forecasts));
  return trained;
}

/// The checkpoint round trip of a training run: `nextmaint forecast
/// --save-models` ends by saving the trained models to `checkpoint`, and a
/// later `nextmaint forecast --load-models` builds a fresh scheduler over
/// the same data, loads them and forecasts (every model materializes
/// lazily on that forecast).
Result<TrainedFleet> RoundTrip(const TrainedFleet& trained,
                               const std::vector<VehicleInput>& fleet,
                               const core::SchedulerOptions& options,
                               const std::string& checkpoint, Tracer& tracer) {
  {
    Tracer::Scope span = tracer.Open("core.FleetScheduler.SaveCheckpoint");
    NM_RETURN_NOT_OK(trained.scheduler->SaveCheckpoint(checkpoint));
  }
  TrainedFleet restored;
  NM_ASSIGN_OR_RETURN(restored.scheduler, IngestFleet(fleet, options));
  {
    Tracer::Scope span = tracer.Open("core.FleetScheduler.LoadCheckpoint");
    NM_RETURN_NOT_OK(restored.scheduler->LoadCheckpoint(checkpoint));
  }
  Result<std::vector<core::MaintenanceForecast>> forecasts = [&] {
    Tracer::Scope span =
        tracer.Open("core.FleetScheduler.FleetForecast.cold");
    return restored.scheduler->FleetForecast();
  }();
  NM_ASSIGN_OR_RETURN(restored.forecasts, std::move(forecasts));
  return restored;
}

/// Counts one forecast per vehicle as an operation; a degraded or missing
/// forecast fails it.
void CountForecasts(const core::FleetScheduler& scheduler,
                    const std::vector<core::MaintenanceForecast>& forecasts,
                    size_t vehicles, Report& report) {
  std::set<std::string> forecast;
  for (const core::MaintenanceForecast& f : forecasts) {
    forecast.insert(f.vehicle_id);
  }
  std::set<std::string> failed;
  for (const core::VehicleDegradation& degraded :
       scheduler.LastDegradationReport().vehicles) {
    failed.insert(degraded.vehicle_id);
  }
  for (const std::string& id : scheduler.VehicleIds()) {
    if (forecast.count(id) == 0) failed.insert(id);
  }
  report.CountOps(vehicles, failed.size(),
                  "vehicle forecasts degraded or missing");
}

/// True when model selection can evaluate every old vehicle of `fleet`:
/// some day of its 70/30 test window has a target in the E_MRE set. That
/// depends on the data alone, so selection over BL, which trains nothing,
/// tells. Where it fails the scheduler serves BL silently.
bool SelectionEvaluatesAll(const std::vector<VehicleInput>& fleet,
                           const core::SchedulerOptions& options) {
  core::OldVehicleOptions selection = options.selection;
  selection.window = options.window;
  const double tv = options.maintenance_interval_s;
  for (const VehicleInput& vehicle : fleet) {
    Result<core::VehicleCategory> category =
        core::CategorizeUsage(vehicle.usage, tv);
    if (!category.ok()) return false;
    if (category.ValueOrDie() != core::VehicleCategory::kOld) continue;
    if (!core::SelectBestModelForVehicle({"BL"}, vehicle.usage, tv, selection)
             .ok()) {
      return false;
    }
  }
  return true;
}

/// The run's `count` fleets, drawn from its seed and written as CSVs to
/// the run's directory before anything is timed. A draw in which
/// selection cannot evaluate some old vehicle (a bursty vehicle that
/// completes no maintenance in the last 30% of its history) is replaced by
/// the next one, so no training run fails selection.
Result<std::vector<FleetFiles>> WriteInputs(
    const Context& context, size_t count,
    const core::SchedulerOptions& options) {
  constexpr size_t kMaxDraws = 100;
  Rng seeds(context.options.seed);
  std::vector<FleetFiles> files;
  size_t draws = 0;
  for (size_t k = 0; k < count; ++k) {
    std::vector<VehicleInput> fleet;
    do {
      if (draws++ == kMaxDraws) {
        return Status::FailedPrecondition(
            "no fleet draw that selection can evaluate in " +
            std::to_string(kMaxDraws));
      }
      NM_ASSIGN_OR_RETURN(
          fleet, SimulateReferenceFleet(seeds.NextUint64(), ScaleOf(context),
                                        options.maintenance_interval_s));
    } while (!SelectionEvaluatesAll(fleet, options));
    FleetFiles written{context.workdir + "/fleet" + std::to_string(k), {}};
    std::error_code error;
    std::filesystem::create_directories(written.dir, error);
    if (error) return Status::IOError("cannot create " + written.dir);
    NM_RETURN_NOT_OK(WriteFleetCsv(written.dir, fleet));
    for (const VehicleInput& vehicle : fleet) {
      written.ids.push_back(vehicle.id);
    }
    files.push_back(std::move(written));
  }
  if (draws > count) {
    std::fprintf(stderr,
                 "perfbench: replaced %zu of %zu fleet draws that selection "
                 "could not evaluate\n",
                 draws - count, draws);
  }
  return files;
}

void CheckCategoryMix(const std::vector<VehicleInput>& fleet, double tv,
                      Report& report) {
  std::map<core::VehicleCategory, size_t> mix;
  for (const VehicleInput& vehicle : fleet) {
    Result<core::VehicleCategory> category =
        core::CategorizeUsage(vehicle.usage, tv);
    if (category.ok()) ++mix[category.ValueOrDie()];
  }
  const size_t cold = fleet.size() / 4;
  report.Check(mix[core::VehicleCategory::kOld] == fleet.size() - cold &&
                   mix[core::VehicleCategory::kNew] == cold / 2 &&
                   mix[core::VehicleCategory::kSemiNew] == cold - cold / 2,
               "reference fleet does not have the old/new/semi-new mix");
}

/// The bytes of a file; empty when it cannot be read.
std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// p50 of FleetScheduler::Forecast over every vehicle, in microseconds.
void ReportForecastLatency(const core::FleetScheduler& scheduler,
                           Context& context) {
  size_t errors = 0;
  for (size_t round = 0; round < kForecastRounds; ++round) {
    for (const std::string& id : scheduler.VehicleIds()) {
      Tracer::Scope span = context.tracer->Open("core.FleetScheduler.Forecast");
      if (!scheduler.Forecast(id).ok()) ++errors;
    }
  }
  context.report->Check(errors == 0, "FleetScheduler::Forecast failed");
  const std::vector<double> seconds =
      context.tracer->Seconds("core.FleetScheduler.Forecast");
  context.report->Add("core.forecast_us", Median(seconds) * 1e6,
                      seconds.size());
}

/// Per-layer records of training, beyond DecomposeTraining's (which
/// covered `fleets` fleets).
Status ReportTrainingLayers(const TrainedFleet& last,
                            const core::SchedulerOptions& options,
                            const PhaseTimes& times, size_t fleets,
                            Context& context) {
  Report& report = *context.report;
  Tracer& tracer = *context.tracer;
  const double read_s = Sum(tracer.Seconds("data.ReadCsvFile")) +
                        Sum(tracer.Seconds("data.AggregateDaily"));
  report.Add("data.read_csv_s",
             read_s / static_cast<double>(times.setup_traced_s.size()),
             times.setup_traced_s.size());

  size_t lookups = 0;
  size_t hits = 0;
  for (const std::string& id : last.scheduler->VehicleIds()) {
    if (auto cache = last.scheduler->VehicleBinningCache(id)) {
      lookups += cache->stats().lookups;
      hits += cache->stats().hits;
    }
  }
  report.Add("ml.binning_lookups", static_cast<double>(lookups), lookups);
  report.Add("ml.binning_hit_ratio",
             lookups == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups),
             lookups);

  std::vector<core::FirstCycleData> corpus;
  for (const std::string& id : last.scheduler->VehicleIds()) {
    NM_ASSIGN_OR_RETURN(std::optional<core::FirstCycleData> contribution,
                        last.scheduler->CorpusContribution(id));
    if (contribution.has_value()) corpus.push_back(*std::move(contribution));
  }
  {
    Tracer::Scope span =
        tracer.Open("core.FleetScheduler.TrainUnifiedFromCorpus");
    report.Check(last.scheduler->TrainUnifiedFromCorpus(corpus) != nullptr,
                 "unified model training failed");
  }
  const std::vector<double> unified =
      tracer.Seconds("core.FleetScheduler.TrainUnifiedFromCorpus");
  report.Add("core.unified_train_s", Median(unified), unified.size());

  ReportForecastLatency(*last.scheduler, context);

  // Over the training part of the traced units, without their checkpoint
  // round trips.
  const std::vector<double> train_s =
      tracer.Seconds("core.FleetScheduler.TrainAll");
  report.Add("common.parallel_efficiency",
             Sum(tracer.Seconds("core.vehicle_train")) /
                 static_cast<double>(fleets) /
                 (options.num_threads *
                  (Median(train_s) +
                   Median(tracer.Seconds("core.FleetScheduler.FleetForecast")))),
             train_s.size());
  return Status::OK();
}

/// Traced: the model and storage layers under a checkpoint, timed on the
/// saved file itself. Reads every segment (CRC check), deserializes and
/// re-serializes each model, and writes the re-serialized records as a new
/// checkpoint.
Status ReportCheckpointLayers(const std::string& path, Context& context) {
  Report& report = *context.report;
  Tracer& tracer = *context.tracer;
  NM_ASSIGN_OR_RETURN(std::unique_ptr<storage::CheckpointStore> store,
                      storage::CheckpointStore::Open(path));
  NM_ASSIGN_OR_RETURN(storage::CheckpointManifest manifest, store->Load());
  std::vector<storage::VehicleRecord> records;
  double model_bytes = 0.0;
  size_t changed = 0;
  for (const storage::ManifestEntry& entry : manifest.vehicles) {
    Result<std::string_view> payload = [&] {
      Tracer::Scope span = tracer.Open("storage.SegmentView.Payload");
      return entry.segment.Payload();
    }();
    NM_RETURN_NOT_OK(payload.status());
    model_bytes += static_cast<double>(payload.ValueOrDie().size());
    std::istringstream in{std::string(payload.ValueOrDie())};
    Result<std::unique_ptr<ml::Regressor>> model = [&] {
      Tracer::Scope span = tracer.Open("ml.LoadAnyModel");
      return core::LoadAnyModel(in);
    }();
    NM_RETURN_NOT_OK(model.status());
    std::ostringstream out;
    {
      Tracer::Scope span = tracer.Open("ml.Regressor.Save");
      NM_RETURN_NOT_OK(model.ValueOrDie()->Save(out));
    }
    if (out.str() != payload.ValueOrDie()) ++changed;
    records.push_back(
        storage::VehicleRecord{entry.vehicle_id, entry.model_name, out.str()});
  }
  report.Check(changed == 0, std::to_string(changed) +
                                 " model(s) changed bytes on a "
                                 "deserialize/serialize round trip");
  NM_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::CheckpointStore> rewrite,
      storage::CheckpointStore::Open(context.workdir + "/rewrite.ckpt"));
  {
    Tracer::Scope span = tracer.Open("storage.CheckpointStore.SaveAll");
    NM_RETURN_NOT_OK(rewrite->SaveAll(std::move(records)).status());
  }
  const auto add_sum = [&](const char* metric, const char* span) {
    const std::vector<double> seconds = tracer.Seconds(span);
    report.Add(metric, Sum(seconds), seconds.size());
  };
  add_sum("ml.deserialize_s", "ml.LoadAnyModel");
  add_sum("ml.serialize_s", "ml.Regressor.Save");
  add_sum("storage.write_s", "storage.CheckpointStore.SaveAll");
  report.Add("ml.model_bytes", model_bytes, manifest.vehicles.size());
  std::error_code error;
  report.Add("storage.checkpoint_bytes",
             static_cast<double>(std::filesystem::file_size(path, error)), 1);
  return Status::OK();
}

/// Traced: the storage layer under the round trips, from their spans, and
/// the layers under the last unit's checkpoint.
Status ReportRoundTripLayers(const PhaseTimes& times,
                             const std::string& checkpoint, Context& context) {
  Tracer& tracer = *context.tracer;
  const auto median_of = [&](const char* span) {
    return Median(tracer.Seconds(span));
  };
  const size_t traced_units = times.unit_traced_s.size();
  context.report->Add("storage.save_s",
                      median_of("core.FleetScheduler.SaveCheckpoint"),
                      traced_units);
  context.report->Add("storage.load_s",
                      median_of("core.FleetScheduler.LoadCheckpoint"),
                      traced_units);
  context.report->Add("storage.materialize_s",
                      median_of("core.FleetScheduler.FleetForecast.cold") -
                          median_of("core.FleetScheduler.FleetForecast.warm"),
                      traced_units);
  return ReportCheckpointLayers(checkpoint, context);
}

}  // namespace

Status RunBatchReference(Context& context) {
  Report& report = *context.report;
  const core::SchedulerOptions options = BatchOptions();
  const size_t fleet_count = FleetCount(context, kReferenceFleets);
  const double tv = options.maintenance_interval_s;
  NM_ASSIGN_OR_RETURN(const std::vector<FleetFiles> files,
                      WriteInputs(context, fleet_count, options));

  // Set-up: load the run's inputs, kTrainingSetups times.
  PhaseTimes times;
  std::vector<std::vector<VehicleInput>> fleets;
  for (size_t i = 0; i < kTrainingSetups; ++i) {
    NM_ASSIGN_OR_RETURN(fleets, LoadFleets(files, options, i, context, &times));
  }
  for (const std::vector<VehicleInput>& fleet : fleets) {
    CheckCategoryMix(fleet, tv, report);
  }

  // Measured: one fleet training run after another, each on a fresh
  // scheduler (cold caches, as a CLI run has), each followed by its
  // checkpoint round trip. The forecasts of each fleet's first training
  // are kept for the checks.
  const std::string checkpoint = context.workdir + "/fleet.ckpt";
  std::vector<std::vector<core::MaintenanceForecast>> first_forecasts(
      fleet_count);
  TrainedFleet last;
  TrainedFleet restored;
  const Clock::time_point measure_start = Clock::now();
  for (size_t i = 0; context.MoreUnits(i, measure_start); ++i) {
    last = TrainedFleet();
    restored = TrainedFleet();
    const size_t k = UnitFleet(context, i, fleet_count);
    const std::vector<VehicleInput>& fleet = fleets[k];
    Tracer& tracer = context.TracerFor(i);
    // Return freed heap to the kernel first, so that the peak covers the
    // unit and not what the allocator kept from the previous one.
    malloc_trim(0);
    const bool peak_reset = ResetPeakRss();
    {
      const CpuRotation cpu(i);
      const Clock::time_point start = Clock::now();
      NM_ASSIGN_OR_RETURN(last, TrainFleet(fleet, options, tracer));
      NM_ASSIGN_OR_RETURN(restored,
                          RoundTrip(last, fleet, options, checkpoint, tracer));
      times.AddUnit(i, context, SecondsSince(start));
    }
    ++times.units;
    if (peak_reset) times.unit_peak_rss_mb.push_back(PeakRssMb());
    CountForecasts(*last.scheduler, last.forecasts, fleet.size(), report);
    if (first_forecasts[k].empty()) {
      first_forecasts[k] = last.forecasts;
    } else {
      report.Check(SameForecasts(first_forecasts[k], last.forecasts),
                   "two training runs on the same data disagree");
    }
    CountForecasts(*restored.scheduler, restored.forecasts, fleet.size(),
                   report);
    report.Check(SameForecasts(restored.forecasts, last.forecasts),
                 "forecasts after loading a checkpoint differ from the "
                 "trained forecasts");
    if (i == 0) {
      const std::string resaved = context.workdir + "/resaved.ckpt";
      NM_RETURN_NOT_OK(restored.scheduler->SaveCheckpoint(resaved));
      report.Check(ReadFileBytes(resaved) == ReadFileBytes(checkpoint),
                   "saving a loaded checkpoint changed its bytes");
    }
    if (tracer.enabled()) {
      // Every model is materialized now; the difference to the first
      // forecast is the lazy materialization.
      Tracer::Scope span =
          tracer.Open("core.FleetScheduler.FleetForecast.warm");
      NM_RETURN_NOT_OK(restored.scheduler->FleetForecast().status());
    }
  }
  times.measured_s = SecondsSince(measure_start);
  times.peak_rss_mb = PeakRssMb();
  ReportEndToEnd(times, context);
  PrintFingerprint(context, Fingerprint(first_forecasts.front()));

  // Model selection of every fleet: the quality of the served models
  // (emre_days), and for each fleet a unit trained, that the scheduler
  // serves every old vehicle the algorithm its selection chose.
  NM_ASSIGN_OR_RETURN(const std::vector<std::vector<SelectionOutcome>> outcomes,
                      DecomposeTraining(fleets, options, context));
  for (size_t k = 0; k < fleet_count; ++k) {
    if (first_forecasts[k].empty()) continue;
    CheckServedWinners(fleets[k], outcomes[k], first_forecasts[k], report);
  }
  if (!context.options.traced) return Status::OK();
  NM_RETURN_NOT_OK(
      ReportTrainingLayers(last, options, times, fleet_count, context));
  return ReportRoundTripLayers(times, checkpoint, context);
}

}  // namespace bench
}  // namespace nextmaint
