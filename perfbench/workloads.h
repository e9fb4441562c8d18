#ifndef NEXTMAINT_PERFBENCH_WORKLOADS_H_
#define NEXTMAINT_PERFBENCH_WORKLOADS_H_

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "common/status.h"
#include "core/scheduler.h"
#include "data/time_series.h"
#include "record.h"
#include "trace.h"

/// \file workloads.h
/// What the workloads share: the run context, the measurement loop
/// and its end-to-end records, and the decomposed training pass that both
/// the batch and the serving workloads use as their model-selection check
/// and (traced) per-layer breakdown.
///
/// Every workload has a *unit*: the one operation its user waits for
/// (a fleet training run with its checkpoint round trip, a forecast read,
/// an acknowledged append). The end-to-end metrics are the median set-up
/// time, the median and tail unit latency, units completed per second,
/// peak memory and the forecast quality (E_MRE) of the models served.

namespace nextmaint {
namespace bench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

inline double PeakRssMb() {
  return static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0);
}

/// Command-line options of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase.
  double seconds = 10.0;
  /// The traced run: per-layer metrics instead of end-to-end ones.
  bool traced = false;
  /// A few hundred vehicles instead of the full fleets, for a quick check
  /// that every workload runs and passes its checks.
  bool smoke = false;
  /// Where the traced run writes its spans; empty writes none.
  std::string trace_out;
};

/// Everything a workload needs.
struct Context {
  RunOptions options;
  /// The run's own directory (CSV inputs, checkpoints, the socket),
  /// relative to the working directory and removed when the run ends.
  std::string workdir;
  Report* report = nullptr;
  Tracer* tracer = nullptr;

  /// The tracer for the `index`-th set-up or unit. The traced run traces
  /// half of them, in the order untraced, traced, traced, untraced (so
  /// neither half always comes first), and the untraced half measures
  /// tracing's overhead; the plain run traces none.
  Tracer& TracerFor(size_t index) const;

  /// True while the measured phase, begun at `start` with `done` units run,
  /// should run another unit: for options.seconds, and in the traced run
  /// until a traced and an untraced unit have run.
  bool MoreUnits(size_t done, Clock::time_point start) const;
};

/// Timings of a workload's set-ups and measured units, split by whether
/// the repetition was traced.
struct PhaseTimes {
  std::vector<double> setup_plain_s;
  std::vector<double> setup_traced_s;
  std::vector<double> unit_plain_s;
  std::vector<double> unit_traced_s;
  /// Wall time of the measured phase and units completed in it (all
  /// clients together).
  double measured_s = 0.0;
  uint64_t units = 0;
  /// Completion time of each unit, in seconds from the start of the
  /// measured phase, for a workload whose throughput is taken over windows
  /// of units (WindowRate); empty for the others.
  std::vector<double> unit_done_s;
  /// Peak RSS of each unit, where units are long enough to measure one
  /// (the peak is reset before each); otherwise empty, and peak_rss_mb is
  /// the peak when the measured phase ended.
  std::vector<double> unit_peak_rss_mb;
  double peak_rss_mb = 0.0;

  void AddSetup(size_t index, const Context& context, double seconds);
  void AddUnit(size_t index, const Context& context, double seconds);
};

/// Adds the end-to-end records, and in the traced run the trace-overhead
/// records (traced half over untraced half).
void ReportEndToEnd(const PhaseTimes& times, Context& context);

/// Keeps the calling thread, or every thread of the process, on one CPU,
/// the `index`-th (modulo) of those the calling thread may run on, until
/// destroyed. On a shared host the CPUs' speeds differ and change from
/// minute to minute (one single-threaded set-up measured 22 ms on some and
/// 35 ms on others), so the batch workloads' set-ups and units rotate over
/// the CPUs and no one CPU decides their median. Threads started meanwhile
/// inherit the restriction: pin only code that starts none.
class CpuRotation {
 public:
  enum class Scope { kThread, kProcess };

  explicit CpuRotation(size_t index, Scope scope = Scope::kThread);
  ~CpuRotation();

  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  /// Each pinned thread (0 for the calling one) and the mask it had.
  std::vector<std::pair<pid_t, cpu_set_t>> saved_;
};

/// One vehicle: its id and its cleaned daily utilization.
struct VehicleInput {
  std::string id;
  data::DailySeries usage;
};

/// A fresh scheduler with every vehicle registered and its history
/// ingested.
[[nodiscard]] Result<std::unique_ptr<core::FleetScheduler>> IngestFleet(
    const std::vector<VehicleInput>& fleet,
    const core::SchedulerOptions& options);

/// Per-vehicle outcome of the decomposed training pass.
struct SelectionOutcome {
  /// The vehicle is old, so it is served a model it trains itself.
  bool old = false;
  /// Model selection succeeded; otherwise the scheduler silently serves BL
  /// and `error` says why.
  bool selected = false;
  std::string error;
  /// The algorithm selection chose.
  std::string winner;
  /// E_MRE({1..29}) of the winner under the 70/30 protocol.
  double emre = 0.0;
};

/// Runs, from the benchmark's own code, the per-vehicle work the scheduler
/// does for every vehicle of every fleet inside TrainAll and a serving
/// refresh: core::DeriveSeries on the forecast series and, for old
/// vehicles, core::SelectBestModelForVehicle then (traced only) the refit
/// of the winner (core::BuildResampledDataset + Regressor::Fit), fanned out
/// over `options.num_threads`. Each call is a span. Counts selection
/// failures as failed operations and adds emre_days, the mean E_MRE over
/// every old vehicle; traced, it adds the core.* and ml.fit_* layer
/// records, per fleet. Returns one outcome per vehicle, by fleet, in input
/// order.
[[nodiscard]] Result<std::vector<std::vector<SelectionOutcome>>>
DecomposeTraining(std::span<const std::vector<VehicleInput>> fleets,
                  const core::SchedulerOptions& options, Context& context);

/// Checks that every old vehicle is served the model its selection chose.
void CheckServedWinners(const std::vector<VehicleInput>& fleet,
                        const std::vector<SelectionOutcome>& outcomes,
                        const std::vector<core::MaintenanceForecast>& served,
                        Report& report);

/// Bit-exact equality of two forecast tables (same order).
bool SameForecasts(const std::vector<core::MaintenanceForecast>& a,
                   const std::vector<core::MaintenanceForecast>& b);

/// FNV-1a fingerprint of a forecast table.
uint64_t Fingerprint(const std::vector<core::MaintenanceForecast>& forecasts);

/// Prints the fingerprint of the run's reference forecast table (the
/// daemon's, or the first fleet's) with the seed, on standard error.
void PrintFingerprint(const Context& context, uint64_t fingerprint);

/// The workloads.
[[nodiscard]] Status RunBatchReference(Context& context);
[[nodiscard]] Status RunServeRead(Context& context);
[[nodiscard]] Status RunServeIngest(Context& context);

}  // namespace bench
}  // namespace nextmaint

#endif  // NEXTMAINT_PERFBENCH_WORKLOADS_H_
