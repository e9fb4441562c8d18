#ifndef NEXTMAINT_PERFBENCH_RECORD_H_
#define NEXTMAINT_PERFBENCH_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

/// \file record.h
/// The benchmark's one output schema. Every measured number is a Record,
/// printed as one JSON line:
///
///   {"workload": "serve_read", "metric": "latency_p50_ms", "value": 0.031,
///    "unit": "ms", "kind": "e2e", "samples": 612034, "seed": 1,
///    "threads": 4, "build_type": "Release", "mode": "plain"}
///
/// and every run ends with one summary line holding exactly the keys
/// "correct", "attempted", "failed" and "metrics". A plain run's summary
/// carries the end-to-end metrics, a traced run's the per-layer ones;
/// perfbench/compare.py reads the record lines.

namespace nextmaint {
namespace bench {

/// End-to-end metrics are what a user of the system sees; layer metrics
/// say where that time goes. BENCHMARK.json lists both sets.
enum class MetricKind { kEndToEnd, kLayer };

/// Identity of one benchmark process, stamped on each of its records.
struct RunInfo {
  std::string workload;
  uint64_t seed = 0;
  /// Training threads of the timed program.
  int threads = 0;
  /// True for the traced run (per-layer metrics), false for the plain run.
  bool traced = false;
};

/// One measured metric.
struct Record {
  std::string metric;
  double value = 0.0;
  std::string unit;
  MetricKind kind = MetricKind::kEndToEnd;
  /// Observations behind the value (1 for a single measurement, 0 for a
  /// layer the workload does not exercise).
  size_t samples = 0;
};

/// The metric catalog: every metric a run can report, with its unit. The
/// names and units match BENCHMARK.json, which perfbench/run.py checks on
/// every run.
struct MetricSpec {
  const char* name;
  const char* unit;
  MetricKind kind;
};
const std::vector<MetricSpec>& Catalog();

/// Collects one run's records, operation counts and correctness verdicts,
/// and prints them.
class Report {
 public:
  explicit Report(RunInfo info);

  const RunInfo& info() const { return info_; }

  /// Adds a metric from the catalog. A non-finite value, or a name or unit
  /// the catalog does not hold, makes the run incorrect.
  void Add(const std::string& metric, double value, size_t samples);

  /// Operation accounting: `attempted` operations of which `failed` failed
  /// (a non-OK response, an Overloaded answer, a degraded vehicle or a
  /// vehicle whose model selection failed). `what` names the failure for
  /// the diagnostics on standard error.
  void CountOps(uint64_t attempted, uint64_t failed, const std::string& what);

  /// Records one correctness check; a false `ok` makes the run incorrect.
  void Check(bool ok, const std::string& what);

  bool correct() const { return correct_; }
  uint64_t failed() const { return failed_; }

  /// Prints every record, then the summary line, and returns the process
  /// exit code: 0 only when the run is correct and no operation failed.
  int Finish();

 private:
  RunInfo info_;
  std::vector<Record> records_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; NaN when empty.
double Quantile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

inline double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

/// Latency samples, in the order they were taken, are summarised over
/// windows of kLatencyWindow consecutive samples once there are at least
/// two such windows: each window gets its own statistic, and the sample's
/// is the lower quartile of the windows' (kWindowQuantile).
///
/// A shared host runs the program at one of two speeds, switching every
/// second or so, and the share of time at the slow one (another tenant
/// busy on the same core) drifts by tens of percent between runs minutes
/// apart. A statistic over a whole run follows that share; the lower
/// quartile of the windows follows the program's speed whenever a quarter
/// of the run's windows ran at full speed. A change to the program moves
/// every window, and with it the lower quartile.
constexpr size_t kLatencyWindow = 10'000;
constexpr double kWindowQuantile = 0.25;

/// The middle of a latency sample: its median, or with windows the lower
/// quartile of the windows' medians.
double CentralLatency(const std::vector<double>& values);

/// The tail of a latency sample: the highest of p99 and p90 that has at
/// least ten samples beyond it, or the median when neither has (fewer than
/// 100 samples). With windows, the lower quartile of the windows' p99s
/// (every window has 100 samples beyond its p99).
double TailLatency(const std::vector<double>& values);

/// Operations per second from the ascending completion times of a closed
/// loop's operations (seconds from the start of measuring): their count
/// over the last one's time, or with windows the upper quartile of the
/// windows' rates, the counterpart of CentralLatency.
double WindowRate(const std::vector<double>& done_s);

}  // namespace bench
}  // namespace nextmaint

#endif  // NEXTMAINT_PERFBENCH_RECORD_H_
