#include "record.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <utility>

namespace nextmaint {
namespace bench {

namespace {

constexpr MetricKind kE2e = MetricKind::kEndToEnd;
constexpr MetricKind kLayer = MetricKind::kLayer;

const MetricSpec* FindSpec(std::string_view name) {
  for (const MetricSpec& spec : Catalog()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

/// Shortest decimal that reads back as exactly `value`.
std::string FormatNumber(double value) {
  char buffer[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

/// Metric names, units and workload names are plain ASCII identifiers, so
/// quoting needs no escapes.
std::string Quoted(std::string_view text) {
  std::string quoted(1, '"');
  quoted.append(text);
  quoted.push_back('"');
  return quoted;
}

}  // namespace

const std::vector<MetricSpec>& Catalog() {
  static const std::vector<MetricSpec> kCatalog = {
      // End to end: what the user of each workload sees.
      {"setup_s", "s", kE2e},
      {"latency_p50_ms", "ms", kE2e},
      {"latency_tail_ms", "ms", kE2e},
      {"throughput_per_s", "1/s", kE2e},
      {"peak_rss_mb", "MB", kE2e},
      {"emre_days", "days", kE2e},
      // data
      {"data.read_csv_s", "s", kLayer},
      // core
      {"core.derive_series_s", "s", kLayer},
      {"core.build_dataset_s", "s", kLayer},
      {"core.selection_s", "s", kLayer},
      {"core.vehicle_max_s", "s", kLayer},
      {"core.unified_train_s", "s", kLayer},
      {"core.forecast_us", "us", kLayer},
      {"core.selection_failures", "count", kLayer},
      // common/parallel
      {"common.parallel_efficiency", "ratio", kLayer},
      // ml
      {"ml.fit_s.LR", "s", kLayer},
      {"ml.fit_s.RF", "s", kLayer},
      {"ml.fit_rows.LR", "count", kLayer},
      {"ml.fit_rows.RF", "count", kLayer},
      {"ml.binning_lookups", "count", kLayer},
      {"ml.binning_hit_ratio", "ratio", kLayer},
      {"ml.serialize_s", "s", kLayer},
      {"ml.deserialize_s", "s", kLayer},
      {"ml.model_bytes", "bytes", kLayer},
      // storage
      {"storage.save_s", "s", kLayer},
      {"storage.write_s", "s", kLayer},
      {"storage.load_s", "s", kLayer},
      {"storage.materialize_s", "s", kLayer},
      {"storage.checkpoint_bytes", "bytes", kLayer},
      // serve: client-side view of each request kind
      {"serve.read_p50_us", "us", kLayer},
      {"serve.read_p99_us", "us", kLayer},
      {"serve.read_rps", "1/s", kLayer},
      {"serve.append_rps", "1/s", kLayer},
      {"serve.refresh_s", "s", kLayer},
      // serve: the layers under a request
      {"serve.protocol_encode_us", "us", kLayer},
      {"serve.protocol_decode_us", "us", kLayer},
      {"serve.daemon_read_us", "us", kLayer},
      {"serve.daemon_read_p99_us", "us", kLayer},
      {"serve.engine_read_us", "us", kLayer},
      {"serve.transport_us", "us", kLayer},
      {"serve.daemon_append_us", "us", kLayer},
      {"serve.daemon_append_p99_us", "us", kLayer},
      {"serve.engine_append_us", "us", kLayer},
      {"serve.engine_refresh_s.shard0", "s", kLayer},
      {"serve.engine_refresh_s.shard1", "s", kLayer},
      {"serve.barrier_skew_s", "s", kLayer},
      {"serve.refreshed", "count", kLayer},
      {"serve.reused", "count", kLayer},
      {"serve.overloaded_ratio", "ratio", kLayer},
      // Cost of tracing: traced over plain, for each end-to-end metric
      // that tracing can move (emre_days is computed, not timed).
      {"trace_overhead.setup_s", "ratio", kLayer},
      {"trace_overhead.latency_p50_ms", "ratio", kLayer},
      {"trace_overhead.latency_tail_ms", "ratio", kLayer},
      {"trace_overhead.throughput_per_s", "ratio", kLayer},
      {"trace_overhead.peak_rss_mb", "ratio", kLayer},
  };
  return kCatalog;
}

Report::Report(RunInfo info) : info_(std::move(info)) {}

void Report::Add(const std::string& metric, double value, size_t samples) {
  const MetricSpec* spec = FindSpec(metric);
  if (spec == nullptr) {
    Check(false, "metric '" + metric + "' is not in the catalog");
    return;
  }
  if (!std::isfinite(value)) {
    Check(false, "metric '" + metric + "' is not finite");
    return;
  }
  records_.push_back(Record{metric, value, spec->unit, spec->kind, samples});
}

void Report::CountOps(uint64_t attempted, uint64_t failed,
                      const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::fprintf(stderr, "perfbench: %llu of %llu failed: %s\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted), what.c_str());
  }
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

int Report::Finish() {
  Check(attempted_ > 0, "no operation was attempted");
  const MetricKind summary_kind = info_.traced ? kLayer : kE2e;
  std::string metrics;
  for (const MetricSpec& spec : Catalog()) {
    if (spec.kind != summary_kind) continue;
    auto it = std::find_if(
        records_.begin(), records_.end(),
        [&](const Record& r) { return r.metric == spec.name; });
    if (it == records_.end()) {
      // A layer the workload does not exercise reads 0 with no samples;
      // every end-to-end metric must have been measured.
      Check(summary_kind == kLayer,
            std::string("end-to-end metric '") + spec.name + "' missing");
      records_.push_back(Record{spec.name, 0.0, spec.unit, spec.kind, 0});
      it = records_.end() - 1;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += Quoted(spec.name) + ": {\"value\": " + FormatNumber(it->value) +
               ", \"unit\": " + Quoted(spec.unit) + "}";
  }
  for (const Record& record : records_) {
    std::printf(
        "{\"workload\": %s, \"metric\": %s, \"value\": %s, \"unit\": %s, "
        "\"kind\": %s, \"samples\": %zu, \"seed\": %llu, \"threads\": %d, "
        "\"build_type\": %s, \"mode\": %s}\n",
        Quoted(info_.workload).c_str(), Quoted(record.metric).c_str(),
        FormatNumber(record.value).c_str(), Quoted(record.unit).c_str(),
        record.kind == kE2e ? "\"e2e\"" : "\"layer\"", record.samples,
        static_cast<unsigned long long>(info_.seed), info_.threads,
        Quoted(NEXTMAINT_BENCH_BUILD_TYPE).c_str(),
        info_.traced ? "\"traced\"" : "\"plain\"");
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct_ ? "true" : "false", static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return correct_ && failed_ == 0 ? 0 : 1;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lower = static_cast<size_t>(position);
  const size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

namespace {

/// The `q` quantile of each whole window of kLatencyWindow consecutive
/// values; empty when there are fewer than two windows.
std::vector<double> WindowQuantiles(const std::vector<double>& values,
                                    double q) {
  std::vector<double> quantiles;
  if (values.size() < 2 * kLatencyWindow) return quantiles;
  for (size_t begin = 0; begin + kLatencyWindow <= values.size();
       begin += kLatencyWindow) {
    const auto first = values.begin() + static_cast<std::ptrdiff_t>(begin);
    quantiles.push_back(
        Quantile(std::vector<double>(first, first + kLatencyWindow), q));
  }
  return quantiles;
}

}  // namespace

double CentralLatency(const std::vector<double>& values) {
  const std::vector<double> window_p50 = WindowQuantiles(values, 0.5);
  if (window_p50.empty()) return Median(values);
  return Quantile(window_p50, kWindowQuantile);
}

double TailLatency(const std::vector<double>& values) {
  const std::vector<double> window_p99 = WindowQuantiles(values, 0.99);
  if (!window_p99.empty()) return Quantile(window_p99, kWindowQuantile);
  const size_t n = values.size();
  return Quantile(values, n >= 1000 ? 0.99 : n >= 100 ? 0.9 : 0.5);
}

double WindowRate(const std::vector<double>& done_s) {
  if (done_s.size() < 2 * kLatencyWindow) {
    return static_cast<double>(done_s.size()) / done_s.back();
  }
  std::vector<double> rates;
  double start = 0.0;
  for (size_t end = kLatencyWindow; end <= done_s.size();
       end += kLatencyWindow) {
    rates.push_back(static_cast<double>(kLatencyWindow) /
                    (done_s[end - 1] - start));
    start = done_s[end - 1];
  }
  return Quantile(rates, 1.0 - kWindowQuantile);
}

}  // namespace bench
}  // namespace nextmaint
