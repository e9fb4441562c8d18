#ifndef NEXTMAINT_COMMON_TELEMETRY_H_
#define NEXTMAINT_COMMON_TELEMETRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

/// \file telemetry.h
/// Fleet observability: a process-wide metrics registry plus scoped tracing.
///
/// The deployed system ("currently under deployment") continuously ingests
/// CAN-bus utilization, retrains per-category models and answers fleet-wide
/// forecast queries across the thread pool — this header makes visible where
/// that time and those errors go. Three instrument kinds cover the needs:
///
///   Counter    monotonically increasing event count (rows parsed,
///              selection winners, ...)
///   Gauge      last-written value (vehicles per category after TrainAll)
///   Histogram  fixed-bucket distribution of observations; the workhorse for
///              wall-time latencies via ScopedTimer / TraceSpan
///
/// Instruments are registered lazily by dotted name ("layer.component.metric",
/// see docs/observability.md for the naming scheme), live for the process
/// lifetime (pointers returned by the registry never dangle, even across
/// Reset) and are updated with relaxed atomics, so concurrent updates from
/// `ParallelFor` workers are safe and lock-free.
///
/// Cost model — telemetry is OFF by default:
///   - Disabled: every instrument update and timer construction short-circuits
///     on one relaxed atomic load, so hot loops (split search, per-row
///     predict) keep their bench timings; perfbench measures no end-to-end
///     difference from a build without the instruments
///     (docs/observability.md).
///   - Enabled (SetEnabled(true), the NEXTMAINT_METRICS env var, or the CLI's
///     --metrics-json flag): name lookups take a short registry mutex; value
///     updates stay lock-free.
///
/// Telemetry never alters computation: forecasts and serialized models are
/// byte-identical with metrics on or off (locked in by the scheduler tests).

namespace nextmaint {
namespace telemetry {

namespace internal {
/// Tri-state enabled flag: -1 = not yet initialized from the environment,
/// otherwise 0/1. Kept in a header-visible atomic so Enabled() inlines to a
/// single relaxed load on the hot path.
extern std::atomic<int> g_enabled;
/// Reads NEXTMAINT_METRICS and latches the flag; returns the decision.
bool InitEnabledFromEnv();
}  // namespace internal

/// True when instruments record. Safe (and cheap) to call from any thread.
inline bool Enabled() {
  const int v = internal::g_enabled.load(std::memory_order_relaxed);
  if (v >= 0) return v != 0;
  return internal::InitEnabledFromEnv();
}

/// Turns recording on or off at runtime (overrides the env default).
void SetEnabled(bool enabled);

/// Monotonically increasing event counter.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    if (Enabled()) value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written value (point-in-time measurements).
class Gauge {
 public:
  void Set(double value);
  void Add(double delta);
  double value() const;
  void Reset();

 private:
  std::atomic<uint64_t> bits_{0};  // bit pattern of the double
};

/// Fixed-bucket histogram: observations are counted into the first bucket
/// whose upper bound is >= the value; values above every bound land in an
/// implicit overflow bucket. Also tracks count/sum/min/max exactly.
class Histogram {
 public:
  /// `bounds` must be ascending and non-empty.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  friend class MetricsRegistry;

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> bucket_counts_;  // bounds_+1 slots
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};
  std::atomic<uint64_t> min_bits_;
  std::atomic<uint64_t> max_bits_;
};

/// One finished TraceSpan, collected into the registry (capped; see
/// MetricsSnapshot::spans_dropped).
struct SpanRecord {
  std::string name;
  /// Name of the enclosing span on the same thread; empty for roots. Spans
  /// opened inside thread-pool workers have no parent (the parent lives on
  /// the scheduling thread), so per-vehicle spans appear as roots.
  std::string parent;
  /// Start offset from the registry epoch (process start), in seconds.
  double start_seconds = 0.0;
  double seconds = 0.0;
};

/// Point-in-time copy of one histogram's state.
struct HistogramSnapshot {
  std::vector<double> bounds;
  /// bounds.size() + 1 entries; the last is the overflow bucket.
  std::vector<uint64_t> bucket_counts;
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;  ///< 0 when count == 0
};

/// Structured snapshot of every registered instrument plus the span tree
/// (spans reference their parent by name). Maps are keyed by instrument
/// name, so iteration order is deterministic.
struct MetricsSnapshot {
  bool enabled = false;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  std::vector<SpanRecord> spans;
  uint64_t spans_dropped = 0;
};

/// Process-wide instrument registry.
///
/// Thread-safe: registration and Snapshot take a mutex; instrument updates
/// are lock-free. Returned pointers stay valid for the process lifetime —
/// Reset() zeroes values but never removes instruments, so call sites may
/// cache them.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Finds or lazily registers the named instrument. A histogram's bucket
  /// bounds are fixed at first registration; later calls ignore `bounds`.
  /// Passing empty `bounds` selects the default wall-time buckets
  /// (100 us .. 60 s).
  Counter* GetCounter(const std::string& name) EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds = {})
      EXCLUDES(mu_);

  /// Appends one finished span (dropped beyond the collection cap).
  void RecordSpan(SpanRecord span) EXCLUDES(mu_);

  /// Consistent point-in-time copy of every instrument and collected span.
  MetricsSnapshot Snapshot() const EXCLUDES(mu_);

  /// Zeroes every instrument and clears the span collection. Instrument
  /// identities (and cached pointers) survive.
  void Reset() EXCLUDES(mu_);

  /// Seconds elapsed since the registry was created.
  double SecondsSinceEpoch() const;

 private:
  MetricsRegistry();

  /// Guards registration and span collection; instrument value updates are
  /// lock-free through the returned pointers (the pointees use relaxed
  /// atomics and never move once registered).
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mu_);
  std::vector<SpanRecord> spans_ GUARDED_BY(mu_);
  uint64_t spans_dropped_ GUARDED_BY(mu_) = 0;
  std::chrono::steady_clock::time_point epoch_;
};

/// One-call helpers: no-ops (including the name lookup) while disabled.
void Count(const std::string& name, uint64_t delta = 1);
void SetGauge(const std::string& name, double value);
void Observe(const std::string& name, double value);

/// RAII wall-time timer recording seconds into a histogram on destruction.
/// Construction while disabled is free (no clock read, no lookup).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram);
  explicit ScopedTimer(const std::string& histogram_name);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

/// RAII trace span: a ScopedTimer over the histogram "<name>.seconds" that
/// additionally records a SpanRecord with its parent (the innermost open
/// TraceSpan on the same thread), forming per-thread span trees.
class TraceSpan {
 public:
  explicit TraceSpan(std::string name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  std::string name_;
  TraceSpan* parent_ = nullptr;
  double start_seconds_ = 0.0;
  std::chrono::steady_clock::time_point start_;
  bool active_ = false;
};

/// Snapshot of the global registry (convenience for
/// MetricsRegistry::Global().Snapshot()).
MetricsSnapshot Snapshot();

/// `after - before`, element-wise: counter/histogram deltas for instruments
/// present in `after`, final gauge values, and the spans recorded after
/// `before` was taken. Histogram min/max are taken from `after`.
MetricsSnapshot SnapshotDelta(const MetricsSnapshot& before,
                              const MetricsSnapshot& after);

/// Human-readable multi-line rendering (one instrument per line).
std::string RenderText(const MetricsSnapshot& snapshot);

/// JSON rendering. Top-level keys: "telemetry", "counters", "gauges",
/// "histograms", "spans" — the schema is documented in
/// docs/observability.md and validated by CI.
std::string RenderJson(const MetricsSnapshot& snapshot);

/// Writes RenderJson(snapshot) to `path` (IOError on failure).
[[nodiscard]] Status WriteJsonFile(const MetricsSnapshot& snapshot,
                     const std::string& path);

}  // namespace telemetry
}  // namespace nextmaint

#endif  // NEXTMAINT_COMMON_TELEMETRY_H_
