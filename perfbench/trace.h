#ifndef NEXTMAINT_PERFBENCH_TRACE_H_
#define NEXTMAINT_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

/// \file trace.h
/// Span recording for the traced run. Spans are opened only in the
/// benchmark's own code, around its calls into the library's public
/// functions; the library itself is not instrumented. Each span has a
/// name, start, end, parent span (the innermost span open on the same
/// thread) and request id (inherited from the parent when not given).
/// Spans stay in memory; WriteJson writes them out when the run ends.
///
/// A disabled tracer (the plain run) records nothing and costs one branch
/// per span.

namespace nextmaint {
namespace bench {

class Tracer {
 public:
  /// One finished span. Times are nanoseconds since the tracer started.
  struct Span {
    /// Static string: span names are literals.
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t id = 0;
    /// 0 for a root span.
    uint64_t parent = 0;
    /// 0 when the span belongs to no request.
    uint64_t request = 0;
  };

  /// An open span; closes (and is recorded) when destroyed.
  class Scope {
   public:
    Scope(Scope&& other) noexcept;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope& operator=(Scope&&) = delete;
    ~Scope();

   private:
    friend class Tracer;
    /// The no-op scope a disabled tracer hands out.
    Scope() = default;
    Scope(Tracer* tracer, const char* name, uint64_t request);

    Tracer* tracer_ = nullptr;
    Span span_;
    uint64_t saved_parent_ = 0;
    uint64_t saved_request_ = 0;
  };

  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span named `name` (a string literal).
  [[nodiscard]] Scope Open(const char* name, uint64_t request = 0);

  /// Durations in seconds of every span named `name` so far, in the order
  /// they closed. Kept for every span, including those beyond the cap on
  /// stored spans.
  std::vector<double> Seconds(const std::string& name) const EXCLUDES(mu_);

  /// Bytes held by the recorded spans (the memory tracing adds).
  size_t MemoryBytes() const EXCLUDES(mu_);

  /// Writes {"spans": [...], "dropped": N} to `path`.
  [[nodiscard]] Status WriteJson(const std::string& path) const EXCLUDES(mu_);

 private:
  void Close(const Span& span) EXCLUDES(mu_);
  int64_t NowNs() const;

  /// Spans stored for the trace file; later spans only feed `durations_`.
  static constexpr size_t kMaxStoredSpans = 200'000;

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  std::atomic<uint64_t> next_id_{1};
  mutable Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
  uint64_t dropped_ GUARDED_BY(mu_) = 0;
  std::map<std::string, std::vector<double>> durations_ GUARDED_BY(mu_);
};

}  // namespace bench
}  // namespace nextmaint

#endif  // NEXTMAINT_PERFBENCH_TRACE_H_
