#include "trace.h"

#include <cstdio>
#include <utility>

namespace nextmaint {
namespace bench {

namespace {
// The innermost open span on this thread and its request id. One tracer
// exists per process, so these need no tracer key.
thread_local uint64_t t_open_span = 0;
thread_local uint64_t t_open_request = 0;
}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer) {
  span_.name = name;
  span_.id = tracer->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_open_span;
  span_.request = request != 0 ? request : t_open_request;
  saved_parent_ = t_open_span;
  saved_request_ = t_open_request;
  t_open_span = span_.id;
  t_open_request = span_.request;
  span_.start_ns = tracer->NowNs();
}

Tracer::Scope::Scope(Scope&& other) noexcept
    : tracer_(std::exchange(other.tracer_, nullptr)),
      span_(other.span_),
      saved_parent_(other.saved_parent_),
      saved_request_(other.saved_request_) {}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->NowNs();
  t_open_span = saved_parent_;
  t_open_request = saved_request_;
  tracer_->Close(span_);
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

Tracer::Scope Tracer::Open(const char* name, uint64_t request) {
  if (!enabled_) return Scope();
  return Scope(this, name, request);
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void Tracer::Close(const Span& span) {
  const double seconds =
      static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  MutexLock lock(mu_);
  durations_[span.name].push_back(seconds);
  if (spans_.size() < kMaxStoredSpans) {
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
}

std::vector<double> Tracer::Seconds(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = durations_.find(name);
  return it == durations_.end() ? std::vector<double>() : it->second;
}

size_t Tracer::MemoryBytes() const {
  MutexLock lock(mu_);
  size_t bytes = spans_.capacity() * sizeof(Span);
  for (const auto& [name, seconds] : durations_) {
    bytes += name.capacity() + seconds.capacity() * sizeof(double);
  }
  return bytes;
}

Status Tracer::WriteJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return Status::IOError("cannot write " + path);
  MutexLock lock(mu_);
  std::fprintf(file, "{\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "%s\n{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"id\": %llu, \"parent\": %llu, \"request\": %llu}",
                 i == 0 ? "" : ",", s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(file, "\n], \"dropped\": %llu}\n",
               static_cast<unsigned long long>(dropped_));
  if (std::fclose(file) != 0) return Status::IOError("cannot write " + path);
  return Status::OK();
}

}  // namespace bench
}  // namespace nextmaint
