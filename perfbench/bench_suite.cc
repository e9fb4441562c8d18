// The nextmaint benchmark: runs one seeded workload for a fixed
// measured time, checks the program's outputs, and prints one JSON record
// per metric followed by the run's summary line (see record.h and
// perfbench/README.md).
//
//   bench_suite --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--trace-out FILE] [--smoke]
//
// perfbench/run.py builds this binary and runs it from the checkout root;
// each run's own directory lives under .bench_build/work there.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>

#include "common/parallel.h"
#include "common/telemetry.h"
#include "workloads.h"

namespace {

namespace bench = nextmaint::bench;

struct Workload {
  const char* name;
  /// Training threads of the timed program.
  int threads;
  nextmaint::Status (*run)(bench::Context&);
};

constexpr Workload kWorkloads[] = {
    {"batch_reference", 4, bench::RunBatchReference},
    {"serve_read", 2, bench::RunServeRead},
    {"serve_ingest", 2, bench::RunServeIngest},
};

/// Every thread the program may use for training; serving shards each
/// train on a share of it.
constexpr int kPoolThreads = 4;

int Usage(const std::string& error) {
  std::fprintf(stderr,
               "bench_suite: %s\n"
               "usage: bench_suite --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE] [--smoke]\nworkloads:",
               error.c_str());
  for (const Workload& workload : kWorkloads) {
    std::fprintf(stderr, " %s", workload.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Removes the run's directory when the run ends.
class RunDir {
 public:
  explicit RunDir(std::string path) : path_(std::move(path)) {}
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  ~RunDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

 private:
  std::string path_;
};

}  // namespace

int main(int argc, char** argv) {
  bench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        return Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      options.traced = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage("unknown flag " + std::string(flag));
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (options.workload == candidate.name) workload = &candidate;
  }
  if (workload == nullptr) {
    return Usage("unknown workload '" + options.workload + "'");
  }

  // The plain run measures the program as deployed: telemetry off.
  nextmaint::telemetry::SetEnabled(false);
  nextmaint::ThreadPool::SetDefaultThreadCount(kPoolThreads);
  // Start the pool's workers now, free to run on any CPU: threads inherit
  // the CPU mask of the thread that starts them, and the batch workloads
  // run their set-ups and units pinned (bench::CpuRotation).
  if (!nextmaint::ParallelFor(0, kPoolThreads, 1, [](size_t, size_t) {
         return nextmaint::Status::OK();
       }).ok()) {
    return 2;
  }

  bench::Context context;
  context.options = options;
  context.workdir = ".bench_build/work/" + options.workload + "-" +
                    std::to_string(::getpid());
  std::error_code error;
  std::filesystem::create_directories(context.workdir, error);
  if (error) {
    std::fprintf(stderr, "bench_suite: cannot create %s: %s\n",
                 context.workdir.c_str(), error.message().c_str());
    return 2;
  }
  const RunDir run_dir(context.workdir);
  bench::Report report(
      bench::RunInfo{options.workload, options.seed, workload->threads,
                     options.traced});
  bench::Tracer tracer(options.traced);
  context.report = &report;
  context.tracer = &tracer;

  const nextmaint::Status status = workload->run(context);
  report.Check(status.ok(), "workload stopped: " + status.ToString());
  if (!options.trace_out.empty()) {
    const nextmaint::Status written = tracer.WriteJson(options.trace_out);
    report.Check(written.ok(), written.ToString());
  }
  return report.Finish();
}
