#ifndef NEXTMAINT_CLI_CLI_H_
#define NEXTMAINT_CLI_CLI_H_

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

/// \file cli.h
/// The `nextmaint` command-line tool, as a library so every command is unit
/// testable. The binary in tools/nextmaint_cli.cc is a thin dispatcher.
///
/// Commands (UsageText lists every flag each one takes):
///   simulate --out DIR [--vehicles N] [--days N] [--seed S] [--weather]
///       Simulate a fleet and write one CSV per vehicle (date,utilization_s)
///       plus fleet.csv with the vehicle inventory.
///   compact --data DIR --out FILE
///       Stream the fleet's per-vehicle CSVs into one compacted binary
///       corpus (docs/storage.md): column blocks behind a small index, so
///       later runs skip CSV parsing. Every fleet command accepts the
///       corpus file in place of the CSV directory (--data FILE).
///   forecast --data DIR [--tv SECONDS] [--window W] [--save-models FILE]
///       Load per-vehicle CSVs, train the scheduler, print the fleet
///       forecast; optionally persist the trained models as a segmented
///       mmap checkpoint (docs/storage.md).
///   plan --data DIR [--capacity N] [--horizon DAYS] [--weekends]
///       Forecast, then book workshop slots under capacity constraints.
///   evaluate --data DIR [--tv SECONDS] [--window W] [--last29]
///       Compare the five paper algorithms per vehicle (E_MRE / E_Global).
///   serve --data DIR [--tv SECONDS] [--window W] [--replay-days N]
///         [--refresh-every N]
///       Replay the trailing days of each vehicle series through the
///       incremental serving engine: bulk-load the leading history, then
///       append day by day and refresh only the dirty vehicles, printing
///       per-refresh stats and the final fleet snapshot (docs/serving.md).
///   serve --daemon --data DIR (--socket PATH | --port N) [--shards N]
///         [--max-queue N] [--batch-window N] [--tv SECONDS] [--window W]
///       Long-running sharded daemon: bulk-load the fleet, publish an
///       initial snapshot, then serve the versioned length-prefixed binary
///       protocol (docs/serving.md) over a unix socket or TCP loopback
///       until a client sends Shutdown. Vehicles are sharded by stable
///       hash across --shards ServingEngines; writes queue per shard
///       (bounded by --max-queue, Overloaded beyond that) and
///       --batch-window N auto-refreshes a shard every N applied appends.
///
/// Every command returns a Status; errors print nothing to `out` besides
/// what was already produced.
///
/// Fleet commands degrade per vehicle by default: unreadable CSVs and
/// failing per-vehicle training/forecasting are reported on `out` and the
/// rest of the fleet is served (BL fallback where possible). `--strict`
/// restores fail-fast, and `--failpoints SPEC` arms deterministic fault
/// injection for chaos drills. See docs/fault-injection.md.

namespace nextmaint {
namespace cli {

/// Parsed command line: flag values by name (without leading dashes) and
/// positional arguments in order.
struct ParsedArgs {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  bool HasFlag(const std::string& name) const {
    return flags.count(name) > 0;
  }
  /// Flag value or `fallback` when absent.
  std::string FlagOr(const std::string& name, std::string fallback) const;
  /// Integer flag; DataError on unparsable values.
  [[nodiscard]] Result<int64_t> IntFlagOr(const std::string& name, int64_t fallback) const;
  /// Double flag; DataError on unparsable values.
  [[nodiscard]] Result<double> DoubleFlagOr(const std::string& name,
                              double fallback) const;
};

/// Parses `--name value`, `--name=value` and bare `--switch` tokens;
/// everything else is positional. A `--switch` immediately followed by
/// another flag (or end of input) stores the empty string.
ParsedArgs ParseArgs(const std::vector<std::string>& args);

/// Flags shared by every fleet command, parsed and validated by
/// ParseCommonOptions — one validation path instead of per-command copies.
struct CommonOptions {
  /// --threads N: fleet-level concurrency (0 = all cores).
  int threads = 0;
  /// --strict: fail fast instead of degrading per vehicle.
  bool strict = false;
  /// --metrics-json FILE: telemetry report destination; empty = none.
  std::string metrics_json;
  /// --failpoints SPEC: fault-injection arming spec; empty = none.
  std::string failpoints;
  /// --load-models FILE: checkpoint to load instead of training; empty =
  /// train from the data.
  std::string load_models;
  /// --daemon: run `serve` as the long-running sharded daemon instead of
  /// the one-shot replay.
  bool daemon = false;
  /// --shards N: number of serving shards in daemon mode (>= 1).
  int shards = 1;
  /// --port N: TCP loopback port for the daemon (1..65535); -1 = unset.
  int port = -1;
  /// --socket PATH: unix-domain socket path for the daemon; empty = unset.
  std::string socket_path;
  /// --max-queue N: per-shard bounded write-queue depth (>= 1).
  int64_t max_queue = 1024;
  /// --batch-window N: auto-refresh a shard every N applied appends
  /// (0 = only explicit Refresh requests).
  int64_t batch_window = 0;
};

/// Parses and validates the shared flags. When `args` names a command (its
/// first positional argument, in daemon mode under --daemon), a flag is
/// rejected unless that command's UsageText line names it or it is
/// --metrics-json, --strict or --failpoints, which every command takes.
/// --threads must be a non-negative integer,
/// --metrics-json/--failpoints/--load-models must carry a value when
/// present.
/// Daemon flags go through the same single path: --shards and --max-queue
/// must be >= 1, --batch-window >= 0, --port in 1..65535, and
/// --socket/--port are mutually exclusive. InvalidArgument (with the usage
/// text) otherwise.
[[nodiscard]] Result<CommonOptions> ParseCommonOptions(const ParsedArgs& args);

/// Command entry points. `out` receives human-readable results.
[[nodiscard]] Status RunSimulate(const ParsedArgs& args, std::ostream& out);
[[nodiscard]] Status RunCompact(const ParsedArgs& args, std::ostream& out);
[[nodiscard]] Status RunForecast(const ParsedArgs& args, std::ostream& out);
[[nodiscard]] Status RunPlan(const ParsedArgs& args, std::ostream& out);
[[nodiscard]] Status RunEvaluate(const ParsedArgs& args, std::ostream& out);
[[nodiscard]] Status RunServe(const ParsedArgs& args, std::ostream& out);

/// Dispatches to the command named by the first positional argument.
/// Unknown or missing commands return InvalidArgument with a usage string.
[[nodiscard]] Status RunCommand(const std::vector<std::string>& args, std::ostream& out);

/// One-paragraph usage text.
std::string UsageText();

}  // namespace cli
}  // namespace nextmaint

#endif  // NEXTMAINT_CLI_CLI_H_
