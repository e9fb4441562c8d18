#include "cli/cli.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "storage/checkpoint_store.h"

namespace nextmaint {
namespace cli {
namespace {

namespace fs = std::filesystem;

TEST(ParseArgsTest, FlagForms) {
  const ParsedArgs args = ParseArgs(
      {"simulate", "--out", "/tmp/x", "--days=42", "--weather", "--seed",
       "7", "extra"});
  EXPECT_EQ(args.positional, (std::vector<std::string>{"simulate", "extra"}));
  EXPECT_EQ(args.FlagOr("out", ""), "/tmp/x");
  EXPECT_EQ(args.FlagOr("days", ""), "42");
  EXPECT_TRUE(args.HasFlag("weather"));
  EXPECT_EQ(args.flags.at("weather"), "");
  EXPECT_EQ(args.FlagOr("seed", ""), "7");
  EXPECT_FALSE(args.HasFlag("absent"));
  EXPECT_EQ(args.FlagOr("absent", "fallback"), "fallback");
}

TEST(ParseArgsTest, SwitchFollowedByFlag) {
  const ParsedArgs args = ParseArgs({"--weather", "--out", "dir"});
  EXPECT_EQ(args.flags.at("weather"), "");
  EXPECT_EQ(args.flags.at("out"), "dir");
}

TEST(ParseArgsTest, TypedFlagAccessors) {
  const ParsedArgs args = ParseArgs({"--n", "5", "--x", "2.5", "--bad", "z"});
  EXPECT_EQ(args.IntFlagOr("n", 0).ValueOrDie(), 5);
  EXPECT_EQ(args.IntFlagOr("missing", 9).ValueOrDie(), 9);
  EXPECT_DOUBLE_EQ(args.DoubleFlagOr("x", 0.0).ValueOrDie(), 2.5);
  EXPECT_FALSE(args.IntFlagOr("bad", 0).ok());
  EXPECT_FALSE(args.DoubleFlagOr("bad", 0.0).ok());
}

TEST(RunCommandTest, MissingOrUnknownCommand) {
  std::ostringstream out;
  EXPECT_EQ(RunCommand({}, out).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(RunCommand({"teleport"}, out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_NE(RunCommand({"teleport"}, out).message().find("usage"),
            std::string::npos);
}

TEST(RunCommandTest, CommandsValidateRequiredFlags) {
  std::ostringstream out;
  EXPECT_FALSE(RunCommand({"simulate"}, out).ok());
  EXPECT_FALSE(RunCommand({"forecast"}, out).ok());
  EXPECT_FALSE(RunCommand({"plan"}, out).ok());
  EXPECT_FALSE(RunCommand({"evaluate"}, out).ok());
  EXPECT_FALSE(RunCommand({"serve"}, out).ok());
}

TEST(ParseCommonOptionsTest, DefaultsAndHappyPath) {
  const CommonOptions defaults =
      ParseCommonOptions(ParseArgs({"forecast"})).ValueOrDie();
  EXPECT_EQ(defaults.threads, 0);
  EXPECT_FALSE(defaults.strict);
  EXPECT_TRUE(defaults.metrics_json.empty());
  EXPECT_TRUE(defaults.failpoints.empty());
  EXPECT_TRUE(defaults.load_models.empty());

  const CommonOptions parsed =
      ParseCommonOptions(ParseArgs({"forecast", "--threads", "4", "--strict",
                                    "--metrics-json", "m.json",
                                    "--load-models", "ckpt.txt"}))
          .ValueOrDie();
  EXPECT_EQ(parsed.threads, 4);
  EXPECT_TRUE(parsed.strict);
  EXPECT_EQ(parsed.metrics_json, "m.json");
  EXPECT_EQ(parsed.load_models, "ckpt.txt");
}

TEST(ParseCommonOptionsTest, AcceptsExactlyTheDocumentedFlags) {
  // Undocumented flags are errors, not silent defaults: a removed flag, a
  // typo and a flag only another command (or mode) reads all fail before
  // any work starts.
  for (const auto& bad : std::vector<std::vector<std::string>>{
           {"serve", "--data", "fleet", "--warm-start"},
           {"forecast", "--data", "fleet", "--tunee"},
           {"simulate", "--out", "fleet", "--tune"},
           {"evaluate", "--data", "fleet", "--threads"},
           {"plan", "--data", "fleet", "--save-models"},
           {"serve", "--data", "fleet", "--load-models"},
           {"serve", "--data", "fleet", "--port"},
           {"serve", "--daemon", "--data", "fleet", "--replay-days"}}) {
    const auto result = ParseCommonOptions(ParseArgs(bad));
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << bad.back();
    EXPECT_NE(result.status().message().find("unknown flag " + bad.back()),
              std::string::npos)
        << result.status();
    EXPECT_NE(result.status().message().find("usage"), std::string::npos);
    std::ostringstream out;
    EXPECT_EQ(RunCommand(bad, out).code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(out.str().empty()) << out.str();
  }
  // This simulate line once exited 0 and ignored both flags.
  std::ostringstream out;
  const Status status =
      RunCommand({"simulate", "--out", "fleet", "--vehicles", "1", "--days",
                  "50", "--tune", "--capacity", "3"},
                 out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--tune"), std::string::npos) << status;

  // Every flag a command's usage line names parses under that command;
  // "1" is a valid value for each. A line is "  <command> <flags>", and a
  // line that starts with spaces only continues the one above it.
  std::istringstream usage(UsageText());
  std::string line;
  std::getline(usage, line);  // "usage: ..."
  std::getline(usage, line);  // "commands:"
  std::vector<std::vector<std::string>> commands;
  while (std::getline(usage, line) && line.starts_with("  ")) {
    if (line[2] != ' ') {
      commands.push_back({line.substr(2, line.find(' ', 2) - 2)});
    }
    for (size_t at = line.find("--"); at != std::string::npos;
         at = line.find("--", at + 2)) {
      size_t end = at + 2;
      while (end < line.size() &&
             (std::islower(static_cast<unsigned char>(line[end])) ||
              std::isdigit(static_cast<unsigned char>(line[end])) ||
              line[end] == '-')) {
        ++end;
      }
      commands.back().push_back(line.substr(at, end - at));
    }
  }
  ASSERT_EQ(commands.size(), 7u);
  size_t documented = 0;
  for (const std::vector<std::string>& command : commands) {
    const bool daemon =
        std::ranges::find(command, "--daemon") != command.end();
    for (size_t i = 1; i < command.size(); ++i) {
      std::vector<std::string> argv = {command[0], command[i], "1"};
      if (daemon) argv.push_back("--daemon");
      const auto result = ParseCommonOptions(ParseArgs(argv));
      EXPECT_TRUE(result.ok()) << command[0] << " " << command[i] << ": "
                               << result.status();
      ++documented;
    }
    // Every command also takes the run flags.
    EXPECT_TRUE(
        ParseCommonOptions(ParseArgs({command[0], "--strict", "--metrics-json",
                                      "m.json"}))
            .ok())
        << command[0];
  }
  EXPECT_GE(documented, 40u);
}

TEST(ParseCommonOptionsTest, RejectsMalformedValues) {
  // One validation path for every command: bad shared flags fail the same
  // way no matter which command carries them.
  for (const auto& bad : std::vector<std::vector<std::string>>{
           {"--threads", "abc"},
           {"--threads", "-3"},
           {"--metrics-json"},
           {"--load-models"}}) {
    const auto result = ParseCommonOptions(ParseArgs(bad));
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << bad.front();
    EXPECT_NE(result.status().message().find("usage"), std::string::npos)
        << bad.front();
  }
}

TEST(ParseCommonOptionsTest, FailpointsSpecRequiresValue) {
  EXPECT_EQ(ParseCommonOptions(ParseArgs({"--failpoints"})).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseCommonOptions(ParseArgs({"--failpoints", "serve.refresh"}))
                .ValueOrDie()
                .failpoints,
            "serve.refresh");
}

class CliPipelineTest : public testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest -j runs suite members as concurrent processes
    // and a shared directory would race SetUp's remove_all.
    dir_ = fs::path(testing::TempDir()) /
           (std::string("nextmaint_cli_test_") +
            testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Dir() const { return dir_.string(); }

  fs::path dir_;
};

TEST_F(CliPipelineTest, SimulateWritesFleetCsvs) {
  std::ostringstream out;
  ASSERT_TRUE(RunCommand({"simulate", "--out", Dir(), "--vehicles", "3",
                          "--days", "400", "--tv", "500000"},
                         out)
                  .ok());
  EXPECT_NE(out.str().find("wrote 3 vehicle series"), std::string::npos);
  EXPECT_TRUE(fs::exists(dir_ / "v1.csv"));
  EXPECT_TRUE(fs::exists(dir_ / "v3.csv"));
  EXPECT_TRUE(fs::exists(dir_ / "fleet.csv"));

  // The per-vehicle CSV has the documented schema.
  std::ifstream file(dir_ / "v1.csv");
  std::string header;
  std::getline(file, header);
  EXPECT_EQ(header, "date,utilization_s");
}

TEST_F(CliPipelineTest, SimulateForecastRoundTrip) {
  std::ostringstream out;
  ASSERT_TRUE(RunCommand({"simulate", "--out", Dir(), "--vehicles", "3",
                          "--days", "600", "--tv", "500000"},
                         out)
                  .ok());
  std::ostringstream forecast_out;
  ASSERT_TRUE(RunCommand({"forecast", "--data", Dir(), "--tv", "500000",
                          "--window", "3"},
                         forecast_out)
                  .ok());
  const std::string text = forecast_out.str();
  EXPECT_NE(text.find("v1"), std::string::npos);
  EXPECT_NE(text.find("v3"), std::string::npos);
  EXPECT_NE(text.find("old"), std::string::npos);
}

TEST_F(CliPipelineTest, ForecastSavesModels) {
  std::ostringstream out;
  ASSERT_TRUE(RunCommand({"simulate", "--out", Dir(), "--vehicles", "2",
                          "--days", "600", "--tv", "500000"},
                         out)
                  .ok());
  const std::string model_path = (dir_ / "models.ckpt").string();
  std::ostringstream forecast_out;
  ASSERT_TRUE(RunCommand({"forecast", "--data", Dir(), "--tv", "500000",
                          "--window", "3", "--save-models", model_path},
                         forecast_out)
                  .ok());
  // Checkpoints are written in the segmented mmap format.
  EXPECT_EQ(storage::SniffCheckpointFormat(model_path).ValueOrDie(),
            storage::CheckpointFormat::kSegmented);
}

TEST_F(CliPipelineTest, CompactedCorpusForecastsIdenticallyToCsvs) {
  std::ostringstream out;
  ASSERT_TRUE(RunCommand({"simulate", "--out", Dir(), "--vehicles", "3",
                          "--days", "600", "--tv", "500000"},
                         out)
                  .ok());
  std::ostringstream csv_out;
  ASSERT_TRUE(RunCommand({"forecast", "--data", Dir(), "--tv", "500000",
                          "--window", "3"},
                         csv_out)
                  .ok());

  const std::string corpus_path = (dir_ / "fleet.nmc").string();
  std::ostringstream compact_out;
  ASSERT_TRUE(RunCommand({"compact", "--data", Dir(), "--out", corpus_path,
                          "--tv", "500000"},
                         compact_out)
                  .ok());
  EXPECT_NE(compact_out.str().find("compacted 3 vehicle(s)"),
            std::string::npos);

  // `--data FILE` routes through the corpus reader and must reproduce the
  // CSV-path forecasts byte for byte (f64 columns round-trip exactly).
  std::ostringstream corpus_out;
  ASSERT_TRUE(RunCommand({"forecast", "--data", corpus_path, "--tv", "500000",
                          "--window", "3"},
                         corpus_out)
                  .ok());
  EXPECT_EQ(corpus_out.str(), csv_out.str());
}

TEST_F(CliPipelineTest, CompactValidatesItsFlags) {
  std::ostringstream out;
  EXPECT_EQ(RunCommand({"compact", "--data", Dir()}, out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunCommand({"compact", "--out", Dir() + "/x.nmc"}, out).code(),
            StatusCode::kInvalidArgument);
  // A regular file that is not a corpus cannot serve as --data.
  ASSERT_TRUE(RunCommand({"simulate", "--out", Dir(), "--vehicles", "1",
                          "--days", "400", "--tv", "500000"},
                         out)
                  .ok());
  std::ostringstream forecast_out;
  EXPECT_EQ(RunCommand({"forecast", "--data", (dir_ / "v1.csv").string(),
                        "--tv", "500000"},
                       forecast_out)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CliPipelineTest, PlanBooksEveryVehicle) {
  std::ostringstream out;
  ASSERT_TRUE(RunCommand({"simulate", "--out", Dir(), "--vehicles", "3",
                          "--days", "600", "--tv", "500000"},
                         out)
                  .ok());
  std::ostringstream plan_out;
  ASSERT_TRUE(RunCommand({"plan", "--data", Dir(), "--tv", "500000",
                          "--window", "3", "--capacity", "2", "--horizon",
                          "120", "--weekends"},
                         plan_out)
                  .ok());
  EXPECT_NE(plan_out.str().find("workshop plan"), std::string::npos);
  EXPECT_NE(plan_out.str().find("total cost"), std::string::npos);
}

TEST_F(CliPipelineTest, EvaluateComparesAlgorithms) {
  std::ostringstream out;
  ASSERT_TRUE(RunCommand({"simulate", "--out", Dir(), "--vehicles", "1",
                          "--days", "600", "--tv", "500000"},
                         out)
                  .ok());
  std::ostringstream eval_out;
  ASSERT_TRUE(RunCommand({"evaluate", "--data", Dir(), "--tv", "500000",
                          "--window", "3", "--last29"},
                         eval_out)
                  .ok());
  for (const char* algorithm : {"BL", "LR", "LSVR", "RF", "XGB"}) {
    EXPECT_NE(eval_out.str().find(algorithm), std::string::npos);
  }
}

TEST_F(CliPipelineTest, ForecastOnMissingDirectoryFails) {
  std::ostringstream out;
  EXPECT_EQ(RunCommand({"forecast", "--data", Dir() + "/nope"}, out).code(),
            StatusCode::kNotFound);
}

TEST_F(CliPipelineTest, ForecastRejectsNegativeInterval) {
  std::ostringstream out;
  ASSERT_TRUE(RunCommand({"simulate", "--out", Dir(), "--vehicles", "2",
                          "--days", "400", "--tv", "500000"},
                         out)
                  .ok());
  const Status status =
      RunCommand({"forecast", "--data", Dir(), "--tv", "-5"}, out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("maintenance_interval_s"), std::string::npos)
      << status.message();
}

TEST_F(CliPipelineTest, CorruptCsvSurfacesDataError) {
  // With every vehicle corrupt there is nothing to degrade to: the error
  // surfaces even in the default (non-strict) mode.
  fs::create_directories(dir_);
  std::ofstream bad(dir_ / "vbad.csv");
  bad << "date,utilization_s\n2015-01-01,10,EXTRA\n";
  bad.close();
  std::ostringstream out;
  const Status status = RunCommand({"forecast", "--data", Dir()}, out);
  EXPECT_EQ(status.code(), StatusCode::kDataError);
}

TEST_F(CliPipelineTest, CorruptVehicleSkippedUnlessStrict) {
  std::ostringstream out;
  ASSERT_TRUE(RunCommand({"simulate", "--out", Dir(), "--vehicles", "2",
                          "--days", "600", "--tv", "500000"},
                         out)
                  .ok());
  std::ofstream bad(dir_ / "vbad.csv");
  bad << "date,utilization_s\n2015-01-01,10,EXTRA\n";
  bad.close();

  // Default mode: the corrupt vehicle is skipped (and reported), the two
  // healthy vehicles are still forecast.
  std::ostringstream degraded_out;
  ASSERT_TRUE(RunCommand({"forecast", "--data", Dir(), "--tv", "500000",
                          "--window", "3"},
                         degraded_out)
                  .ok());
  const std::string text = degraded_out.str();
  EXPECT_NE(text.find("skipped vehicle vbad"), std::string::npos) << text;
  EXPECT_NE(text.find("v1"), std::string::npos);
  EXPECT_NE(text.find("v2"), std::string::npos);

  // --strict restores fail-fast on the same fleet.
  std::ostringstream strict_out;
  const Status strict_status =
      RunCommand({"forecast", "--data", Dir(), "--tv", "500000", "--window",
                  "3", "--strict"},
                 strict_out);
  EXPECT_EQ(strict_status.code(), StatusCode::kDataError);
}

TEST_F(CliPipelineTest, MalformedThreadsFlagRejectedWithUsage) {
  std::ostringstream out;
  ASSERT_TRUE(RunCommand({"simulate", "--out", Dir(), "--vehicles", "1",
                          "--days", "600", "--tv", "500000"},
                         out)
                  .ok());
  for (const char* bad_value : {"abc", "-3", "2.5", ""}) {
    std::ostringstream forecast_out;
    const Status status =
        RunCommand({"forecast", "--data", Dir(), "--tv", "500000",
                    "--threads", bad_value},
                   forecast_out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad_value;
    EXPECT_NE(status.message().find("--threads expects a non-negative"),
              std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("usage"), std::string::npos);
  }
}

TEST_F(CliPipelineTest, MetricsJsonFlagWritesParsableReport) {
  std::ostringstream out;
  ASSERT_TRUE(RunCommand({"simulate", "--out", Dir(), "--vehicles", "2",
                          "--days", "600", "--tv", "500000"},
                         out)
                  .ok());
  const std::string metrics_path = (dir_ / "metrics.json").string();
  std::ostringstream forecast_out;
  ASSERT_TRUE(RunCommand({"forecast", "--data", Dir(), "--tv", "500000",
                          "--window", "3", "--metrics-json", metrics_path},
                         forecast_out)
                  .ok());
  EXPECT_NE(forecast_out.str().find("metrics written to"), std::string::npos);

  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  const std::string json = contents.str();
  // The stable report surface: phase timings and fleet-shape gauges.
  EXPECT_NE(json.find("\"telemetry\""), std::string::npos);
  EXPECT_NE(json.find("\"scheduler.train.seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"scheduler.forecast.seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"scheduler.fleet.vehicles.old\""), std::string::npos);
  EXPECT_NE(json.find("\"data.csv.rows_parsed\""), std::string::npos);

  // A bare --metrics-json with no path is rejected up front.
  std::ostringstream bare_out;
  EXPECT_EQ(RunCommand({"forecast", "--data", Dir(), "--metrics-json"},
                       bare_out)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CliPipelineTest, ForecastLoadsSavedModels) {
  std::ostringstream out;
  ASSERT_TRUE(RunCommand({"simulate", "--out", Dir(), "--vehicles", "2",
                          "--days", "600", "--tv", "500000"},
                         out)
                  .ok());
  const std::string model_path = (dir_ / "models.txt").string();
  std::ostringstream train_out;
  ASSERT_TRUE(RunCommand({"forecast", "--data", Dir(), "--tv", "500000",
                          "--window", "3", "--save-models", model_path},
                         train_out)
                  .ok());
  std::ostringstream load_out;
  ASSERT_TRUE(RunCommand({"forecast", "--data", Dir(), "--tv", "500000",
                          "--window", "3", "--load-models", model_path},
                         load_out)
                  .ok());
  // Skipping training must not change the forecast table (the training run
  // only appends its "models saved to" confirmation).
  EXPECT_EQ(train_out.str(),
            load_out.str() + "models saved to " + model_path + "\n");

  std::ostringstream missing_out;
  EXPECT_EQ(RunCommand({"forecast", "--data", Dir(), "--tv", "500000",
                        "--window", "3", "--load-models",
                        (dir_ / "nope.txt").string()},
                       missing_out)
                .code(),
            StatusCode::kIOError);
}

TEST_F(CliPipelineTest, ServeReplayMatchesBatchForecast) {
  std::ostringstream out;
  ASSERT_TRUE(RunCommand({"simulate", "--out", Dir(), "--vehicles", "3",
                          "--days", "600", "--tv", "500000"},
                         out)
                  .ok());
  std::ostringstream batch_out;
  ASSERT_TRUE(RunCommand({"forecast", "--data", Dir(), "--tv", "500000",
                          "--window", "3"},
                         batch_out)
                  .ok());
  std::ostringstream serve_out;
  ASSERT_TRUE(RunCommand({"serve", "--data", Dir(), "--tv", "500000",
                          "--window", "3", "--replay-days", "7",
                          "--refresh-every", "2"},
                         serve_out)
                  .ok());
  const std::string text = serve_out.str();
  // The replay narrates its refreshes and ends on the snapshot.
  EXPECT_NE(text.find("refresh epoch 1:"), std::string::npos) << text;
  EXPECT_NE(text.find("fleet snapshot at epoch"), std::string::npos);
  // Bit-identity through the CLI: the final snapshot table is byte-equal
  // to the batch forecast over the same data.
  EXPECT_NE(text.find(batch_out.str()), std::string::npos)
      << "serve table diverged from batch forecast\n"
      << text << "\n---\n" << batch_out.str();
}

TEST_F(CliPipelineTest, ServeValidatesFlags) {
  std::ostringstream out;
  ASSERT_TRUE(RunCommand({"simulate", "--out", Dir(), "--vehicles", "1",
                          "--days", "600", "--tv", "500000"},
                         out)
                  .ok());
  std::ostringstream serve_out;
  // serve trains incrementally; checkpoints cannot seed it.
  EXPECT_EQ(RunCommand({"serve", "--data", Dir(), "--load-models", "x.txt"},
                       serve_out)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunCommand({"serve", "--data", Dir(), "--replay-days", "0"},
                       serve_out)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunCommand({"serve", "--data", Dir(), "--refresh-every", "-1"},
                       serve_out)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ParseCommonOptionsTest, DaemonFlagsHappyPath) {
  const CommonOptions defaults =
      ParseCommonOptions(ParseArgs({"serve"})).ValueOrDie();
  EXPECT_FALSE(defaults.daemon);
  EXPECT_EQ(defaults.shards, 1);
  EXPECT_EQ(defaults.port, -1);
  EXPECT_TRUE(defaults.socket_path.empty());
  EXPECT_EQ(defaults.max_queue, 1024);
  EXPECT_EQ(defaults.batch_window, 0);

  const CommonOptions tcp =
      ParseCommonOptions(ParseArgs({"serve", "--daemon", "--shards", "4",
                                    "--port", "9090", "--max-queue", "64",
                                    "--batch-window", "10"}))
          .ValueOrDie();
  EXPECT_TRUE(tcp.daemon);
  EXPECT_EQ(tcp.shards, 4);
  EXPECT_EQ(tcp.port, 9090);
  EXPECT_EQ(tcp.max_queue, 64);
  EXPECT_EQ(tcp.batch_window, 10);

  const CommonOptions unix_socket =
      ParseCommonOptions(
          ParseArgs({"serve", "--daemon", "--socket", "/tmp/d.sock"}))
          .ValueOrDie();
  EXPECT_EQ(unix_socket.socket_path, "/tmp/d.sock");
  EXPECT_EQ(unix_socket.port, -1);
}

TEST(ParseCommonOptionsTest, DaemonFlagErrorCodesPinned) {
  // The daemon flags ride the same single validation path as every other
  // shared flag: InvalidArgument with the usage text, for each of them.
  for (const auto& bad : std::vector<std::vector<std::string>>{
           {"--shards", "0"},
           {"--shards", "-2"},
           {"--shards", "abc"},
           {"--max-queue", "0"},
           {"--max-queue", "x"},
           {"--batch-window", "-1"},
           {"--port", "0"},
           {"--port", "70000"},
           {"--port", "nope"},
           {"--socket"},
           {"--socket", "/tmp/d.sock", "--port", "9090"}}) {
    const auto result = ParseCommonOptions(ParseArgs(bad));
    ASSERT_FALSE(result.ok()) << bad.front();
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << bad.front();
    EXPECT_NE(result.status().message().find("usage"), std::string::npos)
        << bad.front();
  }
}

TEST_F(CliPipelineTest, ServeDaemonRequiresAnEndpoint) {
  std::ostringstream out;
  ASSERT_TRUE(RunCommand({"simulate", "--out", Dir(), "--vehicles", "1",
                          "--days", "100", "--tv", "500000"},
                         out)
                  .ok());
  std::ostringstream serve_out;
  const Status status =
      RunCommand({"serve", "--daemon", "--data", Dir()}, serve_out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--socket"), std::string::npos);

  // And conversely: the endpoint flags are daemon-only.
  std::ostringstream replay_out;
  EXPECT_EQ(RunCommand({"serve", "--data", Dir(), "--port", "9090"},
                       replay_out)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CliPipelineTest, ServeDaemonEndToEndOverUnixSocket) {
  std::ostringstream out;
  ASSERT_TRUE(RunCommand({"simulate", "--out", Dir(), "--vehicles", "3",
                          "--days", "300", "--tv", "500000"},
                         out)
                  .ok());
  // A short socket path: sockaddr_un caps at ~108 bytes and TempDir-based
  // test names can get long.
  const std::string socket_path =
      "/tmp/nextmaint_cli_e2e_" + std::to_string(::getpid()) + ".sock";

  std::ostringstream daemon_out;
  Status daemon_status;
  std::thread daemon_thread([&]() {
    daemon_status = RunCommand(
        {"serve", "--daemon", "--data", Dir(), "--tv", "500000", "--window",
         "3", "--socket", socket_path, "--shards", "2"},
        daemon_out);
  });

  // The daemon bulk-loads and trains the fleet before binding; poll until
  // the socket accepts.
  serve::DaemonClient client;
  Status connected;
  for (int attempt = 0; attempt < 600; ++attempt) {
    connected = client.ConnectUnix(socket_path);
    if (connected.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(connected.ok()) << connected;

  // The bulk-loaded fleet is already readable.
  const auto warm = client.GetForecasts({"v1", "v2", "v3"});
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_EQ(warm.ValueOrDie().entries.size(), 3u);
  for (const auto& entry : warm.ValueOrDie().entries) {
    EXPECT_EQ(entry.status_code, StatusCode::kOk) << entry.vehicle_id;
  }

  // Live traffic: a new vehicle appears, gets data, and is served after
  // the next refresh barrier.
  const Date day0 = Date::FromYmd(2016, 1, 1).ValueOrDie();
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(client.Append("live", day0.AddDays(i), 15'000.0).ok());
  }
  const auto refreshed = client.Refresh();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status();
  EXPECT_EQ(refreshed.ValueOrDie().shards, 2u);
  const auto live = client.GetForecasts({"live"});
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_EQ(live.ValueOrDie().entries.size(), 1u);
  EXPECT_EQ(live.ValueOrDie().entries[0].status_code, StatusCode::kOk);

  const auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats.ValueOrDie().appends, 40u);
  EXPECT_EQ(stats.ValueOrDie().shards.size(), 2u);

  ASSERT_TRUE(client.RequestShutdown().ok());
  daemon_thread.join();
  client.Close();
  EXPECT_TRUE(daemon_status.ok()) << daemon_status;
  const std::string text = daemon_out.str();
  EXPECT_NE(text.find("daemon serving 3 vehicle(s)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("daemon stopped:"), std::string::npos) << text;
  EXPECT_FALSE(fs::exists(socket_path));
}

}  // namespace
}  // namespace cli
}  // namespace nextmaint
