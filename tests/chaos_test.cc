#include <gtest/gtest.h>

#include <filesystem>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.h"
#include "common/date.h"
#include "common/failpoints.h"
#include "common/strings.h"
#include "serve/daemon.h"
#include "serve/protocol.h"

/// Chaos sweep: arm every catalogued failpoint in turn against a small
/// simulated fleet and drive the full CLI pipeline. The contract
/// (docs/fault-injection.md): whatever fails, the run ends in a clean
/// Status or a documented BL fallback — never a crash, hang or NaN in the
/// output — and the outcome is bit-identical at 1 and 4 threads.

namespace nextmaint {
namespace {

namespace fs = std::filesystem;

/// Renders a daemon protocol response with only deterministic fields, so
/// two runs at different thread counts can be compared byte for byte.
void RenderResponse(const serve::protocol::Response& response,
                    std::ostream& out) {
  using namespace serve::protocol;  // NOLINT
  if (std::get_if<AckResponse>(&response) != nullptr) {
    out << "ack\n";
  } else if (const auto* error = std::get_if<ErrorResponse>(&response)) {
    out << "error " << static_cast<int>(error->code) << ": "
        << error->message << "\n";
  } else if (const auto* busy = std::get_if<OverloadedResponse>(&response)) {
    out << "overloaded shard=" << busy->shard << "\n";
  } else if (const auto* done =
                 std::get_if<RefreshDoneResponse>(&response)) {
    out << "refresh epoch=" << done->epoch << " refreshed=" << done->refreshed
        << " reused=" << done->reused << " shards=" << done->shards << "\n";
  } else if (const auto* batch =
                 std::get_if<ForecastBatchResponse>(&response)) {
    for (const ForecastEntry& entry : batch->entries) {
      if (entry.status_code != StatusCode::kOk) {
        out << "forecast " << entry.vehicle_id << " error "
            << static_cast<int>(entry.status_code) << ": "
            << entry.status_message << "\n";
        continue;
      }
      out << "forecast " << entry.vehicle_id << " model="
          << entry.model_name
          << StrFormat(" days_left=%.3f", entry.days_left) << " due="
          << entry.predicted_date.ToString() << " epoch=" << entry.epoch
          << "\n";
    }
  } else {
    out << "stats\n";
  }
}

class ChaosSweepTest : public testing::Test {
 protected:
  void SetUp() override {
    if (!failpoints::CompiledIn()) {
      GTEST_SKIP() << "failpoints compiled out "
                      "(NEXTMAINT_ENABLE_FAILPOINTS=OFF)";
    }
    failpoints::DisarmAll();
    // Unique per test: ctest -j runs suite members as concurrent processes
    // and a shared directory would race SetUp's remove_all.
    dir_ = fs::path(testing::TempDir()) /
           (std::string("nextmaint_chaos_test_") +
            testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    std::ostringstream out;
    ASSERT_TRUE(cli::RunCommand({"simulate", "--out", Dir(), "--vehicles",
                                 "3", "--days", "600", "--tv", "500000"},
                                out)
                    .ok());
    // A healthy model file for the --load-models leg of the sweep.
    models_path_ = (dir_ / "models.txt").string();
    std::ostringstream save_out;
    ASSERT_TRUE(RunPipeline(1, {"--save-models", models_path_}, &save_out)
                    .ok());
  }
  void TearDown() override {
    if (failpoints::CompiledIn()) failpoints::DisarmAll();
    fs::remove_all(dir_);
  }

  std::string Dir() const { return dir_.string(); }

  /// One full forecast run over the simulated fleet.
  Status RunPipeline(int threads, const std::vector<std::string>& extra,
                     std::ostringstream* out) const {
    std::vector<std::string> args = {
        "forecast",  "--data",   Dir(),           "--tv", "500000",
        "--window",  "3",        "--threads",     std::to_string(threads)};
    args.insert(args.end(), extra.begin(), extra.end());
    return cli::RunCommand(args, *out);
  }

  /// One incremental serve replay over the same fleet, for the serve.*
  /// failpoint sites the batch pipeline never reaches (serve.append and
  /// serve.refresh).
  Status RunServePipeline(int threads, std::ostringstream* out) const {
    return cli::RunCommand(
        {"serve", "--data", Dir(), "--tv", "500000", "--window", "3",
         "--replay-days", "20", "--refresh-every", "5", "--threads",
         std::to_string(threads)},
        *out);
  }

  /// One scripted daemon run driven through HandleFrame (no sockets), for
  /// the serve.daemon.* sites: sharded warm-load and appends, a refresh
  /// barrier across two shards, then a batch read. Transport-level faults
  /// surface as rendered error responses, never as a failed harness run.
  Status RunDaemonPipeline(int threads, std::ostringstream* out) const {
    using namespace serve::protocol;  // NOLINT
    serve::DaemonOptions options;
    options.scheduler.maintenance_interval_s = 500000;
    options.scheduler.window = 3;
    options.scheduler.num_threads = threads;
    options.shards = 2;
    serve::FleetDaemon daemon(options);
    const Status started = daemon.Start();
    if (!started.ok()) return started;

    const auto run = [&](const Request& request) {
      const std::vector<uint8_t> frame = EncodeRequest(request);
      const std::vector<uint8_t> reply = daemon.HandleFrame(
          std::span<const uint8_t>(frame).subspan(kLengthPrefixBytes));
      const Result<Response> decoded = DecodeResponse(
          std::span<const uint8_t>(reply).subspan(kLengthPrefixBytes));
      if (!decoded.ok()) {
        *out << "undecodable reply: " << decoded.status().ToString() << "\n";
        return;
      }
      RenderResponse(decoded.ValueOrDie(), *out);
    };

    const Date start = Date::FromYmd(2015, 1, 1).ValueOrDie();
    for (int v = 1; v <= 3; ++v) {
      LoadHistoryRequest load;
      load.vehicle_id = std::string("v") + std::to_string(v);
      load.start_day = start;
      for (int i = 0; i < 120; ++i) {
        load.values.push_back(3000.0 + 500.0 * ((i * 7 + v * 13) % 11));
      }
      run(load);
    }
    for (int day = 0; day < 3; ++day) {
      for (int v = 1; v <= 3; ++v) {
        AppendRequest append;
        append.vehicle_id = std::string("v") + std::to_string(v);
        append.day = start.AddDays(120 + day);
        append.seconds = 4000.0 + 250.0 * ((day * 5 + v) % 7);
        run(append);
      }
    }
    run(RefreshRequest{});
    GetForecastRequest read;
    read.vehicle_ids = {"v1", "v2", "v3", "ghost"};
    run(read);
    daemon.Stop();
    return Status::OK();
  }

  fs::path dir_;
  std::string models_path_;
};

/// The pipeline output and final status of one armed run.
struct ChaosOutcome {
  Status status;
  std::string output;
};

TEST_F(ChaosSweepTest, EverySiteDegradesCleanlyAndDeterministically) {
  for (const std::string& site : failpoints::RegisteredSites()) {
    // `site` alone fires on every hit (total outage of that seam);
    // `site:1` fires on exactly the first vehicle/hit (partial outage, the
    // graceful-degradation case).
    for (const std::string& spec : {site, site + ":1"}) {
      SCOPED_TRACE(spec);
      const bool daemon_site = site.rfind("serve.daemon.", 0) == 0;
      const bool serve_site =
          !daemon_site && site.rfind("serve.", 0) == 0;
      std::vector<std::string> extra;
      if (site == "scheduler.load_models" ||
          site == "storage.checkpoint.open" ||
          site == "storage.checkpoint.map") {
        // Load-path sites: open and map fire when the segmented checkpoint
        // is mmapped. (open also guards the save path's temp file, but the
        // load leg covers it deterministically.)
        extra = {"--load-models", models_path_};
      } else {
        // Save-path sites, including storage.checkpoint.segment_write and
        // storage.checkpoint.commit inside CheckpointStore::SaveAll.
        extra = {"--save-models", (dir_ / "sweep_models.txt").string()};
      }

      uint64_t hits = 0;
      std::vector<ChaosOutcome> outcomes;
      for (int threads : {1, 4}) {
        // Re-arm per run so the uncontexted nth counter restarts: both
        // thread counts must see the very same injection schedule.
        failpoints::DisarmAll();
        ASSERT_TRUE(failpoints::Arm(spec).ok());
        std::ostringstream out;
        ChaosOutcome outcome;
        outcome.status = daemon_site ? RunDaemonPipeline(threads, &out)
                         : serve_site
                             ? RunServePipeline(threads, &out)
                             : RunPipeline(threads, extra, &out);
        outcome.output = out.str();
        hits += failpoints::HitCount(site);
        failpoints::DisarmAll();

        // Clean Status or documented fallback — and never a NaN/Inf
        // leaking into operator-facing output.
        if (!outcome.status.ok()) {
          EXPECT_FALSE(outcome.status.message().empty());
        }
        EXPECT_EQ(outcome.output.find("nan"), std::string::npos)
            << outcome.output;
        EXPECT_EQ(outcome.output.find("inf"), std::string::npos)
            << outcome.output;
        outcomes.push_back(std::move(outcome));
      }

      // The site must actually be wired into the exercised pipeline.
      EXPECT_GT(hits, 0u) << "failpoint '" << site
                          << "' was never evaluated by the sweep";

      // Bit-identical at 1 vs 4 threads: same status, same output bytes.
      ASSERT_EQ(outcomes.size(), 2u);
      EXPECT_EQ(outcomes[0].status.code(), outcomes[1].status.code());
      EXPECT_EQ(outcomes[0].status.message(), outcomes[1].status.message());
      EXPECT_EQ(outcomes[0].output, outcomes[1].output);
    }
  }
}

TEST_F(ChaosSweepTest, PartialTrainingOutageStillServesWholeFleet) {
  failpoints::DisarmAll();
  ASSERT_TRUE(failpoints::Arm("scheduler.train_vehicle:1").ok());
  std::ostringstream out;
  const Status status = RunPipeline(1, {}, &out);
  failpoints::DisarmAll();
  ASSERT_TRUE(status.ok()) << status;
  const std::string text = out.str();
  // The quarantined vehicle is reported and served by the BL fallback...
  EXPECT_NE(text.find("degraded vehicle v1"), std::string::npos) << text;
  EXPECT_NE(text.find("BL_fallback"), std::string::npos) << text;
  // ...and the healthy vehicles still appear in the forecast table.
  EXPECT_NE(text.find("v2"), std::string::npos) << text;
  EXPECT_NE(text.find("v3"), std::string::npos) << text;
}

TEST_F(ChaosSweepTest, StrictModeTurnsInjectionIntoFailFast) {
  failpoints::DisarmAll();
  ASSERT_TRUE(failpoints::Arm("scheduler.train_vehicle:1").ok());
  std::ostringstream out;
  const Status status = RunPipeline(1, {"--strict"}, &out);
  failpoints::DisarmAll();
  EXPECT_EQ(status.code(), StatusCode::kUnknown);
  EXPECT_NE(status.message().find("injected failure"), std::string::npos)
      << status;
}

TEST_F(ChaosSweepTest, SaveOutageLeavesNoTruncatedModelFile) {
  const std::string path = (dir_ / "atomic_models.txt").string();
  failpoints::DisarmAll();
  ASSERT_TRUE(failpoints::Arm("scheduler.save_models").ok());
  std::ostringstream out;
  const Status status = RunPipeline(1, {"--save-models", path}, &out);
  failpoints::DisarmAll();
  EXPECT_FALSE(status.ok());
  // Neither a truncated target nor a stray temp file survives the failure.
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST_F(ChaosSweepTest, UnknownFailpointSpecRejectedUpFront) {
  std::ostringstream out;
  const Status status =
      RunPipeline(1, {"--failpoints", "no.such.site"}, &out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("no.such.site"), std::string::npos);
}

TEST_F(ChaosSweepTest, FailpointsFlagArmsThePipeline) {
  std::ostringstream out;
  const Status status = RunPipeline(
      1, {"--failpoints", "scheduler.forecast_vehicle:1"}, &out);
  failpoints::DisarmAll();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.str().find("BL_fallback"), std::string::npos) << out.str();
}

}  // namespace
}  // namespace nextmaint
