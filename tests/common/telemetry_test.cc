#include "common/telemetry.h"

#include <cmath>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"

namespace nextmaint {
namespace telemetry {
namespace {

TEST(TelemetrySwitchTest, SetEnabledTogglesEnabled) {
  SetEnabled(true);
  EXPECT_TRUE(Enabled());
  SetEnabled(false);
  EXPECT_FALSE(Enabled());
}

/// Every test starts recording from a clean slate and leaves telemetry
/// disabled (the process default) so unrelated tests see zero overhead.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    MetricsRegistry::Global().Reset();
  }
  void TearDown() override {
    MetricsRegistry::Global().Reset();
    SetEnabled(false);
  }
};

TEST_F(TelemetryTest, CounterIncrementsAndResets) {
  Counter* counter = MetricsRegistry::Global().GetCounter("test.counter.a");
  counter->Increment();
  counter->Increment(41);
  EXPECT_EQ(counter->value(), 42u);
  counter->Reset();
  EXPECT_EQ(counter->value(), 0u);
}

TEST_F(TelemetryTest, CounterLookupReturnsSameInstrument) {
  Counter* first = MetricsRegistry::Global().GetCounter("test.counter.b");
  Counter* second = MetricsRegistry::Global().GetCounter("test.counter.b");
  EXPECT_EQ(first, second);
}

TEST_F(TelemetryTest, PointersStayValidAcrossReset) {
  Counter* counter = MetricsRegistry::Global().GetCounter("test.counter.c");
  counter->Increment(7);
  MetricsRegistry::Global().Reset();
  // Reset zeroes the value but never deletes the instrument.
  EXPECT_EQ(counter->value(), 0u);
  counter->Increment(3);
  EXPECT_EQ(counter->value(), 3u);
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("test.counter.c"), counter);
}

TEST_F(TelemetryTest, GaugeSetAndAdd) {
  Gauge* gauge = MetricsRegistry::Global().GetGauge("test.gauge.a");
  gauge->Set(2.5);
  EXPECT_DOUBLE_EQ(gauge->value(), 2.5);
  gauge->Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge->value(), 1.5);
  gauge->Reset();
  EXPECT_DOUBLE_EQ(gauge->value(), 0.0);
}

TEST_F(TelemetryTest, HistogramBucketsCountSumMinMax) {
  Histogram* histogram = MetricsRegistry::Global().GetHistogram(
      "test.hist.a", {1.0, 2.0, 4.0});
  histogram->Observe(0.5);  // bucket 0 (le 1)
  histogram->Observe(1.0);  // bucket 0 (le is inclusive)
  histogram->Observe(3.0);  // bucket 2 (le 4)
  histogram->Observe(9.0);  // overflow bucket
  EXPECT_EQ(histogram->count(), 4u);

  const MetricsSnapshot snapshot = Snapshot();
  const HistogramSnapshot& h = snapshot.histograms.at("test.hist.a");
  ASSERT_EQ(h.bucket_counts.size(), 4u);
  EXPECT_EQ(h.bucket_counts[0], 2u);
  EXPECT_EQ(h.bucket_counts[1], 0u);
  EXPECT_EQ(h.bucket_counts[2], 1u);
  EXPECT_EQ(h.bucket_counts[3], 1u);
  EXPECT_DOUBLE_EQ(h.sum, 13.5);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 9.0);
}

TEST_F(TelemetryTest, EmptyHistogramSnapshotsZeroMinMax) {
  MetricsRegistry::Global().GetHistogram("test.hist.empty", {1.0});
  const MetricsSnapshot snapshot = Snapshot();
  const HistogramSnapshot& h = snapshot.histograms.at("test.hist.empty");
  EXPECT_EQ(h.count, 0u);
  EXPECT_DOUBLE_EQ(h.min, 0.0);
  EXPECT_DOUBLE_EQ(h.max, 0.0);
}

TEST_F(TelemetryTest, HistogramBoundsFixedAtFirstRegistration) {
  Histogram* histogram =
      MetricsRegistry::Global().GetHistogram("test.hist.b", {1.0, 2.0});
  Histogram* again =
      MetricsRegistry::Global().GetHistogram("test.hist.b", {5.0});
  EXPECT_EQ(histogram, again);
  EXPECT_EQ(again->bounds().size(), 2u);
}

TEST_F(TelemetryTest, DisabledInstrumentsAreNoOps) {
  Counter* counter = MetricsRegistry::Global().GetCounter("test.counter.d");
  Histogram* histogram =
      MetricsRegistry::Global().GetHistogram("test.hist.c", {1.0});
  Gauge* gauge = MetricsRegistry::Global().GetGauge("test.gauge.b");
  SetEnabled(false);
  counter->Increment();
  histogram->Observe(0.5);
  gauge->Set(3.0);
  { ScopedTimer timer(histogram); }
  { TraceSpan span("test.span.disabled"); }
  SetEnabled(true);
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_EQ(histogram->count(), 0u);
  EXPECT_DOUBLE_EQ(gauge->value(), 0.0);
  EXPECT_TRUE(Snapshot().spans.empty());
}

TEST_F(TelemetryTest, FreeHelpersSkipRegistrationWhileDisabled) {
  SetEnabled(false);
  Count("test.counter.never");
  Observe("test.hist.never", 1.0);
  SetGauge("test.gauge.never", 1.0);
  SetEnabled(true);
  const MetricsSnapshot snapshot = Snapshot();
  EXPECT_EQ(snapshot.counters.count("test.counter.never"), 0u);
  EXPECT_EQ(snapshot.histograms.count("test.hist.never"), 0u);
  EXPECT_EQ(snapshot.gauges.count("test.gauge.never"), 0u);
}

TEST_F(TelemetryTest, ScopedTimerRecordsOneObservation) {
  {
    ScopedTimer timer("test.timer.a");
  }
  const MetricsSnapshot snapshot = Snapshot();
  const HistogramSnapshot& h = snapshot.histograms.at("test.timer.a");
  EXPECT_EQ(h.count, 1u);
  EXPECT_GE(h.sum, 0.0);
}

TEST_F(TelemetryTest, TraceSpanRecordsParentChildTree) {
  {
    TraceSpan outer("test.span.outer");
    TraceSpan inner("test.span.inner");
  }
  const MetricsSnapshot snapshot = Snapshot();
  ASSERT_EQ(snapshot.spans.size(), 2u);
  // Spans close innermost-first.
  EXPECT_EQ(snapshot.spans[0].name, "test.span.inner");
  EXPECT_EQ(snapshot.spans[0].parent, "test.span.outer");
  EXPECT_EQ(snapshot.spans[1].name, "test.span.outer");
  EXPECT_EQ(snapshot.spans[1].parent, "");
  EXPECT_EQ(snapshot.histograms.at("test.span.inner.seconds").count, 1u);
  EXPECT_EQ(snapshot.histograms.at("test.span.outer.seconds").count, 1u);
}

TEST_F(TelemetryTest, ConcurrentUpdatesFromParallelForAreLossless) {
  constexpr size_t kIterations = 100'000;
  Counter* counter =
      MetricsRegistry::Global().GetCounter("test.counter.parallel");
  Gauge* gauge = MetricsRegistry::Global().GetGauge("test.gauge.parallel");
  Histogram* histogram = MetricsRegistry::Global().GetHistogram(
      "test.hist.parallel", {0.25, 0.5, 0.75});
  const Status status = ParallelFor(
      0, kIterations, /*grain=*/1024,
      [&](size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          counter->Increment();
          gauge->Add(1.0);
          histogram->Observe(static_cast<double>(i % 4) / 4.0);
        }
        return Status::OK();
      },
      /*num_threads=*/4);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(counter->value(), kIterations);
  EXPECT_DOUBLE_EQ(gauge->value(), static_cast<double>(kIterations));
  const MetricsSnapshot snapshot = Snapshot();
  const HistogramSnapshot& h = snapshot.histograms.at("test.hist.parallel");
  EXPECT_EQ(h.count, kIterations);
  // i % 4 yields values {0, 0.25, 0.5, 0.75}; with le-inclusive bounds
  // {0.25, 0.5, 0.75} the first bucket absorbs both 0 and 0.25.
  ASSERT_EQ(h.bucket_counts.size(), 4u);
  EXPECT_EQ(h.bucket_counts[0], kIterations / 2);
  EXPECT_EQ(h.bucket_counts[1], kIterations / 4);
  EXPECT_EQ(h.bucket_counts[2], kIterations / 4);
  EXPECT_EQ(h.bucket_counts[3], 0u);
  EXPECT_DOUBLE_EQ(h.min, 0.0);
  EXPECT_DOUBLE_EQ(h.max, 0.75);
}

TEST_F(TelemetryTest, SnapshotDeltaIsolatesOneRun) {
  Count("test.counter.delta", 5);
  Observe("test.hist.delta", 1.0);
  const MetricsSnapshot before = Snapshot();
  Count("test.counter.delta", 2);
  Observe("test.hist.delta", 3.0);
  { TraceSpan span("test.span.delta"); }
  const MetricsSnapshot delta = SnapshotDelta(before, Snapshot());
  EXPECT_EQ(delta.counters.at("test.counter.delta"), 2u);
  EXPECT_EQ(delta.histograms.at("test.hist.delta").count, 1u);
  EXPECT_DOUBLE_EQ(delta.histograms.at("test.hist.delta").sum, 3.0);
  ASSERT_EQ(delta.spans.size(), 1u);
  EXPECT_EQ(delta.spans[0].name, "test.span.delta");
}

TEST_F(TelemetryTest, RenderTextListsInstruments) {
  Count("test.counter.text", 3);
  SetGauge("test.gauge.text", 1.5);
  Observe("test.hist.text", 2.0);
  const std::string text = RenderText(Snapshot());
  EXPECT_NE(text.find("test.counter.text = 3"), std::string::npos);
  EXPECT_NE(text.find("test.gauge.text = 1.5"), std::string::npos);
  EXPECT_NE(text.find("test.hist.text count=1"), std::string::npos);
}

TEST_F(TelemetryTest, RenderJsonHasStableTopLevelKeys) {
  Count("test.counter.json");
  Observe("test.hist.json", 0.01);
  { TraceSpan span("test.span.json"); }
  const std::string json = RenderJson(Snapshot());
  EXPECT_NE(json.find("\"telemetry\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"test.counter.json\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"le\": \"+inf\""), std::string::npos);
}

TEST_F(TelemetryTest, RenderJsonEscapesAndHandlesNonFinite) {
  Count("test.counter.\"quoted\"\\name");
  SetGauge("test.gauge.nan", std::nan(""));
  const std::string json = RenderJson(Snapshot());
  EXPECT_NE(json.find("\"test.counter.\\\"quoted\\\"\\\\name\""),
            std::string::npos);
  EXPECT_NE(json.find("\"test.gauge.nan\": null"), std::string::npos);
}

TEST_F(TelemetryTest, WriteJsonFileRoundTrips) {
  Count("test.counter.file", 9);
  const std::string path =
      ::testing::TempDir() + "/telemetry_test_metrics.json";
  ASSERT_TRUE(WriteJsonFile(Snapshot(), path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"test.counter.file\": 9"), std::string::npos);
}

TEST_F(TelemetryTest, WriteJsonFileFailsOnBadPath) {
  const Status status =
      WriteJsonFile(Snapshot(), "/nonexistent-dir/metrics.json");
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace telemetry
}  // namespace nextmaint
