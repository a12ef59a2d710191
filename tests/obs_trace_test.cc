// Unit coverage for the flight-recorder observability layer: ring-buffer
// wrap/drop accounting, span emission through the global recorder, the
// MetricsHub (handles, window series, Prometheus text), the Chrome
// trace-event JSON writer/parser round trip, and the JSON readers' nesting
// bound.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/bench_json.h"
#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"

namespace iccache {
namespace {

TraceEvent MakeEvent(uint64_t begin_ns, TraceCategory category = TraceCategory::kEmbed) {
  TraceEvent event;
  event.begin_ns = begin_ns;
  event.end_ns = begin_ns + 10;
  event.category = category;
  return event;
}

TEST(TraceRecorderTest, RingKeepsEventsBelowCapacity) {
  TraceRecorder recorder(/*ring_capacity=*/8);
  for (uint64_t i = 0; i < 5; ++i) {
    recorder.Emit(MakeEvent(i));
  }
  const TraceRecorder::Snapshot snapshot = recorder.TakeSnapshot();
  ASSERT_EQ(snapshot.threads.size(), 1u);
  EXPECT_EQ(snapshot.emitted, 5u);
  EXPECT_EQ(snapshot.dropped, 0u);
  ASSERT_EQ(snapshot.threads[0].events.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(snapshot.threads[0].events[i].begin_ns, i);  // oldest first
  }
}

TEST(TraceRecorderTest, RingWrapOverwritesOldestAndCountsDrops) {
  TraceRecorder recorder(/*ring_capacity=*/4);
  for (uint64_t i = 0; i < 10; ++i) {
    recorder.Emit(MakeEvent(i));
  }
  const TraceRecorder::Snapshot snapshot = recorder.TakeSnapshot();
  ASSERT_EQ(snapshot.threads.size(), 1u);
  EXPECT_EQ(snapshot.emitted, 10u);
  EXPECT_EQ(snapshot.dropped, 6u);  // exactly head - capacity
  ASSERT_EQ(snapshot.threads[0].events.size(), 4u);
  // The survivors are the newest four, oldest first.
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(snapshot.threads[0].events[i].begin_ns, 6 + i);
  }
  EXPECT_EQ(recorder.total_emitted(), 10u);
  EXPECT_EQ(recorder.total_dropped(), 6u);
}

TEST(TraceRecorderTest, ResetClearsCountsButKeepsRegistrations) {
  TraceRecorder recorder(/*ring_capacity=*/4);
  for (uint64_t i = 0; i < 6; ++i) {
    recorder.Emit(MakeEvent(i));
  }
  recorder.Reset();
  EXPECT_EQ(recorder.total_emitted(), 0u);
  EXPECT_EQ(recorder.total_dropped(), 0u);
  // The thread's cached ring pointer must survive Reset(): emitting again
  // lands in the same (now empty) ring.
  recorder.Emit(MakeEvent(42));
  const TraceRecorder::Snapshot snapshot = recorder.TakeSnapshot();
  ASSERT_EQ(snapshot.threads.size(), 1u);
  ASSERT_EQ(snapshot.threads[0].events.size(), 1u);
  EXPECT_EQ(snapshot.threads[0].events[0].begin_ns, 42u);
}

TEST(TraceSpanTest, DisabledTracingEmitsNothing) {
  ScopedTracing off(false);
  TraceRecorder::Global().Reset();
  {
    TraceSpan span(TraceCategory::kEmbed, /*request_id=*/9);
    EXPECT_FALSE(span.active());
    span.SetArgs(1, 2);
  }
  EXPECT_EQ(TraceRecorder::Global().total_emitted(), 0u);
}

TEST(TraceSpanTest, EnabledSpanRecordsCategoryRequestAndArgs) {
  ScopedTracing on(true);
  TraceRecorder::Global().Reset();
  {
    TraceSpan span(TraceCategory::kStage1Retrieval, /*request_id=*/77, /*lane=*/3);
    EXPECT_TRUE(span.active());
    span.SetArgs(11, 22);
  }
  const TraceRecorder::Snapshot snapshot = TraceRecorder::Global().TakeSnapshot();
  const TraceEvent* found = nullptr;
  for (const auto& thread : snapshot.threads) {
    for (const auto& event : thread.events) {
      if (event.category == TraceCategory::kStage1Retrieval && event.request_id == 77) {
        found = &event;
      }
    }
  }
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->arg0, 11u);
  EXPECT_EQ(found->arg1, 22u);
  EXPECT_EQ(found->lane, 3u);
  EXPECT_GE(found->end_ns, found->begin_ns);
}

TEST(TraceCategoryTest, EveryCategoryHasAUniqueName) {
  std::vector<std::string> names;
  for (size_t i = 0; i < static_cast<size_t>(TraceCategory::kNumCategories); ++i) {
    const std::string name = TraceCategoryName(static_cast<TraceCategory>(i));
    EXPECT_FALSE(name.empty());
    for (const std::string& previous : names) {
      EXPECT_NE(name, previous);
    }
    names.push_back(name);
  }
}

TEST(MetricsHubTest, CounterGaugeHistogramRoundTrip) {
  MetricsHub hub;
  MetricCounter* requests = hub.Counter("requests_total");
  requests->Add(3.0);
  requests->Increment();
  EXPECT_DOUBLE_EQ(hub.Value("requests_total"), 4.0);
  EXPECT_EQ(hub.Counter("requests_total"), requests);  // handles are stable

  hub.Set("pool_bytes", 1234.0);
  EXPECT_DOUBLE_EQ(hub.Value("pool_bytes"), 1234.0);
  EXPECT_DOUBLE_EQ(hub.Value("never_registered"), 0.0);

  hub.Observe("e2e_seconds", 0.25);
  hub.Observe("e2e_seconds", 0.50);
  const LatencyHistogram snapshot = hub.HistogramSnapshot("e2e_seconds");
  EXPECT_EQ(snapshot.count(), 2u);
  EXPECT_DOUBLE_EQ(snapshot.sum(), 0.75);
}

TEST(MetricsHubTest, WindowSeriesIsBoundedDropOldest) {
  MetricsHub hub;
  hub.set_series_capacity(3);
  hub.Counter("ticks_total");
  for (uint64_t window = 0; window < 5; ++window) {
    hub.Add("ticks_total");
    hub.SnapshotWindow(window, static_cast<double>(window), window * 1000);
  }
  const std::vector<MetricsWindowSample> series = hub.series();
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(hub.series_dropped(), 2u);
  EXPECT_EQ(series.front().window, 2u);  // oldest surviving row
  EXPECT_EQ(series.back().window, 4u);
  ASSERT_EQ(series.back().values.size(), 1u);
  EXPECT_EQ(series.back().values[0].first, "ticks_total");
  EXPECT_DOUBLE_EQ(series.back().values[0].second, 5.0);
}

TEST(MetricsHubTest, PrometheusTextExposesAllFamilies) {
  MetricsHub hub;
  hub.Add("requests_total", 7.0);
  hub.Set("pool_bytes", 4096.0);
  hub.Observe("latency_seconds", 0.010);
  hub.Observe("latency_seconds", 0.200);
  const std::string text = hub.PrometheusText();
  EXPECT_NE(text.find("# TYPE iccache_requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("iccache_requests_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE iccache_pool_bytes gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE iccache_latency_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("iccache_latency_seconds_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("iccache_latency_seconds_count 2"), std::string::npos);
  EXPECT_NE(text.find("iccache_latency_seconds_sum"), std::string::npos);
}

TEST(MetricsHubTest, HistogramExemplarsTrackLastRequestPerBucket) {
  MetricsHub hub;
  MetricHistogram* histogram = hub.Histogram("e2e_seconds");
  histogram->Observe(0.010, /*exemplar_id=*/41);
  histogram->Observe(0.010, /*exemplar_id=*/42);  // same bucket: last id wins
  histogram->Observe(5.000, /*exemplar_id=*/77);
  histogram->Observe(0.500);  // no id: bucket counted but no exemplar recorded

  const std::map<int, uint64_t> exemplars = hub.HistogramExemplars("e2e_seconds");
  ASSERT_EQ(exemplars.size(), 2u);
  const LatencyHistogram shape = histogram->snapshot();
  EXPECT_EQ(shape.count(), 4u);
  EXPECT_EQ(exemplars.at(shape.BucketIndex(0.010)), 42u);
  EXPECT_EQ(exemplars.at(shape.BucketIndex(5.000)), 77u);
  EXPECT_TRUE(hub.HistogramExemplars("never_registered").empty());
}

TEST(PrometheusRoundTripTest, ExpositionParsesAndValidates) {
  MetricsHub hub;
  hub.Add("requests_total", 21.0);
  hub.Set("pool_bytes", 4096.0);
  for (const double value : {0.001, 0.010, 0.010, 0.250, 30.0}) {
    hub.Observe("e2e_seconds", value);
  }
  const std::string text = hub.PrometheusText();

  PrometheusSummary summary;
  std::string error;
  ASSERT_TRUE(ParsePrometheusText(text, &summary, &error)) << error;
  ASSERT_TRUE(ValidatePrometheusHistograms(summary, &error)) << error;

  const auto counter = summary.families.find("iccache_requests_total");
  ASSERT_NE(counter, summary.families.end());
  EXPECT_EQ(counter->second.type, "counter");
  EXPECT_DOUBLE_EQ(counter->second.value, 21.0);
  const auto gauge = summary.families.find("iccache_pool_bytes");
  ASSERT_NE(gauge, summary.families.end());
  EXPECT_EQ(gauge->second.type, "gauge");
  EXPECT_DOUBLE_EQ(gauge->second.value, 4096.0);
  const auto histogram = summary.families.find("iccache_e2e_seconds");
  ASSERT_NE(histogram, summary.families.end());
  EXPECT_EQ(histogram->second.type, "histogram");
  EXPECT_TRUE(histogram->second.has_sum);
  EXPECT_TRUE(histogram->second.has_count);
  EXPECT_DOUBLE_EQ(histogram->second.count, 5.0);
  ASSERT_FALSE(histogram->second.buckets.empty());
  // The exposition contract: cumulative counts ending in a +Inf bucket that
  // equals _count (ValidatePrometheusHistograms checked the monotone part).
  EXPECT_TRUE(std::isinf(histogram->second.buckets.back().first));
  EXPECT_DOUBLE_EQ(histogram->second.buckets.back().second, 5.0);
}

TEST(PrometheusRoundTripTest, ParserAndValidatorRejectBrokenExpositions) {
  PrometheusSummary summary;
  std::string error;
  // A sample whose family was never declared with # TYPE.
  EXPECT_FALSE(ParsePrometheusText("iccache_mystery 1\n", &summary, &error));
  EXPECT_FALSE(error.empty());

  // A histogram whose +Inf bucket disagrees with _count must fail
  // validation even though it parses.
  const std::string broken =
      "# TYPE iccache_lat histogram\n"
      "iccache_lat_bucket{le=\"0.1\"} 1\n"
      "iccache_lat_bucket{le=\"+Inf\"} 2\n"
      "iccache_lat_sum 0.3\n"
      "iccache_lat_count 3\n";
  summary = PrometheusSummary();
  ASSERT_TRUE(ParsePrometheusText(broken, &summary, &error)) << error;
  EXPECT_FALSE(ValidatePrometheusHistograms(summary, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ChromeTraceExportTest, JsonRoundTripsThroughTheParser) {
  TraceRecorder recorder(/*ring_capacity=*/16);
  recorder.Emit(MakeEvent(100, TraceCategory::kPrepare));
  recorder.Emit(MakeEvent(200, TraceCategory::kMerge));
  recorder.Emit(MakeEvent(300, TraceCategory::kMerge));

  MetricsWindowSample sample;
  sample.window = 0;
  sample.mono_ns = 500;
  sample.values = {{"pool_bytes", 2048.0}, {"requests_total", 3.0}};

  const std::string json = ChromeTraceJson(recorder.TakeSnapshot(), {sample});
  ChromeTraceSummary summary;
  std::string error;
  ASSERT_TRUE(ParseChromeTrace(json, &summary, &error)) << error;
  EXPECT_EQ(summary.emitted, 3u);
  EXPECT_EQ(summary.dropped, 0u);
  EXPECT_EQ(summary.span_counts["prepare"], 1u);
  EXPECT_EQ(summary.span_counts["merge"], 2u);
  EXPECT_EQ(summary.counter_counts["pool_bytes"], 1u);
  EXPECT_EQ(summary.counter_counts["requests_total"], 1u);
}

TEST(ChromeTraceExportTest, FileWriteReadRoundTrip) {
  TraceRecorder recorder(/*ring_capacity=*/16);
  recorder.Emit(MakeEvent(1, TraceCategory::kPublish));
  const std::string path =
      "/tmp/iccache_obs_trace_test_" + std::to_string(::getpid()) + ".json";
  ASSERT_TRUE(WriteChromeTraceFile(path, recorder.TakeSnapshot(), {}).ok());
  const StatusOr<std::string> contents = ReadTextFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(contents.ok());
  ChromeTraceSummary summary;
  std::string error;
  ASSERT_TRUE(ParseChromeTrace(contents.value(), &summary, &error)) << error;
  EXPECT_EQ(summary.span_counts["publish"], 1u);
}

TEST(ChromeTraceExportTest, ParserRejectsMalformedJson) {
  ChromeTraceSummary summary;
  std::string error;
  EXPECT_FALSE(ParseChromeTrace("{\"traceEvents\": [", &summary, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseChromeTrace("[]", &summary, &error));  // root must be an object
  EXPECT_FALSE(ParseChromeTrace("{\"traceEvents\": 3}", &summary, &error));
  EXPECT_FALSE(ParseChromeTrace("{\"traceEvents\": [{\"name\": 1}]}", &summary, &error));
}

// `depth` nested arrays: "[[...]]".
std::string NestedArrays(size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

// Hostile nesting far past JsonParser::kMaxDepth must come back as a parse
// error from every reader built on the parser — never a stack overflow.
TEST(JsonReadersTest, RejectHostileNestingWithoutCrashing) {
  constexpr size_t kHostileDepth = 1000000;
  std::string nested_objects;
  for (size_t i = 0; i < kHostileDepth; ++i) {
    nested_objects += "{\"a\":";
  }
  for (const std::string& hostile : {std::string(kHostileDepth, '['), nested_objects}) {
    EXPECT_FALSE(ParseBenchRun(hostile).ok());
    ChromeTraceSummary summary;
    std::string error;
    EXPECT_FALSE(ParseChromeTrace(hostile, &summary, &error));
    EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;
    std::vector<TimelineSpan> spans;
    error.clear();
    EXPECT_FALSE(ParseChromeTraceSpans(hostile, &spans, &error));
    EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;
  }
}

// Legitimate documents 64 levels deep (root included) still parse.
TEST(JsonReadersTest, AcceptNestingWellBelowTheBound) {
  static_assert(JsonParser::kMaxDepth >= 64, "bound must admit 64-deep documents");
  const StatusOr<BenchRunRecord> bench = ParseBenchRun(
      "{\"schema\": \"iccache-bench/1\", \"metrics\": {}, \"pad\": " + NestedArrays(63) + "}");
  EXPECT_TRUE(bench.ok()) << bench.status().ToString();
  ChromeTraceSummary summary;
  std::string error;
  EXPECT_TRUE(ParseChromeTrace(
      "{\"traceEvents\": [], \"otherData\": {\"pad\": " + NestedArrays(62) + "}}", &summary,
      &error))
      << error;
  std::vector<TimelineSpan> spans;
  EXPECT_TRUE(
      ParseChromeTraceSpans("{\"traceEvents\": [], \"pad\": " + NestedArrays(63) + "}", &spans,
                            &error))
      << error;
}

TEST(ChromeTraceExportTest, JsonEscapesControlCharactersInNames) {
  // Counter names flow into JSON strings; make sure the writer escapes them.
  MetricsWindowSample sample;
  sample.values = {{"weird\"name\n", 1.0}};
  TraceRecorder recorder(/*ring_capacity=*/4);
  const std::string json = ChromeTraceJson(recorder.TakeSnapshot(), {sample});
  ChromeTraceSummary summary;
  std::string error;
  ASSERT_TRUE(ParseChromeTrace(json, &summary, &error)) << error;
  EXPECT_EQ(summary.counter_counts.size(), 1u);
}

}  // namespace
}  // namespace iccache
