// Observability layer tests: the metrics registry primitives (counters,
// gauges, log2 histograms), snapshot consistency under concurrent updates,
// the Prometheus text exposition, the bounded trace ring and its Chrome
// trace_event JSON export, and the end-to-end wiring through a running
// engine — every transition reports fire counts and latencies, every query
// reports its per-tuple response-time histogram.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "adapters/channel.h"
#include "adapters/sink.h"
#include "common/metrics_registry.h"
#include "common/trace.h"
#include "core/engine.h"

namespace datacell {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

template <typename Pred>
bool WaitFor(Pred done, milliseconds limit) {
  auto deadline = steady_clock::now() + limit;
  while (!done()) {
    if (steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

// --- histogram primitives -------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 admits v <= 0; bucket b >= 1 admits [2^(b-1), 2^b - 1].
  EXPECT_EQ(Histogram::BucketFor(-5), 0u);
  EXPECT_EQ(Histogram::BucketFor(0), 0u);
  EXPECT_EQ(Histogram::BucketFor(1), 1u);
  EXPECT_EQ(Histogram::BucketFor(2), 2u);
  EXPECT_EQ(Histogram::BucketFor(3), 2u);
  EXPECT_EQ(Histogram::BucketFor(4), 3u);
  EXPECT_EQ(Histogram::BucketFor(7), 3u);
  EXPECT_EQ(Histogram::BucketFor(8), 4u);
  EXPECT_EQ(Histogram::BucketFor(std::numeric_limits<int64_t>::max()),
            Histogram::kNumBuckets - 1);
  // Every bucket's bounds round-trip through BucketFor.
  for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    EXPECT_EQ(Histogram::BucketFor(Histogram::BucketLowerBound(b)), b)
        << "lower bound of bucket " << b;
    if (b < 63) {
      EXPECT_EQ(Histogram::BucketFor(Histogram::BucketUpperBound(b)), b)
          << "upper bound of bucket " << b;
    }
  }
  // Bounds tile the axis: upper(b) + 1 == lower(b + 1).
  for (size_t b = 0; b + 1 < 63; ++b) {
    EXPECT_EQ(Histogram::BucketUpperBound(b) + 1,
              Histogram::BucketLowerBound(b + 1));
  }
}

TEST(Histogram, CountSumMax) {
  Histogram h;
  for (int64_t v : {5, 10, 100, 0, 3}) h.Observe(v);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 118);
  EXPECT_EQ(s.max, 100);
  EXPECT_DOUBLE_EQ(s.Mean(), 118.0 / 5.0);
  uint64_t bucket_total = 0;
  for (uint64_t c : s.buckets) bucket_total += c;
  EXPECT_EQ(bucket_total, 5u);
}

TEST(Histogram, PercentilesBoundedByBucketsAndMax) {
  Histogram h;
  // 100 observations of 10 (bucket [8,15]) and one outlier at 1000.
  for (int i = 0; i < 100; ++i) h.Observe(10);
  h.Observe(1000);
  HistogramSnapshot s = h.Snapshot();
  double p50 = s.Percentile(0.5);
  EXPECT_GE(p50, 8.0);
  EXPECT_LE(p50, 15.0);
  // p100 is clamped to the exact tracked max, not the bucket upper bound.
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 1000.0);
  // An all-in-one-bucket distribution never reports past its max.
  Histogram one;
  for (int i = 0; i < 10; ++i) one.Observe(9);
  EXPECT_LE(one.Snapshot().Percentile(0.99), 9.0);
  // Empty histogram: all percentiles are 0.
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.Snapshot().Percentile(0.5), 0.0);
}

TEST(MetricsRegistry, CollectorReadsOwnersPerLabel) {
  MetricsRegistry reg;
  static constexpr MetricSeries kX{"datacell_x_total", MetricKind::kCounter,
                                   {"k"}, nullptr};
  Counter a;  // the objects that own the counts
  Counter c;
  reg.SetCollector([&](MetricsSnapshotData& out) {
    out.Add(kX, {"1"}, a.value());
    out.Add(kX, {"2"}, c.value());
  });
  a.Inc(3);
  c.Inc(5);
  MetricsSnapshotData snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.size(), 2u);  // distinct labels, distinct series
  EXPECT_EQ(snap.FindCounter("datacell_x_total", "1")->value, 3);
  EXPECT_EQ(snap.FindCounter("datacell_x_total", "2")->value, 5);
  EXPECT_EQ(snap.FindCounter("datacell_missing"), nullptr);
  // Every snapshot reads the owners afresh.
  a.Inc();
  EXPECT_EQ(reg.Snapshot().FindCounter("datacell_x_total", "1")->value, 4);
}

TEST(MetricsRegistry, RenderMetricNameEscapesValues) {
  EXPECT_EQ(RenderMetricName("m", {}), "m");
  EXPECT_EQ(RenderMetricName("m", {{"a", "x"}, {"b", "y"}}),
            "m{a=\"x\",b=\"y\"}");
  EXPECT_EQ(RenderMetricName("m", {{"a", "he said \"hi\"\n"}}),
            "m{a=\"he said \\\"hi\\\"\\n\"}");
}

TEST(MetricsRegistry, PrometheusTextGolden) {
  MetricsRegistry reg;
  // Every value lives in its owner; a collector reads it.
  constexpr MetricSeries kEvents{"datacell_test_events_total",
                                 MetricKind::kCounter, {}, nullptr};
  constexpr MetricSeries kDepth{"datacell_test_depth", MetricKind::kGauge,
                                {}, nullptr};
  constexpr MetricSeries kTuples{"datacell_test_tuples_total",
                                 MetricKind::kCounter, {"query"}, nullptr};
  constexpr MetricSeries kLatency{"datacell_test_latency_us",
                                  MetricKind::kHistogram, {}, nullptr};
  Histogram h;
  h.Observe(1);    // bucket 1  [1, 1]
  h.Observe(3);    // bucket 2  [2, 3]
  h.Observe(100);  // bucket 7  [64, 127]
  reg.SetCollector([&](MetricsSnapshotData& out) {
    out.Add(kLatency, {}, h.Snapshot());
    out.Add(kDepth, {}, 5);
    out.Add(kTuples, {"q1"}, 7);  // sorted in after the events counter
    out.Add(kEvents, {}, 3);
  });
  EXPECT_EQ(reg.PrometheusText(),
            "# TYPE datacell_test_events_total counter\n"
            "datacell_test_events_total 3\n"
            "# TYPE datacell_test_tuples_total counter\n"
            "datacell_test_tuples_total{query=\"q1\"} 7\n"
            "# TYPE datacell_test_depth gauge\n"
            "datacell_test_depth 5\n"
            "# TYPE datacell_test_latency_us histogram\n"
            "datacell_test_latency_us_bucket{le=\"0\"} 0\n"
            "datacell_test_latency_us_bucket{le=\"1\"} 1\n"
            "datacell_test_latency_us_bucket{le=\"3\"} 2\n"
            "datacell_test_latency_us_bucket{le=\"127\"} 3\n"
            "datacell_test_latency_us_bucket{le=\"+Inf\"} 3\n"
            "datacell_test_latency_us_sum 104\n"
            "datacell_test_latency_us_count 3\n");
}

TEST(MetricsRegistry, SnapshotConsistentUnderConcurrentObserve) {
  MetricsRegistry reg;
  Histogram owned;
  Histogram* h = &owned;
  Counter counter;
  Counter* c = &counter;
  static constexpr MetricSeries kRace{"datacell_race_us",
                                      MetricKind::kHistogram, {}, nullptr};
  static constexpr MetricSeries kRaceTotal{"datacell_race_total",
                                           MetricKind::kCounter, {}, nullptr};
  reg.SetCollector([h, c](MetricsSnapshotData& out) {
    out.Add(kRace, {}, h->Snapshot());
    out.Add(kRaceTotal, {}, c->value());
  });
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([h, c, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h->Observe((i * 31 + t) % 5000);
        c->Inc();
      }
    });
  }
  // A reader snapshots continuously while writers hammer the cells. Every
  // snapshot must be internally sane: bucket totals never exceed the final
  // count, percentiles stay finite and ordered.
  std::thread reader([&reg, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      MetricsSnapshotData snap = reg.Snapshot();
      const HistogramSnapshot* hs = snap.FindHistogram("datacell_race_us");
      if (hs == nullptr) continue;
      uint64_t total = 0;
      for (uint64_t b : hs->buckets) total += b;
      ASSERT_LE(total, uint64_t{kThreads} * kPerThread);
      double p50 = hs->Percentile(0.5);
      double p99 = hs->Percentile(0.99);
      ASSERT_GE(p50, 0.0);
      ASSERT_LE(p50, p99 + 1e-9);
      ASSERT_LE(p99, 8191.0);  // upper bound of the bucket containing 4999
    }
  });
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  HistogramSnapshot settled = h->Snapshot();
  EXPECT_EQ(settled.count, uint64_t{kThreads} * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : settled.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, settled.count);
  EXPECT_EQ(c->value(), int64_t{kThreads} * kPerThread);
}

// --- trace ring -----------------------------------------------------------

TEST(TraceRing, WraparoundKeepsNewestOldestFirst) {
  TraceRing ring(4);
  for (int i = 0; i < 10; ++i) {
    ring.RecordComplete("test", "e" + std::to_string(i), /*start_us=*/i,
                        /*dur_us=*/1);
  }
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The newest 4 events survive, returned oldest-first.
  EXPECT_STREQ(events[0].name, "e6");
  EXPECT_STREQ(events[3].name, "e9");
  EXPECT_EQ(events[0].ts_us, 6);
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total_recorded(), 0u);
}

TEST(TraceRing, LongNamesAreTruncatedSafely) {
  TraceRing ring(2);
  std::string long_name(200, 'x');
  ring.RecordInstant("test", long_name, 1);
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].name),
            std::string(TraceEvent::kNameCapacity - 1, 'x'));
}

/// Minimal structural JSON validation: balanced braces/brackets outside
/// strings, no raw control characters inside strings.
void ExpectStructurallyValidJson(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (in_string) {
      ASSERT_GE(static_cast<unsigned char>(c), 0x20) << "raw control char";
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(TraceRing, ChromeJsonShape) {
  TraceRing ring(8);
  EXPECT_EQ(ring.ToChromeJson(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
  ring.RecordComplete("scheduler", "sweep \"q\"", 100, 25, "fired", 2);
  ring.RecordInstant("scheduler", "wake_notified", 130);
  std::string json = ring.ToChromeJson();
  ExpectStructurallyValidJson(json);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":25"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"fired\":2}"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);  // instant scope
  EXPECT_NE(json.find("sweep \\\"q\\\""), std::string::npos);  // escaping
}

// --- engine wiring --------------------------------------------------------

TEST(EngineMetrics, PipelineMetricsThroughRunningScheduler) {
  constexpr int kBatches = 20;
  constexpr int kRowsPerBatch = 32;
  constexpr int64_t kTotal = int64_t{kBatches} * kRowsPerBatch;

  EngineOptions opts;
  opts.trace_capacity = 1 << 12;
  Engine engine(opts);
  ASSERT_TRUE(engine.ExecuteSql("create basket s (x int)").ok());
  // `select *` projects the stream's arrival ts through to the output
  // basket, so the emitter-side histogram measures genuine end-to-end
  // (ingest -> delivery) per-tuple latency.
  auto q = engine.SubmitContinuousQuery("obs",
                                        "select * from [select * from s] as a");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto sink = std::make_shared<CountingSink>();
  ASSERT_TRUE(engine.Subscribe(*q, sink).ok());

  ASSERT_TRUE(engine.Start(2).ok());
  for (int b = 0; b < kBatches; ++b) {
    std::vector<Row> rows;
    for (int i = 0; i < kRowsPerBatch; ++i) {
      rows.push_back({Value::Int64(i)});
    }
    ASSERT_TRUE(engine.IngestBatch("s", rows).ok());
  }
  ASSERT_TRUE(WaitFor([&] { return sink->rows() >= kTotal; },
                      milliseconds(10000)))
      << "delivered " << sink->rows();
  engine.Stop();

  MetricsSnapshotData snap = engine.MetricsSnapshot();

  // Per-transition fire counts and latency histograms, consistent with the
  // transitions' own run accounting (quiescent engine: exact equality).
  for (const TransitionPtr& t : engine.scheduler().transitions()) {
    const CounterSnapshot* fires =
        snap.FindCounter("datacell_transition_fires_total", t->name());
    const CounterSnapshot* tuples =
        snap.FindCounter("datacell_transition_tuples_total", t->name());
    const HistogramSnapshot* lat =
        snap.FindHistogram("datacell_transition_fire_latency_us", t->name());
    ASSERT_NE(fires, nullptr) << t->name();
    ASSERT_NE(tuples, nullptr) << t->name();
    ASSERT_NE(lat, nullptr) << t->name();
    EXPECT_EQ(fires->value, t->runs()) << t->name();
    EXPECT_EQ(tuples->value, t->tuples_processed()) << t->name();
    EXPECT_EQ(lat->count, static_cast<uint64_t>(t->runs())) << t->name();
    EXPECT_GT(fires->value, 0) << t->name();
  }

  // The factory processed every ingested tuple exactly once.
  const CounterSnapshot* factory_tuples =
      snap.FindCounter("datacell_transition_tuples_total", "factory_obs");
  ASSERT_NE(factory_tuples, nullptr);
  EXPECT_EQ(factory_tuples->value, kTotal);

  // Per-query end-to-end latency: one observation per delivered tuple,
  // non-negative, max >= p50.
  const HistogramSnapshot* e2e =
      snap.FindHistogram("datacell_query_e2e_latency_us", "obs");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->count, static_cast<uint64_t>(kTotal));
  EXPECT_GE(e2e->max, 0);
  EXPECT_LE(e2e->Percentile(0.5), static_cast<double>(e2e->max) + 1e-9);

  // Pulled metrics: ingest totals and basket flow accounting.
  EXPECT_EQ(snap.FindCounter("datacell_ingested_tuples_total")->value, kTotal);
  const CounterSnapshot* appended =
      snap.FindCounter("datacell_basket_appended_total", "s");
  ASSERT_NE(appended, nullptr);
  EXPECT_EQ(appended->value, kTotal);
  const GaugeSnapshot* high_water = snap.FindGauge("datacell_basket_high_water", "s");
  ASSERT_NE(high_water, nullptr);
  EXPECT_GE(high_water->value, kRowsPerBatch);
  EXPECT_GT(snap.FindCounter("datacell_scheduler_sweeps_total")->value, 0);

  // Prometheus exposition carries the same series.
  std::string text = engine.MetricsText();
  EXPECT_NE(text.find("# TYPE datacell_transition_fires_total counter"),
            std::string::npos);
  EXPECT_NE(
      text.find("datacell_query_e2e_latency_us_count{query=\"obs\"} " +
                std::to_string(kTotal)),
      std::string::npos);
  EXPECT_NE(text.find("datacell_ingested_tuples_total " +
                      std::to_string(kTotal)),
            std::string::npos);

  // StatsReport is built on the same snapshot.
  std::string report = engine.StatsReport();
  EXPECT_NE(report.find("factory_obs"), std::string::npos);
  EXPECT_NE(report.find("-- queries (end-to-end tuple latency) --"),
            std::string::npos);
  EXPECT_NE(report.find("delivered=" + std::to_string(kTotal)),
            std::string::npos);

  // The trace ring saw scheduler and transition activity; the export is
  // structurally valid Chrome JSON. Under -DDATACELL_TRACE=OFF the ring is
  // never allocated, even with trace_capacity set.
  if (kTraceCompiled) {
    ASSERT_NE(engine.trace(), nullptr);
    EXPECT_GT(engine.trace()->total_recorded(), 0u);
    std::string json = engine.TraceJson();
    ExpectStructurallyValidJson(json);
    EXPECT_NE(json.find("factory_obs"), std::string::npos);
  } else {
    EXPECT_EQ(engine.trace(), nullptr);
    EXPECT_EQ(engine.TraceJson(), "");
  }
}

TEST(EngineMetrics, TracingDisabledByDefault) {
  Engine engine;
  ASSERT_TRUE(engine.ExecuteSql("create basket s (x int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "t", "select x from [select * from s] as a");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine.Ingest("s", {Value::Int64(1)}).ok());
  engine.Drain();
  // No ring allocated: zero trace cost, empty export, but metrics still on.
  EXPECT_EQ(engine.trace(), nullptr);
  EXPECT_EQ(engine.TraceJson(), "");
  EXPECT_GT(engine.MetricsSnapshot()
                .FindCounter("datacell_transition_fires_total", "factory_t")
                ->value,
            0);
}

TEST(EngineMetrics, MalformedReceptorLinesReachRegistry) {
  Engine engine;
  ASSERT_TRUE(engine.ExecuteSql("create basket s (x int)").ok());
  Channel wire;
  ASSERT_TRUE(engine.AttachReceptor("s", &wire).ok());
  wire.Push("42");
  wire.Push("not-a-number");
  wire.Push("7");
  engine.Drain();
  MetricsSnapshotData snap = engine.MetricsSnapshot();
  const CounterSnapshot* malformed =
      snap.FindCounter("datacell_receptor_malformed_total", "receptor_s_0");
  ASSERT_NE(malformed, nullptr);
  EXPECT_EQ(malformed->value, 1);
  EXPECT_EQ(snap.FindCounter("datacell_ingested_tuples_total")->value, 2);
}


// --- exposition goldens -----------------------------------------------------

/// A small engine covering every owner of a series: a receptor that saw one
/// malformed line, a filtering query, a `select *` query (so the e2e
/// histogram exists), a separate-strategy query (a private replica) and the
/// scheduler counters after one Drain(). Simulated clock, no profiling.
void BuildGoldenEngine(Engine& engine, Channel& wire) {
  ASSERT_TRUE(engine.ExecuteSql("create basket s (x int, y double)").ok());
  ASSERT_TRUE(engine.AttachReceptor("s", &wire).ok());
  ASSERT_TRUE(engine
                  .SubmitContinuousQuery(
                      "hot", "select x from [select * from s] as a where a.x > 1")
                  .ok());
  ASSERT_TRUE(
      engine.SubmitContinuousQuery("all", "select * from [select * from s] as b")
          .ok());
  QueryOptions separate;
  separate.strategy = ProcessingStrategy::kSeparateBaskets;
  ASSERT_TRUE(engine
                  .SubmitContinuousQuery(
                      "sep", "select y from [select * from s] as c", separate)
                  .ok());
  wire.Push("1,2.5");
  wire.Push("not,a-number");
  wire.Push("3,4.5");
  engine.Drain();
}

/// The full exposition of BuildGoldenEngine, byte for byte: names, kinds,
/// label sets, values and order.
constexpr const char* kEngineGolden = R"(# TYPE datacell_basket_appended_total counter
datacell_basket_appended_total{basket="all_out"} 2
datacell_basket_appended_total{basket="hot_out"} 1
datacell_basket_appended_total{basket="s"} 2
datacell_basket_appended_total{basket="s__q2"} 2
datacell_basket_appended_total{basket="sep_out"} 2
# TYPE datacell_basket_consumed_total counter
datacell_basket_consumed_total{basket="all_out"} 2
datacell_basket_consumed_total{basket="hot_out"} 1
datacell_basket_consumed_total{basket="s"} 2
datacell_basket_consumed_total{basket="s__q2"} 2
datacell_basket_consumed_total{basket="sep_out"} 2
# TYPE datacell_basket_shed_total counter
datacell_basket_shed_total{basket="all_out"} 0
datacell_basket_shed_total{basket="hot_out"} 0
datacell_basket_shed_total{basket="s"} 0
datacell_basket_shed_total{basket="s__q2"} 0
datacell_basket_shed_total{basket="sep_out"} 0
# TYPE datacell_ingested_tuples_total counter
datacell_ingested_tuples_total 2
# TYPE datacell_receptor_malformed_total counter
datacell_receptor_malformed_total{receptor="receptor_s_0"} 1
# TYPE datacell_scheduler_errors_total counter
datacell_scheduler_errors_total 0
# TYPE datacell_scheduler_firings_total counter
datacell_scheduler_firings_total 7
# TYPE datacell_scheduler_idle_waits_total counter
datacell_scheduler_idle_waits_total 0
# TYPE datacell_scheduler_sweeps_total counter
datacell_scheduler_sweeps_total 2
# TYPE datacell_scheduler_wakes_notified_total counter
datacell_scheduler_wakes_notified_total 0
# TYPE datacell_scheduler_wakes_timeout_total counter
datacell_scheduler_wakes_timeout_total 0
# TYPE datacell_transition_fires_total counter
datacell_transition_fires_total{transition="emitter_all",kind="emitter"} 1
datacell_transition_fires_total{transition="emitter_hot",kind="emitter"} 1
datacell_transition_fires_total{transition="emitter_sep",kind="emitter"} 1
datacell_transition_fires_total{transition="factory_all",kind="factory"} 1
datacell_transition_fires_total{transition="factory_hot",kind="factory"} 1
datacell_transition_fires_total{transition="factory_sep",kind="factory"} 1
datacell_transition_fires_total{transition="receptor_s_0",kind="receptor"} 1
# TYPE datacell_transition_tuples_total counter
datacell_transition_tuples_total{transition="emitter_all",kind="emitter"} 2
datacell_transition_tuples_total{transition="emitter_hot",kind="emitter"} 1
datacell_transition_tuples_total{transition="emitter_sep",kind="emitter"} 2
datacell_transition_tuples_total{transition="factory_all",kind="factory"} 2
datacell_transition_tuples_total{transition="factory_hot",kind="factory"} 2
datacell_transition_tuples_total{transition="factory_sep",kind="factory"} 2
datacell_transition_tuples_total{transition="receptor_s_0",kind="receptor"} 2
# TYPE datacell_basket_bytes gauge
datacell_basket_bytes{basket="all_out"} 0
datacell_basket_bytes{basket="hot_out"} 0
datacell_basket_bytes{basket="s"} 48
datacell_basket_bytes{basket="s__q2"} 0
datacell_basket_bytes{basket="sep_out"} 0
# TYPE datacell_basket_high_water gauge
datacell_basket_high_water{basket="all_out"} 2
datacell_basket_high_water{basket="hot_out"} 1
datacell_basket_high_water{basket="s"} 2
datacell_basket_high_water{basket="s__q2"} 2
datacell_basket_high_water{basket="sep_out"} 2
# TYPE datacell_basket_tuples gauge
datacell_basket_tuples{basket="all_out"} 0
datacell_basket_tuples{basket="hot_out"} 0
datacell_basket_tuples{basket="s"} 0
datacell_basket_tuples{basket="s__q2"} 0
datacell_basket_tuples{basket="sep_out"} 0
# TYPE datacell_partitionable_queries gauge
datacell_partitionable_queries 1
# TYPE datacell_query_state_bound_bytes gauge
datacell_query_state_bound_bytes{query="all"} 0
datacell_query_state_bound_bytes{query="hot"} 0
datacell_query_state_bound_bytes{query="sep"} 0
# TYPE datacell_query_state_bytes gauge
datacell_query_state_bytes{query="all"} 0
datacell_query_state_bytes{query="hot"} 0
datacell_query_state_bytes{query="sep"} 0
# TYPE datacell_query_state_high_water_bytes gauge
datacell_query_state_high_water_bytes{query="all"} 0
datacell_query_state_high_water_bytes{query="hot"} 0
datacell_query_state_high_water_bytes{query="sep"} 0
# TYPE datacell_shardable_queries gauge
datacell_shardable_queries 1
# TYPE datacell_query_e2e_latency_us histogram
datacell_query_e2e_latency_us_bucket{query="all",le="0"} 2
datacell_query_e2e_latency_us_bucket{query="all",le="+Inf"} 2
datacell_query_e2e_latency_us_sum{query="all"} 0
datacell_query_e2e_latency_us_count{query="all"} 2
# TYPE datacell_transition_fire_latency_us histogram
datacell_transition_fire_latency_us_bucket{transition="emitter_all",kind="emitter",le="0"} 1
datacell_transition_fire_latency_us_bucket{transition="emitter_all",kind="emitter",le="+Inf"} 1
datacell_transition_fire_latency_us_sum{transition="emitter_all",kind="emitter"} 0
datacell_transition_fire_latency_us_count{transition="emitter_all",kind="emitter"} 1
datacell_transition_fire_latency_us_bucket{transition="emitter_hot",kind="emitter",le="0"} 1
datacell_transition_fire_latency_us_bucket{transition="emitter_hot",kind="emitter",le="+Inf"} 1
datacell_transition_fire_latency_us_sum{transition="emitter_hot",kind="emitter"} 0
datacell_transition_fire_latency_us_count{transition="emitter_hot",kind="emitter"} 1
datacell_transition_fire_latency_us_bucket{transition="emitter_sep",kind="emitter",le="0"} 1
datacell_transition_fire_latency_us_bucket{transition="emitter_sep",kind="emitter",le="+Inf"} 1
datacell_transition_fire_latency_us_sum{transition="emitter_sep",kind="emitter"} 0
datacell_transition_fire_latency_us_count{transition="emitter_sep",kind="emitter"} 1
datacell_transition_fire_latency_us_bucket{transition="factory_all",kind="factory",le="0"} 1
datacell_transition_fire_latency_us_bucket{transition="factory_all",kind="factory",le="+Inf"} 1
datacell_transition_fire_latency_us_sum{transition="factory_all",kind="factory"} 0
datacell_transition_fire_latency_us_count{transition="factory_all",kind="factory"} 1
datacell_transition_fire_latency_us_bucket{transition="factory_hot",kind="factory",le="0"} 1
datacell_transition_fire_latency_us_bucket{transition="factory_hot",kind="factory",le="+Inf"} 1
datacell_transition_fire_latency_us_sum{transition="factory_hot",kind="factory"} 0
datacell_transition_fire_latency_us_count{transition="factory_hot",kind="factory"} 1
datacell_transition_fire_latency_us_bucket{transition="factory_sep",kind="factory",le="0"} 1
datacell_transition_fire_latency_us_bucket{transition="factory_sep",kind="factory",le="+Inf"} 1
datacell_transition_fire_latency_us_sum{transition="factory_sep",kind="factory"} 0
datacell_transition_fire_latency_us_count{transition="factory_sep",kind="factory"} 1
datacell_transition_fire_latency_us_bucket{transition="receptor_s_0",kind="receptor",le="0"} 1
datacell_transition_fire_latency_us_bucket{transition="receptor_s_0",kind="receptor",le="+Inf"} 1
datacell_transition_fire_latency_us_sum{transition="receptor_s_0",kind="receptor"} 0
datacell_transition_fire_latency_us_count{transition="receptor_s_0",kind="receptor"} 1
)";

TEST(MetricsGolden, EngineExpositionIsPinned) {
  EngineOptions opts;
  opts.use_wall_clock = false;
  Engine engine(opts);
  Channel wire;
  BuildGoldenEngine(engine, wire);
  EXPECT_EQ(engine.MetricsText(), kEngineGolden);
}

TEST(MetricsGolden, RemovedQueryExportsNoSeries) {
  EngineOptions opts;
  opts.use_wall_clock = false;
  opts.monitor_tick_us = 1000;
  Engine engine(opts);
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
  QueryOptions separate;
  separate.strategy = ProcessingStrategy::kSeparateBaskets;
  auto gone = engine.SubmitContinuousQuery(
      "gone", "select * from [select * from r] as a", separate);
  ASSERT_TRUE(gone.ok());
  ASSERT_TRUE(engine.Ingest("r", {Value::Int64(1)}).ok());
  engine.Drain();
  ASSERT_NE(engine.MetricsText().find("factory_gone"), std::string::npos);
  ASSERT_TRUE(engine.RemoveContinuousQuery(*gone).ok());

  auto rows_naming = [&engine](const std::string& sql,
                               const std::string& needle) {
    auto t = engine.ExecuteSql(sql);
    EXPECT_TRUE(t.ok());
    int n = 0;
    for (size_t i = 0; t.ok() && i < (*t)->num_rows(); ++i) {
      if ((*t)->column(0)->GetValue(i).ToString().find(needle) !=
          std::string::npos) {
        ++n;
      }
    }
    return n;
  };
  const int transition_rows =
      rows_naming("select t.transition from sys.transitions as t", "gone");
  const int query_rows = rows_naming("select q.query from sys.queries as q", "gone");
  const int replica_rows = rows_naming("select b.name from sys.baskets as b", "r__q0");
  EXPECT_GT(transition_rows, 0);  // the tick before removal saw the query

  std::string text = engine.MetricsText();
  EXPECT_EQ(text.find("factory_gone"), std::string::npos) << text;
  EXPECT_EQ(text.find("emitter_gone"), std::string::npos) << text;
  EXPECT_EQ(text.find("query=\"gone\""), std::string::npos) << text;
  EXPECT_EQ(text.find("r__q0"), std::string::npos) << text;
  // The output stream stays a queryable stream, so it keeps its series.
  EXPECT_NE(text.find("basket=\"gone_out\""), std::string::npos) << text;
  std::string report = engine.StatsReport();
  EXPECT_EQ(report.find("gone\n"), std::string::npos) << report;
  EXPECT_EQ(report.find("factory_gone"), std::string::npos) << report;

  // The next monitor tick reads the same snapshot: no new rows name the
  // removed query or its retired replica.
  engine.simulated_clock()->Advance(1000);
  engine.Drain();
  EXPECT_EQ(rows_naming("select t.transition from sys.transitions as t", "gone"),
            transition_rows);
  EXPECT_EQ(rows_naming("select q.query from sys.queries as q", "gone"), query_rows);
  EXPECT_EQ(rows_naming("select b.name from sys.baskets as b", "r__q0"),
            replica_rows);
}

TEST(EngineMetrics, WindowLateCountOnlyForWindowedQueries) {
  EngineOptions opts;
  opts.use_wall_clock = false;
  Engine engine(opts);
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
  ASSERT_TRUE(engine
                  .SubmitContinuousQuery(
                      "win",
                      "select count(*) as c from [select * from r] as a "
                      "window size 2")
                  .ok());
  ASSERT_TRUE(
      engine.SubmitContinuousQuery("sel", "select * from [select * from r] as a")
          .ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.Ingest("r", {Value::Int64(i)}).ok());
  }
  engine.Drain();

  std::string text = engine.MetricsText();
  EXPECT_NE(text.find("datacell_window_late_dropped_total{query=\"win\"} 0"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("datacell_window_late_dropped_total{query=\"sel\"}"),
            std::string::npos)
      << text;
  std::string report = engine.StatsReport();
  auto line_of = [&report](const std::string& head) {
    size_t at = report.find(head);
    if (at == std::string::npos) return std::string();
    return report.substr(at, report.find('\n', at) - at);
  };
  EXPECT_NE(line_of("  win:").find(" late=0"), std::string::npos) << report;
  EXPECT_EQ(line_of("  sel:").find("late="), std::string::npos) << report;
}

}  // namespace
}  // namespace datacell
