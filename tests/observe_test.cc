// Self-observation tests: the monitor receptor and its sys.* telemetry
// streams (including the dogfood case — a continuous query over sys.baskets
// acting as an alert stream), the per-step pipeline profiler over each
// plan's nodes, the runtime trace toggle, the
// Prometheus prefix filter, and the HTTP observability endpoint (including
// byte-identical /metrics scrapes against a running scheduler).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "adapters/monitor.h"
#include "adapters/sink.h"
#include "common/metrics_registry.h"
#include "common/trace.h"
#include "core/engine.h"
#include "differential.h"
#include "net/observability.h"

namespace datacell {
namespace {

EngineOptions Observed() {
  EngineOptions opts;
  opts.use_wall_clock = false;
  opts.monitor_tick_us = 1000;
  return opts;
}

// --- monitor receptor unit (hand-built snapshots) -------------------------

struct Delivery {
  std::string stream;
  std::vector<Row> rows;
};

MetricsSnapshotData FakeSnapshot(int64_t fires, int64_t tuples,
                                 int64_t occupancy) {
  MetricsSnapshotData snap;
  MetricLabels labels{{"transition", "t0"}, {"kind", "factory"}};
  snap.counters.push_back({"datacell_transition_fires_total", labels, fires});
  snap.counters.push_back(
      {"datacell_transition_tuples_total", labels, tuples});
  snap.gauges.push_back(
      {"datacell_basket_tuples", {{"basket", "b0"}}, occupancy});
  return snap;
}

TEST(MonitorReceptor, FirstTickAbsoluteThenDeltas) {
  SimulatedClock clock;
  int64_t fires = 7;
  int64_t tuples = 70;
  std::vector<Delivery> deliveries;
  MonitorReceptor mon(
      "mon", [&] { return FakeSnapshot(fires, tuples, 3); },
      [&](const std::string& stream, ColumnBatch&& batch) {
        Delivery d;
        d.stream = stream;
        for (size_t i = 0; i < batch.num_rows(); ++i) {
          Row row;
          for (size_t c = 0; c < batch.num_columns(); ++c) {
            row.push_back(batch.column(c).GetValue(i));
          }
          d.rows.push_back(std::move(row));
        }
        batch.Clear();
        deliveries.push_back(std::move(d));
        return Status::OK();
      },
      &clock, /*tick_us=*/1000);

  // First tick: deltas against an empty baseline, i.e. absolute values.
  ASSERT_TRUE(mon.Ready());
  auto r1 = mon.Fire();
  ASSERT_TRUE(r1.ok());
  ASSERT_EQ(deliveries.size(), 2u);  // transitions + baskets; no emitters
  EXPECT_EQ(deliveries[0].stream, MonitorReceptor::kTransitionsStream);
  ASSERT_EQ(deliveries[0].rows.size(), 1u);
  EXPECT_EQ(deliveries[0].rows[0][0].string_value(), "t0");
  EXPECT_EQ(deliveries[0].rows[0][1].int64_value(), 7);
  EXPECT_EQ(deliveries[0].rows[0][2].int64_value(), 70);
  EXPECT_EQ(deliveries[1].stream, MonitorReceptor::kBasketsStream);
  ASSERT_EQ(deliveries[1].rows.size(), 1u);
  EXPECT_EQ(deliveries[1].rows[0][0].string_value(), "b0");
  EXPECT_EQ(deliveries[1].rows[0][1].int64_value(), 3);

  // Not ready again until the next tick boundary.
  EXPECT_FALSE(mon.Ready());
  clock.Advance(1000);
  ASSERT_TRUE(mon.Ready());

  // Second tick: counters report since-last-tick deltas, gauges stay
  // instantaneous samples.
  fires = 10;
  tuples = 100;
  deliveries.clear();
  ASSERT_TRUE(mon.Fire().ok());
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].rows[0][1].int64_value(), 3);   // 10 - 7
  EXPECT_EQ(deliveries[0].rows[0][2].int64_value(), 30);  // 100 - 70
  EXPECT_EQ(deliveries[1].rows[0][1].int64_value(), 3);   // gauge, absolute
  EXPECT_EQ(mon.ticks(), 2);
}

TEST(MonitorReceptor, NoCatchUpBurstAfterStall) {
  SimulatedClock clock;
  int deliveries = 0;
  MonitorReceptor mon(
      "mon", [] { return FakeSnapshot(1, 1, 1); },
      [&](const std::string&, ColumnBatch&& batch) {
        ++deliveries;
        batch.Clear();
        return Status::OK();
      },
      &clock, /*tick_us=*/1000);
  ASSERT_TRUE(mon.Fire().ok());
  // A long stall does not queue up missed ticks: one fire, then the grid
  // resumes from now.
  clock.Advance(50'000);
  ASSERT_TRUE(mon.Ready());
  ASSERT_TRUE(mon.Fire().ok());
  EXPECT_FALSE(mon.Ready());
  clock.Advance(999);
  EXPECT_FALSE(mon.Ready());
  clock.Advance(1);
  EXPECT_TRUE(mon.Ready());
}

// --- engine wiring: sys.* streams ----------------------------------------

TEST(SysStreams, RegisteredInCatalogAndQueryable) {
  Engine engine(Observed());
  ASSERT_NE(engine.monitor(), nullptr);
  ASSERT_TRUE(engine.ExecuteSql("create basket s (x int)").ok());
  ASSERT_TRUE(engine.Ingest("s", {Value::Int64(1)}).ok());
  engine.simulated_clock()->Advance(2000);
  engine.Drain();  // fires the monitor's first tick

  // Qualified relation names parse and scan like any other basket.
  auto rows = engine.ExecuteSql(
      "select b.name, b.occupancy from sys.baskets as b "
      "where b.occupancy >= 0");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_GE((*rows)->num_rows(), 4u);  // s + the three sys streams

  auto trans = engine.ExecuteSql(
      "select t.transition, t.fires from sys.transitions as t "
      "where t.fires >= 0");
  ASSERT_TRUE(trans.ok()) << trans.status().ToString();
  EXPECT_GE((*trans)->num_rows(), 1u);  // at least the monitor itself
}

// The telemetry rows carry the engine's shard index so a sharded
// deployment's unioned sys.* streams stay attributable per shard.
TEST(SysStreams, RowsCarryTheShardIndex) {
  EngineOptions opts = Observed();
  opts.shard_index = 3;
  Engine engine(opts);
  ASSERT_TRUE(engine.ExecuteSql("create basket s (x int)").ok());
  ASSERT_TRUE(engine.Ingest("s", {Value::Int64(1)}).ok());
  engine.simulated_clock()->Advance(2000);
  engine.Drain();

  auto trans = engine.ExecuteSql(
      "select t.transition, t.shard from sys.transitions as t "
      "where t.shard = 3");
  ASSERT_TRUE(trans.ok()) << trans.status().ToString();
  EXPECT_GE((*trans)->num_rows(), 1u);

  auto baskets = engine.ExecuteSql(
      "select b.name, b.shard from sys.baskets as b where b.shard = 3");
  ASSERT_TRUE(baskets.ok()) << baskets.status().ToString();
  EXPECT_GE((*baskets)->num_rows(), 1u);
  // And nothing claims any other shard.
  auto other = engine.ExecuteSql(
      "select b.name from sys.baskets as b where b.shard <> 3");
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_EQ((*other)->num_rows(), 0u);
}

TEST(SysStreams, ReservedPrefixRejectedForUsers) {
  Engine engine(Observed());
  Schema s;
  s.AddField(Field{"x", DataType::kInt64});
  auto r = engine.CreateStream("sys.mine", s);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(engine.CreateStream("SYS.mine", s).ok());  // case-insensitive
  EXPECT_TRUE(engine.CreateStream("system_log", s).ok());  // prefix only
}

TEST(SysStreams, MonitorOffByDefault) {
  EngineOptions opts;
  opts.use_wall_clock = false;
  Engine engine(opts);
  EXPECT_EQ(engine.monitor(), nullptr);
  EXPECT_FALSE(engine.ExecuteSql("select b.name from sys.baskets as b").ok());
}

TEST(SysStreams, HistoryIsBounded) {
  EngineOptions opts = Observed();
  opts.monitor_history = 8;
  Engine engine(opts);
  ASSERT_TRUE(engine.ExecuteSql("create basket s (x int)").ok());
  for (int i = 0; i < 50; ++i) {
    engine.simulated_clock()->Advance(1000);
    engine.Drain();
  }
  auto rows = engine.ExecuteSql(
      "select b.name from sys.baskets as b where b.occupancy >= 0");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_LE((*rows)->num_rows(), 8u);
}

// The acceptance dogfood: the engine observes itself. Flooding a basket
// past a threshold makes a continuous query over sys.baskets emit an alert
// tuple through the normal emitter path.
TEST(SysStreams, DogfoodOccupancyAlert) {
  Engine engine(Observed());
  ASSERT_TRUE(engine.ExecuteSql("create basket flooded (x int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "alert",
      "select b.name, b.occupancy from [select * from sys.baskets] as b "
      "where b.occupancy > 5");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto sink = std::make_shared<CollectingSink>();
  ASSERT_TRUE(engine.Subscribe(*q, sink).ok());

  // Below threshold: a tick produces no alert.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.Ingest("flooded", {Value::Int64(i)}).ok());
  }
  engine.simulated_clock()->Advance(2000);
  engine.Drain();
  for (const Row& r : sink->SnapshotRows()) {
    EXPECT_NE(r[0].string_value(), "flooded") << "premature alert";
  }

  // Past threshold: the next tick's sys.baskets row crosses the filter.
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(engine.Ingest("flooded", {Value::Int64(i)}).ok());
  }
  engine.simulated_clock()->Advance(2000);
  engine.Drain();
  bool alerted = false;
  for (const Row& r : sink->TakeRows()) {
    if (r[0].string_value() != "flooded") continue;
    alerted = true;
    EXPECT_EQ(r[1].int64_value(), 10);
  }
  EXPECT_TRUE(alerted) << "no alert tuple for the flooded basket";
}

TEST(SysStreams, ExemptFromOrphanBasketLint) {
  // Nothing drains the sys.* baskets (they are sampled, bounded by
  // construction), so the orphan lint must not flag them.
  Engine engine(Observed());
  analysis::AnalysisReport report = engine.Analyze();
  EXPECT_FALSE(report.Has(analysis::DiagCode::kOrphanBasket))
      << report.ToString();
  // A user basket nobody reads still warns.
  ASSERT_TRUE(engine.ExecuteSql("create basket lonely (x int)").ok());
  report = engine.Analyze();
  EXPECT_TRUE(report.Has(analysis::DiagCode::kOrphanBasket))
      << report.ToString();
  EXPECT_EQ(report.ToString().find("sys."), std::string::npos)
      << report.ToString();
}

// --- per-step pipeline profiler ------------------------------------------

EngineOptions Profiled() {
  EngineOptions opts;
  opts.use_wall_clock = false;
  opts.profile_queries = true;
  return opts;
}

// Every plan node is a step that records its own rows and time, its
// children's excluded, so the steps add up to no more than the fire time.
TEST(Profiler, PlanNodeSteps) {
  Engine engine(Profiled());
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "sel", "select x from [select * from r] as s where s.x < 5");
  ASSERT_TRUE(q.ok());
  auto info = engine.GetQuery(*q);
  ASSERT_TRUE(info.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.Ingest("r", {Value::Int64(i)}).ok());
  }
  engine.Drain();

  auto report = engine.ProfileReport(*q);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("state kept across firings"), std::string::npos)
      << *report;
  EXPECT_NE(report->find("[kernel range select]"), std::string::npos)
      << *report;
  EXPECT_NE(report->find("% fire"), std::string::npos) << *report;

  PipelineProfile::Snapshot snap = (*info)->factory->profile().Snap();
  EXPECT_GE(snap.fires, 1);
  EXPECT_GT(snap.fire_time_ns, 0);
  ASSERT_EQ(snap.steps.size(), 3u) << *report;  // Project, Filter, Scan
  int64_t step_time = 0;
  for (const PipelineProfile::StepSnapshot& s : snap.steps) {
    EXPECT_EQ(s.calls, snap.fires) << s.label;
    step_time += s.time_ns;
  }
  EXPECT_LE(step_time, snap.fire_time_ns);
  const PipelineProfile::StepSnapshot& filter = snap.steps[1];
  EXPECT_EQ(filter.label.rfind("Filter(", 0), 0u) << filter.label;
  EXPECT_EQ(filter.rows_in, 10);
  EXPECT_EQ(filter.rows_out, 5);  // x in [0,10) with x < 5
  EXPECT_EQ(snap.steps[0].rows_in, 5);
  EXPECT_EQ(snap.steps[2].rows_out, 10);
}

TEST(Profiler, InterpreterFallbackSteps) {
  Engine engine(Profiled());
  ASSERT_TRUE(engine.ExecuteSql("create basket r (name varchar)").ok());
  // GROUP BY on a string key runs GroupBy per firing, with no kept group
  // table; the profiler still attributes per-plan-node rows and time.
  auto q = engine.SubmitContinuousQuery(
      "grp",
      "select name, count(*) from [select * from r] as s group by name");
  ASSERT_TRUE(q.ok());
  // A plan with a filter: the filter runs as its own plan node, so its step
  // records its calls and output rows.
  auto fq = engine.SubmitContinuousQuery(
      "grp_a",
      "select name, count(*) from [select * from r] as s "
      "where s.name = 'a' group by name");
  ASSERT_TRUE(fq.ok()) << fq.status().ToString();
  auto info = engine.GetQuery(*q);
  ASSERT_TRUE(info.ok());
  auto finfo = engine.GetQuery(*fq);
  ASSERT_TRUE(finfo.ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        engine.Ingest("r", {Value::String(i % 2 == 0 ? "a" : "b")}).ok());
  }
  engine.Drain();

  auto report = engine.ProfileReport(*q);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("Aggregate("), std::string::npos) << *report;
  EXPECT_EQ(report->find("group table kept"), std::string::npos) << *report;
  PipelineProfile::Snapshot snap = (*info)->factory->profile().Snap();
  EXPECT_GE(snap.fires, 1);
  bool saw_called_step = false;
  for (const PipelineProfile::StepSnapshot& s : snap.steps) {
    if (s.calls > 0) saw_called_step = true;
  }
  EXPECT_TRUE(saw_called_step) << *report;

  bool saw_filter = false;
  for (const PipelineProfile::StepSnapshot& s :
       (*finfo)->factory->profile().Snap().steps) {
    if (s.label.rfind("Filter(", 0) != 0) continue;
    saw_filter = true;
    EXPECT_GE(s.calls, 1) << s.label;
    EXPECT_EQ(s.rows_out, 3) << s.label;  // the three 'a' rows
  }
  EXPECT_TRUE(saw_filter) << *engine.ProfileReport(*fq);
}

TEST(Profiler, ExportedAsLabeledSeries) {
  Engine engine(Profiled());
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "sel", "select x from [select * from r] as s where s.x < 5");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine.Ingest("r", {Value::Int64(1)}).ok());
  engine.Drain();
  std::string text = engine.MetricsText();
  EXPECT_NE(text.find("datacell_profile_fires_total{query=\"sel\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("datacell_profile_step_time_ns_total{query=\"sel\""),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("datacell_profile_step_rows_total{query=\"sel\""),
            std::string::npos)
      << text;
}

TEST(Profiler, RuntimeToggleAndOffByDefault) {
  EngineOptions opts;
  opts.use_wall_clock = false;
  Engine engine(opts);
  EXPECT_FALSE(engine.profiling());
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "sel", "select x from [select * from r] as s where s.x < 5");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine.Ingest("r", {Value::Int64(1)}).ok());
  engine.Drain();
  auto info = engine.GetQuery(*q);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ((*info)->factory->profile().Snap().fires, 0);  // gated off

  engine.SetProfiling(true);  // flips live factories too
  EXPECT_TRUE(engine.profiling());
  ASSERT_TRUE(engine.Ingest("r", {Value::Int64(2)}).ok());
  engine.Drain();
  EXPECT_GE((*info)->factory->profile().Snap().fires, 1);
}

TEST(Profiler, WindowedQuerySteps) {
  // A windowed query profiles the plans its window executor runs: the
  // re-evaluated plan, or the partial and merge plans of the incremental
  // mode. Every registered step must be called.
  const char* kWindows[] = {"window size 4 slide 2",
                            "window range 4 seconds slide 2 seconds"};
  for (WindowMode mode : {WindowMode::kReEvaluation, WindowMode::kIncremental}) {
    for (const char* window : kWindows) {
      SCOPED_TRACE(std::string(window) +
                   (mode == WindowMode::kIncremental ? " incremental"
                                                     : " reeval"));
      Engine engine(Profiled());
      ASSERT_TRUE(engine.ExecuteSql("create basket r (k int, v int)").ok());
      QueryOptions qo;
      qo.window_mode = mode;
      auto q = engine.SubmitContinuousQuery(
          "win",
          std::string("select k, sum(v) as s from [select * from r] as t "
                      "group by k ") +
              window,
          qo);
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      for (int i = 0; i < 16; ++i) {
        ASSERT_TRUE(
            engine.Ingest("r", {Value::Int64(i % 3), Value::Int64(i)}).ok());
        engine.simulated_clock()->Advance(1000000);
        engine.Drain();
      }
      auto info = engine.GetQuery(*q);
      ASSERT_TRUE(info.ok());
      const Factory& f = *(*info)->factory;
      std::string desc = f.PipelineDescription();
      if (mode == WindowMode::kIncremental) {
        EXPECT_NE(desc.find("partial: plan, state kept across firings"),
                  std::string::npos)
            << desc;
      }
      EXPECT_NE(desc.find("[int64 group table kept]"), std::string::npos)
          << desc;
      PipelineProfile::Snapshot snap = f.profile().Snap();
      EXPECT_GE(snap.fires, 1);
      ASSERT_FALSE(snap.steps.empty());
      for (const PipelineProfile::StepSnapshot& s : snap.steps) {
        EXPECT_GE(s.calls, 1) << s.label << "\n" << f.ProfileReport();
      }
    }
  }
}

// One scenario with profiling off and on, each run on every configuration:
// the profiler must be observation-only.
TEST(Profiler, ProfiledEngineEmitsIdenticalResults) {
  differential::Scenario s;
  s.Setup("create basket r (x int, label string)");
  s.AddQuery("sel",
             "select x, label from [select * from r] as s "
             "where s.x > 3 and s.x < 40");
  for (int i = 0; i < 64; ++i) {
    s.Ingest("r", {{Value::Int64(i), Value::String("v" + std::to_string(i))}});
  }
  s.Drain();
  differential::Report plain = differential::Run(s);
  s.options.profile_queries = true;
  int64_t fires = 0;
  s.inspect = [&fires](const differential::Instance& inst, size_t) {
    if (inst.config.name != "reference") return;
    fires = (*inst.engine->GetQuery(0))->factory->profile().Snap().fires;
  };
  differential::Report profiled = differential::Run(s);
  ASSERT_TRUE(plain.ok()) << plain.ToString();
  ASSERT_TRUE(profiled.ok()) << profiled.ToString();
  const std::vector<Row>& ra = plain.rows(0, 0);
  const std::vector<Row>& rb = profiled.rows(0, 0);
  ASSERT_EQ(ra.size(), rb.size());
  ASSERT_GE(ra.size(), 1u);
  for (size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(ra[i].size(), rb[i].size());
    for (size_t c = 0; c < ra[i].size(); ++c) {
      EXPECT_TRUE(ra[i][c] == rb[i][c]) << "row " << i << " col " << c;
    }
  }
  // And the profiled run actually collected something.
  EXPECT_GE(fires, 1);
}

// --- trace toggle and metrics prefix filter ------------------------------

TEST(TraceToggle, RingDropsEventsWhileDisabled) {
  TraceRing ring(64);
  ring.RecordInstant("test", "a", 1);
  ring.SetEnabled(false);
  EXPECT_FALSE(ring.enabled());
  ring.RecordInstant("test", "b", 2);
  ring.SetEnabled(true);
  ring.RecordInstant("test", "c", 3);
  std::string json = ring.ToChromeJson();
  EXPECT_NE(json.find("\"a\""), std::string::npos);
  EXPECT_EQ(json.find("\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"c\""), std::string::npos);
}

TEST(TraceToggle, RuntimeSwitch) {
  EngineOptions opts;
  opts.use_wall_clock = false;
  opts.trace_capacity = 256;
  Engine engine(opts);
  if (engine.trace() == nullptr) GTEST_SKIP() << "built without tracing";
  engine.SetTraceEnabled(false);
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "sel", "select x from [select * from r] as s where s.x < 5");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine.Ingest("r", {Value::Int64(1)}).ok());
  engine.Drain();
  EXPECT_EQ(engine.trace()->size(), 0u);
  engine.SetTraceEnabled(true);
  ASSERT_TRUE(engine.Ingest("r", {Value::Int64(2)}).ok());
  engine.Drain();
  EXPECT_GT(engine.trace()->size(), 0u);
}

TEST(MetricsFilter, PrefixSelectsSeries) {
  MetricsRegistry reg;
  static constexpr MetricSeries kAlpha{"datacell_alpha_total",
                                       MetricKind::kCounter, {}, nullptr};
  static constexpr MetricSeries kBeta{"datacell_beta_total",
                                      MetricKind::kCounter, {}, nullptr};
  static constexpr MetricSeries kDepth{"datacell_alpha_depth",
                                       MetricKind::kGauge, {}, nullptr};
  reg.SetCollector([](MetricsSnapshotData& out) {
    out.Add(kAlpha, {}, 1);
    out.Add(kBeta, {}, 1);
    out.Add(kDepth, {}, 3);
  });
  std::string all = reg.PrometheusText();
  EXPECT_NE(all.find("datacell_alpha_total"), std::string::npos);
  EXPECT_NE(all.find("datacell_beta_total"), std::string::npos);
  std::string filtered = reg.PrometheusText("datacell_alpha");
  EXPECT_NE(filtered.find("datacell_alpha_total"), std::string::npos);
  EXPECT_NE(filtered.find("datacell_alpha_depth"), std::string::npos);
  EXPECT_EQ(filtered.find("datacell_beta_total"), std::string::npos);
  // The filtered view stays valid exposition: no dangling TYPE headers.
  EXPECT_EQ(filtered.find("# TYPE datacell_beta_total"), std::string::npos);
  EXPECT_TRUE(reg.PrometheusText("nomatch").empty());
}

TEST(MetricsFilter, EngineMetricsTextPrefix) {
  Engine engine(Observed());
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
  std::string filtered = engine.MetricsText("datacell_basket");
  EXPECT_NE(filtered.find("datacell_basket_tuples"), std::string::npos);
  EXPECT_EQ(filtered.find("datacell_queries"), std::string::npos);
  // No prefix == the full exposition.
  EXPECT_EQ(engine.MetricsText(""), engine.MetricsText());
}

// A golden list of series every observed engine must export once it has
// run a query: the core engine series plus the monitor's and profiler's.
TEST(MetricsGolden, ObservedEngineSeries) {
  EngineOptions opts = Observed();
  opts.profile_queries = true;
  Engine engine(opts);
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
  // select * projects the arrival ts through, which binds the per-query
  // e2e latency histogram at the emitter.
  auto q = engine.SubmitContinuousQuery(
      "sel", "select * from [select * from r] as s where s.x < 5");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine.Ingest("r", {Value::Int64(1)}).ok());
  engine.simulated_clock()->Advance(2000);
  engine.Drain();
  std::string text = engine.MetricsText();
  for (const char* series : {
           "datacell_transition_fires_total",
           "datacell_transition_tuples_total",
           "datacell_transition_fire_latency_us",
           "datacell_basket_tuples",
           "datacell_query_e2e_latency_us",
           "datacell_profile_fires_total",
           "datacell_profile_fire_time_ns_total",
           "datacell_profile_step_time_ns_total",
           "datacell_profile_step_rows_total",
           // The monitor is itself an instrumented transition.
           "transition=\"monitor\"",
           // Its output baskets are wired and gauged like any other.
           "basket=\"sys.baskets\"",
       }) {
    EXPECT_NE(text.find(series), std::string::npos)
        << "missing series " << series;
  }
}

// --- HTTP observability endpoint -----------------------------------------

/// Minimal blocking HTTP/1.0 client: sends one GET, returns the full
/// response (headers + body), or "" on connect failure.
std::string HttpGet(uint16_t port, const std::string& target) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  std::string req = "GET " + target + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < req.size()) {
    ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return resp;
}

std::string BodyOf(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST(HttpEndpoint, RoutesAndErrors) {
  Engine engine(Observed());
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "sel", "select x from [select * from r] as s where s.x < 5");
  ASSERT_TRUE(q.ok());
  ObservabilityServer server(&engine);
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.port(), 0);

  std::string health = HttpGet(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
  EXPECT_EQ(BodyOf(health), "ok\n");

  std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(BodyOf(metrics).find("datacell_transition_fires_total"),
            std::string::npos);

  // ?prefix= mirrors the \metrics prefix filter.
  std::string filtered = HttpGet(server.port(), "/metrics?prefix=datacell_basket");
  EXPECT_NE(BodyOf(filtered).find("datacell_basket_tuples"),
            std::string::npos);
  EXPECT_EQ(BodyOf(filtered).find("datacell_queries"), std::string::npos);

  std::string queries = HttpGet(server.port(), "/queries");
  EXPECT_NE(queries.find("application/json"), std::string::npos);
  EXPECT_NE(BodyOf(queries).find("\"name\":\"sel\""), std::string::npos)
      << queries;
  EXPECT_NE(BodyOf(queries).find("\"window_mode\":\"none\""),
            std::string::npos)
      << queries;

  std::string trace = HttpGet(server.port(), "/trace");
  EXPECT_NE(trace.find("200 OK"), std::string::npos);
  EXPECT_NE(BodyOf(trace).find("traceEvents"), std::string::npos);

  std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  EXPECT_GE(server.requests(), 6);
  server.Stop();
  EXPECT_FALSE(server.running());
  // After Stop the port no longer answers.
  EXPECT_EQ(HttpGet(server.port(), "/healthz"), "");
}

TEST(HttpEndpoint, StartStopRestart) {
  Engine engine(Observed());
  ObservabilityServer server(&engine);
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_FALSE(server.Start(0).ok());  // already running
  uint16_t first = server.port();
  server.Stop();
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_NE(HttpGet(server.port(), "/healthz"), "");
  (void)first;
}

// The acceptance check: a scrape taken while the scheduler threads run is
// byte-identical to what Engine::MetricsText() returns for the same state.
// Metrics move between the brackets if a fire lands in the window, so
// retry until a quiescent pair brackets the scrape.
TEST(HttpEndpoint, MetricsScrapeMatchesInProcessText) {
  EngineOptions opts;  // wall clock: the threaded scheduler needs it
  opts.idle_tick_us = 200'000;  // keep idle sweeps from racing the brackets
  Engine engine(opts);
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "sel", "select x from [select * from r] as s where s.x < 5");
  ASSERT_TRUE(q.ok());
  ObservabilityServer server(&engine);
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_TRUE(engine.Start(2).ok());
  ASSERT_TRUE(engine.Ingest("r", {Value::Int64(1)}).ok());

  bool matched = false;
  for (int attempt = 0; attempt < 50 && !matched; ++attempt) {
    std::string before = engine.MetricsText();
    std::string scraped = BodyOf(HttpGet(server.port(), "/metrics"));
    std::string after = engine.MetricsText();
    if (before == after) {
      EXPECT_EQ(scraped, before);
      matched = true;
    }
  }
  EXPECT_TRUE(matched) << "metrics never quiesced across 50 attempts";
  engine.Stop();
}

// TSan coverage: scrape every endpoint from several threads while the
// scheduler fires queries and the monitor ticks.
TEST(HttpEndpoint, ConcurrentScrapeWhileRunning) {
  EngineOptions opts;  // wall clock + monitor
  opts.monitor_tick_us = 1000;
  opts.profile_queries = true;
  Engine engine(opts);
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "sel", "select x from [select * from r] as s where s.x < 5");
  ASSERT_TRUE(q.ok());
  auto sink = std::make_shared<CollectingSink>();
  ASSERT_TRUE(engine.Subscribe(*q, sink).ok());
  ObservabilityServer server(&engine);
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_TRUE(engine.Start(2).ok());

  std::atomic<bool> stop{false};
  std::thread producer([&] {
    int i = 0;
    while (!stop.load()) {
      (void)engine.Ingest("r", {Value::Int64(i++ % 10)});
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<std::thread> scrapers;
  const char* targets[] = {"/metrics", "/queries", "/trace", "/healthz"};
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        std::string resp = HttpGet(server.port(), targets[t]);
        EXPECT_NE(resp.find("200 OK"), std::string::npos);
      }
    });
  }
  for (auto& s : scrapers) s.join();
  stop.store(true);
  producer.join();
  engine.Stop();
  server.Stop();
  EXPECT_GE(server.requests(), 100);
  EXPECT_GE(sink->row_count(), 1u);
}

}  // namespace
}  // namespace datacell
