// Concurrency stress tests for the threaded engine: multiple scheduler
// workers, multiple factories sharing baskets, multi-threaded producers.
// They guard the event-driven wakeup path (Basket/Channel -> NotifyWork)
// and the shared-basket watermark protocol: no tuple may be lost or
// delivered twice, regardless of thread interleaving. Run them under TSan
// with -DDATACELL_SANITIZE=thread and `ctest -L concurrency`.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "adapters/channel.h"
#include "adapters/sink.h"
#include "core/engine.h"
#include "core/shard.h"

namespace datacell {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// Polls `done` until it returns true or `limit` elapses.
template <typename Pred>
bool WaitFor(Pred done, milliseconds limit) {
  auto deadline = steady_clock::now() + limit;
  while (!done()) {
    if (steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

TEST(ConcurrencyStress, SharedBasketManyProducersManyWorkers) {
  constexpr int kProducers = 4;
  constexpr int kBatchesPerProducer = 50;
  constexpr int kRowsPerBatch = 64;
  constexpr int64_t kTotal =
      int64_t{kProducers} * kBatchesPerProducer * kRowsPerBatch;

  Engine engine;
  ASSERT_TRUE(engine.ExecuteSql("create basket s (k int, v int)").ok());

  // Two queries share the stream basket (kSharedBaskets is the default):
  // one passes everything, one selects half. Between them every tuple must
  // be seen exactly once per query.
  auto q_all = engine.SubmitContinuousQuery(
      "q_all", "select k, v from [select * from s] as a");
  ASSERT_TRUE(q_all.ok()) << q_all.status().ToString();
  auto q_half = engine.SubmitContinuousQuery(
      "q_half", "select k from [select * from s] as b where b.k >= 32");
  ASSERT_TRUE(q_half.ok()) << q_half.status().ToString();

  auto all_sink = std::make_shared<CountingSink>();
  auto half_sink = std::make_shared<CountingSink>();
  ASSERT_TRUE(engine.Subscribe(*q_all, all_sink).ok());
  ASSERT_TRUE(engine.Subscribe(*q_half, half_sink).ok());

  ASSERT_TRUE(engine.Start(4).ok());

  // Producers run concurrently with the scheduler workers; every batch
  // holds k = 0..63 once, so exactly half of each batch matches q_half.
  std::atomic<int> failures{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, &failures] {
      for (int b = 0; b < kBatchesPerProducer; ++b) {
        std::vector<Row> rows;
        rows.reserve(kRowsPerBatch);
        for (int i = 0; i < kRowsPerBatch; ++i) {
          rows.push_back({Value::Int64(i), Value::Int64(b)});
        }
        if (!engine.IngestBatch("s", rows).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.tuples_ingested(), kTotal);

  // The wakeup path (not polling) must drive both queries to completion.
  ASSERT_TRUE(WaitFor(
      [&] {
        return all_sink->rows() >= kTotal && half_sink->rows() >= kTotal / 2;
      },
      milliseconds(10000)))
      << "all=" << all_sink->rows() << " half=" << half_sink->rows();
  engine.Stop();

  // Exactly-once delivery: nothing lost (checked above), nothing doubled.
  EXPECT_EQ(all_sink->rows(), kTotal);
  EXPECT_EQ(half_sink->rows(), kTotal / 2);
  EXPECT_EQ(engine.scheduler().error_count(), 0);
}

TEST(ConcurrencyStress, SeparateBasketsExactlyOncePerReplica) {
  constexpr int kProducers = 3;
  constexpr int kRowsPerProducer = 2000;
  constexpr int64_t kTotal = int64_t{kProducers} * kRowsPerProducer;

  EngineOptions opts;
  opts.default_strategy = ProcessingStrategy::kSeparateBaskets;
  Engine engine(opts);
  ASSERT_TRUE(engine.ExecuteSql("create basket s (x int)").ok());

  auto q0 = engine.SubmitContinuousQuery(
      "q0", "select x from [select * from s] as a");
  auto q1 = engine.SubmitContinuousQuery(
      "q1", "select x from [select * from s] as b where b.x < 1000");
  ASSERT_TRUE(q0.ok() && q1.ok());
  auto sink0 = std::make_shared<CountingSink>();
  auto sink1 = std::make_shared<CountingSink>();
  ASSERT_TRUE(engine.Subscribe(*q0, sink0).ok());
  ASSERT_TRUE(engine.Subscribe(*q1, sink1).ok());

  ASSERT_TRUE(engine.Start(4).ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, &failures] {
      for (int i = 0; i < kRowsPerProducer; ++i) {
        if (!engine.Ingest("s", {Value::Int64(i % 2000)}).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  ASSERT_EQ(failures.load(), 0);

  ASSERT_TRUE(WaitFor(
      [&] {
        return sink0->rows() >= kTotal && sink1->rows() >= kTotal / 2;
      },
      milliseconds(10000)))
      << "q0=" << sink0->rows() << " q1=" << sink1->rows();
  engine.Stop();

  EXPECT_EQ(sink0->rows(), kTotal);         // every tuple, exactly once
  EXPECT_EQ(sink1->rows(), kTotal / 2);     // x in [0,1000) is half
  EXPECT_EQ(engine.scheduler().error_count(), 0);
}

TEST(ConcurrencyStress, IdleSchedulerBlocksAndWakesOnAppend) {
  Engine engine;
  ASSERT_TRUE(engine.ExecuteSql("create basket s (x int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "q", "select x from [select * from s] as a");
  ASSERT_TRUE(q.ok());
  auto sink = std::make_shared<CountingSink>();
  ASSERT_TRUE(engine.Subscribe(*q, sink).ok());
  ASSERT_TRUE(engine.Start(2).ok());

  // Let the workers go idle, then measure the sweep rate over 300 ms. The
  // old scheduler sleep-polled every 50 us (=> ~6000 sweeps per worker in
  // this window); a blocked scheduler only re-sweeps on the 2 ms fallback
  // (~150 per worker). Assert well under the polling rate.
  std::this_thread::sleep_for(milliseconds(100));
  int64_t sweeps_before = engine.scheduler().sweeps();
  std::this_thread::sleep_for(milliseconds(300));
  int64_t idle_sweeps = engine.scheduler().sweeps() - sweeps_before;
  EXPECT_LT(idle_sweeps, 2000) << "idle scheduler appears to be busy-polling";
  EXPECT_GT(engine.scheduler().idle_waits(), 0);

  // An append must wake the blocked workers promptly (CV notify, not the
  // fallback tick) and flow through factory and emitter to the sink.
  ASSERT_TRUE(engine.Ingest("s", {Value::Int64(7)}).ok());
  EXPECT_TRUE(WaitFor([&] { return sink->rows() >= 1; }, milliseconds(2000)));
  engine.Stop();
  EXPECT_EQ(sink->rows(), 1);
}

TEST(ConcurrencyStress, ChannelWakeDrivesReceptor) {
  Engine engine;
  ASSERT_TRUE(engine.ExecuteSql("create basket s (x int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "q", "select x from [select * from s] as a");
  ASSERT_TRUE(q.ok());
  auto sink = std::make_shared<CountingSink>();
  ASSERT_TRUE(engine.Subscribe(*q, sink).ok());

  Channel channel;
  ASSERT_TRUE(engine.AttachReceptor("s", &channel).ok());
  ASSERT_TRUE(engine.Start(2).ok());

  // Writers racing on one channel; every line must reach the sink.
  constexpr int kWriters = 3;
  constexpr int kLines = 500;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&channel, w] {
      for (int i = 0; i < kLines; ++i) {
        channel.Push(std::to_string(w * kLines + i));
      }
    });
  }
  for (std::thread& t : writers) t.join();

  ASSERT_TRUE(WaitFor([&] { return sink->rows() >= kWriters * kLines; },
                      milliseconds(10000)))
      << "rows=" << sink->rows();
  engine.Stop();
  EXPECT_EQ(sink->rows(), kWriters * kLines);
  EXPECT_EQ(channel.total_dropped(), 0);
}

TEST(ConcurrencyStress, MixedPushKindsDeliverEveryTupleOnceInOrder) {
  Engine engine;
  ASSERT_TRUE(engine.ExecuteSql("create basket s (p int, i int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "q", "select p, i from [select * from s] as a");
  ASSERT_TRUE(q.ok());
  auto sink = std::make_shared<CollectingSink>();
  ASSERT_TRUE(engine.Subscribe(*q, sink).ok());

  Channel channel;
  auto receptor = engine.AttachReceptor("s", &channel);
  ASSERT_TRUE(receptor.ok());
  ASSERT_TRUE(engine.Start(2).ok());

  // Two producers, each cycling through Push, PushBatch and PushBlock in
  // chunks of 1-7 lines; every PushBlock chunk also carries one malformed
  // line, which must be dropped and counted, never delivered.
  constexpr int kProducers = 2;
  constexpr int kLines = 3000;
  std::atomic<int64_t> bad_lines{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&channel, &bad_lines, p] {
      int i = 0;
      for (int chunk = 0; i < kLines; ++chunk) {
        const int n = std::min(1 + chunk % 7, kLines - i);
        auto line = [p](int k) {
          return std::to_string(p) + "," + std::to_string(k);
        };
        switch (chunk % 3) {
          case 0:
            for (int k = 0; k < n; ++k) channel.Push(line(i + k));
            break;
          case 1: {
            std::vector<std::string> lines;
            for (int k = 0; k < n; ++k) lines.push_back(line(i + k));
            channel.PushBatch(std::move(lines));
            break;
          }
          case 2: {
            std::string text;
            for (int k = 0; k < n; ++k) text += line(i + k) + "\n";
            text += "not,a-tuple";
            channel.PushBlock(text);
            bad_lines.fetch_add(1);
            break;
          }
        }
        i += n;
      }
    });
  }
  for (std::thread& t : producers) t.join();

  ASSERT_TRUE(WaitFor([&] { return sink->row_count() >= kProducers * kLines; },
                      milliseconds(10000)))
      << "rows=" << sink->row_count();
  ASSERT_TRUE(WaitFor([&] { return channel.empty(); }, milliseconds(10000)));
  engine.Stop();

  std::vector<Row> rows = sink->TakeRows();
  ASSERT_EQ(rows.size(), static_cast<size_t>(kProducers * kLines));
  std::vector<int64_t> next(kProducers, 0);
  for (const Row& row : rows) {
    int64_t p = row[0].int64_value();
    ASSERT_GE(p, 0);
    ASSERT_LT(p, kProducers);
    ASSERT_EQ(row[1].int64_value(), next[p]) << "producer " << p;
    ++next[p];
  }
  EXPECT_EQ((*receptor)->malformed_lines(), bad_lines.load());
  EXPECT_EQ(channel.total_pushed(), kProducers * kLines + bad_lines.load());
  EXPECT_EQ(channel.total_dropped(), 0);
}

TEST(ConcurrencyStress, ParallelKernelsInsideThreadedScheduler) {
  // Batches of thousands of rows through a filter while two scheduler
  // workers race ingest: every qualifying row arrives exactly once.
  Engine engine;
  ASSERT_TRUE(engine.ExecuteSql("create basket s (x int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "q", "select x from [select * from s] as a where a.x >= 500");
  ASSERT_TRUE(q.ok());
  auto sink = std::make_shared<CountingSink>();
  ASSERT_TRUE(engine.Subscribe(*q, sink).ok());
  ASSERT_TRUE(engine.Start(2).ok());

  constexpr int kBatches = 20;
  constexpr int kRows = 5000;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<Row> rows;
    rows.reserve(kRows);
    for (int i = 0; i < kRows; ++i) {
      rows.push_back({Value::Int64(i % 1000)});
    }
    ASSERT_TRUE(engine.IngestBatch("s", rows).ok());
  }
  constexpr int64_t kExpected = int64_t{kBatches} * kRows / 2;  // x in [500,1000)
  ASSERT_TRUE(
      WaitFor([&] { return sink->rows() >= kExpected; }, milliseconds(10000)))
      << "rows=" << sink->rows();
  engine.Stop();
  EXPECT_EQ(sink->rows(), kExpected);
  EXPECT_EQ(engine.scheduler().error_count(), 0);
}

/// Regression for the observability layer's thread-safety: the engine's
/// counters used to be plain int64_t fields written by scheduler workers and
/// read by reporting threads — a data race TSan flags. Every metric now
/// lives in atomic cells its owner keeps; this test scrapes MetricsSnapshot,
/// MetricsText and StatsReport continuously while producers and scheduler
/// workers hammer the pipeline, and must stay clean under
/// -DDATACELL_SANITIZE=thread.
TEST(ConcurrencyStress, MetricsScrapeWhilePipelineRuns) {
  constexpr int kProducers = 2;
  constexpr int kBatchesPerProducer = 40;
  constexpr int kRowsPerBatch = 32;
  constexpr int64_t kTotal =
      int64_t{kProducers} * kBatchesPerProducer * kRowsPerBatch;

  EngineOptions opts;
  opts.trace_capacity = 1 << 10;  // trace recording races the scrapers too
  Engine engine(opts);
  ASSERT_TRUE(engine.ExecuteSql("create basket s (x int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "scrape", "select * from [select * from s] as a");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto sink = std::make_shared<CountingSink>();
  ASSERT_TRUE(engine.Subscribe(*q, sink).ok());
  ASSERT_TRUE(engine.Start(4).ok());

  std::atomic<bool> stop{false};
  std::thread scraper([&engine, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      MetricsSnapshotData snap = engine.MetricsSnapshot();
      const CounterSnapshot* fires =
          snap.FindCounter("datacell_transition_fires_total", "factory_scrape");
      ASSERT_NE(fires, nullptr);
      ASSERT_GE(fires->value, 0);
      std::string text = engine.MetricsText();
      ASSERT_FALSE(text.empty());
      std::string report = engine.StatsReport();
      ASSERT_FALSE(report.empty());
      std::string json = engine.TraceJson();
      if (kTraceCompiled) {
        ASSERT_FALSE(json.empty());
      }
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine] {
      for (int b = 0; b < kBatchesPerProducer; ++b) {
        std::vector<Row> rows;
        for (int i = 0; i < kRowsPerBatch; ++i) {
          rows.push_back({Value::Int64(i)});
        }
        if (!engine.IngestBatch("s", rows).ok()) return;
      }
    });
  }
  for (std::thread& t : producers) t.join();
  ASSERT_TRUE(
      WaitFor([&] { return sink->rows() >= kTotal; }, milliseconds(10000)))
      << "rows=" << sink->rows();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  engine.Stop();

  EXPECT_EQ(sink->rows(), kTotal);
  MetricsSnapshotData snap = engine.MetricsSnapshot();
  EXPECT_EQ(snap.FindCounter("datacell_transition_tuples_total",
                             "factory_scrape")->value,
            kTotal);
  EXPECT_EQ(snap.FindHistogram("datacell_query_e2e_latency_us", "scrape")
                ->count,
            static_cast<uint64_t>(kTotal));
  EXPECT_EQ(engine.scheduler().error_count(), 0);
}

// INSERT into a catalog table would append to the column vectors a running
// factory's kept join index and gather read on a worker thread, so it is
// refused until Stop(). Basket inserts are ingest and keep flowing; the
// table insert lands once the scheduler is stopped, and the next firing
// joins against the grown table.
TEST(ConcurrencyStress, TableInsertRequiresStoppedScheduler) {
  constexpr int kRows = 2000;
  Engine engine;
  ASSERT_TRUE(engine
                  .ExecuteScript("create table t (k int, w int);"
                                 "insert into t values (1, 10);"
                                 "create basket s (x int);")
                  .ok());
  auto q = engine.SubmitContinuousQuery(
      "j", "select s.x, t.w from [select * from s] as s join t on s.x = t.k");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto sink = std::make_shared<CountingSink>();
  ASSERT_TRUE(engine.Subscribe(*q, sink).ok());

  ASSERT_TRUE(engine.Start(2).ok());
  std::thread producer([&engine] {
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(engine.Ingest("s", {Value::Int64(1 + i % 2)}).ok());
    }
  });
  for (int i = 0; i < 50; ++i) {
    Status st = engine.ExecuteSql("insert into t values (2, 20)").status();
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  }
  EXPECT_TRUE(engine.ExecuteSql("insert into s values (1)").ok());
  producer.join();
  ASSERT_TRUE(WaitFor([&] { return sink->rows() >= kRows / 2 + 1; },
                      milliseconds(10000)))
      << "rows=" << sink->rows();
  engine.Stop();
  EXPECT_EQ(sink->rows(), kRows / 2 + 1);  // only key 1 is in t

  ASSERT_TRUE(engine.ExecuteSql("insert into t values (2, 20)").ok());
  ASSERT_TRUE(engine.Ingest("s", {Value::Int64(2)}).ok());
  engine.Drain();
  EXPECT_EQ(sink->rows(), kRows / 2 + 2);
  EXPECT_EQ(engine.scheduler().error_count(), 0);
}

// The same on a ShardedEngine: a static table replicates to every shard,
// and each running shard refuses the insert.
TEST(ConcurrencyStress, ShardedTableInsertRequiresStoppedShards) {
  constexpr int kRows = 1000;
  ShardedEngine se(ShardedEngineOptions{2, EngineOptions{}});
  ASSERT_TRUE(se.ExecuteScript("create table t (k int, w int);"
                               "insert into t values (1, 10);"
                               "create basket s (x int) partition by x;")
                  .ok());
  auto q = se.SubmitContinuousQuery(
      "j", "select s.x, t.w from [select * from s] as s join t on s.x = t.k");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto sink = std::make_shared<CountingSink>();
  ASSERT_TRUE(se.Subscribe(*q, sink).ok());

  ASSERT_TRUE(se.Start().ok());
  std::vector<Row> rows;
  for (int i = 0; i < kRows; ++i) rows.push_back({Value::Int64(1 + i % 2)});
  ASSERT_TRUE(se.IngestBatch("s", rows).ok());
  Status st = se.ExecuteSql("insert into t values (2, 20)").status();
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  ASSERT_TRUE(WaitFor([&] { return sink->rows() >= kRows / 2; },
                      milliseconds(10000)))
      << "rows=" << sink->rows();
  se.Stop();
  se.Drain();
  EXPECT_EQ(sink->rows(), kRows / 2);

  ASSERT_TRUE(se.ExecuteSql("insert into t values (2, 20)").ok());
  ASSERT_TRUE(se.IngestBatch("s", {{Value::Int64(2)}}).ok());
  se.Drain();
  EXPECT_EQ(sink->rows(), kRows / 2 + 1);
}

}  // namespace
}  // namespace datacell
