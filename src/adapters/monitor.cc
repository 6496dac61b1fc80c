#include "adapters/monitor.h"

#include <string_view>
#include <utility>

#include "core/engine_metrics.h"

namespace datacell {

Schema MonitorReceptor::TransitionsSchema() {
  Schema s;
  s.AddField(Field{"transition", DataType::kString});
  s.AddField(Field{"fires", DataType::kInt64});
  s.AddField(Field{"tuples", DataType::kInt64});
  s.AddField(Field{"fire_latency_p99_us", DataType::kDouble});
  s.AddField(Field{"shard", DataType::kInt64});
  return s;
}

Schema MonitorReceptor::BasketsSchema() {
  Schema s;
  // "basket" is a reserved SQL word, so the identifying column is "name".
  s.AddField(Field{"name", DataType::kString});
  s.AddField(Field{"occupancy", DataType::kInt64});
  s.AddField(Field{"appended", DataType::kInt64});
  s.AddField(Field{"shed", DataType::kInt64});
  s.AddField(Field{"shard", DataType::kInt64});
  return s;
}

Schema MonitorReceptor::QueriesSchema() {
  Schema s;
  s.AddField(Field{"query", DataType::kString});
  s.AddField(Field{"e2e_latency_p99_us", DataType::kDouble});
  s.AddField(Field{"emitted", DataType::kInt64});
  return s;
}

MonitorReceptor::MonitorReceptor(std::string name, SnapshotFn snapshot,
                                 DeliverFn deliver, const Clock* clock,
                                 int64_t tick_us, int shard_index)
    : Transition(std::move(name), TransitionKind::kReceptor),
      snapshot_(std::move(snapshot)),
      deliver_(std::move(deliver)),
      clock_(clock),
      tick_us_(tick_us),
      shard_index_(shard_index) {}

bool MonitorReceptor::Ready() const {
  return clock_->Now() >= next_tick_.load(std::memory_order_relaxed);
}

Result<int64_t> MonitorReceptor::Fire() {
  Timestamp start = clock_->Now();
  if (start < next_tick_.load(std::memory_order_relaxed)) return 0;

  MetricsSnapshotData snap = snapshot_();
  // Index the snapshot once by rendered name: counters (also the delta
  // baseline for the next tick) and histograms.
  std::map<std::string, int64_t> counters;
  for (const CounterSnapshot& c : snap.counters) {
    counters[RenderMetricName(c.name, c.labels)] = c.value;
  }
  std::map<std::string, const HistogramSnapshot*> histograms;
  for (const HistogramSnapshot& h : snap.histograms) {
    histograms[RenderMetricName(h.name, h.labels)] = &h;
  }
  // Since-last-tick change of counter series `s` for the instance `labels`.
  auto delta = [&](const MetricSeries& s, const MetricLabels& labels) {
    std::string key = RenderMetricName(s.name, labels);
    auto now = counters.find(key);
    if (now == counters.end()) return int64_t{0};
    auto prev = prev_counters_.find(key);
    return now->second - (prev == prev_counters_.end() ? 0 : prev->second);
  };
  auto p99 = [&](const MetricSeries& s, const MetricLabels& labels) {
    auto it = histograms.find(RenderMetricName(s.name, labels));
    return it == histograms.end() || it->second->count == 0
               ? 0.0
               : it->second->Percentile(0.99);
  };

  // Label values sit in the declared key order (core/engine_metrics.h):
  // transition series are {transition, kind}, basket series {basket}.
  // sys.transitions: one row per transition (the per-fire series carries the
  // since-last-tick deltas; the p99 is lifetime, the histogram is additive).
  for (const CounterSnapshot& c : snap.counters) {
    if (c.name != series::kTransitionFires.name) continue;
    transitions_batch_.column(0).AppendString(c.labels[0].second);
    transitions_batch_.column(1).AppendInt64(
        delta(series::kTransitionFires, c.labels));
    transitions_batch_.column(2).AppendInt64(
        delta(series::kTransitionTuples, c.labels));
    transitions_batch_.column(3).AppendDouble(
        p99(series::kTransitionFireLatency, c.labels));
    transitions_batch_.column(4).AppendInt64(shard_index_);
  }

  // sys.baskets: one row per wired basket (the occupancy gauge is the
  // instantaneous sample; appended/shed are since-last-tick deltas).
  for (const GaugeSnapshot& g : snap.gauges) {
    if (g.name != series::kBasketTuples.name) continue;
    baskets_batch_.column(0).AppendString(g.labels[0].second);
    baskets_batch_.column(1).AppendInt64(g.value);
    baskets_batch_.column(2).AppendInt64(
        delta(series::kBasketAppended, g.labels));
    baskets_batch_.column(3).AppendInt64(delta(series::kBasketShed, g.labels));
    baskets_batch_.column(4).AppendInt64(shard_index_);
  }

  // sys.queries: one row per registered query, identified by its emitter
  // (every query has exactly one; "emitted" counts tuples it delivered).
  for (const CounterSnapshot& c : snap.counters) {
    if (c.name != series::kTransitionFires.name) continue;
    if (c.labels[1].second != "emitter") continue;
    const std::string& tname = c.labels[0].second;
    constexpr std::string_view kPrefix = "emitter_";
    std::string qname = tname.substr(0, kPrefix.size()) == kPrefix
                            ? tname.substr(kPrefix.size())
                            : tname;
    queries_batch_.column(0).AppendString(qname);
    queries_batch_.column(1).AppendDouble(p99(
        series::kQueryE2eLatency, series::kQueryE2eLatency.Labels({qname})));
    queries_batch_.column(2).AppendInt64(
        delta(series::kTransitionTuples, c.labels));
  }

  int64_t rows = static_cast<int64_t>(transitions_batch_.num_rows() +
                                      baskets_batch_.num_rows() +
                                      queries_batch_.num_rows());
  if (!transitions_batch_.empty()) {
    DC_RETURN_NOT_OK(
        deliver_(kTransitionsStream, std::move(transitions_batch_)));
  }
  if (!baskets_batch_.empty()) {
    DC_RETURN_NOT_OK(deliver_(kBasketsStream, std::move(baskets_batch_)));
  }
  if (!queries_batch_.empty()) {
    DC_RETURN_NOT_OK(deliver_(kQueriesStream, std::move(queries_batch_)));
  }
  prev_counters_ = std::move(counters);

  // Advance relative to the scheduled tick so a late fire does not shift the
  // grid, but never into the past (no catch-up bursts after a stall).
  Timestamp next = next_tick_.load(std::memory_order_relaxed) + tick_us_;
  if (next <= start) next = start + tick_us_;
  next_tick_.store(next, std::memory_order_relaxed);
  RecordRun(rows, clock_->Now() - start);
  return rows;
}

}  // namespace datacell
