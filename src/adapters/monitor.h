#ifndef DATACELL_ADAPTERS_MONITOR_H_
#define DATACELL_ADAPTERS_MONITOR_H_

#include <functional>
#include <map>
#include <string>

#include "common/clock.h"
#include "common/metrics_registry.h"
#include "core/transition.h"
#include "storage/column_batch.h"
#include "storage/schema.h"

namespace datacell {

/// Self-observation receptor (the "system telemetry" counterpart of the CSV
/// receptor): on a configurable tick it snapshots the engine's metrics
/// registry, diffs the counters against the previous tick and appends the
/// result as typed tuples to the reserved system streams
///
///   sys.transitions (transition, fires, tuples, fire_latency_p99_us, shard)
///   sys.baskets     (name, occupancy, appended, shed, shard)
///   sys.queries     (query, e2e_latency_p99_us, emitted)
///
/// each row stamped with the implicit ts column by the receiving basket.
/// The streams are ordinary catalog baskets, so continuous queries compose
/// over them — `select * from [select * from sys.baskets] b where
/// b.occupancy > 100000` is an alert stream fed by the engine itself, and
/// its own firings show up in the next tick's telemetry.
///
/// The monitor deliberately knows nothing about the engine: it sees a
/// snapshot function and a delivery function, both supplied at wiring time,
/// which keeps this adapter out of the core dependency cycle and makes it
/// testable against hand-built snapshots.
class MonitorReceptor : public Transition {
 public:
  /// Produces a fresh metrics snapshot (the engine binds
  /// Engine::MetricsSnapshot); series are found by their declarations in
  /// core/engine_metrics.h.
  using SnapshotFn = std::function<MetricsSnapshotData()>;
  /// Routes one telemetry batch into the named system stream.
  using DeliverFn =
      std::function<Status(const std::string& stream, ColumnBatch&& batch)>;

  static constexpr const char* kTransitionsStream = "sys.transitions";
  static constexpr const char* kBasketsStream = "sys.baskets";
  static constexpr const char* kQueriesStream = "sys.queries";

  /// User schemas (without the implicit ts) of the three system streams.
  static Schema TransitionsSchema();
  static Schema BasketsSchema();
  static Schema QueriesSchema();

  /// First tick fires immediately (deltas from zero, i.e. absolute values);
  /// subsequent ticks fire every `tick_us` of the supplied clock.
  /// `shard_index` stamps every sys.transitions / sys.baskets row, so a
  /// sharded deployment's unioned telemetry stays attributable per shard
  /// (0 for standalone engines).
  MonitorReceptor(std::string name, SnapshotFn snapshot, DeliverFn deliver,
                  const Clock* clock, int64_t tick_us, int shard_index = 0);

  bool Ready() const override;
  Result<int64_t> Fire() override;

  int64_t ticks() const { return runs(); }

 private:
  SnapshotFn snapshot_;
  DeliverFn deliver_;
  const Clock* clock_;
  int64_t tick_us_;
  int64_t shard_index_;
  // Written only inside Fire() (exactly-once via the scheduler claim);
  // Ready() reads it from sweep threads, hence atomic.
  std::atomic<Timestamp> next_tick_{0};
  // Counter values at the previous tick, keyed by rendered metric name.
  std::map<std::string, int64_t> prev_counters_;  // Fire()-private state
  // Reused across ticks so the steady state allocates nothing.
  ColumnBatch transitions_batch_{TransitionsSchema()};
  ColumnBatch baskets_batch_{BasketsSchema()};
  ColumnBatch queries_batch_{QueriesSchema()};
};

}  // namespace datacell

#endif  // DATACELL_ADAPTERS_MONITOR_H_
