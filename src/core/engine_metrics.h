#ifndef DATACELL_CORE_ENGINE_METRICS_H_
#define DATACELL_CORE_ENGINE_METRICS_H_

#include "common/metrics_registry.h"
#include "core/transition.h"

/// Every series the engine and the sharded frontend export, each declared
/// once: name, kind, label keys and the short key `\stats` prints. No other
/// source file spells a series name. The values live in the objects that
/// produce them (scheduler, transitions, baskets, receptors, factories,
/// emitters, the shard router) and are read from there while a snapshot
/// runs; the registry owns none of them. Prometheus text,
/// StatsReport, the sys.* monitor and the sharded frontend all render from
/// that one snapshot.
namespace datacell::series {

constexpr MetricKind C = MetricKind::kCounter;
constexpr MetricKind G = MetricKind::kGauge;
constexpr MetricKind H = MetricKind::kHistogram;

// The table, in `\stats` print order within each section. A section is the
// first label key: unlabelled (the engine line), transition, query, basket
// (\stats prints the stream bases). A histogram's \stats entry is its count
// (the fire-latency count is the fire count) followed by its percentiles.
inline constexpr MetricSeries
    kSchedulerSweeps{"datacell_scheduler_sweeps_total", C, {}, "sweeps"},
    kSchedulerFirings{"datacell_scheduler_firings_total", C, {}, "firings"},
    kSchedulerErrors{"datacell_scheduler_errors_total", C, {}, "errors"},
    kSchedulerIdleWaits{"datacell_scheduler_idle_waits_total", C, {}, nullptr},
    kSchedulerWakesNotified{"datacell_scheduler_wakes_notified_total", C, {},
                            "wakes_notified"},
    kSchedulerWakesTimeout{"datacell_scheduler_wakes_timeout_total", C, {},
                           "wakes_timeout"},
    kIngestedTuples{"datacell_ingested_tuples_total", C, {}, "ingested"},
    kPartitionableQueries{"datacell_partitionable_queries", G, {}, nullptr},
    kShardableQueries{"datacell_shardable_queries", G, {}, nullptr},
    kReceptorMalformed{"datacell_receptor_malformed_total", C, {"receptor"},
                       nullptr},
    kTransitionFires{"datacell_transition_fires_total", C,
                     {"transition", "kind"}, nullptr},
    kTransitionFireLatency{"datacell_transition_fire_latency_us", H,
                           {"transition", "kind"}, "fires"},
    kTransitionTuples{"datacell_transition_tuples_total", C,
                      {"transition", "kind"}, "tuples"},
    kQueryE2eLatency{"datacell_query_e2e_latency_us", H, {"query"},
                     "delivered"},
    kQueryStateBound{"datacell_query_state_bound_bytes", G, {"query"}, nullptr},
    kQueryState{"datacell_query_state_bytes", G, {"query"}, nullptr},
    kQueryStateHighWater{"datacell_query_state_high_water_bytes", G, {"query"},
                         nullptr},
    kWindowLateDropped{"datacell_window_late_dropped_total", C, {"query"},
                       "late"},
    kProfileFires{"datacell_profile_fires_total", C, {"query"}, nullptr},
    kProfileFireTime{"datacell_profile_fire_time_ns_total", C, {"query"},
                     nullptr},
    kProfileStepTime{"datacell_profile_step_time_ns_total", C,
                     {"query", "step"}, nullptr},
    kProfileStepRows{"datacell_profile_step_rows_total", C, {"query", "step"},
                     nullptr},
    kBasketTuples{"datacell_basket_tuples", G, {"basket"}, "buffered"},
    kBasketHighWater{"datacell_basket_high_water", G, {"basket"}, "high_water"},
    kBasketAppended{"datacell_basket_appended_total", C, {"basket"}, "in"},
    kBasketConsumed{"datacell_basket_consumed_total", C, {"basket"}, "out"},
    kBasketShed{"datacell_basket_shed_total", C, {"basket"}, "shed"},
    kBasketBytes{"datacell_basket_bytes", G, {"basket"}, "bytes"},
    kShardRouted{"datacell_shard_routed_tuples_total", C, {"shard"}, nullptr},
    kShardBroadcast{"datacell_shard_broadcast_tuples_total", C, {}, nullptr};

inline constexpr const MetricSeries* kAll[] = {
    &kSchedulerSweeps,     &kSchedulerFirings,     &kSchedulerErrors,
    &kSchedulerIdleWaits,  &kSchedulerWakesNotified, &kSchedulerWakesTimeout,
    &kIngestedTuples,      &kPartitionableQueries, &kShardableQueries,
    &kReceptorMalformed,
    &kTransitionFires,     &kTransitionFireLatency, &kTransitionTuples,
    &kQueryE2eLatency,     &kQueryStateBound,      &kQueryState,
    &kQueryStateHighWater, &kWindowLateDropped,   &kProfileFires,         &kProfileFireTime,
    &kProfileStepTime,     &kProfileStepRows,      &kBasketTuples,
    &kBasketHighWater,     &kBasketAppended,       &kBasketConsumed,
    &kBasketShed,          &kBasketBytes,          &kShardRouted,
    &kShardBroadcast};

/// Appends transition `t`'s fires, tuples and fire-latency samples, read
/// from the transition itself.
inline void AddTransition(MetricsSnapshotData& out, const Transition& t) {
  const std::string kind = TransitionKindToString(t.kind());
  out.Add(kTransitionFires, {t.name(), kind}, t.runs());
  out.Add(kTransitionTuples, {t.name(), kind}, t.tuples_processed());
  out.Add(kTransitionFireLatency, {t.name(), kind},
          t.fire_latency_us().Snapshot());
}

}  // namespace datacell::series

#endif  // DATACELL_CORE_ENGINE_METRICS_H_
