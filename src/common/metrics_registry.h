#ifndef DATACELL_COMMON_METRICS_REGISTRY_H_
#define DATACELL_COMMON_METRICS_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace datacell {

/// Live, machine-readable engine metrics. Unlike the offline SampleStats
/// (metrics.h), every cell here is updated lock-free from the hot paths —
/// scheduler workers, receptors and application ingest threads — and read
/// without stopping the world. Names follow the Prometheus convention
/// (`datacell_<subsystem>_<metric>[_total|_us]` plus key="value" labels), so
/// MetricsRegistry::PrometheusText() is a valid text exposition.

/// Label set attached to a metric instance, e.g. {{"query", "hot"}}.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Static declaration of one series: its name, kind, label keys (unused
/// slots null) and the short key the `\stats` report prints it under (null
/// when \stats leaves it out). core/engine_metrics.h declares every series
/// the engine exports; samples name their series through these.
struct MetricSeries {
  const char* name;
  MetricKind kind;
  std::array<const char*, 2> label_keys;
  const char* stat_key;

  /// Pairs `values` with the label keys, in order.
  MetricLabels Labels(std::initializer_list<std::string> values) const;
};

/// Monotonically increasing atomic counter.
class Counter {
 public:
  void Inc(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Read-only copy of one histogram, with derived order statistics.
struct HistogramSnapshot {
  std::string name;
  MetricLabels labels;
  /// buckets[b] counts observations v with BucketFor(v) == b (not
  /// cumulative). Bucket 0 holds v <= 0; bucket b >= 1 holds
  /// v in [2^(b-1), 2^b - 1].
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  int64_t sum = 0;
  int64_t max = 0;

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// q in [0,1]. Estimated by linear interpolation inside the covering log2
  /// bucket, clamped to the observed max — so the error is bounded by the
  /// bucket width (a factor of 2).
  double Percentile(double q) const;
};

/// Fixed-bucket log2 latency/size histogram. Observe() is wait-free (a few
/// relaxed atomic adds plus a CAS loop for the max), so it is safe — and
/// cheap — on per-tuple paths. 64 buckets cover the whole non-negative
/// int64 range; there is nothing to configure and no allocation after
/// construction.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 64;

  void Observe(int64_t v) {
    buckets_[BucketFor(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    int64_t prev = max_.load(std::memory_order_relaxed);
    while (v > prev &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Bucket index for value `v`: 0 for v <= 0, else floor(log2(v)) + 1,
  /// clamped to the last bucket.
  static size_t BucketFor(int64_t v);
  /// Largest value bucket `b` admits (inclusive): 0 for b == 0, else
  /// 2^b - 1 (saturating at int64 max).
  static int64_t BucketUpperBound(size_t b);
  /// Smallest value bucket `b` admits: 0 for b == 0, else 2^(b-1).
  static int64_t BucketLowerBound(size_t b);

  /// Consistent-enough copy: each cell is read atomically; cells observed
  /// mid-update may differ by in-flight observations, but every completed
  /// Observe is included and count >= sum of any earlier snapshot.
  HistogramSnapshot Snapshot() const;

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
};

/// One counter or gauge sample.
struct ScalarSnapshot {
  std::string name;
  MetricLabels labels;
  int64_t value = 0;
};
using CounterSnapshot = ScalarSnapshot;
using GaugeSnapshot = ScalarSnapshot;

/// Typed point-in-time copy of a whole registry.
struct MetricsSnapshotData {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Appends one sample of counter or gauge series `s`; `values` pair up
  /// with its label keys in order.
  void Add(const MetricSeries& s, std::initializer_list<std::string> values,
           int64_t value);
  /// Appends one sample of histogram series `s`.
  void Add(const MetricSeries& s, std::initializer_list<std::string> values,
           HistogramSnapshot h);

  /// First entry matching `name` (and `label_value` as the value of any
  /// label, when non-empty). nullptr when absent.
  const CounterSnapshot* FindCounter(const std::string& name,
                                     const std::string& label_value = "") const;
  const GaugeSnapshot* FindGauge(const std::string& name,
                                 const std::string& label_value = "") const;
  const HistogramSnapshot* FindHistogram(
      const std::string& name, const std::string& label_value = "") const;
};

/// Renders the samples (counters, gauges, histograms) a collector reads
/// from the objects that own the values. The registry owns no cell of its
/// own. One registry per engine; tests may create their own.
class MetricsRegistry {
 public:
  /// Appends samples read from their owning objects; runs inside every
  /// Snapshot().
  using Collector = std::function<void(MetricsSnapshotData&)>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Set once at wiring time, before any concurrent Snapshot().
  void SetCollector(Collector collector) { collector_ = std::move(collector); }

  /// The collector's samples, each kind ordered by (name, labels).
  MetricsSnapshotData Snapshot() const;
  /// Prometheus text exposition (version 0.0.4): `# TYPE` comments, one
  /// sample line per metric, histograms as cumulative `_bucket{le=...}`
  /// series plus `_sum`/`_count`. A non-empty `prefix` restricts the output
  /// to metric names starting with it (the shell's `\metrics <prefix>`).
  std::string PrometheusText(const std::string& prefix = "") const;

 private:
  Collector collector_;
};

/// Renders `name{k1="v1",k2="v2"}` (no braces when unlabelled), escaping
/// backslashes, quotes and newlines in values per the exposition format.
std::string RenderMetricName(const std::string& name,
                             const MetricLabels& labels);

}  // namespace datacell

#endif  // DATACELL_COMMON_METRICS_REGISTRY_H_
