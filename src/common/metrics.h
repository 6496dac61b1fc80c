#ifndef DATACELL_COMMON_METRICS_H_
#define DATACELL_COMMON_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace datacell {

/// Collects latency/size samples and reports order statistics. Used by the
/// benchmark harness to report the distributions the paper's claims concern
/// (per-tuple response time, basket occupancy, factory run time).
class SampleStats {
 public:
  void Add(double v) {
    samples_.push_back(v);
    sorted_ = false;
  }
  void Clear() {
    samples_.clear();
    sorted_ = false;
  }

  size_t count() const { return samples_.size(); }
  double Sum() const;
  double Mean() const;
  double Min() const;
  double Max() const;
  /// q in [0,1]; nearest-rank on the sorted samples. Returns 0 when empty.
  double Percentile(double q) const;
  double StdDev() const;

  /// "n=.., mean=.., p50=.., p99=.., max=.." one-liner.
  std::string Summary() const;

 private:
  // Sorted lazily by Percentile; kept simple because reporting is offline.
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void EnsureSorted() const;
};

// Live engine counters moved to common/metrics_registry.h: the old plain-
// int64_t EngineCounters struct was racy under scheduler worker threads and
// is replaced by the atomic Counter/Histogram cells there.

}  // namespace datacell

#endif  // DATACELL_COMMON_METRICS_H_
