#include "common/metrics_registry.h"

#include "common/check.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <tuple>

namespace datacell {

size_t Histogram::BucketFor(int64_t v) {
  if (v <= 0) return 0;
  size_t b = static_cast<size_t>(std::bit_width(static_cast<uint64_t>(v)));
  return std::min(b, kNumBuckets - 1);
}

int64_t Histogram::BucketUpperBound(size_t b) {
  if (b == 0) return 0;
  if (b >= 63) return std::numeric_limits<int64_t>::max();
  return (int64_t{1} << b) - 1;
}

int64_t Histogram::BucketLowerBound(size_t b) {
  if (b == 0) return 0;
  return int64_t{1} << (b - 1);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot s;
  s.buckets.resize(kNumBuckets);
  for (size_t b = 0; b < kNumBuckets; ++b) {
    s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  return s;
}

double HistogramSnapshot::Percentile(double q) const {
  // The per-bucket cells and `count` are read independently, so under
  // concurrent observation their totals can disagree transiently; rank
  // against the buckets' own total for internal consistency.
  uint64_t total = 0;
  for (uint64_t c : buckets) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank target, 1-based.
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(total));
  if (target == 0) target = 1;
  if (target > total) target = total;
  uint64_t cum = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    if (cum + buckets[b] >= target) {
      double lo = static_cast<double>(Histogram::BucketLowerBound(b));
      double hi = static_cast<double>(Histogram::BucketUpperBound(b));
      double frac = static_cast<double>(target - cum) /
                    static_cast<double>(buckets[b]);
      double est = lo + frac * (hi - lo);
      // The true maximum is tracked exactly; never report past it.
      if (max > 0) est = std::min(est, static_cast<double>(max));
      return est;
    }
    cum += buckets[b];
  }
  return static_cast<double>(max);
}

namespace {

template <typename S>
const S* FindEntry(const std::vector<S>& entries, const std::string& name,
                   const std::string& label_value) {
  for (const S& e : entries) {
    if (e.name != name) continue;
    if (label_value.empty()) return &e;
    for (const auto& [k, v] : e.labels) {
      if (v == label_value) return &e;
    }
  }
  return nullptr;
}

std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Renders labels with an optional extra (le=...) pair appended — the
/// histogram bucket series need it.
std::string RenderLabels(const MetricLabels& labels, const std::string& extra_key,
                         const std::string& extra_value) {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + EscapeLabelValue(v) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key + "=\"" + extra_value + "\"";
  }
  out += "}";
  return out;
}

void AppendTypeHeader(std::string& out, std::string& last_typed,
                      const std::string& name, const char* type) {
  if (name == last_typed) return;
  out += "# TYPE " + name + " " + type + "\n";
  last_typed = name;
}

}  // namespace

MetricLabels MetricSeries::Labels(
    std::initializer_list<std::string> values) const {
  DC_DCHECK(values.size() <= label_keys.size());
  MetricLabels labels;
  size_t i = 0;
  for (const std::string& v : values) labels.emplace_back(label_keys[i++], v);
  return labels;
}

void MetricsSnapshotData::Add(const MetricSeries& s,
                              std::initializer_list<std::string> values,
                              int64_t value) {
  auto& samples = s.kind == MetricKind::kCounter ? counters : gauges;
  samples.push_back(ScalarSnapshot{s.name, s.Labels(values), value});
}

void MetricsSnapshotData::Add(const MetricSeries& s,
                              std::initializer_list<std::string> values,
                              HistogramSnapshot h) {
  h.name = s.name;
  h.labels = s.Labels(values);
  histograms.push_back(std::move(h));
}

const CounterSnapshot* MetricsSnapshotData::FindCounter(
    const std::string& name, const std::string& label_value) const {
  return FindEntry(counters, name, label_value);
}

const GaugeSnapshot* MetricsSnapshotData::FindGauge(
    const std::string& name, const std::string& label_value) const {
  return FindEntry(gauges, name, label_value);
}

const HistogramSnapshot* MetricsSnapshotData::FindHistogram(
    const std::string& name, const std::string& label_value) const {
  return FindEntry(histograms, name, label_value);
}

std::string RenderMetricName(const std::string& name,
                             const MetricLabels& labels) {
  return name + RenderLabels(labels, "", "");
}

MetricsSnapshotData MetricsRegistry::Snapshot() const {
  MetricsSnapshotData out;
  if (collector_) collector_(out);
  // Same-name series must be adjacent for PrometheusText's # TYPE headers.
  auto by_key = [](const auto& a, const auto& b) {
    return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
  };
  std::sort(out.counters.begin(), out.counters.end(), by_key);
  std::sort(out.gauges.begin(), out.gauges.end(), by_key);
  std::sort(out.histograms.begin(), out.histograms.end(), by_key);
  return out;
}

std::string MetricsRegistry::PrometheusText(const std::string& prefix) const {
  MetricsSnapshotData snap = Snapshot();
  // Name-prefix filter (empty matches everything): the shell's
  // `\metrics datacell_basket` view. Filtering whole series keeps the
  // remaining exposition byte-identical to the unfiltered one.
  auto matches = [&prefix](const std::string& name) {
    return prefix.empty() || name.compare(0, prefix.size(), prefix) == 0;
  };
  std::string out;
  std::string last_typed;
  // Snapshot() orders by (name, labels), so same-name series are adjacent
  // and get one # TYPE header.
  auto scalars = [&](const auto& samples, const char* type) {
    for (const auto& m : samples) {
      if (!matches(m.name)) continue;
      AppendTypeHeader(out, last_typed, m.name, type);
      out += m.name + RenderLabels(m.labels, "", "") + " " +
             std::to_string(m.value) + "\n";
    }
    last_typed.clear();
  };
  scalars(snap.counters, "counter");
  scalars(snap.gauges, "gauge");
  for (const HistogramSnapshot& h : snap.histograms) {
    if (!matches(h.name)) continue;
    AppendTypeHeader(out, last_typed, h.name, "histogram");
    uint64_t cum = 0;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      cum += h.buckets[b];
      // Empty tail buckets add nothing; emit the populated prefix plus +Inf.
      if (h.buckets[b] == 0 && b > 0) continue;
      out += h.name + "_bucket" +
             RenderLabels(h.labels, "le",
                          std::to_string(Histogram::BucketUpperBound(b))) +
             " " + std::to_string(cum) + "\n";
    }
    // +Inf and _count repeat the buckets' own total (not the separate count
    // cell) so the exposition is internally consistent even when observers
    // raced the snapshot.
    out += h.name + "_bucket" + RenderLabels(h.labels, "le", "+Inf") + " " +
           std::to_string(cum) + "\n";
    out += h.name + "_sum" + RenderLabels(h.labels, "", "") + " " +
           std::to_string(h.sum) + "\n";
    out += h.name + "_count" + RenderLabels(h.labels, "", "") + " " +
           std::to_string(cum) + "\n";
  }
  return out;
}

}  // namespace datacell
