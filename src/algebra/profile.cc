#include "algebra/profile.h"

#include <cinttypes>
#include <cstdio>

namespace datacell {

size_t PipelineProfile::AddStep(std::string label, int depth) {
  steps_.emplace_back();
  Step& s = steps_.back();
  s.label = std::move(label);
  s.depth = depth;
  return steps_.size() - 1;
}

void PipelineProfile::RecordStep(size_t step, int64_t rows_in,
                                 int64_t rows_out, int64_t time_ns) {
  if (step >= steps_.size()) return;
  Step& s = steps_[step];
  s.calls.fetch_add(1, std::memory_order_relaxed);
  s.rows_in.fetch_add(rows_in, std::memory_order_relaxed);
  s.rows_out.fetch_add(rows_out, std::memory_order_relaxed);
  s.time_ns.fetch_add(time_ns, std::memory_order_relaxed);
}

void PipelineProfile::RecordFire(int64_t time_ns) {
  fires_.fetch_add(1, std::memory_order_relaxed);
  fire_time_ns_.fetch_add(time_ns, std::memory_order_relaxed);
}

PipelineProfile::Snapshot PipelineProfile::Snap() const {
  Snapshot snap;
  snap.fires = fires_.load(std::memory_order_relaxed);
  snap.fire_time_ns = fire_time_ns_.load(std::memory_order_relaxed);
  snap.steps.reserve(steps_.size());
  for (const Step& s : steps_) {
    StepSnapshot out;
    out.label = s.label;
    out.depth = s.depth;
    out.calls = s.calls.load(std::memory_order_relaxed);
    out.rows_in = s.rows_in.load(std::memory_order_relaxed);
    out.rows_out = s.rows_out.load(std::memory_order_relaxed);
    out.time_ns = s.time_ns.load(std::memory_order_relaxed);
    snap.steps.push_back(std::move(out));
  }
  return snap;
}

std::string PipelineProfile::Render() const {
  Snapshot snap = Snap();
  char line[256];
  std::string out;
  double total_ms = static_cast<double>(snap.fire_time_ns) / 1e6;
  std::snprintf(line, sizeof(line),
                "profile: %" PRId64 " fires, %.3f ms total fire time\n",
                snap.fires, total_ms);
  out += line;
  if (snap.fires == 0) {
    out += "  (no firings profiled yet)\n";
    return out;
  }
  std::snprintf(line, sizeof(line), "  %10s %12s %12s %12s %7s  %s\n", "calls",
                "rows in", "rows out", "time", "% fire", "step");
  out += line;
  for (size_t i = 0; i < snap.steps.size(); ++i) {
    const StepSnapshot& s = snap.steps[i];
    double pct = snap.fire_time_ns > 0 ? 100.0 * static_cast<double>(s.time_ns) /
                                             static_cast<double>(
                                                 snap.fire_time_ns)
                                       : 0.0;
    char time_buf[32];
    if (s.time_ns >= 1000000) {
      std::snprintf(time_buf, sizeof(time_buf), "%.2f ms",
                    static_cast<double>(s.time_ns) / 1e6);
    } else if (s.time_ns >= 1000) {
      std::snprintf(time_buf, sizeof(time_buf), "%.2f us",
                    static_cast<double>(s.time_ns) / 1e3);
    } else {
      std::snprintf(time_buf, sizeof(time_buf), "%" PRId64 " ns", s.time_ns);
    }
    std::string label(static_cast<size_t>(s.depth) * 2, ' ');
    label += s.label;
    std::snprintf(line, sizeof(line),
                  "  %10" PRId64 " %12" PRId64 " %12" PRId64
                  " %12s %6.1f%%  %s\n",
                  s.calls, s.rows_in, s.rows_out, time_buf, pct,
                  label.c_str());
    out += line;
  }
  return out;
}

}  // namespace datacell
