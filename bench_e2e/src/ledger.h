// Outside-in span ledger: the benchmark opens a span around every call it
// makes into a layer (push, ingest, Fire, frontend drain, sink delivery), so
// per-layer self time is measured without instrumenting the engine.
#ifndef DATACELL_BENCH_E2E_LEDGER_H_
#define DATACELL_BENCH_E2E_LEDGER_H_

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "load.h"

namespace e2e {

/// Single-threaded span recorder. Spans nest strictly (a sink runs inside
/// its emitter's Fire); a span's self time is its duration minus the
/// durations of its direct children.
class Ledger {
 public:
  /// Layer label -> id; ids index the per-layer totals.
  int Layer(const std::string& label) {
    auto it = ids_.find(label);
    if (it != ids_.end()) return it->second;
    int id = static_cast<int>(labels_.size());
    ids_.emplace(label, id);
    labels_.push_back(label);
    totals_.push_back({});
    return id;
  }

  void set_round(int64_t round) { round_ = round; }

  void Begin(int layer) {
    open_.push_back({layer, NowNs(), 0, static_cast<int64_t>(spans_.size())});
    if (spans_.size() < kMaxKeptSpans) {
      int64_t parent = open_.size() > 1 ? open_[open_.size() - 2].kept : -1;
      spans_.push_back({layer, round_, parent, open_.back().start, 0});
    }
  }

  void End() {
    Open o = open_.back();
    open_.pop_back();
    int64_t dur = NowNs() - o.start;
    Totals& t = totals_[static_cast<size_t>(o.layer)];
    t.calls += 1;
    t.total_ns += dur;
    t.self_ns += dur - o.child_ns;
    if (!open_.empty()) open_.back().child_ns += dur;
    if (o.kept < static_cast<int64_t>(spans_.size())) {
      spans_[static_cast<size_t>(o.kept)].dur_ns = dur;
    }
  }

  struct Totals {
    int64_t calls = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  /// Totals per layer label.
  std::map<std::string, Totals> Summary() const {
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < labels_.size(); ++i) out[labels_[i]] = totals_[i];
    return out;
  }

  /// Chrome trace_event JSON of the kept spans (the first kMaxKeptSpans):
  /// complete events with the round id and the parent span index in args.
  bool WriteChromeTrace(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    f << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) f << ",\n";
      f << "{\"name\":\"" << labels_[static_cast<size_t>(s.layer)]
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns - t0) / 1000.0
        << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1000.0
        << ",\"args\":{\"id\":" << i << ",\"round\":" << s.round
        << ",\"parent\":" << s.parent << "}}";
    }
    f << "],\"displayTimeUnit\":\"ns\"}\n";
    return static_cast<bool>(f);
  }

 private:
  static constexpr size_t kMaxKeptSpans = 200000;

  struct Open {
    int layer;
    int64_t start;
    int64_t child_ns;
    int64_t kept;  // index into spans_ (== spans_.size() when not kept)
  };
  struct Span {
    int layer;
    int64_t round;
    int64_t parent;
    int64_t start_ns;
    int64_t dur_ns;
  };

  std::map<std::string, int> ids_;
  std::vector<std::string> labels_;
  std::vector<Totals> totals_;
  std::vector<Open> open_;
  std::vector<Span> spans_;
  int64_t round_ = 0;
};

/// RAII span; a null ledger records nothing.
class Span {
 public:
  Span(Ledger* ledger, int layer) : ledger_(ledger) {
    if (ledger_ != nullptr) ledger_->Begin(layer);
  }
  ~Span() {
    if (ledger_ != nullptr) ledger_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger* ledger_;
};

}  // namespace e2e

#endif  // DATACELL_BENCH_E2E_LEDGER_H_
