// The four end-to-end workloads. The benchmark reaches the engine only
// through its public surface: Channel::PushBatch, Engine::IngestColumns /
// Drain / Start, Transition::Fire (traced drain runs fire the net
// themselves), ShardedEngine::IngestColumns / Drain / shard(i), the
// Transition and Scheduler counters, and MetricsSnapshot.
#include "workloads.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <climits>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "adapters/channel.h"
#include "adapters/sink.h"
#include "common/logging.h"
#include "core/engine.h"
#include "core/shard.h"
#include "ledger.h"
#include "load.h"

namespace e2e {
namespace {

using datacell::Bat;
using datacell::Channel;
using datacell::ColumnBatch;
using datacell::DataType;
using datacell::Engine;
using datacell::EngineOptions;
using datacell::MetricLabels;
using datacell::MetricsSnapshotData;
using datacell::ResultSink;
using datacell::Schema;
using datacell::ShardedEngine;
using datacell::ShardedEngineOptions;
using datacell::Status;
using datacell::Table;
using datacell::Timestamp;
using datacell::Transition;
using datacell::TransitionKind;
using datacell::TransitionPtr;

constexpr size_t kRoundTuples = 4096;  // one closed-loop round = one block
constexpr int kWarmupRounds = 64;
constexpr int kSetups = 9;             // setup_s is the median of these
// Each measured phase is cut into kSlices equal slices and an end-to-end
// metric is the median of its per-slice values, so interference from
// outside the process that lasts less than half a phase moves it little.
constexpr int kSlices = 20;
// Host time (README, "Steal and speed"): the drain workloads and every
// set-up run on one thread that never blocks and are timed on its CPU
// clock, which leaves out the time the host ran something else. The
// throughput of text_threaded, timed on the wall clock, is divided by
// (1 - stolen)^kStealSensitivity per slice, stolen being the share of the
// guest's CPU time the host took (CpuTicks): the bottleneck thread has
// slack, so the engine loses less than that share; 0.5 left the smallest
// spread between runs (README).
// Speed normalisation (README): timings are reported at the CPU speed at
// which one Calibration unit takes kReferenceNs, each slice scaled by the
// calibration time measured in it. Drain workloads sample the calibration
// every kCalibrateEvery rounds, on the thread that runs the net;
// text_threaded lets the net run dry after each slice and samples it on
// every CPU. The engine slows less than the unit when the host is busy: on
// a shared 4-vCPU host its time grew as about the kSensitivity-th power of
// the unit's, and that exponent left the smallest or nearly the smallest
// spread between runs of each drain workload (README).
constexpr double kReferenceNs = 100000.0;
constexpr double kSensitivity = 0.8;
constexpr int64_t kCalibrateEvery = 32;
constexpr double kStealSensitivity = 0.5;
constexpr size_t kWorkers = 2;         // text_threaded: Start(kWorkers)
constexpr size_t kShards = 4;
// text_threaded: phase A (closed loop, throughput) takes this share of the
// run and phase B (open loop at kOpenLoopRate, latency) the rest. Phase B
// sends one closed-loop-sized block per tick, about a tenth of what phase A
// sustains on a 4-vCPU host: a block finds the net idle even when the host
// takes half of the CPU, so phase B times a block's path through the
// threaded net, not a queue whose length depends on how busy the host is.
constexpr double kPhaseAShare = 0.6;
// Before phase A the closed loop runs unmeasured for this long: the first
// second or so under Start() runs up to 1.5x slower while the heap and the
// workers settle.
constexpr int64_t kThreadedWarmupNs = 2000000000;
constexpr int64_t kMaxOutstanding = 16 * 1024;  // phase A, lines
constexpr int64_t kOpenLoopRate = 256000;       // phase B, tuples/s
constexpr int64_t kTickNs = 16000000;           // phase B tick
constexpr int64_t kSampleNs = 100000000;        // threaded counter sampling
constexpr int64_t kSpinNs = 200000;             // phase B: spin before due
constexpr int64_t kLateNs = 100000;             // phase B: a tick this late is late
constexpr int64_t kQuiesceTimeoutNs = 30000000000;

enum class Mode { kTextDrain, kColumnarDrain, kSharded4Drain, kTextThreaded };

bool IsText(Mode m) {
  return m == Mode::kTextDrain || m == Mode::kTextThreaded;
}

enum class Q { kHot, kVol, kWin, kEnr, kTot };
constexpr Q kAllQueries[] = {Q::kHot, Q::kVol, Q::kWin, Q::kEnr, Q::kTot};

const char* QName(Q q) {
  switch (q) {
    case Q::kHot: return "hot";
    case Q::kVol: return "vol";
    case Q::kWin: return "win";
    case Q::kEnr: return "enr";
    case Q::kTot: return "tot";
  }
  return "?";
}

const char* QSql(Q q) {
  switch (q) {
    case Q::kHot:
      return "select t.sym, t.px, t.qty, t.seq from [select * from ticks] "
             "as t where t.px > 900.0";
    case Q::kVol:
      return "select t.sym, sum(t.qty) as q, max(t.seq) as s from "
             "[select * from ticks] as t group by t.sym";
    case Q::kWin:
      return "select avg(t.px) as a, max(t.seq) as s from "
             "[select * from ticks] as t window size 8192 slide 1024";
    case Q::kEnr:
      return "select t.sym, t.qty, t.seq, r.sector from "
             "[select * from ticks] as t join ref as r on t.sym = r.sym";
    case Q::kTot:
      return "select sum(t.qty) as q, count(*) as n, max(t.seq) as s from "
             "[select * from ticks] as t";
  }
  return "";
}

// A count window pins its stream to one shard, so sharded4_drain swaps win
// for tot, a needs-final-merge aggregate.
std::vector<Q> QueriesFor(Mode m) {
  if (m == Mode::kSharded4Drain) return {Q::kHot, Q::kVol, Q::kEnr, Q::kTot};
  return {Q::kHot, Q::kVol, Q::kWin, Q::kEnr};
}

Schema TicksSchema() {
  return Schema({{"sym", DataType::kInt64},
                 {"px", DataType::kDouble},
                 {"qty", DataType::kInt64},
                 {"seq", DataType::kInt64}});
}

int64_t AsInt(const Bat& b, size_t i) {
  return b.type() == DataType::kDouble ? std::llround(b.DoubleAt(i))
                                       : b.Int64At(i);
}
double AsDouble(const Bat& b, size_t i) {
  return b.type() == DataType::kDouble ? b.DoubleAt(i)
                                       : static_cast<double>(b.Int64At(i));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// How much slower than the reference speed the engine ran: the median
/// calibration time over kReferenceNs, to the power kSensitivity (1 when
/// nothing was sampled).
double SlowDown(const std::vector<int64_t>& calibration_ns) {
  if (calibration_ns.empty()) return 1.0;
  return std::pow(Median(std::vector<double>(calibration_ns.begin(),
                                             calibration_ns.end())) /
                      kReferenceNs,
                  kSensitivity);
}

double PeakRssMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// State shared by the load side and every sink.
struct Shared {
  CreationTimes created;
  /// Rows whose newest contributing block is at least this seq are latency
  /// samples; earlier rows (warm-up, closed-loop phase) are not.
  std::atomic<int64_t> latency_from{INT64_MAX};
  /// Measurement slice latency samples land in; -1 outside measurement.
  std::atomic<int> slice{-1};
  /// Creation and arrival are stamped on the CPU clock of the one thread
  /// that runs set-up and the drain workloads; text_threaded switches to
  /// the wall clock before its measurement starts.
  std::atomic<bool> thread_clock{true};

  int64_t Now() const {
    return thread_clock.load(std::memory_order_relaxed) ? ThreadCpuNs()
                                                        : NowNs();
  }
};

/// Result sink of one standing query: records per-row latency and the
/// batching-invariant aggregates the reference is compared against.
class QuerySink final : public ResultSink {
 public:
  QuerySink(Q q, Shared* shared) : q_(q), shared_(shared) {}

  void OnBatch(const Table& batch, Timestamp) override {
    const int64_t t0 = NowNs();
    {
      Span span(ledger_, layer_);
      Consume(batch, shared_->Now());
    }
    sink_ns_.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  }

  /// Traced drain runs only (single-threaded).
  void set_ledger(Ledger* ledger, int layer) {
    ledger_ = ledger;
    layer_ = layer;
  }

  Q q() const { return q_; }
  int64_t rows() const { return rows_.load(std::memory_order_relaxed); }
  int64_t sink_ns() const { return sink_ns_.load(std::memory_order_relaxed); }
  /// Latency samples per measurement slice.
  const std::vector<LatencyHistogram>& latency() const { return hists_; }

  void Check(const Reference& ref, std::vector<std::string>* bad) const {
    auto expect = [&](const char* what, int64_t got, int64_t want) {
      if (got != want) {
        bad->push_back(std::string(QName(q_)) + " " + what + ": got " +
                       std::to_string(got) + ", want " + std::to_string(want));
      }
    };
    expect("malformed rows", bad_rows_, 0);
    switch (q_) {
      case Q::kHot: {
        expect("rows", rows(), ref.hot_rows);
        expect("sum(qty)", qty_sum_, ref.hot_qty);
        expect("sum(seq)", seq_sum_, ref.hot_seq);
        long double want = static_cast<long double>(ref.hot_cents) / 100.0L;
        long double err = std::fabs(px_sum_ - want);
        if (err > 1e-9L * std::max(1.0L, std::fabs(want))) {
          bad->push_back("hot sum(px) off by " +
                         std::to_string(static_cast<double>(err)));
        }
        break;
      }
      case Q::kEnr:
        expect("rows", rows(), ref.enr_rows);
        expect("sum(qty)", qty_sum_, ref.enr_qty);
        expect("sum(sector)", sector_sum_, ref.enr_sector);
        expect("sum(seq)", seq_sum_, ref.enr_seq);
        break;
      case Q::kVol: {
        int64_t wrong = 0;
        for (size_t k = 0; k < vol_qty_.size(); ++k) {
          if (vol_qty_[k] != ref.vol_qty[k] || vol_seq_[k] != ref.vol_seq[k]) {
            ++wrong;
          }
        }
        expect("keys with wrong sum(qty)/max(seq)", wrong, 0);
        break;
      }
      case Q::kWin: {
        expect("rows", static_cast<int64_t>(win_.size()),
               static_cast<int64_t>(ref.win_rows.size()));
        int64_t wrong = 0;
        size_t n = std::min(win_.size(), ref.win_rows.size());
        for (size_t i = 0; i < n; ++i) {
          double want = static_cast<double>(ref.win_rows[i].cents) /
                        (100.0 * static_cast<double>(kWindowSize));
          double err = std::fabs(win_[i].avg - want);
          if (err > 1e-9 * std::max(1.0, std::fabs(want)) ||
              win_[i].max_seq != ref.win_rows[i].max_seq) {
            ++wrong;
          }
        }
        expect("windows off reference", wrong, 0);
        break;
      }
      case Q::kTot:
        expect("sum(qty)", qty_sum_, ref.tot_qty);
        expect("sum(count)", count_sum_, ref.tuples);
        expect("max(seq)", max_seq_, ref.max_seq);
        break;
    }
  }

 private:
  struct WinRow {
    double avg;
    int64_t max_seq;
  };

  void Observe(int64_t seq, int64_t now, int64_t from, int slice) {
    if (seq < from || slice < 0) return;
    if (static_cast<size_t>(slice) >= hists_.size()) {
      hists_.resize(static_cast<size_t>(slice) + 1);
    }
    hists_[static_cast<size_t>(slice)].Record(now - shared_->created.Get(seq));
  }

  void Consume(const Table& b, int64_t now) {
    static constexpr size_t kArity[] = {4, 3, 2, 4, 3};
    const size_t n = b.num_rows();
    rows_.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
    if (b.num_columns() < kArity[static_cast<size_t>(q_)]) {
      bad_rows_ += static_cast<int64_t>(n);
      return;
    }
    const int64_t from = shared_->latency_from.load(std::memory_order_relaxed);
    const int slice = shared_->slice.load(std::memory_order_relaxed);
    switch (q_) {
      case Q::kHot: {
        const Bat& px = *b.column(1);
        const Bat& qty = *b.column(2);
        const Bat& seq = *b.column(3);
        for (size_t i = 0; i < n; ++i) {
          px_sum_ += AsDouble(px, i);
          qty_sum_ += AsInt(qty, i);
          int64_t s = AsInt(seq, i);
          seq_sum_ += s;
          Observe(s, now, from, slice);
        }
        break;
      }
      case Q::kVol: {
        const Bat& sym = *b.column(0);
        const Bat& q = *b.column(1);
        const Bat& seq = *b.column(2);
        for (size_t i = 0; i < n; ++i) {
          int64_t k = AsInt(sym, i);
          int64_t s = AsInt(seq, i);
          if (k < 0 || k >= kSyms) {
            ++bad_rows_;
            continue;
          }
          vol_qty_[static_cast<size_t>(k)] += AsInt(q, i);
          int64_t& hi = vol_seq_[static_cast<size_t>(k)];
          hi = std::max(hi, s);
          Observe(s, now, from, slice);
        }
        break;
      }
      case Q::kWin: {
        const Bat& avg = *b.column(0);
        const Bat& seq = *b.column(1);
        for (size_t i = 0; i < n; ++i) {
          int64_t s = AsInt(seq, i);
          win_.push_back({AsDouble(avg, i), s});
          Observe(s, now, from, slice);
        }
        break;
      }
      case Q::kEnr: {
        const Bat& qty = *b.column(1);
        const Bat& seq = *b.column(2);
        const Bat& sector = *b.column(3);
        for (size_t i = 0; i < n; ++i) {
          qty_sum_ += AsInt(qty, i);
          sector_sum_ += AsInt(sector, i);
          int64_t s = AsInt(seq, i);
          seq_sum_ += s;
          Observe(s, now, from, slice);
        }
        break;
      }
      case Q::kTot: {
        const Bat& q = *b.column(0);
        const Bat& cnt = *b.column(1);
        const Bat& seq = *b.column(2);
        for (size_t i = 0; i < n; ++i) {
          qty_sum_ += AsInt(q, i);
          count_sum_ += AsInt(cnt, i);
          int64_t s = AsInt(seq, i);
          max_seq_ = std::max(max_seq_, s);
          Observe(s, now, from, slice);
        }
        break;
      }
    }
  }

  const Q q_;
  Shared* const shared_;
  Ledger* ledger_ = nullptr;
  int layer_ = 0;
  std::atomic<int64_t> rows_{0};
  std::atomic<int64_t> sink_ns_{0};
  std::vector<LatencyHistogram> hists_;
  int64_t bad_rows_ = 0;
  long double px_sum_ = 0;
  int64_t qty_sum_ = 0, seq_sum_ = 0, sector_sum_ = 0, count_sum_ = 0;
  int64_t max_seq_ = -1;
  std::vector<int64_t> vol_qty_ = std::vector<int64_t>(kSyms, 0);
  std::vector<int64_t> vol_seq_ = std::vector<int64_t>(kSyms, -1);
  std::vector<WinRow> win_;
};

/// One set-up instance of the net. The channel is declared first so it
/// outlives the engine that reads it.
struct Net {
  std::unique_ptr<Channel> channel;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<ShardedEngine> sharded;
  std::vector<std::shared_ptr<QuerySink>> sinks;
  Reference ref;

  /// Every engine in the net (one, or the shards).
  std::vector<Engine*> engines() {
    if (engine != nullptr) return {engine.get()};
    std::vector<Engine*> out;
    for (size_t i = 0; i < sharded->num_shards(); ++i) {
      out.push_back(&sharded->shard(i));
    }
    return out;
  }
  int64_t sink_rows(Q q) const {
    int64_t n = 0;
    for (const auto& s : sinks) n += s->q() == q ? s->rows() : 0;
    return n;
  }
};

std::string RefInsertSql() {
  std::string sql = "insert into ref values ";
  for (int64_t sym = 0; sym < kSyms; sym += 2) {
    if (sym > 0) sql += ", ";
    sql += "(" + std::to_string(sym) + ", " + std::to_string(SectorOf(sym)) +
           ")";
  }
  return sql;
}

template <class E>
Status SetUpSql(E& e, Net* net, Shared* shared, const std::vector<Q>& qs) {
  auto exec = [&](const std::string& sql) -> Status {
    auto r = e.ExecuteSql(sql);
    return r.ok() ? Status::OK() : r.status();
  };
  DC_RETURN_NOT_OK(exec(
      "create basket ticks (sym int, px double, qty int, seq int) "
      "partition by sym"));
  DC_RETURN_NOT_OK(exec("create table ref (sym int, sector int)"));
  DC_RETURN_NOT_OK(exec(RefInsertSql()));
  for (Q q : qs) {
    auto id = e.SubmitContinuousQuery(QName(q), QSql(q));
    if (!id.ok()) return id.status();
    auto sink = std::make_shared<QuerySink>(q, shared);
    DC_RETURN_NOT_OK(e.Subscribe(*id, sink));
    net->sinks.push_back(std::move(sink));
  }
  return Status::OK();
}

/// Query a transition or profiler series serves: its name carries the query
/// name as a '_'-separated token (factory_hot, emitter_hot, merge_tot).
std::optional<Q> QueryOf(const std::string& name) {
  for (Q q : kAllQueries) {
    const std::string token = QName(q);
    size_t start = 0;
    while (start <= name.size()) {
      size_t end = std::min(name.find('_', start), name.size());
      if (name.compare(start, end - start, token) == 0 &&
          end - start == token.size()) {
        return q;
      }
      start = end + 1;
    }
  }
  return std::nullopt;
}

/// Ledger label of a transition: core.receptor, core.factory.<q> or
/// core.emitter.<q>; core.other for one that serves no standing query.
std::string LayerLabel(const Transition& t) {
  if (t.kind() == TransitionKind::kReceptor) return "core.receptor";
  std::optional<Q> q = QueryOf(t.name());
  if (!q) return "core.other";
  return std::string(t.kind() == TransitionKind::kFactory ? "core.factory."
                                                           : "core.emitter.") +
         QName(*q);
}

const std::string* LabelValue(const MetricLabels& labels,
                              const std::string& key) {
  for (const auto& [k, v] : labels) {
    if (k == key) return &v;
  }
  return nullptr;
}

/// Sum (or max) of every counter/gauge series named `name` whose labels
/// pass `pred`, across snapshots. A series a later engine drops reads 0.
double SeriesTotal(const std::vector<MetricsSnapshotData>& snaps,
                   const std::string& name, bool take_max,
                   const std::function<bool(const MetricLabels&)>& pred =
                       nullptr) {
  double out = 0.0;
  auto add = [&](double v) { out = take_max ? std::max(out, v) : out + v; };
  for (const MetricsSnapshotData& s : snaps) {
    for (const auto& c : s.counters) {
      if (c.name == name && (!pred || pred(c.labels))) {
        add(static_cast<double>(c.value));
      }
    }
    for (const auto& g : s.gauges) {
      if (g.name == name && (!pred || pred(g.labels))) {
        add(static_cast<double>(g.value));
      }
    }
  }
  return out;
}

/// Lower-case alphanumeric words of a profiler step label, joined by '_'
/// ("2. hash-join probe" -> "hash_join_probe").
std::string StepKey(const std::string& label) {
  size_t dot = label.find(". ");
  std::string body = dot == std::string::npos ? label : label.substr(dot + 2);
  std::string out;
  for (char c : body) {
    if (c == '(' || c == '[') break;
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

/// Profiler steps reported: the specialized steps of hot, enr and tot, and
/// the scan and aggregation of the interpreted vol plan (an interpreter
/// step's time includes its children's). The incremental window of win
/// records no steps.
constexpr const char* kAlgebraSteps[] = {
    "hot.filter",  "hot.project", "enr.hash_join_probe", "enr.project",
    "vol.scan",    "vol.aggregate", "tot.aggregate"};

/// Every per-layer metric the traced run reports, with its unit. A layer's
/// time is its share of the ledger (README, "Per-layer metrics"), so a layer
/// a workload does not exercise reads a share of 0, never a time.
std::vector<std::pair<std::string, std::string>> LayerMetricSpecs() {
  std::vector<std::pair<std::string, std::string>> v = {
      {"bench.ledger_ns_per_tuple", "ns"},
      {"bench.sink_ns_per_row", "ns"},
      {"bench.sink.share", "fraction"},
      {"bench.trace_overhead_frac", "fraction"},
      {"bench.generator.late_frac", "fraction"},
      {"adapters.channel.share", "fraction"},
      {"adapters.channel.backlog_max", "lines"},
      {"adapters.channel.dropped", "count"},
      {"core.receptor.share", "fraction"},
      {"core.receptor.fires_per_round", "count"},
      {"core.receptor.tuples_per_fire", "tuples"},
      {"core.receptor.malformed", "count"},
      {"core.engine.ingest_columns.share", "fraction"},
      {"core.scheduler.unattributed.share", "fraction"},
      {"core.scheduler.sweeps_per_round", "count"},
      {"core.scheduler.zero_fire_sweeps_per_round", "count"},
      {"core.scheduler.idle_waits_per_s", "1/s"},
      {"core.scheduler.wakes_notified_per_s", "1/s"},
      {"core.scheduler.wakes_timeout_per_s", "1/s"},
      {"core.basket.ticks.high_water", "tuples"},
      {"core.basket.shed", "count"},
      {"storage.batch_pool.hit_ratio", "fraction"},
      {"storage.batch_pool.dropped", "count"},
      {"core.shard.route.share", "fraction"},
      {"core.shard.frontend.share", "fraction"},
      {"core.shard.skew", "ratio"},
  };
  for (Q q : kAllQueries) {
    const std::string f = std::string("core.factory.") + QName(q);
    const std::string e = std::string("core.emitter.") + QName(q);
    v.push_back({f + ".share", "fraction"});
    v.push_back({f + ".fires_per_round", "count"});
    v.push_back({f + ".empty_fire_ratio", "fraction"});
    v.push_back({f + ".rows_out_per_tuple", "rows/tuple"});
    v.push_back({f + ".state_bytes_hw", "bytes"});
    v.push_back({e + ".share", "fraction"});
    v.push_back({e + ".rows_per_fire", "rows"});
  }
  for (const char* step : kAlgebraSteps) {
    v.push_back({std::string("algebra.step.") + step + ".share", "fraction"});
  }
  return v;
}

/// Work, host and calibration samples of one stretch of measurement.
struct Part {
  int64_t ns = 0;       // on the clock the workload is timed with
  int64_t wall_ns = 0;  // on the wall clock
  int64_t tuples = 0;
  double stolen = 0.0;  // share of the CPU time the host took (text_threaded)
  std::vector<int64_t> calibration_ns;
  /// Tuples per second: at the reference speed with the host's share taken
  /// out, or per wall-clock second as measured; 0 without work.
  double Rate(bool at_reference_speed) const {
    const int64_t t = at_reference_speed ? ns : wall_ns;
    if (t <= 0) return 0.0;
    const double rate =
        static_cast<double>(tuples) * 1e9 / static_cast<double>(t);
    return at_reference_speed
               ? rate * SlowDown(calibration_ns) /
                     std::pow(1.0 - stolen, kStealSensitivity)
               : rate;
  }
};

/// Median over parts of Rate(), parts without work skipped.
double MedianRate(const std::vector<Part>& parts, bool at_reference_speed) {
  std::vector<double> rates;
  for (const Part& p : parts) {
    if (p.tuples > 0 && p.ns > 0) rates.push_back(p.Rate(at_reference_speed));
  }
  return Median(rates);
}

/// Times the calibration unit once on every CPU this process may run on,
/// from a helper thread pinned to each in turn: text_threaded's load
/// spreads over several cores, and on a shared host each core changes speed
/// on its own.
std::vector<int64_t> SampleEveryCpu(Calibration& calib) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int64_t> out;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    std::jthread([&] {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed)) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0) {
          out.push_back(calib.Sample());
        }
      }
    }).join();
  }
  if (out.empty()) out.push_back(calib.Sample());
  return out;
}

class Workload {
 public:
  Workload(Mode mode, const RunOptions& opts)
      : mode_(mode),
        opts_(opts),
        queries_(QueriesFor(mode)),
        gen_(opts.seed),
        batch_(TicksSchema()) {}

  bool Run(RunResult* r, std::string* error);

 private:
  bool BuildNet(Net* net, std::string* error);
  /// Sets up one net; adds the time it took to `time`.
  bool SetUpOnce(std::unique_ptr<Net>* out, Part* time, std::string* error);
  /// Renders block `b` as the engine input (outside any timed section).
  void Prepare(const Block& b);
  /// One closed-loop round: hands the prepared input to the engine and runs
  /// the net to quiescence. Adds the time it took to `time`.
  void PushAndDrain(Net& net, int64_t seq, Ledger* ledger, Part* time);
  /// Traced quiescence: fires every ready transition of `engine` itself,
  /// one span per Fire(), until a sweep fires nothing.
  void FireUntilQuiescent(Engine& engine, size_t rr_slot, Ledger* ledger);
  int LayerFor(const Transition& t, Ledger* ledger);

  void RunDrain(Net& net, RunResult* r);
  bool RunThreaded(Net& net, RunResult* r, std::string* error);
  void Finish(Net& net, RunResult* r);

  Mode mode_;
  RunOptions opts_;
  std::vector<Q> queries_;
  Shared shared_;
  TickGenerator gen_;
  std::vector<Block> warmup_;
  Block block_;
  std::vector<std::string> lines_;
  ColumnBatch batch_;
  Calibration calib_;
  int64_t ingest_errors_ = 0;
  int64_t fed_tuples_ = 0;  // tuples fed after set-up (`attempted`)
  int64_t fault_counter_ = 0;
  // Traced drain runs: the bench's own firing loop.
  int64_t sweeps_ = 0;
  int64_t zero_fire_sweeps_ = 0;
  int64_t fire_errors_ = 0;
  std::vector<size_t> rr_;
  std::unordered_map<const Transition*, int> layers_;
  std::vector<int64_t> empty_fires_;  // per ledger layer id
  int round_layer_ = -1;
  int intake_layer_ = -1;
  int frontend_layer_ = -1;
  /// Per-slice slow-down the latency percentiles are divided by.
  std::vector<double> slice_slowdown_ = std::vector<double>(kSlices, 1.0);
  std::map<std::string, double> layer_;  // per-layer metric values
};

bool Workload::BuildNet(Net* net, std::string* error) {
  EngineOptions eo;  // shared baskets, wall clock, receptor batch 4096
  Status st;
  if (mode_ == Mode::kSharded4Drain) {
    ShardedEngineOptions so;
    so.num_shards = kShards;
    so.engine = eo;
    net->sharded = std::make_unique<ShardedEngine>(so);
    st = SetUpSql(*net->sharded, net, &shared_, queries_);
  } else {
    net->engine = std::make_unique<Engine>(eo);
    st = SetUpSql(*net->engine, net, &shared_, queries_);
    if (st.ok() && IsText(mode_)) {
      net->channel = std::make_unique<Channel>();
      auto rec = net->engine->AttachReceptor("ticks", net->channel.get());
      if (!rec.ok()) st = rec.status();
    }
  }
  if (!st.ok()) *error = "set-up failed: " + st.ToString();
  return st.ok();
}

bool Workload::SetUpOnce(std::unique_ptr<Net>* out, Part* time,
                         std::string* error) {
  auto net = std::make_unique<Net>();
  // Timed like PushAndDrain: on this thread's CPU clock and the wall clock.
  auto timed = [&](const std::function<bool()>& step) {
    const int64_t w0 = NowNs(), t0 = ThreadCpuNs();
    const bool ok = step();
    time->ns += ThreadCpuNs() - t0;
    time->wall_ns += NowNs() - w0;
    return ok;
  };
  if (!timed([&] { return BuildNet(net.get(), error); })) return false;
  for (Block& b : warmup_) {
    net->ref.Add(b);
    Prepare(b);
    PushAndDrain(*net, b.seq, nullptr, time);
  }
  if (mode_ == Mode::kTextThreaded) {
    Status st;
    timed([&] {
      st = net->engine->Start(kWorkers);
      return st.ok();
    });
    if (!st.ok()) {
      *error = "Start failed: " + st.ToString();
      return false;
    }
  }
  *out = std::move(net);
  return true;
}

void Workload::Prepare(const Block& b) {
  if (IsText(mode_)) {
    FormatLines(b, &lines_);
    return;
  }
  if (batch_.num_columns() != 4) batch_.Reset(TicksSchema());
  batch_.Clear();
  for (size_t i = 0; i < b.size(); ++i) {
    batch_.column(0).AppendInt64(b.sym[i]);
    batch_.column(1).AppendDouble(static_cast<double>(b.cents[i]) / 100.0);
    batch_.column(2).AppendInt64(b.qty[i]);
    batch_.column(3).AppendInt64(b.seq);
  }
}

int Workload::LayerFor(const Transition& t, Ledger* ledger) {
  auto it = layers_.find(&t);
  if (it != layers_.end()) return it->second;
  int id = ledger->Layer(LayerLabel(t));
  layers_.emplace(&t, id);
  return id;
}

void Workload::FireUntilQuiescent(Engine& engine, size_t rr_slot,
                                  Ledger* ledger) {
  const std::vector<TransitionPtr>& ts = engine.scheduler().transitions();
  const size_t n = ts.size();
  if (n == 0) return;
  if (rr_.size() <= rr_slot) rr_.resize(rr_slot + 1, 0);
  // Mirrors Scheduler::RunUntilQuiescent under round-robin: each sweep
  // starts one transition later and fires every ready transition once.
  for (;;) {
    int fired = 0;
    for (size_t k = 0; k < n; ++k) {
      Transition& t = *ts[(k + rr_[rr_slot]) % n];
      if (!t.Ready() || !t.TryClaim()) continue;
      const int layer = LayerFor(t, ledger);
      datacell::Result<int64_t> r = [&] {
        Span span(ledger, layer);
        return t.Fire();
      }();
      t.Release();
      if (!r.ok()) {
        ++fire_errors_;
      } else if (*r > 0) {
        ++fired;
      } else {
        if (empty_fires_.size() <= static_cast<size_t>(layer)) {
          empty_fires_.resize(static_cast<size_t>(layer) + 1, 0);
        }
        ++empty_fires_[static_cast<size_t>(layer)];
      }
    }
    ++rr_[rr_slot];
    ++sweeps_;
    if (fired == 0) {
      ++zero_fire_sweeps_;
      return;
    }
  }
}

void Workload::PushAndDrain(Net& net, int64_t seq, Ledger* ledger,
                            Part* time) {
  const int64_t w0 = NowNs();
  const int64_t t0 = shared_.Now();
  shared_.created.Set(seq, t0);
  if (ledger != nullptr) ledger->Begin(round_layer_);
  {
    Span span(ledger, intake_layer_);
    Status st;
    switch (mode_) {
      case Mode::kTextDrain:
      case Mode::kTextThreaded:
        net.channel->PushBatch(std::move(lines_));
        lines_.clear();
        break;
      case Mode::kColumnarDrain:
        st = net.engine->IngestColumns("ticks", std::move(batch_));
        break;
      case Mode::kSharded4Drain:
        st = net.sharded->IngestColumns("ticks", std::move(batch_));
        break;
    }
    if (!st.ok()) ++ingest_errors_;
  }
  if (ledger == nullptr) {
    if (net.engine != nullptr) {
      net.engine->Drain();
    } else {
      net.sharded->Drain();
    }
  } else if (net.engine != nullptr) {
    FireUntilQuiescent(*net.engine, 0, ledger);
  } else {
    for (size_t i = 0; i < net.sharded->num_shards(); ++i) {
      FireUntilQuiescent(net.sharded->shard(i), i, ledger);
    }
    Span span(ledger, frontend_layer_);
    net.sharded->Drain();
  }
  if (ledger != nullptr) ledger->End();
  time->ns += shared_.Now() - t0;
  time->wall_ns += NowNs() - w0;
}

void Workload::RunDrain(Net& net, RunResult* r) {
  Ledger ledger;
  round_layer_ = ledger.Layer("round");
  const char* intake = IsText(mode_) ? "adapters.channel"
                       : mode_ == Mode::kSharded4Drain
                           ? "core.shard.route"
                           : "core.engine.ingest_columns";
  intake_layer_ = ledger.Layer(intake);
  frontend_layer_ = ledger.Layer("core.shard.frontend");
  const int sink_layer = ledger.Layer("bench.sink");

  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(opts_.seconds * 1e9);
  // A traced run measures its first half untraced (the overhead baseline)
  // and builds the ledger from the second half.
  const int64_t traced_from = opts_.trace ? start + (end - start) / 2 : end;
  int64_t seq = kWarmupRounds;
  shared_.latency_from.store(seq, std::memory_order_relaxed);
  std::vector<Part> slices(kSlices);
  Part traced;
  std::map<Q, int64_t> rows_at_trace;
  bool tracing = false;
  int64_t rounds = 0;
  while (opts_.rounds > 0 ? rounds < opts_.rounds : NowNs() < end) {
    const int64_t at = opts_.rounds > 0 ? rounds * kSlices / opts_.rounds
                                        : (NowNs() - start) * kSlices /
                                              std::max<int64_t>(end - start, 1);
    const int slice = static_cast<int>(std::clamp<int64_t>(at, 0, kSlices - 1));
    if (!tracing && opts_.trace && NowNs() >= traced_from) {
      tracing = true;
      for (Engine* e : net.engines()) e->SetProfiling(true);
      for (auto& s : net.sinks) s->set_ledger(&ledger, sink_layer);
      for (Q q : queries_) rows_at_trace[q] = net.sink_rows(q);
      sweeps_ = zero_fire_sweeps_ = 0;
    }
    shared_.slice.store(tracing ? -1 : slice, std::memory_order_relaxed);
    Part& part = tracing ? traced : slices[static_cast<size_t>(slice)];
    if (rounds % kCalibrateEvery == 0) {
      part.calibration_ns.push_back(calib_.Sample());
    }
    gen_.NextBlock(seq, kRoundTuples, &block_);
    if (opts_.fault_every > 0 && IsText(mode_)) {
      for (uint8_t& c : block_.corrupt) {
        if (++fault_counter_ % opts_.fault_every == 0) c = 1;
      }
    }
    net.ref.Add(block_);
    Prepare(block_);
    if (tracing) ledger.set_round(rounds);
    PushAndDrain(net, seq, tracing ? &ledger : nullptr, &part);
    part.tuples += static_cast<int64_t>(kRoundTuples);
    fed_tuples_ += static_cast<int64_t>(kRoundTuples);
    ++seq;
    ++rounds;
  }
  shared_.slice.store(-1, std::memory_order_relaxed);
  for (auto& s : net.sinks) s->set_ledger(nullptr, 0);
  r->counts["rounds"] = static_cast<double>(rounds);
  if (!opts_.trace) {
    for (size_t s = 0; s < slices.size(); ++s) {
      slice_slowdown_[s] = SlowDown(slices[s].calibration_ns);
    }
    r->metrics["throughput_tps"] = {MedianRate(slices, true), "tuples/s"};
    r->counts["raw_throughput_tps"] = MedianRate(slices, false);
    int64_t cpu = 0, wall = 0;
    for (const Part& p : slices) {
      cpu += p.ns;
      wall += p.wall_ns;
    }
    // Below 1 by the time the host (or another thread) held the core.
    r->counts["cpu_share_of_wall"] =
        static_cast<double>(cpu) / static_cast<double>(std::max<int64_t>(wall, 1));
    return;
  }

  // Per-layer ledger of the traced half: each layer's self time as a share
  // of the traced rounds' wall time, which is reported per tuple at the
  // reference speed.
  Part plain;  // the untraced half, pooled
  for (const Part& p : slices) {
    plain.ns += p.ns;
    plain.wall_ns += p.wall_ns;
    plain.tuples += p.tuples;
    plain.calibration_ns.insert(plain.calibration_ns.end(),
                                p.calibration_ns.begin(),
                                p.calibration_ns.end());
  }
  const double scale = 1.0 / SlowDown(traced.calibration_ns);
  const double tuples = static_cast<double>(std::max<int64_t>(traced.tuples, 1));
  const double rounds_traced = tuples / static_cast<double>(kRoundTuples);
  std::map<std::string, Ledger::Totals> sum = ledger.Summary();
  const double wall = static_cast<double>(std::max<int64_t>(sum["round"].total_ns, 1));
  layer_["bench.ledger_ns_per_tuple"] = wall * scale / tuples;
  layer_["bench.trace_overhead_frac"] =
      plain.Rate(true) / traced.Rate(true) - 1.0;
  layer_["core.scheduler.sweeps_per_round"] =
      static_cast<double>(sweeps_) / rounds_traced;
  layer_["core.scheduler.zero_fire_sweeps_per_round"] =
      static_cast<double>(zero_fire_sweeps_) / rounds_traced;
  r->counts["fire_errors_traced"] = static_cast<double>(fire_errors_);
  double attributed = 0.0;
  for (const auto& [label, t] : sum) {
    if (label == "round" || label == "core.other") continue;
    layer_[label + ".share"] = static_cast<double>(t.self_ns) / wall;
    attributed += static_cast<double>(t.self_ns) / wall;
  }
  // The benchmark's own sweep loop, and transitions serving no query.
  layer_["core.scheduler.unattributed.share"] = 1.0 - attributed;
  if (IsText(mode_)) {
    layer_["adapters.channel.backlog_max"] = static_cast<double>(kRoundTuples);
  }

  int64_t traced_rows = 0;
  std::map<Q, double> rows;
  for (Q q : queries_) {
    rows[q] = static_cast<double>(net.sink_rows(q) - rows_at_trace[q]);
    traced_rows += net.sink_rows(q) - rows_at_trace[q];
  }
  layer_["bench.sink_ns_per_row"] =
      static_cast<double>(sum["bench.sink"].total_ns) * scale /
      static_cast<double>(std::max<int64_t>(traced_rows, 1));

  auto calls = [&](const std::string& label) {
    return static_cast<double>(sum[label].calls);
  };
  const double receptor_fires = calls("core.receptor");
  if (receptor_fires > 0) {
    layer_["core.receptor.fires_per_round"] = receptor_fires / rounds_traced;
    layer_["core.receptor.tuples_per_fire"] = tuples / receptor_fires;
  }
  for (Q q : queries_) {
    const std::string f = std::string("core.factory.") + QName(q);
    const std::string e = std::string("core.emitter.") + QName(q);
    const size_t fid = static_cast<size_t>(ledger.Layer(f));
    const int64_t empty = fid < empty_fires_.size() ? empty_fires_[fid] : 0;
    layer_[f + ".fires_per_round"] = calls(f) / rounds_traced;
    layer_[f + ".empty_fire_ratio"] =
        static_cast<double>(empty) / std::max(calls(f), 1.0);
    layer_[f + ".rows_out_per_tuple"] = rows[q] / tuples;
    layer_[e + ".rows_per_fire"] = rows[q] / std::max(calls(e), 1.0);
  }

  // Profiler step time, as a share of the same wall time.
  for (Engine* e : net.engines()) {
    for (const auto& c : e->MetricsSnapshot().counters) {
      if (c.name != "datacell_profile_step_time_ns_total") continue;
      const std::string* query = LabelValue(c.labels, "query");
      const std::string* step = LabelValue(c.labels, "step");
      std::optional<Q> q = query != nullptr ? QueryOf(*query) : std::nullopt;
      if (!q || step == nullptr) continue;
      const std::string key = std::string(QName(*q)) + "." + StepKey(*step);
      layer_["algebra.step." + key + ".share"] +=
          static_cast<double>(c.value) / wall;
    }
  }
  if (!opts_.trace_path.empty() && !ledger.WriteChromeTrace(opts_.trace_path)) {
    r->notes.push_back("could not write trace " + opts_.trace_path);
  }
}

bool Workload::RunThreaded(Net& net, RunResult* r, std::string* error) {
  shared_.thread_clock.store(false, std::memory_order_relaxed);
  Engine& engine = *net.engine;
  Channel& channel = *net.channel;
  std::vector<Transition*> factories, emitters, all;
  for (const TransitionPtr& t : engine.scheduler().transitions()) {
    all.push_back(t.get());
    if (t->kind() == TransitionKind::kFactory) factories.push_back(t.get());
    if (t->kind() == TransitionKind::kEmitter) emitters.push_back(t.get());
  }
  auto min_processed = [&] {
    int64_t m = INT64_MAX;
    for (Transition* f : factories) m = std::min(m, f->tuples_processed());
    return m;
  };

  const int64_t total_ns = static_cast<int64_t>(opts_.seconds * 1e9);
  const int64_t phase_a_ns =
      static_cast<int64_t>(static_cast<double>(total_ns) * kPhaseAShare);
  const int64_t phase_b_ns = total_ns - phase_a_ns;
  const int64_t tick_tuples = kOpenLoopRate * kTickNs / 1000000000;

  // Load-side state, written by the generator thread only.
  int64_t seq = kWarmupRounds;
  int64_t pushed = net.ref.tuples;  // valid tuples handed to the engine
  std::vector<int64_t> late_ns;
  Ledger gen_ledger;
  const int push_layer = gen_ledger.Layer("adapters.channel");

  // Public counters read at the phase-A boundaries (generator thread).
  struct Mark {
    int64_t t = 0;
    int64_t processed = 0;  // tuples consumed by the slowest factory
    std::vector<int64_t> busy_us, runs;
    std::vector<int64_t> sink_ns, sink_rows;
    int64_t idle = 0, notified = 0, timeouts = 0, sweeps = 0;
  };
  auto mark = [&] {
    Mark m;
    m.t = NowNs();
    m.processed = min_processed();
    for (Transition* t : all) {
      m.busy_us.push_back(t->busy_time_us());
      m.runs.push_back(t->runs());
    }
    for (auto& s : net.sinks) {
      m.sink_ns.push_back(s->sink_ns());
      m.sink_rows.push_back(s->rows());
    }
    m.idle = engine.scheduler().idle_waits();
    m.notified = engine.scheduler().wakes_notified();
    m.timeouts = engine.scheduler().wakes_timeout();
    m.sweeps = engine.scheduler().sweeps();
    return m;
  };
  // Phase A runs over kSlices slices; a traced run samples the counters over
  // its second half [a1, a2) and takes the first as the overhead baseline.
  Mark a1, a2;
  std::atomic<bool> sampling{false};
  std::atomic<bool> done{false};
  std::atomic<bool> stalled{false};

  auto push_block = [&](int64_t created_ns, bool traced) {
    shared_.created.Set(seq, created_ns);
    {
      Span span(traced ? &gen_ledger : nullptr, push_layer);
      channel.PushBatch(std::move(lines_));
    }
    lines_.clear();
    pushed += static_cast<int64_t>(block_.size());
    fed_tuples_ += static_cast<int64_t>(block_.size());
    ++seq;
  };

  // Quiescence: the slowest factory has consumed every tuple handed over
  // and every emitter has delivered its backlog.
  auto quiesce = [&] {
    const int64_t deadline = NowNs() + kQuiesceTimeoutNs;
    for (;;) {
      bool idle = channel.size() == 0 && min_processed() >= net.ref.tuples;
      for (Transition* e : emitters) idle = idle && e->Backlog() == 0;
      if (idle) return true;
      if (NowNs() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };

  // Ends the measurement slice begun at t0 (host CPU ticks c0): lets the
  // net run dry, takes the share of CPU time the host took meanwhile, then
  // times the calibration unit on every CPU while the engine is idle
  // (README, "Steal and speed"). False when the net did not quiesce.
  int64_t paused_ns = 0;  // calibration time inside the sampled half
  std::vector<double> stolen;  // phase A, per slice
  auto end_slice = [&](int64_t t0, const CpuTicks& c0, bool traced,
                       Part* part) {
    if (!quiesce()) return false;
    const int64_t t1 = NowNs();
    part->ns = part->wall_ns = t1 - t0;
    part->stolen = CpuTicks::Read().StolenShareSince(c0);
    part->calibration_ns = SampleEveryCpu(calib_);
    if (traced) paused_ns += NowNs() - t1;
    return true;
  };

  // Phase A slices: consumption of the slowest factory over equal stretches.
  std::vector<Part> a_slices;
  // Phase A: closed loop, at most kMaxOutstanding lines not yet consumed by
  // the slowest factory.
  auto closed_loop_block = [&](bool traced) {
    gen_.NextBlock(seq, kRoundTuples, &block_);
    net.ref.Add(block_);
    FormatLines(block_, &lines_);
    while (pushed + static_cast<int64_t>(kRoundTuples) - min_processed() >
           kMaxOutstanding) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    gen_ledger.set_round(seq);
    push_block(NowNs(), traced);
  };
  auto generator = [&] {
    const int64_t warm_end = NowNs() + kThreadedWarmupNs;
    while (NowNs() < warm_end) closed_loop_block(false);
    bool traced = false;
    auto stall = [&] {
      stalled.store(true);
      done.store(true);
    };
    for (int s = 0; s < kSlices; ++s) {
      if (opts_.trace && s == kSlices / 2) {
        traced = true;
        a1 = mark();
        sampling.store(true);
      }
      const CpuTicks c0 = CpuTicks::Read();
      const int64_t t0 = NowNs();
      const int64_t processed = min_processed();
      while (NowNs() < t0 + phase_a_ns / kSlices) closed_loop_block(traced);
      Part part;
      if (!end_slice(t0, c0, traced, &part)) return stall();
      part.tuples = min_processed() - processed;
      stolen.push_back(part.stolen);
      a_slices.push_back(std::move(part));
    }
    a2 = mark();
    sampling.store(false);
    // Phase B: open loop, one block per tick; each slice starts a fresh
    // schedule after the previous slice's pause. A block is timed from its
    // push, not its due time: the push never waits for the engine, so a
    // late tick is the generator's delay (bench.generator.late_frac), not
    // the engine's.
    shared_.latency_from.store(seq, std::memory_order_relaxed);
    const int64_t ticks = std::max<int64_t>(phase_b_ns / kTickNs / kSlices, 1);
    for (int s = 0; s < kSlices; ++s) {
      shared_.slice.store(s, std::memory_order_relaxed);
      const CpuTicks c0 = CpuTicks::Read();
      const int64_t b_start = NowNs() + 2 * kTickNs;
      for (int64_t k = 0; k < ticks; ++k) {
        const int64_t due = b_start + k * kTickNs;
        gen_.NextBlock(seq, static_cast<size_t>(tick_tuples), &block_);
        net.ref.Add(block_);
        FormatLines(block_, &lines_);
        int64_t now = NowNs();
        if (due - now > kSpinNs) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due - now - kSpinNs));
        }
        while (NowNs() < due) {
        }
        late_ns.push_back(NowNs() - due);
        push_block(NowNs(), false);
      }
      Part part;
      if (!end_slice(b_start, c0, false, &part)) return stall();
      slice_slowdown_[static_cast<size_t>(s)] = SlowDown(part.calibration_ns);
    }
    done.store(true);
  };

  int64_t backlog_max = 0;  // sampled by this thread while `sampling`
  {
    std::jthread gen_thread(generator);
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(kSampleNs));
      if (sampling.load()) {
        backlog_max =
            std::max(backlog_max, static_cast<int64_t>(channel.size()));
      }
    }
  }

  if (stalled.load() || !quiesce()) {
    *error = "text_threaded did not quiesce";
    return false;
  }
  engine.Stop();
  engine.Drain();
  shared_.slice.store(-1, std::memory_order_relaxed);

  std::sort(late_ns.begin(), late_ns.end());
  const double late_us_p99 =
      late_ns.empty()
          ? 0.0
          : static_cast<double>(
                late_ns[static_cast<size_t>(0.99 * static_cast<double>(
                                                       late_ns.size() - 1))]) /
                1000.0;
  r->counts["phase_b_ticks"] = static_cast<double>(late_ns.size());
  r->counts["generator_late_us_p99"] = late_us_p99;
  r->counts["stolen_share"] = Median(stolen);
  if (!opts_.trace) {
    r->metrics["throughput_tps"] = {MedianRate(a_slices, true), "tuples/s"};
    r->counts["raw_throughput_tps"] = MedianRate(a_slices, false);
    return true;
  }

  // Per-layer numbers from public counters over the sampled half of phase
  // A, in wall-clock time without the calibration pauses. The ledger is the
  // kWorkers scheduler threads' wall time plus the producer's push time:
  // each transition's busy time (an emitter's minus its sinks'), the pushes
  // and the sinks take their shares, and what the workers did besides
  // firing (sweeps, idle waits, wakeups) is unattributed.
  auto half_rate = [&](size_t from, size_t to) {
    Part p;
    for (size_t i = from; i < to; ++i) {
      p.wall_ns += a_slices[i].wall_ns;
      p.tuples += a_slices[i].tuples;
    }
    return p.Rate(false);
  };
  const double wall = static_cast<double>(a2.t - a1.t - paused_ns);
  const double secs = wall / 1e9;
  const double tuples =
      static_cast<double>(std::max<int64_t>(a2.processed - a1.processed, 1));
  const double rounds = tuples / static_cast<double>(kRoundTuples);
  const double push_ns =
      static_cast<double>(gen_ledger.Summary()["adapters.channel"].total_ns);
  const double total = static_cast<double>(kWorkers) * wall + push_ns;
  layer_["bench.ledger_ns_per_tuple"] = total / tuples;
  layer_["bench.trace_overhead_frac"] =
      half_rate(0, kSlices / 2) / half_rate(kSlices / 2, kSlices) - 1.0;
  layer_["bench.generator.late_frac"] =
      static_cast<double>(std::count_if(
          late_ns.begin(), late_ns.end(),
          [](int64_t l) { return l > kLateNs; })) /
      static_cast<double>(std::max<size_t>(late_ns.size(), 1));
  layer_["adapters.channel.backlog_max"] = static_cast<double>(backlog_max);
  std::map<std::string, double> busy_ns, runs;
  for (size_t i = 0; i < all.size(); ++i) {
    const std::string label = LayerLabel(*all[i]);
    busy_ns[label] +=
        1000.0 * static_cast<double>(a2.busy_us[i] - a1.busy_us[i]);
    runs[label] += static_cast<double>(a2.runs[i] - a1.runs[i]);
  }
  double sink_total = 0.0, rows_total = 0.0;
  for (size_t i = 0; i < net.sinks.size(); ++i) {
    const Q q = net.sinks[i]->q();
    const double sink = static_cast<double>(a2.sink_ns[i] - a1.sink_ns[i]);
    const double rows = static_cast<double>(a2.sink_rows[i] - a1.sink_rows[i]);
    const std::string f = std::string("core.factory.") + QName(q);
    const std::string e = std::string("core.emitter.") + QName(q);
    busy_ns[e] -= sink;
    sink_total += sink;
    rows_total += rows;
    layer_[f + ".fires_per_round"] = runs[f] / rounds;
    layer_[f + ".rows_out_per_tuple"] = rows / tuples;
    layer_[e + ".rows_per_fire"] = rows / std::max(runs[e], 1.0);
  }
  busy_ns["adapters.channel"] = push_ns;
  busy_ns["bench.sink"] = sink_total;
  double attributed = 0.0;
  for (const auto& [label, ns] : busy_ns) {
    if (label == "core.other") continue;
    layer_[label + ".share"] = ns / total;
    attributed += ns / total;
  }
  layer_["core.scheduler.unattributed.share"] = 1.0 - attributed;
  layer_["core.receptor.fires_per_round"] = runs["core.receptor"] / rounds;
  layer_["core.receptor.tuples_per_fire"] =
      tuples / std::max(runs["core.receptor"], 1.0);
  layer_["bench.sink_ns_per_row"] = sink_total / std::max(rows_total, 1.0);
  layer_["core.scheduler.sweeps_per_round"] =
      static_cast<double>(a2.sweeps - a1.sweeps) / rounds;
  // A threaded sweep that fires nothing ends in an idle wait.
  layer_["core.scheduler.zero_fire_sweeps_per_round"] =
      static_cast<double>(a2.idle - a1.idle) / rounds;
  layer_["core.scheduler.idle_waits_per_s"] =
      static_cast<double>(a2.idle - a1.idle) / secs;
  layer_["core.scheduler.wakes_notified_per_s"] =
      static_cast<double>(a2.notified - a1.notified) / secs;
  layer_["core.scheduler.wakes_timeout_per_s"] =
      static_cast<double>(a2.timeouts - a1.timeouts) / secs;
  if (!opts_.trace_path.empty() &&
      !gen_ledger.WriteChromeTrace(opts_.trace_path)) {
    r->notes.push_back("could not write trace " + opts_.trace_path);
  }
  return true;
}

void Workload::Finish(Net& net, RunResult* r) {
  std::vector<Engine*> engines = net.engines();
  std::vector<MetricsSnapshotData> snaps;
  for (Engine* e : engines) snaps.push_back(e->MetricsSnapshot());

  // Tuples a factory has not consumed after the final drain count as
  // failures, as do lines left on the channel.
  std::map<Q, int64_t> consumed;
  for (Engine* e : engines) {
    for (const TransitionPtr& t : e->scheduler().transitions()) {
      std::optional<Q> q = QueryOf(t->name());
      if (t->kind() == TransitionKind::kFactory && q) {
        consumed[*q] += t->tuples_processed();
      }
    }
  }
  int64_t queued = net.channel != nullptr
                       ? static_cast<int64_t>(net.channel->size())
                       : 0;
  for (Q q : queries_) {
    queued += std::max<int64_t>(0, net.ref.tuples - consumed[q]);
  }
  int64_t scheduler_errors = fire_errors_;
  for (Engine* e : engines) scheduler_errors += e->scheduler().error_count();

  const int64_t malformed = static_cast<int64_t>(
      SeriesTotal(snaps, "datacell_receptor_malformed_total", false));
  const int64_t shed = static_cast<int64_t>(
      SeriesTotal(snaps, "datacell_basket_shed_total", false));
  for (const auto& sink : net.sinks) sink->Check(net.ref, &r->mismatches);
  const int64_t mismatches = static_cast<int64_t>(r->mismatches.size());

  r->attempted = std::max<int64_t>(fed_tuples_, 1);
  r->failed = malformed + shed + mismatches + queued + ingest_errors_ +
              scheduler_errors;
  r->correct = mismatches == 0;
  r->counts["malformed"] = static_cast<double>(malformed);
  r->counts["shed"] = static_cast<double>(shed);
  r->counts["mismatches"] = static_cast<double>(mismatches);
  r->counts["queued_after_drain"] = static_cast<double>(queued);
  r->counts["ingest_errors"] = static_cast<double>(ingest_errors_);
  r->counts["scheduler_errors"] = static_cast<double>(scheduler_errors);
  r->counts["reference_tuples"] = static_cast<double>(net.ref.tuples);
  for (Q q : queries_) {
    r->counts[std::string("rows.") + QName(q)] =
        static_cast<double>(net.sink_rows(q));
  }

  if (!opts_.trace) {
    // Percentiles per slice, then the median over slices; at the reference
    // speed, and as measured (raw_*).
    std::map<double, std::vector<double>> per_q, raw_q;
    double samples = 0;
    for (size_t s = 0; s < static_cast<size_t>(kSlices); ++s) {
      LatencyHistogram lat;
      for (const auto& sink : net.sinks) {
        if (s < sink->latency().size()) lat.Merge(sink->latency()[s]);
      }
      if (lat.count() == 0) continue;
      samples += static_cast<double>(lat.count());
      for (double q : {0.5, 0.9, 0.99, 0.999}) {
        raw_q[q].push_back(lat.Percentile(q) / 1000.0);
        per_q[q].push_back(raw_q[q].back() / slice_slowdown_[s]);
      }
    }
    r->counts["latency_samples"] = samples;
    r->counts["latency_p99_us"] = Median(per_q[0.99]);
    r->counts["latency_p999_us"] = Median(per_q[0.999]);
    r->counts["raw_latency_p50_us"] = Median(raw_q[0.5]);
    r->counts["raw_latency_p90_us"] = Median(raw_q[0.9]);
    r->metrics["latency_p50_us"] = {Median(per_q[0.5]), "us"};
    r->metrics["latency_p90_us"] = {Median(per_q[0.9]), "us"};
    r->metrics["peak_rss_mb"] = {PeakRssMiB(), "MiB"};
    return;
  }

  // Counter-based per-layer numbers (whole run, read from MetricsSnapshot).
  layer_["adapters.channel.dropped"] =
      net.channel != nullptr ? static_cast<double>(net.channel->total_dropped())
                             : 0.0;
  layer_["core.receptor.malformed"] = static_cast<double>(malformed);
  for (Q q : queries_) {
    layer_[std::string("core.factory.") + QName(q) + ".state_bytes_hw"] =
        SeriesTotal(snaps, "datacell_query_state_high_water_bytes", true,
                    [&](const MetricLabels& l) {
                      const std::string* v = LabelValue(l, "query");
                      return v != nullptr && QueryOf(*v) == q;
                    });
  }
  layer_["core.basket.ticks.high_water"] =
      SeriesTotal(snaps, "datacell_basket_high_water", true,
                  [](const MetricLabels& l) {
                    const std::string* v = LabelValue(l, "basket");
                    return v != nullptr && *v == "ticks";
                  });
  layer_["core.basket.shed"] = static_cast<double>(shed);
  const double hits = SeriesTotal(snaps, "datacell_pool_hits_total", false);
  const double misses = SeriesTotal(snaps, "datacell_pool_misses_total", false);
  layer_["storage.batch_pool.hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  layer_["storage.batch_pool.dropped"] =
      SeriesTotal(snaps, "datacell_pool_dropped_total", false);
  if (net.sharded != nullptr) {
    double mx = 0.0, total = 0.0, shards = 0.0;
    for (const auto& c : net.sharded->metrics().Snapshot().counters) {
      if (c.name != "datacell_shard_routed_tuples_total") continue;
      mx = std::max(mx, static_cast<double>(c.value));
      total += static_cast<double>(c.value);
      shards += 1.0;
    }
    layer_["core.shard.skew"] = total > 0 ? mx / (total / shards) : 0.0;
  }

  for (const auto& [name, unit] : LayerMetricSpecs()) {
    auto it = layer_.find(name);
    r->metrics[name] = {it != layer_.end() ? it->second : 0.0, unit};
  }
  for (const auto& [name, value] : layer_) {
    if (r->metrics.count(name) == 0) {
      r->notes.push_back("unlisted layer metric " + name + " = " +
                         std::to_string(value));
    }
  }
}

bool Workload::Run(RunResult* r, std::string* error) {
  datacell::SetLogLevel(datacell::LogLevel::kError);
  for (int w = 0; w < kWarmupRounds; ++w) {
    warmup_.emplace_back();
    gen_.NextBlock(w, kRoundTuples, &warmup_.back());
  }
  std::unique_ptr<Net> net;
  std::vector<double> setup_s, raw_setup_s;
  for (int i = 0; i < kSetups; ++i) {
    net.reset();
    Part time;
    const double slow = SlowDown({calib_.Sample(5)});
    if (!SetUpOnce(&net, &time, error)) return false;
    raw_setup_s.push_back(static_cast<double>(time.wall_ns) / 1e9);
    setup_s.push_back(static_cast<double>(time.ns) / 1e9 / slow);
  }
  r->counts["raw_setup_s"] = Median(raw_setup_s);
  if (mode_ == Mode::kTextThreaded) {
    if (!RunThreaded(*net, r, error)) return false;
  } else {
    RunDrain(*net, r);
  }
  if (!opts_.trace) r->metrics["setup_s"] = {Median(setup_s), "s"};
  Finish(*net, r);
  r->input_digest = gen_.digest();
  r->input_digest_tuples = static_cast<int64_t>(gen_.digested());
  return true;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "text_drain", "columnar_drain", "sharded4_drain", "text_threaded"};
  return names;
}

bool RunWorkload(const RunOptions& options, RunResult* result,
                 std::string* error) {
  const std::vector<std::string>& names = WorkloadNames();
  auto it = std::find(names.begin(), names.end(), options.workload);
  if (it == names.end()) {
    *error = "unknown workload " + options.workload;
    return false;
  }
  Workload w(static_cast<Mode>(it - names.begin()), options);
  return w.Run(result, error);
}

}  // namespace e2e
