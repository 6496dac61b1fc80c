#include "differential.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>

#include "adapters/csv.h"
#include "common/string_util.h"

namespace datacell::differential {

namespace {

constexpr Timestamp kClockStep = 1000;  // µs between ingest batches
using DrainFn = std::function<void(size_t, std::vector<std::vector<Row>>)>;

/// CSV lines denoting `rows` exactly: doubles in their shortest round-trip
/// form, every other value as the receptor's codec writes it.
std::string TextOf(const std::vector<Row>& rows) {
  std::string text;
  for (const Row& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) text.push_back(',');
      if (row[i].is_double()) {
        char buf[32];
        text.append(buf, std::to_chars(buf, buf + sizeof(buf),
                                       row[i].double_value())
                             .ptr);
      } else {
        text += FormatCsvRow({row[i]});
      }
    }
    text.push_back('\n');
  }
  return text;
}

/// Null equals only null, NaN equals NaN, doubles otherwise compare
/// bitwise, everything else by value.
bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_double() && b.is_double()) {
    const double x = a.double_value();
    const double y = b.double_value();
    if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  }
  return a == b;
}

bool PerFiring(const PlanNode& n) {
  switch (n.kind()) {
    case PlanKind::kAggregate:
    case PlanKind::kSort:
    case PlanKind::kLimit:
    case PlanKind::kDistinct:
      return true;
    default:
      return std::any_of(n.children().begin(), n.children().end(),
                         [](const PlanPtr& c) { return PerFiring(*c); });
  }
}

/// SameValue, or doubles within 1e-12 relative of each other.
bool CloseRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t c = 0; c < a.size(); ++c) {
    if (SameValue(a[c], b[c])) continue;
    if (!a[c].is_double() || !b[c].is_double()) return false;
    const double x = a[c].double_value();
    const double y = b[c].double_value();
    if (!(std::abs(x - y) <= 1e-12 * std::max(std::abs(x), std::abs(y)))) {
      return false;
    }
  }
  return true;
}

std::string SizeDiff(size_t got, size_t want) {
  return std::to_string(got) + " rows, reference " + std::to_string(want);
}

/// "" when `got` matches `want` row for row, else the first difference.
std::string RowDiff(const std::vector<Row>& got, const std::vector<Row>& want) {
  if (got.size() != want.size()) return SizeDiff(got.size(), want.size());
  for (size_t r = 0; r < got.size(); ++r) {
    bool same = got[r].size() == want[r].size();
    for (size_t c = 0; same && c < got[r].size(); ++c) {
      same = SameValue(got[r][c], want[r][c]);
    }
    if (!same) {
      return "row " + std::to_string(r) + ": " + RowToString(got[r]) +
             " vs reference " + RowToString(want[r]);
    }
  }
  return "";
}

/// "" when `got` and `want` are equal multisets, rows matched by CloseRow
/// when `close`; else what differs.
std::string MultisetDiff(const std::vector<Row>& got,
                         const std::vector<Row>& want, bool close) {
  std::multimap<std::string, const Row*> missing;
  for (const Row& r : want) missing.emplace(Canonical({r})[0], &r);
  std::vector<const Row*> extra;
  for (const Row& r : got) {
    auto it = missing.find(Canonical({r})[0]);
    if (it == missing.end()) {
      extra.push_back(&r);
    } else {
      missing.erase(it);
    }
  }
  if (close) {
    std::erase_if(extra, [&](const Row* r) {
      auto m = std::find_if(missing.begin(), missing.end(), [&](auto& w) {
        return CloseRow(*r, *w.second);
      });
      if (m == missing.end()) return false;
      missing.erase(m);
      return true;
    });
  }
  if (extra.empty() && missing.empty()) return "";
  std::string out = SizeDiff(got.size(), want.size());
  if (!extra.empty()) out += "; unexpected " + RowToString(*extra[0]);
  if (!missing.empty()) {
    out += "; missing " + RowToString(*missing.begin()->second);
  }
  return out;
}

/// The sort keys of a plan ending in ORDER BY ... LIMIT: SQL leaves open
/// which tied rows make the cut, so multiset configs compare only these.
std::vector<size_t> CutKeys(const PlanNode& plan) {
  std::vector<size_t> keys;
  if (plan.kind() == PlanKind::kLimit &&
      plan.child()->kind() == PlanKind::kSort) {
    for (const SortKey& k : plan.child()->sort_keys()) keys.push_back(k.column);
  }
  return keys;
}

/// One configuration's engine, sinks and text channels.
class Runner {
  template <typename F>
  auto Visit(F&& f) {
    return sharded_ != nullptr ? f(*sharded_) : f(*engine_);
  }

 public:
  Runner(const Scenario& s, const Config& c) : s_(s), c_(c) {}
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;
  ~Runner() {
    if (engine_ != nullptr || sharded_ != nullptr) {
      Visit([](auto& e) { e.Stop(); });
    }
  }

  /// Builds the engine, runs the setup script, registers and subscribes the
  /// queries. `*rejected` names a query the configuration rejects.
  Status Setup(std::string* rejected) {
    EngineOptions o = s_.options;
    o.use_wall_clock = false;
    o.specialize_plans = c_.specialize;
    o.window_mode = c_.window_mode;
    o.default_strategy = c_.strategy;
    if (c_.shards > 0) {
      sharded_ =
          std::make_unique<ShardedEngine>(ShardedEngineOptions{c_.shards, o});
    } else {
      engine_ = std::make_unique<Engine>(o);
    }
    DC_RETURN_NOT_OK(
        Visit([&](auto& e) { return e.ExecuteScript(s_.setup).status(); }));
    for (const auto& [name, sql] : s_.queries) {
      auto id = Visit(
          [&](auto& e) { return e.SubmitContinuousQuery(name, sql); });
      if (!id.ok()) {
        *rejected = "query " + name + " rejected: " + id.status().ToString();
        return id.status();
      }
      sinks_.push_back(std::make_shared<CollectingSink>());
      DC_RETURN_NOT_OK(
          Visit([&](auto& e) { return e.Subscribe(*id, sinks_.back()); }));
      ids_.push_back(*id);
    }
    for (const Scenario::Step& step : s_.steps) {
      if (c_.ingest == IngestPath::kText && !step.stream.empty() &&
          text_.count(step.stream) == 0) {
        DC_RETURN_NOT_OK(AttachText(step.stream));
      }
    }
    return c_.threaded ? Visit([](auto& e) { return e.Start(2); })
                       : Status::OK();
  }

  /// Runs every step. `on_drain(drain, rows per query)` sees what each
  /// drain delivered; a Start(2) config reports once, after Stop() and a
  /// final drain.
  Status Play(const DrainFn& on_drain) {
    size_t drain = 0;
    for (const Scenario::Step& step : s_.steps) {
      if (!step.stream.empty()) {
        Status st = Ingest(step);
        if (!st.ok()) {
          return Status(st.code(),
                        "ingest into " + step.stream + ": " + st.message());
        }
      } else if (!c_.threaded) {
        Visit([](auto& e) { e.Drain(); });
        Deliver(drain++, on_drain);
      }
    }
    if (c_.threaded) {
      Visit([](auto& e) {
        e.Stop();
        e.Drain();
      });
      Deliver(s_.num_drains() - 1, on_drain);
    }
    return Status::OK();
  }

  const std::vector<QueryId>& ids() const { return ids_; }
  Engine* engine() const { return engine_.get(); }

 private:
  struct Text {
    std::unique_ptr<Channel> channel;
    Receptor* receptor = nullptr;
  };

  void Deliver(size_t drain, const DrainFn& on_drain) {
    std::vector<std::vector<Row>> rows;
    for (const auto& sink : sinks_) rows.push_back(sink->TakeRows());
    on_drain(drain, std::move(rows));
    if (s_.inspect) {
      s_.inspect(Instance{c_, engine_.get(), sharded_.get(), ids_}, drain);
    }
  }

  Result<Schema> UserSchema(const std::string& stream) {
    Engine& e = sharded_ != nullptr ? sharded_->shard(0) : *engine_;
    DC_ASSIGN_OR_RETURN(BasketPtr basket, e.GetBasket(stream));
    return basket->user_schema();
  }

  Status Ingest(const Scenario::Step& step) {
    if (c_.ingest == IngestPath::kText) {
      DC_RETURN_NOT_OK(IngestText(step));
    } else if (c_.ingest == IngestPath::kColumns) {
      DC_ASSIGN_OR_RETURN(Schema schema, UserSchema(step.stream));
      ColumnBatch batch(schema);
      DC_RETURN_NOT_OK(batch.AppendRows(step.rows));
      DC_RETURN_NOT_OK(Visit([&](auto& e) {
        return e.IngestColumns(step.stream, std::move(batch));
      }));
    } else {
      DC_RETURN_NOT_OK(Visit(
          [&](auto& e) { return e.IngestBatch(step.stream, step.rows); }));
    }
    if (engine_ != nullptr) {
      engine_->simulated_clock()->Advance(kClockStep);
      return Status::OK();
    }
    for (size_t i = 0; i < sharded_->num_shards(); ++i) {
      sharded_->shard(i).simulated_clock()->Advance(kClockStep);
    }
    sharded_->frontend().simulated_clock()->Advance(kClockStep);
    return Status::OK();
  }

  /// A channel and a receptor attached to the engine's net for `stream`.
  Status AttachText(const std::string& stream) {
    Text& t = text_[stream];
    t.channel = std::make_unique<Channel>();
    DC_ASSIGN_OR_RETURN(t.receptor,
                        engine_->AttachReceptor(stream, t.channel.get()));
    return Status::OK();
  }

  /// Pushes the batch as one framed block and fires the receptor until it
  /// has delivered it, so its rows are stamped before the clock moves.
  Status IngestText(const Scenario::Step& step) {
    Text& t = text_.at(step.stream);
    const int64_t bad_before = t.receptor->malformed_lines();
    t.channel->PushBlock(TextOf(step.rows));
    while (!t.channel->empty()) {
      DC_RETURN_NOT_OK(t.receptor->Fire().status());
    }
    const int64_t bad = t.receptor->malformed_lines() - bad_before;
    return bad == 0 ? Status::OK()
                    : Status::ParseError("the receptor rejected " +
                                         std::to_string(bad) + " line(s)");
  }

  const Scenario& s_;
  const Config& c_;
  std::map<std::string, Text> text_;  // outlives the engine reading it
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<ShardedEngine> sharded_;
  std::vector<QueryId> ids_;
  std::vector<std::shared_ptr<CollectingSink>> sinks_;
};

/// The reference, one variant per axis value and the corner, minus what
/// the scenario rules out (see Run), each such variant noted in `skipped`.
std::vector<Config> Configs(const Scenario& scenario,
                            const std::vector<sql::CompiledQuery>& queries,
                            std::vector<std::string>* skipped) {
  std::string no_chain, no_start;
  std::map<std::string, std::string> reader;  // input basket -> query
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::string& name = scenario.queries[q].first;
    const auto& inputs = queries[q].inputs;
    if (inputs.size() != 1 && no_chain.empty()) {
      no_chain = "query " + name + " reads " + std::to_string(inputs.size()) +
                 " streams";
    } else if (inputs.size() == 1) {
      auto [it, fresh] = reader.emplace(ToLower(inputs[0].basket), name);
      if (!fresh && no_chain.empty()) {
        no_chain = "stream " + it->first + " feeds both " + it->second +
                   " and " + name;
      }
    }
    if (no_start.empty() &&
        queries[q].window.kind == sql::WindowSpec::Kind::kNone &&
        PerFiring(*queries[q].plan)) {
      no_start = "query " + name +
                 " aggregates, sorts, limits or deduplicates per firing";
    }
  }
  using PS = ProcessingStrategy;
  const EngineOptions defaults;
  std::vector<Config> out = {
      {.name = "reference"},
      {.name = "default",
       .specialize = defaults.specialize_plans,
       .window_mode = defaults.window_mode,
       .strategy = defaults.default_strategy},
      {.name = "specialized", .specialize = true},
      {.name = "incremental", .window_mode = WindowMode::kAuto},
      {.name = "shared", .strategy = PS::kSharedBaskets}};
  if (no_chain.empty()) {
    out.push_back({.name = "chained", .strategy = PS::kChained});
  } else {
    skipped->push_back("chained: " + no_chain);
  }
  for (size_t n : {1, 2, 4}) {
    out.push_back({.name = "shards=" + std::to_string(n), .shards = n});
  }
  out.push_back({.name = "columns", .ingest = IngestPath::kColumns});
  out.push_back({.name = "text", .ingest = IngestPath::kText});
  if (no_start.empty()) {
    out.push_back({.name = "start(2)", .threaded = true});
  } else {
    skipped->push_back("start(2): " + no_start);
  }
  out.push_back({.name = "corner",
                 .specialize = true,
                 .window_mode = WindowMode::kAuto,
                 .strategy = no_chain.empty() ? PS::kChained
                                              : PS::kSharedBaskets,
                 .shards = 4,
                 .ingest = IngestPath::kColumns,
                 .threaded = no_start.empty()});
  return out;
}

}  // namespace

std::string Compare(const Config& c, const std::vector<std::vector<Row>>& ref,
                    const std::vector<size_t>& keys, size_t d,
                    std::vector<Row> got) {
  if (c.shards == 0 && !c.threaded) return RowDiff(got, ref[d]);
  // Start(2): every drain's rows, without the delivery-time ts column.
  std::vector<Row> want;
  for (size_t i = c.threaded ? 0 : d; i <= d; ++i) {
    for (const Row& r : ref[i]) {
      want.emplace_back(r.begin(), r.end() - (c.threaded ? 1 : 0));
    }
  }
  if (c.threaded) {
    for (Row& r : got) r.pop_back();
  }
  if (!keys.empty()) {
    for (std::vector<Row>* rows : {&got, &want}) {
      for (Row& r : *rows) {
        Row projected;
        for (size_t k : keys) projected.push_back(r[k]);
        r = std::move(projected);
      }
    }
  }
  return MultisetDiff(got, want, c.shards > 0);
}

size_t Scenario::num_drains() const {
  return static_cast<size_t>(
      std::count_if(steps.begin(), steps.end(),
                    [](const Step& s) { return s.stream.empty(); }));
}

bool Report::Ran(const std::string& config) const {
  return std::count(configs.begin(), configs.end(), config) == 1;
}

size_t Report::total_rows() const {
  size_t n = 0;
  for (const auto& query : reference) {
    for (const auto& drain : query) n += drain.size();
  }
  return n;
}

std::string Report::ToString() const {
  std::string out = "configs:";
  for (const std::string& c : configs) out += " " + c;
  if (!setup_error.empty()) out += "\nsetup error: " + setup_error;
  for (const std::string& s : skipped) out += "\nskipped " + s;
  for (const std::string& f : failures) out += "\nFAILED " + f;
  return out;
}

std::string RowToString(const Row& row) {
  std::string s = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) s += ", ";
    s += row[i].is_null() ? "<null>" : row[i].ToString();
  }
  return s + ")";
}

std::vector<std::string> Canonical(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) {
    std::string s;
    for (const Value& v : row) {
      if (v.is_null()) {
        s += "null";
      } else if (v.is_double() && std::isnan(v.double_value())) {
        s += "nan";  // every NaN is one value
      } else if (v.is_double()) {
        const double d = v.double_value();
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(d));
        s += "d" + std::to_string(bits);
      } else if (v.is_string()) {
        s += "'" + std::to_string(v.string_value().size()) + ":" +
             v.string_value();
      } else {
        s += v.ToString();
      }
      s += '|';
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Report Run(Scenario s) {
  if (s.steps.empty() || !s.steps.back().stream.empty()) s.Drain();
  const size_t num_queries = s.queries.size();
  Report report;
  report.reference.assign(num_queries,
                          std::vector<std::vector<Row>>(s.num_drains()));
  std::vector<sql::CompiledQuery> compiled;
  {
    const Config reference{.name = "reference"};
    Runner ref(s, reference);
    std::string rejected;
    Status st = ref.Setup(&rejected);
    if (st.ok()) {
      for (QueryId id : ref.ids()) {
        compiled.push_back((*ref.engine()->GetQuery(id))->factory->query());
      }
      st = ref.Play([&](size_t d, std::vector<std::vector<Row>> rows) {
        for (size_t q = 0; q < num_queries; ++q) {
          report.reference[q][d] = std::move(rows[q]);
        }
      });
    }
    if (!st.ok()) {
      report.setup_error = rejected.empty() ? st.ToString() : rejected;
      return report;
    }
  }
  report.configs.push_back("reference");
  const std::vector<Config> configs = Configs(s, compiled, &report.skipped);
  for (size_t i = 1; i < configs.size(); ++i) {
    const Config& c = configs[i];
    Runner run(s, c);
    std::string rejected;
    Status st = run.Setup(&rejected);
    if (c.shards > 0 && !rejected.empty() &&
        st.code() == StatusCode::kFailedPrecondition) {
      report.skipped.push_back(c.name + ": " + rejected);  // a routing conflict
      continue;
    }
    if (st.ok()) {
      report.configs.push_back(c.name);
      st = run.Play([&](size_t d, std::vector<std::vector<Row>> rows) {
        for (size_t q = 0; q < num_queries; ++q) {
          std::string diff = Compare(c, report.reference[q],
                                     CutKeys(*compiled[q].plan), d,
                                     std::move(rows[q]));
          if (diff.empty()) continue;
          report.failures.push_back(c.name + ": query " + s.queries[q].first +
                                    " drain " + std::to_string(d) + ": " +
                                    diff);
        }
      });
    }
    if (!st.ok()) {
      report.failures.push_back(
          c.name + ": " + (rejected.empty() ? st.ToString() : rejected));
    }
  }
  return report;
}

}  // namespace datacell::differential
