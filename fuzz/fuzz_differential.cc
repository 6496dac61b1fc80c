// Fuzz harness for the differential contract (tests/differential.h): every
// execution configuration delivers the reference interpreter's rows. The
// input bytes drive a generator of a stream schema, one or two continuous
// queries of a chosen shape, and ingest batches of exactly representable
// values (small integers, quarter multiples, a few strings), so every
// configuration is held to exact equality. A divergence aborts with the
// scenario spelled out.
//
// The smoke must compare something: at exit the harness counts the inputs
// whose reference delivered rows that another configuration was compared
// against, and fails when fewer than 90% of the inputs did.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "differential.h"

namespace {

using namespace datacell;

/// The input as a stream of choices. Past its end the choices come from a
/// generator seeded with the whole input, so a short input still spells out
/// a full scenario.
class Choices {
 public:
  Choices(const uint8_t* data, size_t size) : data_(data), size_(size) {
    for (size_t i = 0; i < size; ++i) {
      state_ = (state_ ^ data[i]) * 1099511628211ULL;
    }
  }
  size_t Pick(size_t n) {
    if (pos_ < size_) return data_[pos_++] % n;
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<size_t>(state_ >> 33) % n;
  }
  bool Coin() { return Pick(2) == 1; }
  int Small() { return static_cast<int>(Pick(13)) - 4; }  // -4 .. 8
  double Quarter() { return (static_cast<double>(Pick(49)) - 16) / 4; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  uint64_t state_ = 14695981039346656037ULL;  // FNV-1a over the input
};

enum Type { kInt, kDouble, kString, kBool };
const char* const kTypeSql[] = {"int", "double", "varchar", "bool"};
const char* const kStrings[] = {"a", "b", "ab", "", "a,b", "q\"t", " sp"};

struct Gen {
  Choices& c;
  std::vector<Type> types;  // column 0 is "k" (int), column i is "c<i>"

  static std::string Col(size_t i) {
    return i == 0 ? "k" : "c" + std::to_string(i);
  }

  Value RandomValue(Type t) {
    if (c.Pick(8) == 0) return Value::Null();
    switch (t) {
      case kInt:
        return Value::Int64(c.Small());
      case kDouble:
        return Value::Double(c.Quarter());
      case kString:
        return Value::String(kStrings[c.Pick(std::size(kStrings))]);
      case kBool:
        return Value::Bool(c.Coin());
    }
    return Value::Null();
  }

  /// One or two comparisons over the columns of `rel`.
  std::string Predicate(const std::string& rel = "x") {
    auto one = [&]() -> std::string {
      const size_t i = c.Pick(types.size());
      const std::string ref = rel + "." + Col(i);
      if (c.Pick(5) == 0) return ref + (c.Coin() ? " is null" : " is not null");
      static const char* const kOps[] = {"<", "<=", ">", ">=", "=", "<>"};
      switch (types[i]) {
        case kBool:
          return c.Coin() ? ref : "not " + ref;
        case kString:
          return c.Coin() ? ref + " like '%a%'"
                          : ref + " <> '" + kStrings[c.Pick(3)] + "'";
        case kInt:
          return ref + " " + kOps[c.Pick(6)] + " " + std::to_string(c.Small());
        case kDouble:
          return ref + " " + kOps[c.Pick(6)] + " " +
                 std::to_string(c.Quarter());
      }
      return ref + " is null";
    };
    std::string p = one();
    if (c.Pick(3) == 0) {
      p = "(" + p + (c.Coin() ? ") and (" : ") or (") + one() + ")";
    }
    return p;
  }

  /// A column of type `t`, else "x.k".
  std::string ColumnOf(Type t) {
    std::vector<size_t> of;
    for (size_t i = 0; i < types.size(); ++i) {
      if (types[i] == t) of.push_back(i);
    }
    return "x." + Col(of.empty() ? 0 : of[c.Pick(of.size())]);
  }

  std::string Aggregates() {
    static const char* const kFns[] = {"sum", "min", "max", "avg", "count"};
    const std::string arg = ColumnOf(c.Coin() ? kDouble : kInt);
    std::string out = "count(*) as n";
    for (size_t i = 0, n = 1 + c.Pick(3); i < n; ++i) {
      out += std::string(", ") + kFns[c.Pick(5)] + "(" + arg + ") as a" +
             std::to_string(i);
    }
    return out;
  }

  std::string Window() {
    static const int kSizes[] = {2, 3, 4, 6, 8};
    const int size = kSizes[c.Pick(5)];
    const int slide = c.Coin() ? size : 1 + static_cast<int>(c.Pick(size));
    return " window size " + std::to_string(size) + " slide " +
           std::to_string(slide);
  }

  /// One continuous query over `from`, of a chosen shape.
  std::string Query(const std::string& from) {
    const std::string src = " from [select * from " + from + "] as x";
    const std::string where = c.Pick(3) == 0 ? " where " + Predicate() : "";
    std::string cols = "x.k";
    for (size_t i = 1; i < types.size(); ++i) {
      if (c.Coin()) cols += ", x." + Col(i);
    }
    switch (c.Pick(10)) {
      case 0:
        return "select " + cols + src + where;
      case 1: {
        const std::string d = ColumnOf(kDouble);
        return "select x.k + 1 as k1, x.k * 2 as k2, x.k / 2 as k3, "
               "x.k % 3 as k4, " +
               d + " * 2.0 as d1, " + d + " / 4.0 as d2" + src + where;
      }
      case 2:
        return "select " + Aggregates() + src + where;
      case 3: {
        const std::string key = ColumnOf(static_cast<Type>(c.Pick(4)));
        return "select " + key + ", " + Aggregates() + src + where +
               " group by " + key + (c.Coin() ? " having count(*) > 1" : "");
      }
      case 4:
        return "select x.k, t.w, t.label" + src + " join t on x.k = t.k" +
               where;
      case 5:
        return c.Coin() ? "select x.k, " + Aggregates() + src + where +
                              " group by x.k order by k" + Window()
                        : "select " + Aggregates() + src + where + Window();
      case 6:
        return "select distinct x.k" + src + where;
      case 7:
        return "select x.k" + src + where + " order by k desc limit " +
               std::to_string(1 + c.Pick(4));
      case 8:
        return "select " + cols + " from [select * from " + from + " where " +
               Predicate(from) + "] as x";
      default:
        return "select " + cols + src + where + Window();
    }
  }

  differential::Scenario Scenario() {
    differential::Scenario s;
    types = {kInt};
    std::string ddl = "create basket s (k int";
    for (size_t i = 1, n = 2 + c.Pick(3); i < n; ++i) {
      types.push_back(static_cast<Type>(c.Pick(4)));
      ddl += ", " + Col(i) + " " + kTypeSql[types.back()];
    }
    s.Setup(ddl + (c.Coin() ? ") partition by k" : ")"));
    s.Setup("create table t (k int, w double, label varchar)");
    s.Setup(
        "insert into t values (0, 0.5, 'a'), (1, 1.5, 'b'), "
        "(1, -2.25, 'c'), (3, 4.0, null), (null, 8.0, 'n')");
    switch (c.Pick(4)) {
      case 0:  // two consumers of one stream
        s.AddQuery("q0", Query("s"));
        s.AddQuery("q1", Query("s"));
        break;
      case 1:  // a query over q0's output, which keeps every column of s
        s.AddQuery("q0",
                   "select * from [select * from s] as x where " + Predicate());
        s.AddQuery("q1", Query("q0_out"));
        break;
      default:
        s.AddQuery("q0", Query("s"));
    }
    for (size_t b = 0, n = 1 + c.Pick(5); b < n; ++b) {
      std::vector<Row> rows(c.Pick(33));
      for (Row& row : rows) {
        for (Type t : types) row.push_back(RandomValue(t));
      }
      s.Ingest("s", std::move(rows));
      if (c.Pick(4) != 0) s.Drain();
    }
    return s;
  }
};

std::string Describe(const differential::Scenario& s) {
  std::string out = s.setup;
  for (const auto& [name, sql] : s.queries) out += name + ": " + sql + "\n";
  for (const auto& step : s.steps) {
    out += step.stream.empty() ? "drain" : "ingest " + step.stream + ":";
    for (const Row& row : step.rows) {
      out += " " + differential::RowToString(row);
    }
    out += "\n";
  }
  return out;
}

/// Counts the inputs that reached a comparison; checks the share at exit.
struct Tally {
  int64_t inputs = 0;
  int64_t compared = 0;
  ~Tally() {
    if (inputs == 0) return;
    std::fprintf(stderr,
                 "fuzz_differential: %lld of %lld inputs reached a "
                 "comparison\n",
                 static_cast<long long>(compared),
                 static_cast<long long>(inputs));
    if (compared * 10 < inputs * 9) {
      std::fprintf(stderr, "fuzz_differential: fewer than 90%% compared\n");
      std::_Exit(1);
    }
  }
} tally;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  Choices choices(data, size);
  const differential::Scenario scenario = Gen{choices, {}}.Scenario();
  const differential::Report report = differential::Run(scenario);
  ++tally.inputs;
  if (!report.failures.empty()) {
    std::fprintf(stderr, "fuzz_differential: divergence\n%s%s\n",
                 Describe(scenario).c_str(), report.ToString().c_str());
    std::abort();
  }
  if (report.configs.size() >= 2 && report.total_rows() > 0) ++tally.compared;
  return 0;
}
