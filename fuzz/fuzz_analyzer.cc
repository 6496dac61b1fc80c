// Fuzz harness for the static analyzer's soundness contract: if the
// registration-time analyzer accepts a plan, the interpreter must never
// fail with a TypeError when that plan runs. (The reverse — analyzer
// strictly rejecting what execution would reject — is checked by the unit
// suite; this harness hunts for *acceptance* bugs, which silently re-open
// the fire-time error class the analyzer exists to close.)
//
// Each input is one SQL statement compiled against a fixed catalog holding
// every column type. Accepted continuous queries are registered, fed rows
// and drained; accepted one-time SELECTs are executed. Any TypeError after
// acceptance aborts. (Partition verdicts are checked by fuzz_differential,
// which runs generated queries on a ShardedEngine.)

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "analysis/plan_analyzer.h"
#include "core/engine.h"
#include "core/state_oracle.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace {

using namespace datacell;

void Check(bool cond, const char* what, const Status& st) {
  if (cond) return;
  std::fprintf(stderr, "fuzz_analyzer contract violated: %s: %s\n", what,
               st.ToString().c_str());
  std::abort();
}

void ExerciseStatement(const std::string& input) {
  auto parsed = sql::ParseStatement(input);
  if (!parsed.ok() || parsed->kind != sql::Statement::Kind::kSelect) return;

  EngineOptions opts;
  opts.use_wall_clock = false;
  Engine engine(opts);
  if (!engine.ExecuteSql(
                 "create basket s (x int, y double, name varchar) "
                 "partition by x")
           .ok() ||
      !engine.ExecuteSql("create table t (k int, v double, label varchar)")
           .ok() ||
      !engine.ExecuteSql("insert into t values (1, 0.5, 'a'), (2, 1.5, 'b')")
           .ok()) {
    std::abort();  // fixed-catalog setup can never fail
  }

  sql::Planner planner(&engine.catalog());
  auto compiled = planner.CompileSelect(*parsed->select);
  if (!compiled.ok()) return;  // binder rejected: nothing to cross-check

  analysis::AnalysisReport report = analysis::AnalyzePlan(*compiled->plan);
  if (report.num_errors() > 0) return;  // analyzer rejected: in-contract

  if (!compiled->continuous) {
    // One-time SELECT: the analyzer blessed the plan, so evaluation over
    // the static tables must not trip a type check.
    auto r = engine.ExecuteSql(input);
    if (!r.ok()) {
      Check(!r.status().IsTypeError(),
            "analyzer accepted a one-time plan the interpreter type-rejects",
            r.status());
    }
    return;
  }

  // Continuous query: registration re-runs the analyzer (plus net wiring
  // checks that may legitimately fail, e.g. name clashes) — but if it
  // sticks, firing over well-typed rows must not produce a TypeError.
  auto q = engine.SubmitContinuousQuery("fz", input);
  if (!q.ok()) return;
  // Second contract: the pass-4 static state bound must dominate the state
  // the factory actually accumulates. A measured high-water mark above a
  // numeric bound is an unsound bound — abort. (The oracle ingests into the
  // query's input streams; the well-typed ingest loop below adds more rows
  // on top, which only tightens the check.)
  {
    StateOracleOptions oopts;
    oopts.rows = 64;
    oopts.batch = 16;
    auto res = CheckStateBound(engine, *q, oopts);
    if (res.ok()) {
      Check(res->sound, "state bound is unsound (measured exceeds bound)",
            Status::Internal(res->detail));
    }
  }
  for (int i = 0; i < 8; ++i) {
    Status st = engine.Ingest(
        "s", {Value::Int64(i), Value::Double(i * 0.25),
              Value::String(i % 2 == 0 ? "even" : "odd")});
    Check(!st.IsTypeError(), "well-typed ingest rejected", st);
  }
  engine.Drain();
  Status fire = engine.scheduler().last_error();
  Check(!fire.IsTypeError(),
        "analyzer accepted a plan the interpreter type-rejects at fire time",
        fire);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  // Each input spins up an engine; keep statements short so the smoke's
  // bounded-run budget is spent on plan shapes, not parse churn.
  constexpr size_t kMaxLen = 4096;
  if (size > kMaxLen) size = kMaxLen;
  ExerciseStatement(std::string(reinterpret_cast<const char*>(data), size));
  return 0;
}
