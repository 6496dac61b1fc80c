// datacell-lint: offline static analysis of DataCell SQL scripts.
//
// Usage:  datacell-lint [--strict] [--json] [--partition-report <out.json>]
//                       [--state-report <out.json>] [--shards N]
//                       file.sql [more.sql ...]
//
// Each file is a script in the shell's dialect, cut by sql::SplitScript: DDL,
// INSERT, one-time SELECTs and continuous queries (either `\watch <name>
// <sql>;` or a bare SELECT over a basket expression) end at ';', any other
// `\` command at the end of its line. DDL and INSERTs execute against a
// scratch engine so later statements see the schemas; SELECTs are compiled
// and type-checked but never run. After every file is processed the whole
// registered net is linted (orphan baskets, dead transitions, chained
// predicate overlap, partition safety, ...).
//
// Diagnostics print to stderr as `file:line:col: severity: message [CODE]`
// (the format .github/datacell-lint-matcher.json turns into PR annotations).
// --json additionally prints the same findings to stdout as one JSON array
// of {code, severity, file, line, col, message} objects.
// --partition-report writes the pass-3 shard plan for every continuous
// query in the inputs — the machine-readable artifact the sharding work
// consumes and CI golden-diffs.
// --state-report writes the pass-4 state bound for every continuous query
// in the inputs — the verdict, byte figure and per-operator breakdown CI
// golden-diffs (examples/sql/state_report.golden.json). Purely static, so
// the artifact is deterministic.
// --shards N (N > 1) additionally replays each script against a live
// N-shard ShardedEngine, records the resulting placement (or the
// rejection reason) per query as a "placement" field in the report, and
// unions every shard's own Analyze() findings into the diagnostics, each
// prefixed with its shard label. The default output is unchanged, so
// golden diffs stay stable.
//
// Exit status: 1 when any error-severity diagnostic was produced (with
// --strict, warnings fail too; notes never fail); 0 otherwise. CI runs this
// over examples/sql.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/partition_analyzer.h"
#include "analysis/plan_analyzer.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/shard.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace {

using namespace datacell;

struct LintCounts {
  size_t errors = 0;
  size_t warnings = 0;
  size_t notes = 0;
};

/// One finding, normalized to file coordinates for both output formats.
struct LintDiag {
  std::string code;  // "P004", "A001", ... ; empty for parse/exec errors
  std::string severity;
  std::string file;
  size_t line = 0;  // 1-based file line; 0 = file-level finding
  size_t col = 0;
  std::string message;
};

/// One registered continuous query's shard plan, for --partition-report.
struct PartitionEntry {
  std::string file;
  size_t line = 0;
  std::string query;
  std::string sql;
  std::string report_json;       // PartitionReport::ToJson()
  std::string effective_verdict; // with engine-level overrides applied
  std::string placement;         // --shards N only; "" otherwise
};

/// One registered continuous query's pass-4 bound, for --state-report.
struct StateEntry {
  std::string file;
  size_t line = 0;
  std::string query;
  std::string sql;
  std::string report_json;  // StateReport::ToJson()
};

struct LintOutput {
  LintCounts counts;
  std::vector<LintDiag> diags;
  std::vector<PartitionEntry> partitions;
  std::vector<StateEntry> states;
};

void JsonAppendString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Prints the unified problem-matcher line and records the finding.
void Emit(LintOutput* out, LintDiag d) {
  std::fprintf(stderr, "%s:%zu:%zu: %s: %s%s%s%s\n", d.file.c_str(), d.line,
               d.col, d.severity.c_str(), d.message.c_str(),
               d.code.empty() ? "" : " [", d.code.c_str(),
               d.code.empty() ? "" : "]");
  if (d.severity == "error") ++out->counts.errors;
  if (d.severity == "warning") ++out->counts.warnings;
  if (d.severity == "note") ++out->counts.notes;
  out->diags.push_back(std::move(d));
}

/// Live N-shard replay for --shards: DDL/INSERTs and query registrations
/// mirror into a real ShardedEngine, so the recorded placements come from
/// the actual router and placement passes — route conflicts included.
struct ShardSim {
  explicit ShardSim(size_t n) {
    ShardedEngineOptions opts;
    opts.num_shards = n;
    opts.engine.use_wall_clock = false;
    engine = std::make_unique<ShardedEngine>(opts);
  }

  void Submit(const std::string& name, const std::string& sql) {
    auto q = engine->SubmitContinuousQuery(name, sql);
    if (!q.ok()) {
      placements[name] = "rejected: " + q.status().message();
      return;
    }
    auto p = engine->GetPlacement(*q);
    if (p.ok()) placements[name] = (*p)->placement;
  }

  std::unique_ptr<ShardedEngine> engine;
  std::map<std::string, std::string> placements;  // query name -> placement
};

void ReportStatus(const char* file, size_t stmt_line, const Status& st,
                  LintOutput* out) {
  LintDiag d;
  d.severity = "error";
  d.file = file;
  d.line = stmt_line;
  d.message = st.message();
  Emit(out, std::move(d));
}

const char* SeverityName(analysis::Severity s) {
  switch (s) {
    case analysis::Severity::kError: return "error";
    case analysis::Severity::kWarning: return "warning";
    case analysis::Severity::kNote: return "note";
  }
  return "?";
}

/// Emits every finding of `report`. `stmt_line` anchors statement-relative
/// source positions to the file (0 = file-level report, e.g. the net pass).
/// `label` (e.g. "shard 1: ") prefixes each message in --shards mode.
void EmitReport(const char* file, size_t stmt_line,
                const analysis::AnalysisReport& report, LintOutput* out,
                const std::string& label = "") {
  for (const analysis::Diagnostic& d : report.diagnostics()) {
    LintDiag ld;
    ld.code = analysis::DiagCodeId(d.code);
    ld.severity = SeverityName(d.severity);
    ld.file = file;
    if (d.loc.line > 0 && stmt_line > 0) {
      // Positions are 1-based within the statement's text.
      ld.line = stmt_line + d.loc.line - 1;
      ld.col = d.loc.col;
    } else {
      ld.line = stmt_line;
    }
    ld.message =
        label + std::string(analysis::DiagCodeName(d.code)) + ": " + d.message;
    if (!d.object.empty()) ld.message += " [in " + d.object + "]";
    Emit(out, std::move(ld));
  }
}

bool LintFile(const char* path, Engine* engine, ShardSim* sim,
              size_t* watch_count,
              std::vector<std::pair<size_t, size_t>>* query_lines,
              LintOutput* out) {
  std::ifstream in(path);
  if (!in) {
    LintDiag d;
    d.severity = "error";
    d.file = path;
    d.message = "cannot open file";
    Emit(out, std::move(d));
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string content = buf.str();

  for (const sql::ScriptPiece& stmt : sql::SplitScript(content)) {
    // Shell meta-command: only \watch registers anything; the rest
    // (\stats, \quit, ...) are runtime-only and irrelevant to linting.
    if (stmt.is_command()) {
      auto watch = sql::SplitWatch(stmt.text);
      if (!watch.has_value()) continue;
      const auto& [name, watch_sql] = *watch;
      auto q = engine->SubmitContinuousQuery(name, watch_sql);
      if (!q.ok()) {
        ReportStatus(path, stmt.line, q.status(), out);
      } else {
        query_lines->push_back({*q, stmt.line});
        if (sim != nullptr) sim->Submit(name, watch_sql);
      }
      continue;
    }

    const std::string text(stmt.text);
    auto parsed = sql::ParseStatement(text);
    if (!parsed.ok()) {
      ReportStatus(path, stmt.line, parsed.status(), out);
      continue;
    }
    if (parsed->kind != sql::Statement::Kind::kSelect) {
      // DDL / INSERT: execute so later statements bind against the schema.
      auto r = engine->Execute(*parsed);
      if (!r.ok()) ReportStatus(path, stmt.line, r.status(), out);
      // The shard replay needs the same catalog (errors already reported).
      if (r.ok() && sim != nullptr) (void)sim->engine->Execute(*parsed);
      continue;
    }
    sql::Planner planner(&engine->catalog());
    auto compiled = planner.CompileSelect(*parsed->select);
    if (!compiled.ok()) {
      ReportStatus(path, stmt.line, compiled.status(), out);
      continue;
    }
    if (compiled->continuous) {
      // A bare continuous SELECT registers under a synthetic name so the
      // net analysis sees its plumbing.
      std::string name = "lint" + std::to_string((*watch_count)++);
      auto q = engine->SubmitContinuousQuery(name, text);
      if (!q.ok()) {
        ReportStatus(path, stmt.line, q.status(), out);
      } else {
        query_lines->push_back({*q, stmt.line});
        if (sim != nullptr) sim->Submit(name, text);
      }
      continue;
    }
    // One-time SELECT: analyze only, never execute.
    analysis::AnalysisReport report = analysis::AnalyzePlan(*compiled->plan);
    EmitReport(path, stmt.line, report, out);
  }
  return true;
}

/// Collects the pass-3 shard plans of every query registered while linting
/// `path` into the --partition-report artifact.
void CollectPartitions(const char* path, Engine* engine, const ShardSim* sim,
                       const std::vector<std::pair<size_t, size_t>>& lines,
                       LintOutput* out) {
  for (const auto& [id, line] : lines) {
    auto q = engine->GetQuery(id);
    if (!q.ok() || (*q)->partition == nullptr) continue;
    PartitionEntry e;
    e.file = path;
    e.line = line;
    e.query = (*q)->name;
    e.sql = (*q)->sql;
    e.report_json = (*q)->partition->ToJson();
    e.effective_verdict =
        analysis::PartitionVerdictName(engine->EffectivePartitionVerdict(**q));
    if (sim != nullptr) {
      auto it = sim->placements.find(e.query);
      if (it != sim->placements.end()) e.placement = it->second;
    }
    out->partitions.push_back(std::move(e));
  }
}

/// Collects the pass-4 state bounds of every query registered while linting
/// `path` into the --state-report artifact.
void CollectStateBounds(const char* path, Engine* engine,
                        const std::vector<std::pair<size_t, size_t>>& lines,
                        LintOutput* out) {
  for (const auto& [id, line] : lines) {
    auto q = engine->GetQuery(id);
    if (!q.ok() || (*q)->state == nullptr) continue;
    StateEntry e;
    e.file = path;
    e.line = line;
    e.query = (*q)->name;
    e.sql = (*q)->sql;
    e.report_json = (*q)->state->ToJson();
    out->states.push_back(std::move(e));
  }
}

std::string DiagsJson(const std::vector<LintDiag>& diags) {
  std::string out = "[";
  for (size_t i = 0; i < diags.size(); ++i) {
    const LintDiag& d = diags[i];
    if (i > 0) out += ",";
    out += "\n  {\"code\":";
    JsonAppendString(out, d.code);
    out += ",\"severity\":";
    JsonAppendString(out, d.severity);
    out += ",\"file\":";
    JsonAppendString(out, d.file);
    out += ",\"line\":" + std::to_string(d.line);
    out += ",\"col\":" + std::to_string(d.col);
    out += ",\"message\":";
    JsonAppendString(out, d.message);
    out += "}";
  }
  out += "\n]\n";
  return out;
}

std::string StatesJson(const std::vector<StateEntry>& entries) {
  std::string out = "[";
  for (size_t i = 0; i < entries.size(); ++i) {
    const StateEntry& e = entries[i];
    if (i > 0) out += ",";
    out += "\n  {\"file\":";
    JsonAppendString(out, e.file);
    out += ",\"line\":" + std::to_string(e.line);
    out += ",\"query\":";
    JsonAppendString(out, e.query);
    out += ",\"sql\":";
    JsonAppendString(out, e.sql);
    out += ",\"state\":" + e.report_json;
    out += "}";
  }
  out += "\n]\n";
  return out;
}

std::string PartitionsJson(const std::vector<PartitionEntry>& entries) {
  std::string out = "[";
  for (size_t i = 0; i < entries.size(); ++i) {
    const PartitionEntry& e = entries[i];
    if (i > 0) out += ",";
    out += "\n  {\"file\":";
    JsonAppendString(out, e.file);
    out += ",\"line\":" + std::to_string(e.line);
    out += ",\"query\":";
    JsonAppendString(out, e.query);
    out += ",\"sql\":";
    JsonAppendString(out, e.sql);
    out += ",\"effective_verdict\":";
    JsonAppendString(out, e.effective_verdict);
    if (!e.placement.empty()) {
      out += ",\"placement\":";
      JsonAppendString(out, e.placement);
    }
    out += ",\"partition\":" + e.report_json;
    out += "}";
  }
  out += "\n]\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  bool json = false;
  size_t shards = 0;
  const char* partition_report = nullptr;
  const char* state_report = nullptr;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--strict") {
      strict = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--partition-report") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--partition-report needs an output path\n");
        return 2;
      }
      partition_report = argv[++i];
    } else if (arg == "--state-report") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--state-report needs an output path\n");
        return 2;
      }
      state_report = argv[++i];
    } else if (arg == "--shards") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--shards needs a count\n");
        return 2;
      }
      long parsed = std::strtol(argv[++i], nullptr, 10);
      if (parsed < 1) {
        std::fprintf(stderr, "bad --shards value '%s'\n", argv[i]);
        return 2;
      }
      shards = static_cast<size_t>(parsed);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: datacell-lint [--strict] [--json] "
          "[--partition-report <out.json>] [--state-report <out.json>] "
          "[--shards N] file.sql ...\n");
      return 0;
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "usage: datacell-lint [--strict] [--json] "
                 "[--partition-report <out.json>] [--state-report <out.json>] "
                 "[--shards N] file.sql ...\n");
    return 2;
  }

  LintOutput out;
  for (const char* path : files) {
    // A fresh engine per file: scripts are independent compilation units.
    EngineOptions opts;
    opts.use_wall_clock = false;
    Engine engine(opts);
    std::unique_ptr<ShardSim> sim;
    if (shards > 1) sim = std::make_unique<ShardSim>(shards);
    size_t watch_count = 0;
    std::vector<std::pair<size_t, size_t>> query_lines;  // QueryId -> line
    if (!LintFile(path, &engine, sim.get(), &watch_count, &query_lines, &out)) {
      continue;
    }
    analysis::AnalysisReport net = engine.Analyze();
    EmitReport(path, 0, net, &out);
    if (sim != nullptr) {
      // Shard nets can diverge (pinned queries live on one shard only), so
      // each shard's own analysis is unioned in under its label.
      for (size_t s = 0; s < sim->engine->num_shards(); ++s) {
        EmitReport(path, 0, sim->engine->shard(s).Analyze(), &out,
                   "shard " + std::to_string(s) + ": ");
      }
    }
    CollectPartitions(path, &engine, sim.get(), query_lines, &out);
    CollectStateBounds(path, &engine, query_lines, &out);
  }

  if (json) {
    std::fputs(DiagsJson(out.diags).c_str(), stdout);
  }
  if (partition_report != nullptr) {
    std::string rendered = PartitionsJson(out.partitions);
    if (std::string(partition_report) == "-") {
      std::fputs(rendered.c_str(), stdout);
    } else {
      std::ofstream f(partition_report);
      if (!f) {
        std::fprintf(stderr, "cannot write %s\n", partition_report);
        return 2;
      }
      f << rendered;
    }
  }
  if (state_report != nullptr) {
    std::string rendered = StatesJson(out.states);
    if (std::string(state_report) == "-") {
      std::fputs(rendered.c_str(), stdout);
    } else {
      std::ofstream f(state_report);
      if (!f) {
        std::fprintf(stderr, "cannot write %s\n", state_report);
        return 2;
      }
      f << rendered;
    }
  }

  std::fprintf(stderr, "datacell-lint: %zu error(s), %zu warning(s), %zu note(s)\n",
               out.counts.errors, out.counts.warnings, out.counts.notes);
  if (out.counts.errors > 0 || (strict && out.counts.warnings > 0)) return 1;
  return 0;
}
