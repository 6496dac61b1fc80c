// Interactive DataCell shell: a minimal SQL client for exploring the engine.
// Reads statements and meta commands from stdin, cut by sql::SplitScript:
// SQL statements and \watch end at a ';' outside '...' literals and `--`
// comments, so both may span lines; every other meta command ends at the end
// of its line. Continuous queries are submitted with \watch and their
// results print as they arrive.
//
//   ./build/examples/datacell_shell
//   datacell> create basket s (x int, label string);
//   datacell> \watch big select x, label from [select * from s] as t
//             where t.x > 10;
//   datacell> insert into s values (50, 'hit');
//   datacell> \stats
//   datacell> \quit
//
// With `--shards N` (N > 1) the shell fronts a ShardedEngine instead: DDL
// fans out to every shard, stream inserts route per the partition recipes,
// \watch places queries per their verdict, and \shards / \analyze show the
// resulting routes and placements.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "adapters/csv.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/shard.h"
#include "net/observability.h"
#include "sql/parser.h"

using namespace datacell;

namespace {

void PrintTable(const Table& t) {
  const Schema& schema = t.schema();
  // Header.
  std::string header;
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    if (c > 0) header += " | ";
    header += schema.field(c).name;
  }
  std::printf("%s\n", header.c_str());
  std::printf("%s\n", std::string(header.size(), '-').c_str());
  for (size_t i = 0; i < t.num_rows(); ++i) {
    std::printf("%s\n", FormatCsvRow(t.GetRow(i)).c_str());
  }
  std::printf("(%zu rows)\n", t.num_rows());
}

class Shell {
 public:
  explicit Shell(size_t num_shards) {
    // The shell drives the scheduler itself after every statement, so the
    // deterministic mode gives immediate, ordered output.
    EngineOptions opts;
    opts.factor_common_subplans = true;
    // Keep a bounded event timeline so \trace has something to dump.
    opts.trace_capacity = 1 << 14;
    // Sample engine telemetry into the sys.* baskets once a second so
    // `select * from sys.baskets as b ...` works out of the box.
    opts.monitor_tick_us = 1'000'000;
    if (num_shards > 1) {
      ShardedEngineOptions sopts;
      sopts.num_shards = num_shards;
      sopts.engine = opts;
      sharded_ = std::make_unique<ShardedEngine>(sopts);
    } else {
      engine_ = std::make_unique<Engine>(opts);
    }
  }

  int Run() {
    if (sharded_ != nullptr) {
      std::printf(
          "DataCell shell — %zu shards; end statements with ';', \\help for "
          "help\n",
          sharded_->num_shards());
    } else {
      std::printf("DataCell shell — end statements with ';', \\help for help\n");
    }
    // The buffer keeps only the piece still waiting for its terminator.
    std::string buffer;
    std::string line;
    std::printf("datacell> ");
    std::fflush(stdout);
    while (std::getline(std::cin, line)) {
      buffer += line;
      buffer += '\n';
      size_t consumed = buffer.size();
      for (const sql::ScriptPiece& piece : sql::SplitScript(buffer)) {
        if (!piece.terminated) {
          consumed = static_cast<size_t>(piece.text.data() - buffer.data());
          break;
        }
        if (!piece.is_command()) {
          Execute(std::string(piece.text));
        } else if (!HandleMeta(std::string(piece.text))) {
          return 0;
        }
      }
      buffer.erase(0, consumed);
      Prompt(buffer);
    }
    return 0;
  }

 private:
  void Prompt(const std::string& buffer) {
    std::printf(Trim(buffer).empty() ? "datacell> " : "......... ");
    std::fflush(stdout);
  }

  void Execute(const std::string& sql) {
    auto result = sharded_ != nullptr ? sharded_->ExecuteSql(sql)
                                      : engine_->ExecuteSql(sql);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return;
    }
    if ((*result)->num_columns() > 0) {
      PrintTable(**result);
    } else {
      std::printf("ok\n");
    }
    // Fire any continuous queries affected by inserts.
    if (sharded_ != nullptr) {
      sharded_->Drain();
    } else {
      engine_->Drain();
    }
  }

  bool HandleMeta(const std::string& cmd) {
    if (StartsWith(cmd, "\\quit") || StartsWith(cmd, "\\q")) {
      return false;
    }
    if (StartsWith(cmd, "\\help")) {
      std::printf(
          "  <sql>;                 run DDL / INSERT / one-time SELECT "
          "(may span lines)\n"
          "  \\watch <name> <sql>;   submit a continuous query (may span "
          "lines; ends at ';');\n"
          "                         results print as they arrive\n"
          "  other \\ commands end at the end of their line:\n"
          "  \\explain <sql>         show the MAL plan of a query\n"
          "  \\explain <id|name>     show a registered query's plan node\n"
          "                         tree (what each node keeps across\n"
          "                         firings) and its MAL plan\n"
          "  \\analyze               static analysis of the registered net "
          "(dataflow lints;\n"
          "                         with --shards also the query placements)\n"
          "  \\shards                per-shard report: routes, placements, "
          "counters\n"
          "  \\stats                 engine statistics\n"
          "  \\metrics [prefix]      Prometheus text exposition (optionally "
          "only\n"
          "                         series whose name starts with prefix)\n"
          "  \\profile on|off        toggle the per-step pipeline profiler\n"
          "  \\profile <id|name>     per-step profile of a registered query\n"
          "  \\trace on|off          toggle event timeline recording\n"
          "  \\trace dump <file>     dump the event timeline as Chrome "
          "trace JSON\n"
          "  \\serve [port]          start the HTTP observability endpoint\n"
          "                         (/metrics /trace /queries /healthz)\n"
          "  \\tables                list catalog relations\n"
          "  \\dump                  catalog as CREATE statements\n"
          "  \\quit                  exit\n");
      return true;
    }
    if (StartsWith(cmd, "\\shards")) {
      if (sharded_ != nullptr) {
        std::printf("%s", sharded_->ShardsReport().c_str());
      } else {
        std::printf("not sharded (restart with --shards N)\n");
      }
      return true;
    }
    if (StartsWith(cmd, "\\analyze")) {
      if (sharded_ != nullptr) {
        // Shard nets can diverge — pinned queries live on one shard only and
        // state bounds differ with placement — so every shard reports, each
        // under its own label.
        for (size_t s = 0; s < sharded_->num_shards(); ++s) {
          std::printf("-- shard %zu --\n%s", s,
                      sharded_->shard(s).Analyze().ToString().c_str());
        }
        // The frontend engine's net: each merged query's partials stream,
        // merge factory and emitter.
        std::printf("-- frontend --\n%s",
                    sharded_->frontend().Analyze().ToString().c_str());
        if (sharded_->num_queries() > 0) {
          std::printf("-- shard placement --\n");
        }
        for (size_t id = 0; id < sharded_->num_queries(); ++id) {
          auto p = sharded_->GetPlacement(id);
          if (!p.ok()) continue;
          std::printf("query '%s': %s\n  placement: %s\n",
                      (*p)->name.c_str(),
                      datacell::analysis::PartitionVerdictName((*p)->verdict),
                      (*p)->placement.c_str());
        }
        return true;
      }
      std::printf("%s", engine_->Analyze().ToString().c_str());
      // Pass-3 partition verdicts, one block per live query: the static
      // report plus the engine-level effective verdict (live overrides).
      bool any = false;
      for (size_t id = 0; id < engine_->num_queries(); ++id) {
        auto q = engine_->GetQuery(id);
        if (!q.ok() || (*q)->removed || (*q)->partition == nullptr) continue;
        if (!any) {
          std::printf("-- partition safety (shard fan-out) --\n");
          any = true;
        }
        std::string reason;
        datacell::analysis::PartitionVerdict effective =
            engine_->EffectivePartitionVerdict(**q, &reason);
        std::printf("query '%s':\n%s", (*q)->name.c_str(),
                    (*q)->partition->Describe().c_str());
        if (effective != (*q)->partition->verdict) {
          std::printf("  effective: %s (%s)\n",
                      datacell::analysis::PartitionVerdictName(effective),
                      reason.c_str());
        }
      }
      // Pass-4 state bounds, one block per live query: the static bound and
      // the factory's measured occupancy it covers.
      any = false;
      for (size_t id = 0; id < engine_->num_queries(); ++id) {
        auto q = engine_->GetQuery(id);
        if (!q.ok() || (*q)->removed || (*q)->state == nullptr) continue;
        if (!any) {
          std::printf("-- state bounds (pass 4) --\n");
          any = true;
        }
        std::printf("query '%s':\n%s", (*q)->name.c_str(),
                    (*q)->state->Describe().c_str());
        if ((*q)->factory != nullptr) {
          std::printf("  measured: %zu B (high water %zu B)\n",
                      (*q)->factory->state_bytes(),
                      (*q)->factory->state_bytes_high_water());
        }
      }
      return true;
    }
    if (StartsWith(cmd, "\\stats")) {
      if (sharded_ != nullptr) {
        std::printf("%s", sharded_->ShardsReport().c_str());
      } else {
        std::printf("%s", engine_->StatsReport().c_str());
      }
      return true;
    }
    if (StartsWith(cmd, "\\metrics")) {
      std::string prefix(Trim(cmd.substr(8)));
      if (sharded_ != nullptr) {
        // Router registry, the frontend engine (merge queries), then each
        // shard's.
        std::printf("%s", sharded_->metrics().PrometheusText(prefix).c_str());
        std::printf("# frontend\n%s",
                    sharded_->frontend().MetricsText(prefix).c_str());
        for (size_t i = 0; i < sharded_->num_shards(); ++i) {
          std::printf("# shard %zu\n%s", i,
                      sharded_->shard(i).MetricsText(prefix).c_str());
        }
      } else {
        std::printf("%s", engine_->MetricsText(prefix).c_str());
      }
      return true;
    }
    if (StartsWith(cmd, "\\profile")) {
      if (sharded_ != nullptr) {
        std::printf("\\profile is per-engine; not available with --shards\n");
        return true;
      }
      std::string arg(Trim(cmd.substr(8)));
      while (!arg.empty() && (arg.back() == ';' || arg.back() == ' ')) {
        arg.pop_back();
      }
      if (arg == "on" || arg == "off") {
        engine_->SetProfiling(arg == "on");
        std::printf("profiling %s\n", arg.c_str());
        return true;
      }
      if (arg.empty()) {
        std::printf("usage: \\profile on|off  or  \\profile <id|name>\n");
        return true;
      }
      for (size_t id = 0; id < engine_->num_queries(); ++id) {
        auto q = engine_->GetQuery(static_cast<datacell::QueryId>(id));
        if (!q.ok() || (*q)->removed) continue;
        if ((*q)->name != arg && std::to_string(id) != arg) continue;
        std::printf("query %zu (%s): %s\n", id, (*q)->name.c_str(),
                    (*q)->sql.c_str());
        auto report = engine_->ProfileReport(static_cast<datacell::QueryId>(id));
        if (report.ok()) {
          std::printf("%s", report->c_str());
        } else {
          std::printf("error: %s\n", report.status().ToString().c_str());
        }
        if (!engine_->profiling()) {
          std::printf("(profiling is off; \\profile on to collect per-step "
                      "counters)\n");
        }
        return true;
      }
      std::printf("no registered query '%s'\n", arg.c_str());
      return true;
    }
    if (StartsWith(cmd, "\\trace")) {
      if (sharded_ != nullptr) {
        std::printf("\\trace is per-engine; not available with --shards\n");
        return true;
      }
      std::string arg(Trim(cmd.substr(6)));
      if (engine_->trace() == nullptr) {
        std::printf("tracing is disabled (rebuild with -DDATACELL_TRACE=ON to enable)\n");
        return true;
      }
      if (arg == "on" || arg == "off") {
        engine_->SetTraceEnabled(arg == "on");
        std::printf("tracing %s\n", arg.c_str());
        return true;
      }
      std::string path = arg;
      if (StartsWith(arg, "dump")) path = std::string(Trim(arg.substr(4)));
      if (path.empty()) {
        std::printf("usage: \\trace on|off  or  \\trace dump <file>  (open "
                    "in chrome://tracing or ui.perfetto.dev)\n");
        return true;
      }
      std::ofstream out(path, std::ios::trunc);
      if (!out) {
        std::printf("error: cannot open '%s'\n", path.c_str());
        return true;
      }
      out << engine_->TraceJson();
      std::printf("wrote %zu trace events to %s\n", engine_->trace()->size(),
                  path.c_str());
      return true;
    }
    if (StartsWith(cmd, "\\serve")) {
      if (sharded_ != nullptr) {
        std::printf("\\serve is per-engine; not available with --shards\n");
        return true;
      }
      std::string arg(Trim(cmd.substr(6)));
      if (arg == "stop") {
        if (observe_ != nullptr) {
          observe_->Stop();
          observe_.reset();
          std::printf("observability server stopped\n");
        } else {
          std::printf("observability server is not running\n");
        }
        return true;
      }
      if (observe_ != nullptr && observe_->running()) {
        std::printf("already serving on http://127.0.0.1:%u/\n",
                    observe_->port());
        return true;
      }
      uint16_t port = 0;
      if (!arg.empty()) {
        long parsed = std::strtol(arg.c_str(), nullptr, 10);
        if (parsed < 0 || parsed > 65535) {
          std::printf("error: bad port '%s'\n", arg.c_str());
          return true;
        }
        port = static_cast<uint16_t>(parsed);
      }
      observe_ = std::make_unique<ObservabilityServer>(engine_.get());
      if (auto st = observe_->Start(port); !st.ok()) {
        std::printf("error: %s\n", st.ToString().c_str());
        observe_.reset();
        return true;
      }
      std::printf("serving http://127.0.0.1:%u/  (/metrics /trace /queries "
                  "/healthz; \\serve stop to stop)\n",
                  observe_->port());
      return true;
    }
    if (StartsWith(cmd, "\\dump")) {
      // Shard catalogs stay identical under DDL fan-out, so shard 0 stands
      // for all in sharded mode.
      Engine& cat = sharded_ != nullptr ? sharded_->shard(0) : *engine_;
      std::printf("%s", cat.DumpCatalogSql().c_str());
      return true;
    }
    if (StartsWith(cmd, "\\tables")) {
      Engine& cat = sharded_ != nullptr ? sharded_->shard(0) : *engine_;
      for (const std::string& name : cat.catalog().Names()) {
        auto kind = cat.catalog().KindOf(name);
        auto table = cat.catalog().Get(name);
        std::printf("  %-24s %s(%s)\n", name.c_str(),
                    kind.ok() && *kind == RelationKind::kBasket ? "basket "
                                                                : "table  ",
                    table.ok() ? (*table)->schema().ToString().c_str() : "?");
      }
      return true;
    }
    if (StartsWith(cmd, "\\explain ")) {
      std::string arg = cmd.substr(9);
      while (!arg.empty() && (arg.back() == ';' || arg.back() == ' ')) {
        arg.pop_back();
      }
      // A registered query id or name explains its plan node tree, with
      // what each node keeps across firings, then its MAL plan; anything
      // else is compiled ad hoc and shown as its MAL plan.
      if (sharded_ != nullptr) {
        for (size_t id = 0; id < sharded_->num_queries(); ++id) {
          auto p = sharded_->GetPlacement(id);
          if (!p.ok()) continue;
          if ((*p)->name != arg && std::to_string(id) != arg) continue;
          std::printf("query %zu (%s): %s\n", id, (*p)->name.c_str(),
                      (*p)->placement.c_str());
          if ((*p)->report != nullptr) {
            std::printf("%s", (*p)->report->Describe().c_str());
          }
          return true;
        }
        auto mal = sharded_->shard(0).ExplainSql(arg);
        if (mal.ok()) {
          std::printf("%s", mal->c_str());
        } else {
          std::printf("error: %s\n", mal.status().ToString().c_str());
        }
        return true;
      }
      for (size_t id = 0; id < engine_->num_queries(); ++id) {
        auto q = engine_->GetQuery(static_cast<datacell::QueryId>(id));
        if (!q.ok() || (*q)->removed) continue;
        if ((*q)->name != arg && std::to_string(id) != arg) continue;
        std::printf("query %zu (%s): %s\n", id, (*q)->name.c_str(),
                    (*q)->sql.c_str());
        std::printf("%s", (*q)->factory->PipelineDescription().c_str());
        std::printf("\n%s", (*q)->factory->ExplainPlan().c_str());
        return true;
      }
      auto mal = engine_->ExplainSql(arg);
      if (mal.ok()) {
        std::printf("%s", mal->c_str());
      } else {
        std::printf("error: %s\n", mal.status().ToString().c_str());
      }
      return true;
    }
    if (auto watch = sql::SplitWatch(cmd)) {
      const std::string name = watch->first;
      const std::string& sql = watch->second;
      auto q = sharded_ != nullptr
                   ? sharded_->SubmitContinuousQuery(name, sql)
                   : engine_->SubmitContinuousQuery(name, sql);
      if (!q.ok()) {
        std::printf("error: %s\n", q.status().ToString().c_str());
        return true;
      }
      auto printer = std::make_shared<CallbackSink>(
          [name](const Table& batch, Timestamp) {
            for (size_t i = 0; i < batch.num_rows(); ++i) {
              std::printf("[%s] %s\n", name.c_str(),
                          FormatCsvRow(batch.GetRow(i)).c_str());
            }
          });
      auto st = sharded_ != nullptr ? sharded_->Subscribe(*q, printer)
                                    : engine_->Subscribe(*q, printer);
      if (!st.ok()) {
        std::printf("error: %s\n", st.ToString().c_str());
        return true;
      }
      if (sharded_ != nullptr) {
        auto p = sharded_->GetPlacement(*q);
        std::printf("continuous query '%s' registered (%s)\n", name.c_str(),
                    p.ok() ? (*p)->placement.c_str() : "?");
      } else {
        std::printf("continuous query '%s' registered\n", name.c_str());
      }
      return true;
    }
    std::printf("unknown command %s (try \\help)\n", cmd.c_str());
    return true;
  }

  std::unique_ptr<Engine> engine_;          // --shards 1 (default)
  std::unique_ptr<ShardedEngine> sharded_;  // --shards N, N > 1
  std::unique_ptr<ObservabilityServer> observe_;
};

}  // namespace

int main(int argc, char** argv) {
  size_t num_shards = 1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--shards" && i + 1 < argc) {
      long parsed = std::strtol(argv[++i], nullptr, 10);
      if (parsed < 1) {
        std::fprintf(stderr, "bad --shards value '%s'\n", argv[i]);
        return 1;
      }
      num_shards = static_cast<size_t>(parsed);
    } else {
      std::fprintf(stderr, "usage: %s [--shards N]\n", argv[0]);
      return 1;
    }
  }
  Shell shell(num_shards);
  return shell.Run();
}
