#include "net/observability.h"

#include <cstdio>
#include <cstring>

namespace datacell {

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
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

ObservabilityServer::ObservabilityServer(Engine* engine) : engine_(engine) {
  server_.Handle("/healthz", [](const HttpRequest&) {
    HttpResponse r;
    r.body = "ok\n";
    return r;
  });
  server_.Handle("/metrics", [this](const HttpRequest& req) {
    HttpResponse r;
    // The format version Prometheus' text parser expects.
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    constexpr const char* kPrefixKey = "prefix=";
    if (req.query.rfind(kPrefixKey, 0) == 0) {
      r.body = engine_->MetricsText(req.query.substr(strlen(kPrefixKey)));
    } else {
      // No filter: byte-identical to Engine::MetricsText(), so a scrape and
      // an in-process dump diff clean (the CI curl smoke checks exactly
      // this).
      r.body = engine_->MetricsText();
    }
    return r;
  });
  server_.Handle("/trace", [this](const HttpRequest&) {
    HttpResponse r;
    r.content_type = "application/json";
    std::string json = engine_->TraceJson();
    r.body = json.empty() ? "{\"traceEvents\":[]}" : std::move(json);
    return r;
  });
  server_.Handle("/queries", [this](const HttpRequest&) {
    HttpResponse r;
    r.content_type = "application/json";
    r.body = QueriesJson();
    return r;
  });
}

Status ObservabilityServer::Start(uint16_t port) {
  return server_.Start(port);
}

std::string ObservabilityServer::QueriesJson() const {
  std::string out = "[";
  for (size_t id = 0; id < engine_->num_queries(); ++id) {
    Result<const Engine::QueryInfo*> q = engine_->GetQuery(id);
    if (!q.ok()) continue;
    const Engine::QueryInfo& info = **q;
    if (out.size() > 1) out += ",";
    out += "{\"id\":" + std::to_string(id) + ",\"name\":";
    AppendJsonString(out, info.name);
    out += ",\"sql\":";
    AppendJsonString(out, info.sql);
    out += ",\"removed\":";
    out += info.removed ? "true" : "false";
    out += ",\"shard\":" + std::to_string(engine_->shard_index());
    if (!info.placement.empty()) {
      out += ",\"placement\":";
      AppendJsonString(out, info.placement);
    }
    const FactoryPtr& f = info.factory;
    if (f != nullptr) {
      out += ",\"window_mode\":";
      AppendJsonString(out, f->window_mode_name());
      out += ",\"results_emitted\":" + std::to_string(f->results_emitted());
      out += ",\"plan_errors\":" + std::to_string(f->plan_errors());
      out += ",\"profiling\":";
      out += f->profiling() ? "true" : "false";
      PipelineProfile::Snapshot prof = f->profile().Snap();
      out += ",\"fires\":" + std::to_string(prof.fires);
      out += ",\"fire_time_ns\":" + std::to_string(prof.fire_time_ns);
      out += ",\"steps\":[";
      for (size_t i = 0; i < prof.steps.size(); ++i) {
        const PipelineProfile::StepSnapshot& s = prof.steps[i];
        if (i > 0) out += ",";
        out += "{\"step\":";
        AppendJsonString(out, s.label);
        out += ",\"depth\":" + std::to_string(s.depth);
        out += ",\"calls\":" + std::to_string(s.calls);
        out += ",\"rows_in\":" + std::to_string(s.rows_in);
        out += ",\"rows_out\":" + std::to_string(s.rows_out);
        out += ",\"time_ns\":" + std::to_string(s.time_ns) + "}";
      }
      out += "]";
    }
    if (info.partition != nullptr) {
      // The shard plan: the report's own JSON object, with the engine-level
      // effective verdict (live N004 / chained overrides) alongside it.
      std::string reason;
      analysis::PartitionVerdict effective =
          engine_->EffectivePartitionVerdict(info, &reason);
      out += ",\"partition\":" + info.partition->ToJson();
      out += ",\"effective_verdict\":";
      AppendJsonString(out, analysis::PartitionVerdictName(effective));
      if (effective == analysis::PartitionVerdict::kPinned &&
          !reason.empty()) {
        out += ",\"pinned_reason\":";
        AppendJsonString(out, reason);
      }
    }
    if (info.state != nullptr) {
      // Pass-4 static bound plus the live accounting it promises to cover.
      out += ",\"state_bound\":" + info.state->ToJson();
      if (info.factory != nullptr) {
        out += ",\"state_bytes\":" + std::to_string(info.factory->state_bytes());
        out += ",\"state_high_water_bytes\":" +
               std::to_string(info.factory->state_bytes_high_water());
      }
    }
    out += "}";
  }
  out += "]\n";
  return out;
}

}  // namespace datacell
