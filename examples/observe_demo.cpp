// Headless observability demo: runs a small monitored + profiled workload,
// freezes the engine (deterministic drain, no scheduler threads), then
// serves the HTTP observability endpoint for a fixed duration. Because the
// engine is quiescent while serving, every /metrics scrape is byte-identical
// to the snapshot written via --metrics-snapshot — which is exactly what the
// CI curl smoke diffs.
//
//   ./build/examples/observe_demo --port 18080 --duration-ms 15000
//       --metrics-snapshot /tmp/metrics.golden
//
// Flags:
//   --port N              listen port (default 0 = ephemeral; printed)
//   --duration-ms N       how long to serve before exiting (default 3000)
//   --metrics-snapshot F  write Engine::MetricsText() to F before serving

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "core/engine.h"
#include "net/observability.h"

using namespace datacell;

int main(int argc, char** argv) {
  long port = 0;
  long duration_ms = 3000;
  std::string snapshot_path;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0 || i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (const char* v = value("--port")) {
      port = std::strtol(v, nullptr, 10);
    } else if (const char* v = value("--duration-ms")) {
      duration_ms = std::strtol(v, nullptr, 10);
    } else if (const char* v = value("--metrics-snapshot")) {
      snapshot_path = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  EngineOptions opts;
  opts.monitor_tick_us = 50'000;
  opts.profile_queries = true;
  Engine engine(opts);

  // A small representative workload: a selection over a stream,
  // drained deterministically so the sys.* streams and the profiler have
  // real data by the time the endpoint comes up.
  if (!engine.ExecuteSql("create basket readings (x int, label string)")
           .ok()) {
    std::fprintf(stderr, "create basket failed\n");
    return 1;
  }
  auto q = engine.SubmitContinuousQuery(
      "demo",
      "select x, label from [select * from readings] as r where r.x > 100");
  if (!q.ok()) {
    std::fprintf(stderr, "submit failed: %s\n", q.status().ToString().c_str());
    return 1;
  }
  for (int i = 0; i < 1000; ++i) {
    if (!engine
             .Ingest("readings",
                     {Value::Int64(i), Value::String("r" + std::to_string(i))})
             .ok()) {
      std::fprintf(stderr, "ingest failed\n");
      return 1;
    }
    if (i % 100 == 0) engine.Drain();
  }
  engine.Drain();

  // No scheduler threads run from here on: the engine is quiescent, so
  // every scrape during the serve window sees this exact exposition.
  if (!snapshot_path.empty()) {
    std::ofstream out(snapshot_path, std::ios::trunc | std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", snapshot_path.c_str());
      return 1;
    }
    out << engine.MetricsText();
  }

  ObservabilityServer server(&engine);
  if (auto st = server.Start(static_cast<uint16_t>(port)); !st.ok()) {
    std::fprintf(stderr, "serve failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("serving http://127.0.0.1:%u/ for %ld ms\n", server.port(),
              duration_ms);
  std::fflush(stdout);
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  server.Stop();
  std::printf("served %lld requests\n",
              static_cast<long long>(server.requests()));
  return 0;
}
