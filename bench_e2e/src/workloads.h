#ifndef DATACELL_BENCH_E2E_WORKLOADS_H_
#define DATACELL_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// > 0: every fault_every-th measured line is replaced by a malformed one
  /// (text_drain only).
  int64_t fault_every = 0;
  /// > 0: measure exactly this many rounds instead of `seconds` (drain
  /// workloads only; the fault check needs an exact tuple count).
  int64_t rounds = 0;
  /// Where the traced run writes its Chrome trace; empty = nowhere.
  std::string trace_path;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::map<std::string, Metric> metrics;
  /// Diagnostics: failure breakdown, reference mismatches, input digest,
  /// profiler step labels.
  std::map<std::string, double> counts;
  std::vector<std::string> mismatches;
  std::vector<std::string> notes;
  uint64_t input_digest = 0;
  int64_t input_digest_tuples = 0;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload in this process. Returns false (with `error`) when the
/// engine rejected the set-up; reference mismatches are reported through
/// RunResult::correct instead.
bool RunWorkload(const RunOptions& options, RunResult* result,
                 std::string* error);

}  // namespace e2e

#endif  // DATACELL_BENCH_E2E_WORKLOADS_H_
