#ifndef DATACELL_TESTS_DIFFERENTIAL_H_
#define DATACELL_TESTS_DIFFERENTIAL_H_

// The differential harness: a Scenario (DDL, continuous queries, ingest
// batches, drains) runs under every execution configuration and each run is
// compared with a plain reference run. Baskets are multisets (PAPER.md §1):
// every configuration must deliver the same rows for the same input.
//
// The reference is one Engine on the tuple interpreter with re-evaluated
// windows and separate baskets, fed by IngestBatch and stepped by Drain().
// One variant per axis value follows, then the engine's default
// configuration (EngineOptions{}: specialized, kAuto windows, shared
// baskets) and a corner with every axis off its reference value:
//
//   backend    interpreter | specialized
//   windows    re-evaluation | incremental (WindowMode::kAuto)
//   strategy   separate | shared | chained
//   topology   one Engine | ShardedEngine with 1, 2 or 4 shards
//   ingest     IngestBatch | IngestColumns | framed text into a receptor
//   driver     Drain() | Start(2)
//
// Framed text runs on one Engine, whose net holds the receptor; the corner,
// sharded, ingests columns. Single-engine Drain() configs run in lockstep:
// after every drain they
// match the reference row for row, ts included. Sharded configs match it
// as a multiset after every drain, doubles to 1e-12 relative (partial sums
// merge in another association). Start(2) configs match it once, at the
// end, as a multiset without the delivery-time ts column. A query ending in
// ORDER BY ... LIMIT is compared on its sort keys in both multiset cases:
// SQL leaves open which tied rows make the cut. AVX2 vs scalar kernels is
// the `.ForcedScalar` rerun of the suites, not an axis here.
//
// No test-framework dependency: gtest suites and fuzz_differential share it.

#include <functional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/shard.h"

namespace datacell::differential {

enum class IngestPath { kRows, kColumns, kText };

struct Config {
  std::string name;
  bool specialize = false;
  WindowMode window_mode = WindowMode::kReEvaluation;
  ProcessingStrategy strategy = ProcessingStrategy::kSeparateBaskets;
  size_t shards = 0;  // 0 = one Engine, else a ShardedEngine of N shards
  IngestPath ingest = IngestPath::kRows;  // kText needs shards == 0
  bool threaded = false;  // Start(2) instead of Drain()
};

/// A configuration's live engine (exactly one of the two pointers is set)
/// and its query ids in Scenario order, handed to Scenario::inspect.
struct Instance {
  const Config& config;
  Engine* engine;
  ShardedEngine* sharded;
  const std::vector<QueryId>& queries;
};

struct Scenario {
  /// An ingest batch, after which every clock advances 1000 µs, or a drain
  /// when `stream` is empty.
  struct Step {
    std::string stream;
    std::vector<Row> rows;
  };

  /// Template for every engine; the harness sets the clock, backend,
  /// window mode and default strategy per configuration.
  EngineOptions options;
  std::string setup;  // script run before the queries register
  std::vector<std::pair<std::string, std::string>> queries;  // name, SQL
  std::vector<Step> steps;
  /// Called after each drain of a Drain() config with the drain's index,
  /// and after the final Stop() and drain of a Start(2) config with the
  /// last index.
  std::function<void(const Instance&, size_t drain)> inspect;

  void Setup(const std::string& sql) { setup += sql + ";\n"; }
  void AddQuery(const std::string& name, const std::string& sql) {
    queries.emplace_back(name, sql);
  }
  /// String values must not hold '\n', which frames text lines.
  void Ingest(const std::string& stream, std::vector<Row> rows) {
    steps.push_back({stream, std::move(rows)});
  }
  void Drain() { steps.push_back({}); }
  size_t num_drains() const;
};

struct Report {
  std::vector<std::string> configs;  // run, the reference first
  /// Variants the scenario rules out, with the reason derived from it.
  std::vector<std::string> skipped;
  /// Why the reference could not run the scenario; nothing was compared.
  std::string setup_error;
  std::vector<std::string> failures;  // divergences and errors
  /// The reference run's delivered rows: [query][drain] -> rows.
  std::vector<std::vector<std::vector<Row>>> reference;

  bool ok() const { return setup_error.empty() && failures.empty(); }
  bool Ran(const std::string& config) const;
  const std::vector<Row>& rows(size_t q, size_t drain) const {
    return reference[q][drain];
  }
  size_t total_rows() const;
  std::string ToString() const;
};

/// Runs `scenario` on the reference, one variant per axis value and the
/// corner, and compares each with the reference. Values compare exactly:
/// null equals only null, NaN equals NaN, doubles otherwise bitwise (-0.0
/// differs from 0.0). Variants the scenario rules out are reported in
/// `skipped`:
///   - chained, when a stream feeds two queries (each would get only what
///     the one before it did not keep) or a query reads two streams;
///   - Start(2), when a query without a window aggregates, sorts, limits
///     or deduplicates: its rows depend on how arrivals split into firings;
///   - a ShardedEngine that rejects a query for its routing
///     (FailedPrecondition).
/// The corner then takes shared baskets, or Drain(). Any other rejection,
/// error or difference is a failure.
Report Run(Scenario scenario);

/// What config `c` got wrong at drain `d` against the reference rows `ref`
/// ([drain] -> rows), "" when it agrees: row for row in lockstep configs,
/// else as multisets, projected on `keys` when there are any (the sort
/// keys of an ORDER BY ... LIMIT).
std::string Compare(const Config& c, const std::vector<std::vector<Row>>& ref,
                    const std::vector<size_t>& keys, size_t d,
                    std::vector<Row> got);

std::string RowToString(const Row& row);
/// `rows` as sorted exact encodings: equal lists are equal multisets.
std::vector<std::string> Canonical(const std::vector<Row>& rows);

}  // namespace datacell::differential

#endif  // DATACELL_TESTS_DIFFERENTIAL_H_
