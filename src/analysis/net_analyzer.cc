#include "analysis/net_analyzer.h"

#include <map>
#include <set>

#include "analysis/interval.h"

namespace datacell {
namespace analysis {

namespace {

const char* KindNoun(NetNodeKind k) {
  switch (k) {
    case NetNodeKind::kReceptor:
      return "receptor";
    case NetNodeKind::kFactory:
      return "factory";
    case NetNodeKind::kEmitter:
      return "emitter";
    case NetNodeKind::kSharedFilter:
      return "shared filter";
    case NetNodeKind::kOther:
      return "transition";
  }
  return "transition";
}

/// Reports N005/N006 for one chain. Links whose predicates fall outside the
/// interval fragment (string matches, multi-column, functions) make the
/// chain unanalyzable and it is skipped — no false positives.
void AnalyzeChain(const NetChain& chain, AnalysisReport* report) {
  if (chain.links.size() < 2) return;
  std::vector<IntervalSet> sets;
  std::optional<size_t> column;
  for (const ChainLink& link : chain.links) {
    if (link.predicate == nullptr) {
      sets.push_back(IntervalSet::All());
      continue;
    }
    size_t col = 0;
    auto set = IntervalSet::FromPredicate(*link.predicate, &col);
    if (!set.has_value()) return;
    if (column.has_value() && *column != col) return;
    column = col;
    sets.push_back(std::move(*set));
  }
  for (size_t i = 0; i < sets.size(); ++i) {
    for (size_t j = i + 1; j < sets.size(); ++j) {
      IntervalSet overlap = sets[i].Intersect(sets[j]);
      if (!overlap.IsEmpty()) {
        report->Add(
            DiagCode::kChainPredicateOverlap, Severity::kWarning,
            "chained predicates of '" + chain.links[i].transition + "' and '" +
                chain.links[j].transition + "' overlap on " +
                overlap.ToString() +
                ": the earlier link consumes tuples the later one expects",
            {}, "chain on stream '" + chain.stream + "'");
      }
    }
  }
  IntervalSet covered;
  for (const IntervalSet& s : sets) covered = covered.Union(s);
  IntervalSet gap = covered.Complement();
  if (!gap.IsEmpty()) {
    report->Add(DiagCode::kChainCoverageGap, Severity::kWarning,
                "chained predicates leave " + gap.ToString() +
                    " uncovered: tuples in the gap are dropped at the chain "
                    "tail",
                {}, "chain on stream '" + chain.stream + "'");
  }
}

}  // namespace

void AnalyzeTopology(const NetTopology& net, AnalysisReport* report) {
  // Index producers and consumers per place. Places referenced by a
  // transition but missing from `places` are treated as external (lenient:
  // the projection, not the analyzer, is authoritative about feeds).
  std::map<std::string, const NetPlace*> places;
  for (const NetPlace& p : net.places) places[p.name] = &p;
  std::map<std::string, std::vector<const NetTransition*>> producers;
  std::map<std::string, std::vector<const NetTransition*>> consumers;
  for (const NetTransition& t : net.transitions) {
    for (const std::string& p : t.inputs) consumers[p].push_back(&t);
    for (const std::string& p : t.outputs) producers[p].push_back(&t);
  }

  // N001: a basket tuples can reach but nothing ever drains. System
  // telemetry baskets are exempt: they are bounded ring-like stores meant to
  // be sampled (one-time queries, HTTP endpoints), not necessarily drained.
  for (const NetPlace& p : net.places) {
    if (p.system) continue;
    bool fed = p.external_feed || !producers[p.name].empty();
    if (!fed || !consumers[p.name].empty()) continue;
    std::string msg = "basket '" + p.name + "' is appended to but never read";
    msg += p.bounded ? " (bounded: older tuples are shed, results are lost)"
                     : " and grows without bound";
    report->Add(DiagCode::kOrphanBasket, Severity::kWarning, msg, {}, p.name);
  }

  // N002: a transition waiting on a place nothing feeds never fires.
  for (const NetTransition& t : net.transitions) {
    for (const std::string& in : t.inputs) {
      auto it = places.find(in);
      bool external = it == places.end() || it->second->external_feed;
      if (external || !producers[in].empty()) continue;
      report->Add(DiagCode::kDeadTransition, Severity::kError,
                  std::string(KindNoun(t.kind)) + " '" + t.name +
                      "' reads basket '" + in +
                      "' which no transition or external feed ever fills: "
                      "it will never fire",
                  {}, t.name);
    }
  }

  // N003: cycles in the transition graph (t -> u when an output place of t
  // is an input place of u). A cycle re-feeds its own input: unbounded
  // self-amplification the scheduler can never drain.
  std::map<const NetTransition*, std::vector<const NetTransition*>> edges;
  for (const NetTransition& t : net.transitions) {
    for (const std::string& out : t.outputs) {
      for (const NetTransition* u : consumers[out]) {
        edges[&t].push_back(u);
      }
    }
  }
  std::set<const NetTransition*> done;
  std::set<const NetTransition*> on_stack;
  std::vector<const NetTransition*> stack;
  bool cycle_reported = false;
  auto dfs = [&](const NetTransition* t, auto&& self) -> void {
    if (cycle_reported || done.count(t) != 0) return;
    if (on_stack.count(t) != 0) {
      // Render the witness loop from the first occurrence on the stack.
      std::string path;
      bool in_cycle = false;
      for (const NetTransition* s : stack) {
        if (s == t) in_cycle = true;
        if (in_cycle) path += s->name + " -> ";
      }
      path += t->name;
      report->Add(DiagCode::kIllegalCycle, Severity::kError,
                  "transition cycle: " + path, {}, t->name);
      cycle_reported = true;
      return;
    }
    on_stack.insert(t);
    stack.push_back(t);
    for (const NetTransition* u : edges[t]) self(u, self);
    stack.pop_back();
    on_stack.erase(t);
    done.insert(t);
  };
  for (const NetTransition& t : net.transitions) dfs(&t, dfs);

  // N004: several shared-watermark readers pin every tuple until the
  // slowest has seen it, and drains fall back to copying slices instead of
  // stealing the buffers.
  for (const NetPlace& p : net.places) {
    if (p.num_readers <= 1) continue;
    report->Add(DiagCode::kMultiReaderStealing, Severity::kWarning,
                "basket '" + p.name + "' has " +
                    std::to_string(p.num_readers) +
                    " shared readers: zero-copy buffer stealing is disabled "
                    "and drains copy (consider the separate or chained "
                    "strategy)",
                {}, p.name);
  }

  for (const NetChain& chain : net.chains) AnalyzeChain(chain, report);
}

AnalysisReport AnalyzeTopology(const NetTopology& net) {
  AnalysisReport report;
  AnalyzeTopology(net, &report);
  return report;
}

}  // namespace analysis
}  // namespace datacell
