#include "core/factory.h"

#include <limits>

#include "analysis/plan_analyzer.h"
#include "analysis/state_analyzer.h"
#include "common/check.h"
#include "common/logging.h"

namespace datacell {

const char* ProcessingStrategyToString(ProcessingStrategy s) {
  switch (s) {
    case ProcessingStrategy::kSeparateBaskets:
      return "separate";
    case ProcessingStrategy::kSharedBaskets:
      return "shared";
    case ProcessingStrategy::kChained:
      return "chained";
  }
  return "?";
}

Factory::Factory(std::string name, sql::CompiledQuery query, BasketPtr output,
                 const Clock* clock, FactoryOptions options)
    : Transition(std::move(name), TransitionKind::kFactory, options.priority),
      query_(std::move(query)),
      output_(std::move(output)),
      clock_(clock),
      options_(options) {}

Result<std::shared_ptr<Factory>> Factory::Create(
    std::string name, sql::CompiledQuery query,
    std::vector<BasketPtr> input_baskets, BasketPtr output,
    PlanBindings static_bindings, const Clock* clock, FactoryOptions options) {
  if (!query.continuous) {
    return Status::InvalidArgument(
        "factories wrap continuous queries; got a one-time query");
  }
  if (input_baskets.size() != query.inputs.size()) {
    return Status::InvalidArgument("input basket count does not match plan");
  }
  if (output == nullptr || clock == nullptr) {
    return Status::InvalidArgument("factory needs an output basket and clock");
  }
  if (query.plan == nullptr) {
    return Status::InvalidArgument("factory needs a compiled plan");
  }
  // Registration-time gate: type-check the plan and every consume predicate
  // now, so ill-typed queries are rejected here instead of failing inside
  // Fire() once tuples arrive. SQL-compiled plans pass by construction; this
  // guards plans built directly through the C++ algebra API.
  {
    analysis::AnalysisReport report = analysis::AnalyzePlan(*query.plan);
    for (const sql::ContinuousInput& in : query.inputs) {
      if (in.consume_predicate != nullptr) {
        analysis::CheckPredicate(*in.consume_predicate, in.basket_schema,
                                 "consume predicate of '" + in.basket + "'",
                                 &report);
      }
    }
    DC_RETURN_NOT_OK(report.ToStatus());
  }
  // Pass-4 admission gate (opt-in): prove the query's state bound before
  // any input reader is registered, so a rejected factory leaves no state
  // behind. Catalog-less callers get no cardinality hints or static-table
  // sizes — the bound is conservative.
  if (options.max_state_bytes > 0) {
    analysis::AnalysisReport report;
    analysis::StateAnalyzerOptions sopts;
    sopts.string_bytes = options.state_string_bytes;
    DC_ASSIGN_OR_RETURN(
        analysis::StateReport state,
        analysis::AnalyzeStateBounds(query, {}, sopts, &report));
    if (state.total.kind == analysis::StateBoundKind::kUnbounded ||
        (state.total.numeric() &&
         state.total.bytes > static_cast<int64_t>(options.max_state_bytes))) {
      report.Add(analysis::DiagCode::kStateBoundExceeded,
                 analysis::Severity::kError,
                 "state bound " + state.total.ToString() +
                     " exceeds max_state_bytes = " +
                     std::to_string(options.max_state_bytes),
                 analysis::FindPlanLoc(*query.plan));
      DC_RETURN_NOT_OK(report.ToStatus());
    }
  }
  bool windowed = query.window.kind != sql::WindowSpec::Kind::kNone;
  auto factory = std::shared_ptr<Factory>(
      new Factory(std::move(name), std::move(query), std::move(output), clock,
                  options));
  factory->min_tuples_ = static_cast<size_t>(
      std::max<int64_t>(1, factory->query_.threshold.value_or(1)));
  for (size_t i = 0; i < input_baskets.size(); ++i) {
    InputBinding in;
    in.basket = input_baskets[i];
    if (in.basket == nullptr) {
      return Status::InvalidArgument("null input basket");
    }
    in.spec = &factory->query_.inputs[i];
    if (!(in.basket->schema() == in.spec->basket_schema)) {
      return Status::Internal("basket schema does not match compiled input '" +
                              in.spec->basket + "'");
    }
    if (options.strategy == ProcessingStrategy::kSharedBaskets) {
      in.reader_id = in.basket->RegisterReader();
    }
    factory->inputs_.push_back(std::move(in));
  }
  // The plan is fixed for the query's lifetime, so a PlanRunner builds its
  // execution state once, at registration, and keeps it across firings; a
  // window executor does the same for each plan it runs. The profile
  // skeleton holds the steps of those plans, built while their shape is
  // final, so toggling profiling later is a single flag flip.
  factory->profile_ = std::make_unique<PipelineProfile>();
  if (windowed) {
    DC_ASSIGN_OR_RETURN(
        factory->window_,
        WindowExecutor::Create(factory->query_, options.window_mode,
                               std::move(static_bindings),
                               options.fresh_plan_state));
    factory->window_->RegisterProfileSteps(factory->profile_.get());
  } else {
    std::vector<std::string> relations;
    for (const InputBinding& in : factory->inputs_) {
      relations.push_back(in.spec->bind_name);
    }
    factory->runner_ = std::make_unique<PlanRunner>(
        factory->query_.plan, std::move(relations), std::move(static_bindings),
        options.fresh_plan_state);
    factory->runner_->RegisterProfileSteps(factory->profile_.get());
  }
  // Seed the state accounting: a kept join's build side counts from
  // registration, before any tuple flows.
  factory->UpdateStateAccounting();
  return factory;
}

void Factory::UpdateStateAccounting() {
  size_t bytes = window_ != nullptr
                     ? window_->StateBytes(options_.state_string_bytes)
                     : runner_->StateBytes(options_.state_string_bytes);
  state_bytes_.store(bytes, std::memory_order_relaxed);
  size_t hw = state_high_water_.load(std::memory_order_relaxed);
  if (bytes > hw) {
    state_high_water_.store(bytes, std::memory_order_relaxed);
  }
}

std::string Factory::PipelineDescription() const {
  return window_ != nullptr ? window_->Describe() : runner_->Describe();
}

std::string Factory::ProfileReport() const {
  return "pipeline: " + PipelineDescription() + "\n" + profile_->Render();
}

size_t Factory::AvailableOn(const InputBinding& in) const {
  if (options_.strategy == ProcessingStrategy::kSharedBaskets) {
    return in.basket->UnseenCount(in.reader_id);
  }
  return in.basket->size();
}

bool Factory::Ready() const {
  // Petri-net rule (§2.4): a transition is enabled only when *all* input
  // places hold tokens (>= the configured threshold).
  for (const InputBinding& in : inputs_) {
    if (AvailableOn(in) < min_tuples_) return false;
  }
  return true;
}

int64_t Factory::Backlog() const {
  int64_t least = std::numeric_limits<int64_t>::max();
  for (const InputBinding& in : inputs_) {
    least = std::min(least, static_cast<int64_t>(AvailableOn(in)));
  }
  return inputs_.empty() ? 0 : least;
}

Result<TablePtr> Factory::TakeSlice(InputBinding& in) {
  switch (options_.strategy) {
    case ProcessingStrategy::kSeparateBaskets:
      if (in.spec->consume_predicate != nullptr) {
        if (!options_.exclusive_private_inputs) {
          return in.basket->DrainMatching(*in.spec->consume_predicate);
        }
        // Private replica: nothing else can ever read the non-matching
        // tuples, so drain them too and keep only the matches.
        TablePtr all = in.basket->DrainAll();
        DC_ASSIGN_OR_RETURN(
            std::vector<size_t> positions,
            EvaluatePredicate(*in.spec->consume_predicate, *all));
        if (positions.size() == all->num_rows()) return all;
        return TablePtr(all->Take(positions));
      }
      return in.basket->DrainAll();
    case ProcessingStrategy::kSharedBaskets: {
      if (in.spec->consume_predicate == nullptr) {
        // Fused read+trim: with a single registered reader (the common case
        // for private per-query input baskets) this steals the buffers
        // instead of copying a slice and compacting afterwards.
        return in.basket->DrainNewFor(in.reader_id);
      }
      TablePtr slice;
      DC_ASSIGN_OR_RETURN(slice,
                          in.basket->ReadNewMatching(
                              in.reader_id, *in.spec->consume_predicate));
      in.basket->TrimConsumed();
      return slice;
    }
    case ProcessingStrategy::kChained: {
      if (in.spec->consume_predicate == nullptr) {
        // No predicate: this factory wants everything; nothing can flow on.
        return in.basket->DrainAll();
      }
      if (in.passthrough != nullptr) {
        return in.basket->DrainSplit(*in.spec->consume_predicate,
                                     in.passthrough.get());
      }
      // Tail of the chain: non-matching tuples are dropped with the drain.
      TablePtr all = in.basket->DrainAll();
      DC_ASSIGN_OR_RETURN(
          std::vector<size_t> positions,
          EvaluatePredicate(*in.spec->consume_predicate, *all));
      if (positions.size() == all->num_rows()) return all;
      return TablePtr(all->Take(positions));
    }
  }
  return Status::Internal("bad strategy");
}

Result<int64_t> Factory::Fire() {
#if DATACELL_DEBUG_CHECKS_ENABLED
  // Exactly-once transition semantics (§2.4): the scheduler's claim flag
  // guarantees at most one in-flight Fire per factory. A second concurrent
  // entry would drain the same input tokens twice.
  DC_CHECK(!in_fire_.exchange(true, std::memory_order_acq_rel));
  struct FireGuard {
    std::atomic<bool>* flag;
    ~FireGuard() { flag->store(false, std::memory_order_release); }
  } fire_guard{&in_fire_};
#endif
  if (!Ready()) return 0;
  Timestamp start = clock_->Now();
  // Profiling threads the profile through the per-fire exec context; the
  // disabled path leaves it null (one pointer test per step inside the
  // executors).
  const bool profiling = profiling_.load(std::memory_order_relaxed);
  ExecContext exec;
  if (profiling) exec.profile = profile_.get();
  int64_t fire_t0 = profiling ? ProfileNowNs() : 0;
  // Algorithm 1: read-and-consume each input basket (each TakeSlice call is
  // an atomic lock/consume/unlock bracket on its basket)...
  std::vector<TablePtr> slices;
  slices.reserve(inputs_.size());
  int64_t in_tuples = 0;
  for (InputBinding& in : inputs_) {
    DC_ASSIGN_OR_RETURN(TablePtr slice, TakeSlice(in));
#if DATACELL_DEBUG_CHECKS_ENABLED
    // Flow conservation across the arc: everything this factory has ever
    // taken from the basket must be covered by what was ever appended to it
    // (total_appended only grows, so a stale read can't false-positive).
    in.taken += static_cast<int64_t>(slice->num_rows());
    DC_DCHECK_LE(in.taken, in.basket->total_appended());
#endif
    in_tuples += static_cast<int64_t>(slice->num_rows());
    slices.push_back(std::move(slice));
  }
  // ... run the compiled plan as one bulk operation ...
  Result<TablePtr> r = window_ != nullptr ? window_->Advance(*slices[0], exec)
                                           : runner_->Run(slices, exec);
  if (!r.ok()) {
    plan_errors_.fetch_add(1, std::memory_order_relaxed);
    return r.status();
  }
  TablePtr result = std::move(*r);
  // ... and append the qualifying tuples to the output basket. A uniquely
  // held result (the common case: the plan built fresh columns) is moved in
  // — its buffers swap into the output basket instead of being copied. A
  // shared result (a pass-through plan returning an input slice, or a table
  // a window executor keeps alive) takes the copying path.
  int64_t out_tuples = static_cast<int64_t>(result->num_rows());
  if (out_tuples > 0) {
    // With output_carries_ts the result's own trailing ts column (original
    // arrival times) is the output basket's timestamp; otherwise the rows
    // are stamped with the delivery time.
    std::optional<Timestamp> ts;
    if (!options_.output_carries_ts) ts = clock_->Now();
    if (result.use_count() == 1) {
      DC_RETURN_NOT_OK(output_->AppendTableMove(std::move(*result), ts));
    } else {
      DC_RETURN_NOT_OK(output_->AppendTable(*result, ts));
    }
    results_emitted_.fetch_add(out_tuples, std::memory_order_relaxed);
  }
  if (profiling) profile_->RecordFire(ProfileNowNs() - fire_t0);
  UpdateStateAccounting();
  RecordRun(in_tuples, clock_->Now() - start);
  return in_tuples;
}

void Factory::DetachReaders() {
  if (options_.strategy != ProcessingStrategy::kSharedBaskets) return;
  for (InputBinding& in : inputs_) {
    in.basket->UnregisterReader(in.reader_id);
    in.basket->TrimConsumed();
  }
}

std::vector<BasketPtr> Factory::input_baskets() const {
  std::vector<BasketPtr> out;
  out.reserve(inputs_.size());
  for (const InputBinding& in : inputs_) out.push_back(in.basket);
  return out;
}

std::vector<BasketPtr> Factory::passthrough_baskets() const {
  std::vector<BasketPtr> out;
  out.reserve(inputs_.size());
  for (const InputBinding& in : inputs_) out.push_back(in.passthrough);
  return out;
}

void Factory::SetPassthrough(size_t input_index, BasketPtr basket) {
  DC_CHECK_LT(input_index, inputs_.size());
  inputs_[input_index].passthrough = std::move(basket);
}

std::string Factory::ExplainPlan() const { return ExplainMal(*query_.plan); }

}  // namespace datacell
