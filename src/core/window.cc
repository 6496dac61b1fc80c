#include "core/window.h"

#include <algorithm>
#include <map>
#include <span>
#include <vector>

#include "algebra/aggregate_split.h"
#include "common/check.h"

namespace datacell {

namespace {

Timestamp MinTs(const Bat& ts) {
  Timestamp min_ts = ts.Int64At(0);
  for (size_t i = 1; i < ts.size(); ++i) {
    min_ts = std::min(min_ts, ts.Int64At(i));
  }
  return min_ts;
}

/// A runner's description as one block without a trailing newline.
std::string Block(const PlanRunner& runner) {
  std::string d = runner.Describe();
  while (!d.empty() && d.back() == '\n') d.pop_back();
  return d;
}

/// Full re-evaluation: buffer tuples; when a window is complete, bind the
/// window slice to the plan's scan and run the whole plan from scratch.
class ReEvalWindowExecutor final : public WindowExecutor {
 public:
  ReEvalWindowExecutor(const sql::CompiledQuery& query,
                       PlanBindings static_bindings, bool fresh_plan_state)
      : runner_(query.plan, {query.inputs[0].bind_name},
                std::move(static_bindings), fresh_plan_state),
        window_(query.window),
        output_schema_(query.output_schema),
        buffer_(std::make_shared<Table>("__window_buffer",
                                        query.inputs[0].basket_schema)) {
    ts_column_ = buffer_->num_columns() - 1;
  }

  Result<TablePtr> Advance(const Table& new_tuples,
                           const ExecContext& ctx) override {
    auto out = std::make_shared<Table>("", output_schema_);
    if (window_.kind == sql::WindowSpec::Kind::kCount) {
      DC_RETURN_NOT_OK(buffer_->AppendTable(new_tuples));
      const auto size = static_cast<size_t>(window_.size);
      while (buffer_->num_rows() >= size) {
        DC_RETURN_NOT_OK(Run(TablePtr(buffer_->Slice(0, size)), ctx, out.get()));
        buffer_->RemovePrefix(static_cast<size_t>(window_.slide));
      }
    } else if (new_tuples.num_rows() > 0) {
      DC_RETURN_NOT_OK(AdvanceTime(new_tuples, ctx, out.get()));
    }
    return out;
  }

  size_t StateBytes(int64_t string_bytes) const override {
    return buffer_->num_rows() * static_cast<size_t>(
                                     buffer_->schema().EstimatedRowBytes(
                                         string_bytes)) +
           runner_.StateBytes(string_bytes);
  }
  const char* mode_name() const override { return "reeval"; }
  std::string Describe() const override {
    return "re-evaluated window: " + Block(runner_);
  }
  void RegisterProfileSteps(PipelineProfile* profile) override {
    runner_.RegisterProfileSteps(profile);
  }

 private:
  Status Run(TablePtr window, const ExecContext& ctx, Table* out) {
    DC_ASSIGN_OR_RETURN(TablePtr result,
                        runner_.Run(std::span(&window, 1), ctx));
    return out->AppendTable(*result);
  }

  Status AdvanceTime(const Table& in, const ExecContext& ctx, Table* out) {
    const Bat& ts = *in.column(ts_column_);
    if (!started_) {
      // Anchor the first window at the earliest tuple seen.
      window_start_ = max_seen_ = MinTs(ts);
      started_ = true;
    }
    // A tuple before the open window's start falls into no window: late.
    std::vector<size_t> timely =
        SelectRangeInt64(ts, window_start_, std::nullopt);
    late_dropped_.fetch_add(static_cast<int64_t>(in.num_rows() - timely.size()),
                            std::memory_order_relaxed);
    for (size_t i : timely) max_seen_ = std::max(max_seen_, ts.Int64At(i));
    DC_RETURN_NOT_OK(timely.size() == in.num_rows()
                         ? buffer_->AppendTable(in)
                         : buffer_->AppendTable(*in.Take(timely)));
    // A window closes once a tuple at/after its end has been observed —
    // the scheduler monitors incoming timestamps (§3.1).
    while (max_seen_ >= window_start_ + window_.size) {
      std::vector<size_t> in_window =
          SelectRangeInt64(*buffer_->column(ts_column_), window_start_,
                           window_start_ + window_.size - 1);
      DC_RETURN_NOT_OK(Run(TablePtr(buffer_->Take(in_window)), ctx, out));
      window_start_ += window_.slide;
      // Expire tuples that can no longer fall into any future window.
      buffer_->RemovePositions(SelectRangeInt64(
          *buffer_->column(ts_column_), std::nullopt, window_start_ - 1));
    }
    return Status::OK();
  }

  PlanRunner runner_;
  sql::WindowSpec window_;
  Schema output_schema_;
  std::shared_ptr<Table> buffer_;
  size_t ts_column_ = 0;
  bool started_ = false;
  Timestamp window_start_ = 0;
  Timestamp max_seen_ = 0;
};

/// Basic-window model (Zhu & Shasha) over the query's aggregate split: the
/// stream is cut into slide-sized basic windows, each summarised once by the
/// partial plan; an emission runs the merge plan over the partial rows of
/// the size/slide basic windows the window covers, and expiry drops the
/// oldest basic window's rows — no subtraction, so min/max stay exact.
/// Count and time windows differ only in how a tuple finds its basic window
/// (Route*) and in how many basic windows are complete (Complete()).
class IncrementalWindowExecutor final : public WindowExecutor {
 public:
  static Result<std::unique_ptr<WindowExecutor>> Make(
      const sql::CompiledQuery& query, AggregateSplit split,
      PlanBindings static_bindings, bool fresh_plan_state) {
    std::unique_ptr<IncrementalWindowExecutor> exec(
        new IncrementalWindowExecutor(query, std::move(split),
                                      std::move(static_bindings),
                                      fresh_plan_state));
    // The summary of no tuples, bound when a window has no partial rows: a
    // scalar aggregate still emits its one row (count 0).
    auto none = std::make_shared<Table>("", exec->input_schema_);
    DC_ASSIGN_OR_RETURN(TablePtr empty,
                        exec->partial_.Run(std::span(&none, 1), ExecContext{}));
    exec->empty_rows_ = PartialsRowTable(exec->partial_schema_, {empty});
    return std::unique_ptr<WindowExecutor>(std::move(exec));
  }

  Result<TablePtr> Advance(const Table& new_tuples,
                           const ExecContext& ctx) override {
    auto out = std::make_shared<Table>("", output_schema_);
    if (new_tuples.num_rows() > 0) {
      if (window_.kind == sql::WindowSpec::Kind::kCount) {
        DC_RETURN_NOT_OK(RouteCount(new_tuples));
      } else {
        DC_RETURN_NOT_OK(RouteTime(new_tuples));
      }
    }
    const int64_t complete = Complete();
    // Summarise each complete basic window's raw rows: once when it
    // completes, and again for late tuples that reach it afterwards.
    for (auto& [index, basic] : live_) {
      if (index >= complete) break;
      if (basic.raw == nullptr) continue;
      DC_ASSIGN_OR_RETURN(TablePtr rows,
                          partial_.Run(std::span(&basic.raw, 1), ctx));
      basic.raw = nullptr;
      DC_RETURN_NOT_OK(Accumulate(&basic.partials, std::move(rows)));
    }
    while (next_window_ + per_window_ <= complete) {
      DC_RETURN_NOT_OK(Emit(ctx, out.get()));
      live_.erase(next_window_);  // slide: expire the oldest basic window
      ++next_window_;
    }
    return out;
  }

  size_t StateBytes(int64_t string_bytes) const override {
    const auto raw_bytes =
        static_cast<size_t>(input_schema_.EstimatedRowBytes(string_bytes));
    const auto partial_bytes =
        static_cast<size_t>(partial_schema_.EstimatedRowBytes(string_bytes));
    size_t bytes =
        partial_.StateBytes(string_bytes) + merge_.StateBytes(string_bytes);
    for (const auto& [index, basic] : live_) {
      if (basic.raw != nullptr) bytes += basic.raw->num_rows() * raw_bytes;
      if (basic.partials != nullptr) {
        bytes += basic.partials->num_rows() * partial_bytes;
      }
    }
    return bytes;
  }
  const char* mode_name() const override { return "incremental"; }
  std::string Describe() const override {
    return "incremental window\npartial: " + Block(partial_) +
           "\nmerge: " + Block(merge_);
  }
  void RegisterProfileSteps(PipelineProfile* profile) override {
    partial_.RegisterProfileSteps(profile);
    merge_.RegisterProfileSteps(profile);
  }

 private:
  /// One slide of the stream: raw rows not yet summarised, and the partial
  /// plan's output over the rows that were.
  struct BasicWindow {
    TablePtr raw;
    TablePtr partials;
  };

  IncrementalWindowExecutor(const sql::CompiledQuery& query,
                            AggregateSplit split, PlanBindings static_bindings,
                            bool fresh_plan_state)
      : partial_(split.partial, {query.inputs[0].bind_name},
                 std::move(static_bindings), fresh_plan_state),
        merge_(split.merge, {kPartialsBinding}, {}, fresh_plan_state),
        window_(query.window),
        input_schema_(query.inputs[0].basket_schema),
        partial_schema_(split.partial->output_schema()),
        output_schema_(query.output_schema),
        per_window_(query.window.size / query.window.slide),
        ts_column_(input_schema_.num_fields() - 1) {}

  /// Appends `rows` to `*into`, adopting them when `*into` is empty.
  static Status Accumulate(TablePtr* into, TablePtr rows) {
    if (*into == nullptr) {
      *into = std::move(rows);
      return Status::OK();
    }
    return (*into)->AppendTable(*rows);
  }

  /// Count windows: tuple n belongs to basic window n / slide.
  Status RouteCount(const Table& in) {
    const size_t n = in.num_rows();
    const auto slide = static_cast<size_t>(window_.slide);
    for (size_t r = 0; r < n;) {
      const size_t take = std::min(n - r, slide - seen_ % slide);
      DC_RETURN_NOT_OK(
          Accumulate(&live_[static_cast<int64_t>(seen_ / slide)].raw,
                     in.Slice(r, take)));
      r += take;
      seen_ += take;
    }
    return Status::OK();
  }

  /// Time windows: basic windows are slide-length intervals anchored at the
  /// earliest tuple seen; a tuple older than the oldest open window is late.
  Status RouteTime(const Table& in) {
    const Bat& ts = *in.column(ts_column_);
    if (!started_) {
      anchor_ = max_seen_ = MinTs(ts);
      started_ = true;
    }
    const Timestamp open_start = anchor_ + next_window_ * window_.slide;
    std::map<int64_t, std::vector<size_t>> by_window;
    int64_t late = 0;
    for (size_t i = 0; i < ts.size(); ++i) {
      const Timestamp t = ts.Int64At(i);
      if (t < open_start) {
        ++late;
        continue;
      }
      max_seen_ = std::max(max_seen_, t);
      by_window[(t - anchor_) / window_.slide].push_back(i);
    }
    late_dropped_.fetch_add(late, std::memory_order_relaxed);
    for (const auto& [index, positions] : by_window) {
      DC_RETURN_NOT_OK(Accumulate(&live_[index].raw, in.Take(positions)));
    }
    return Status::OK();
  }

  /// Number of leading basic windows that are complete: a count window's
  /// once it holds slide tuples, a time window's once a tuple at or after
  /// its end has been observed (§3.1).
  int64_t Complete() const {
    if (window_.kind == sql::WindowSpec::Kind::kCount) {
      return static_cast<int64_t>(seen_ / static_cast<size_t>(window_.slide));
    }
    return started_ ? (max_seen_ - anchor_) / window_.slide : 0;
  }

  /// Merges the partial rows of the window starting at basic window
  /// next_window_ and appends its result to `out`.
  Status Emit(const ExecContext& ctx, Table* out) {
    std::vector<TablePtr> parts;
    for (const auto& [index, basic] : live_) {
      if (index >= next_window_ + per_window_) break;
      if (basic.partials != nullptr) parts.push_back(basic.partials);
    }
    TablePtr rows = PartialsRowTable(partial_schema_, parts);
    if (rows->num_rows() == 0) rows = empty_rows_;
    DC_ASSIGN_OR_RETURN(TablePtr result, merge_.Run(std::span(&rows, 1), ctx));
    return out->AppendTable(*result);
  }

  PlanRunner partial_;
  PlanRunner merge_;
  sql::WindowSpec window_;
  Schema input_schema_;
  Schema partial_schema_;
  Schema output_schema_;
  int64_t per_window_;  // basic windows per window: size / slide
  size_t ts_column_;
  TablePtr empty_rows_;
  // Live basic windows by index; every key is >= next_window_.
  std::map<int64_t, BasicWindow> live_;
  int64_t next_window_ = 0;  // first basic window of the oldest open window
  size_t seen_ = 0;          // count windows: tuples routed so far
  bool started_ = false;     // time windows: anchor_ is set
  Timestamp anchor_ = 0;
  Timestamp max_seen_ = 0;
};

}  // namespace

Result<std::unique_ptr<WindowExecutor>> WindowExecutor::Create(
    const sql::CompiledQuery& query, WindowMode mode,
    PlanBindings static_bindings, bool fresh_plan_state) {
  if (query.window.kind == sql::WindowSpec::Kind::kNone) {
    return Status::InvalidArgument("query has no window clause");
  }
  if (query.inputs.size() != 1) {
    return Status::Unimplemented(
        "windowed queries support exactly one stream input");
  }
  auto try_incremental = [&]() -> Result<std::unique_ptr<WindowExecutor>> {
    if (query.window.slide <= 0 ||
        query.window.size % query.window.slide != 0) {
      return Status::Unimplemented(
          "incremental evaluation requires slide to divide the window size");
    }
    Result<AggregateSplit> split = SplitAggregate(query.plan);
    if (!split.ok()) {
      return Status::Unimplemented(
          "incremental windows require an aggregate-shaped plan");
    }
    // Below the aggregate only Project/Filter over one scan: a join reads a
    // static table that can grow between basic windows, which would leave
    // the earlier summaries stale.
    const PlanNode* below = split->partial->child().get();
    while (below->kind() == PlanKind::kProject ||
           below->kind() == PlanKind::kFilter) {
      below = below->child().get();
    }
    if (below->kind() != PlanKind::kScan) {
      return Status::Unimplemented(
          "incremental windows require a single-scan pipeline below the "
          "aggregate");
    }
    return IncrementalWindowExecutor::Make(query, std::move(*split),
                                           static_bindings, fresh_plan_state);
  };
  switch (mode) {
    case WindowMode::kReEvaluation:
      return std::unique_ptr<WindowExecutor>(new ReEvalWindowExecutor(
          query, std::move(static_bindings), fresh_plan_state));
    case WindowMode::kIncremental:
      return try_incremental();
    case WindowMode::kAuto: {
      auto inc = try_incremental();
      if (inc.ok()) return inc;
      return std::unique_ptr<WindowExecutor>(new ReEvalWindowExecutor(
          query, std::move(static_bindings), fresh_plan_state));
    }
  }
  return Status::Internal("bad window mode");
}

}  // namespace datacell
