#include "core/emitter.h"

#include "common/check.h"

namespace datacell {

Emitter::Emitter(std::string name, BasketPtr input, const Clock* clock)
    : Transition(std::move(name), TransitionKind::kEmitter),
      input_(std::move(input)),
      clock_(clock) {
  DC_CHECK(input_ != nullptr);
  DC_CHECK(clock_ != nullptr);
  reader_id_ = input_->RegisterReader();
}

bool Emitter::Ready() const { return input_->UnseenCount(reader_id_) > 0; }

Result<int64_t> Emitter::Fire() {
  Timestamp start = clock_->Now();
  // Stealing drain: when this emitter is the only reader the basket swaps
  // its buffers into the drained table instead of copying (and fuses the
  // trim); with other readers it falls back to slice-and-trim.
  TablePtr batch = input_->DrainNewFor(reader_id_);
  if (batch->num_rows() == 0) return 0;
  Timestamp now = clock_->Now();
  if (latency_us_ != nullptr) {
    // Per-tuple response time: delivery minus the output basket's ts column
    // (the stream arrival time when the query carries ts through).
    const Bat& ts_col = *batch->column(batch->num_columns() - 1);
    for (size_t i = 0; i < ts_col.size(); ++i) {
      latency_us_->Observe(now - ts_col.Int64At(i));
    }
  }
  {
    std::lock_guard<std::mutex> lock(sinks_mu_);
    for (const auto& sink : sinks_) {
      sink->OnBatch(*batch, now);
    }
  }
  int64_t n = static_cast<int64_t>(batch->num_rows());
  RecordRun(n, clock_->Now() - start);
  return n;
}

void Emitter::AddSink(std::shared_ptr<ResultSink> sink) {
  DC_CHECK(sink != nullptr);
  std::lock_guard<std::mutex> lock(sinks_mu_);
  sinks_.push_back(std::move(sink));
}

size_t Emitter::num_sinks() const {
  std::lock_guard<std::mutex> lock(sinks_mu_);
  return sinks_.size();
}

}  // namespace datacell
