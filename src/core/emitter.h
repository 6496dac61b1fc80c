#ifndef DATACELL_CORE_EMITTER_H_
#define DATACELL_CORE_EMITTER_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "adapters/sink.h"
#include "common/clock.h"
#include "core/basket.h"
#include "core/transition.h"

namespace datacell {

/// Delivery adapter (§2.1): picks up result tuples prepared by factories in
/// an output basket and delivers them to every subscribed client sink.
///
/// The emitter is a registered shared reader of its basket, so an output
/// basket can simultaneously feed downstream factories (a network of queries
/// where one query's output is another's input, §4) — tuples are trimmed
/// only once every reader has seen them.
class Emitter : public Transition {
 public:
  Emitter(std::string name, BasketPtr input, const Clock* clock);

  bool Ready() const override;
  /// Result tuples awaiting delivery.
  int64_t Backlog() const override {
    return static_cast<int64_t>(input_->UnseenCount(reader_id_));
  }

  /// Reads the tuples past this emitter's watermark and delivers the batch
  /// (including the result ts column) to all sinks.
  Result<int64_t> Fire() override;

  void AddSink(std::shared_ptr<ResultSink> sink);
  size_t num_sinks() const;

  /// Starts observing per-tuple delivery latency: for every delivered
  /// tuple, `delivery time - output basket ts`. When the query projects the
  /// stream's arrival ts through (Engine's output_carries_ts), that is the
  /// paper's per-tuple response time — ingest to emitter, end to end; for
  /// stamped outputs it measures result-production to delivery. Call before
  /// the emitter enters the scheduler.
  void TrackLatency() { latency_us_ = std::make_unique<Histogram>(); }
  /// The delivery-latency histogram; null unless TrackLatency() was called.
  const Histogram* latency_us() const { return latency_us_.get(); }

  /// Retires this emitter's watermark (see Factory::DetachReaders).
  void DetachReader() {
    input_->UnregisterReader(reader_id_);
    input_->TrimConsumed();
  }

  const BasketPtr& input() const { return input_; }

 private:
  BasketPtr input_;
  const Clock* clock_;
  size_t reader_id_;
  std::unique_ptr<Histogram> latency_us_;  // set at wiring time; may stay null
  mutable std::mutex sinks_mu_;
  std::vector<std::shared_ptr<ResultSink>> sinks_;
};

}  // namespace datacell

#endif  // DATACELL_CORE_EMITTER_H_
