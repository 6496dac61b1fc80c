#ifndef DATACELL_CORE_RECEPTOR_H_
#define DATACELL_CORE_RECEPTOR_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "adapters/channel.h"
#include "common/clock.h"
#include "core/basket.h"
#include "core/transition.h"

namespace datacell {

/// Ingest adapter (§2.1): picks up textual tuples from a communication
/// channel, validates their structure against the stream schema and hands
/// the batch to the delivery function — which stamps the arrival timestamp
/// and routes it into "the proper baskets" for the active processing
/// strategy (private copies under separate-baskets, the shared basket
/// otherwise).
class Receptor : public Transition {
 public:
  /// Columnar delivery: the receptor parses lines straight into a typed
  /// ColumnBatch (no Row/Value boxing) and moves it downstream; the callee
  /// (Engine::IngestColumns) swaps the buffers into the target basket and
  /// the batch comes back empty but capacitied for the next fire.
  using DeliverColumnsFn = std::function<Status(ColumnBatch&& batch)>;

  /// `user_schema` is the stream schema *without* the ts column.
  Receptor(std::string name, Channel* channel, Schema user_schema,
           DeliverColumnsFn deliver, const Clock* clock,
           size_t max_batch = 4096);

  bool Ready() const override;
  /// Lines waiting on the wire.
  int64_t Backlog() const override {
    return static_cast<int64_t>(channel_->size());
  }

  /// Takes up to `max_batch` lines off the channel, block range by block
  /// range, parses each range in one pass into the recycled batch, and
  /// delivers the valid tuples. Malformed lines are counted and dropped (a
  /// receptor must not stall the stream on bad input), with one warning per
  /// fire naming the count and the first reason.
  Result<int64_t> Fire() override;

  int64_t malformed_lines() const {
    return malformed_.load(std::memory_order_relaxed);
  }

 private:
  Channel* channel_;
  Schema user_schema_;
  DeliverColumnsFn deliver_;
  const Clock* clock_;
  size_t max_batch_;
  // Reused across fires so the steady state allocates nothing: the batch
  // keeps whatever buffer capacity the basket handed back in the delivery
  // swap.
  ColumnBatch batch_;
  // Atomic: mutated by whichever scheduler worker fires the receptor, read
  // by monitoring threads through the accessor and the metrics snapshot.
  std::atomic<int64_t> malformed_{0};
};

}  // namespace datacell

#endif  // DATACELL_CORE_RECEPTOR_H_
