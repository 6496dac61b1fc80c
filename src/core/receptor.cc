#include "core/receptor.h"

#include "adapters/csv.h"
#include "common/check.h"
#include "common/logging.h"

namespace datacell {

const char* TransitionKindToString(TransitionKind k) {
  switch (k) {
    case TransitionKind::kReceptor:
      return "receptor";
    case TransitionKind::kFactory:
      return "factory";
    case TransitionKind::kEmitter:
      return "emitter";
  }
  return "?";
}

Receptor::Receptor(std::string name, Channel* channel, Schema user_schema,
                   DeliverColumnsFn deliver, const Clock* clock,
                   size_t max_batch)
    : Transition(std::move(name), TransitionKind::kReceptor),
      channel_(channel),
      user_schema_(std::move(user_schema)),
      deliver_(std::move(deliver)),
      clock_(clock),
      max_batch_(max_batch),
      batch_(user_schema_) {
  DC_CHECK(channel_ != nullptr);
  DC_CHECK(clock_ != nullptr);
  DC_CHECK(deliver_ != nullptr);
}

bool Receptor::Ready() const { return !channel_->empty(); }

Result<int64_t> Receptor::Fire() {
  Timestamp start = clock_->Now();
  // The batch normally comes back from delivery empty; after a delivery
  // failure it may not, so clear defensively (capacity is kept either way).
  batch_.Clear();
  size_t taken = 0;
  CsvParseReport bad;
  while (taken < max_batch_) {
    Channel::Lines lines = channel_->Take(max_batch_ - taken);
    if (lines.empty()) break;
    CsvParseReport report =
        ParseCsvLines(lines.block(), lines.first(), lines.last(), &batch_);
    channel_->Release(lines);
    taken += lines.size();
    if (report.rejected > 0 && bad.rejected == 0) {
      bad.first_error = std::move(report.first_error);
    }
    bad.rejected += report.rejected;
  }
  if (taken == 0) return 0;
  if (bad.rejected > 0) {
    malformed_.fetch_add(static_cast<int64_t>(bad.rejected),
                         std::memory_order_relaxed);
    DC_LOG(Warning) << name() << ": dropped " << bad.rejected
                    << " malformed tuple(s) of " << taken
                    << "; first: " << bad.first_error.ToString();
  }
  int64_t n = static_cast<int64_t>(batch_.num_rows());
  DC_RETURN_NOT_OK(deliver_(std::move(batch_)));
  RecordRun(n, clock_->Now() - start);
  return n;
}

}  // namespace datacell
