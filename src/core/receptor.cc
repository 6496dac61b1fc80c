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
  if (channel_->DrainInto(&lines_, max_batch_) == 0) return 0;
  // The batch normally comes back from delivery empty; after a delivery
  // failure it may not, so clear defensively (capacity is kept either way).
  batch_.Clear();
  for (const std::string& line : lines_) {
    Status st = AppendCsvToColumns(line, &batch_);
    if (!st.ok()) {
      malformed_.fetch_add(1, std::memory_order_relaxed);
      DC_LOG(Warning) << name()
                      << ": dropping malformed tuple: " << st.ToString();
    }
  }
  int64_t n = static_cast<int64_t>(batch_.num_rows());
  DC_RETURN_NOT_OK(deliver_(std::move(batch_)));
  RecordRun(n, clock_->Now() - start);
  return n;
}

}  // namespace datacell
