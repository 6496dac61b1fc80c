#include "core/shared_filter.h"

#include "common/check.h"

namespace datacell {

SharedFilterTransition::SharedFilterTransition(std::string name,
                                               BasketPtr input,
                                               ExprPtr predicate,
                                               BasketPtr output,
                                               const Clock* clock)
    : Transition(std::move(name), TransitionKind::kFactory),
      input_(std::move(input)),
      predicate_(std::move(predicate)),
      output_(std::move(output)),
      clock_(clock) {
  DC_CHECK(input_ != nullptr);
  DC_CHECK(output_ != nullptr);
  DC_CHECK(clock_ != nullptr);
  DC_CHECK(input_->schema() == output_->schema());
  reader_id_ = input_->RegisterReader();
}

bool SharedFilterTransition::Ready() const {
  return input_->UnseenCount(reader_id_) > 0;
}

Result<int64_t> SharedFilterTransition::Fire() {
  Timestamp start = clock_->Now();
  TablePtr slice;
  if (predicate_ == nullptr) {
    slice = input_->ReadNewFor(reader_id_);
  } else {
    DC_ASSIGN_OR_RETURN(slice,
                        input_->ReadNewMatching(reader_id_, *predicate_));
  }
  input_->TrimConsumed();
  if (slice->num_rows() == 0) return 0;
  // Original arrival timestamps travel with the tuples, so downstream
  // time windows and latency accounting stay correct.
  DC_RETURN_NOT_OK(output_->AppendTable(*slice, std::nullopt));
  int64_t n = static_cast<int64_t>(slice->num_rows());
  RecordRun(n, clock_->Now() - start);
  return n;
}

}  // namespace datacell
