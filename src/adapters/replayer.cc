#include "adapters/replayer.h"

#include <chrono>

#include "adapters/csv.h"
#include "common/check.h"

namespace datacell {

Replayer::Replayer(Channel* channel, std::unique_ptr<RowGenerator> generator,
                   Options options)
    : channel_(channel),
      generator_(std::move(generator)),
      options_(options) {
  DC_CHECK(channel_ != nullptr);
  DC_CHECK(generator_ != nullptr);
  DC_CHECK_GT(options_.rows_per_second, 0.0);
  DC_CHECK_GT(options_.batch_size, 0u);
}

Replayer::~Replayer() { Stop(); }

Status Replayer::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) {
    return Status::FailedPrecondition("replayer already started");
  }
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void Replayer::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void Replayer::Loop() {
  using Clock = std::chrono::steady_clock;
  auto start = Clock::now();
  int64_t sent = 0;
  // Columnar formatting path when the generator publishes its schema: rows
  // are drawn straight into typed buffers and formatted into one newline-
  // framed text that goes onto the wire with a single PushBlock. The batch,
  // the line and the text are reused, so a round allocates nothing.
  const Schema* schema = generator_->schema();
  ColumnBatch batch;
  if (schema != nullptr) batch.Reset(*schema);
  std::string line;
  std::string text;
  while (!stop_.load(std::memory_order_acquire)) {
    size_t n = options_.batch_size;
    if (options_.total_rows > 0) {
      int64_t remaining = options_.total_rows - sent;
      if (remaining <= 0) break;
      n = std::min(n, static_cast<size_t>(remaining));
    }
    if (schema != nullptr) {
      batch.Clear();
      generator_->NextBatchColumns(n, &batch);
    }
    text.clear();
    for (size_t r = 0; r < n; ++r) {
      if (schema != nullptr) {
        FormatCsvLine(batch, r, &line);
      } else {
        line = FormatCsvRow(generator_->Next());
      }
      if (line.find('\n') == std::string::npos) {
        text += line;
        text.push_back('\n');
        continue;
      }
      // A quoted newline would split the line in framed text: send what is
      // framed so far, then this line on its own.
      channel_->PushBlock(text);
      text.clear();
      channel_->Push(line);
    }
    channel_->PushBlock(text);
    sent += static_cast<int64_t>(n);
    sent_.store(sent, std::memory_order_relaxed);
    // Sleep so the long-run average matches the target rate.
    auto due = start + std::chrono::microseconds(static_cast<int64_t>(
                           1e6 * static_cast<double>(sent) /
                           options_.rows_per_second));
    std::this_thread::sleep_until(due);
  }
  if (options_.total_rows > 0 && sent >= options_.total_rows) {
    finished_.store(true, std::memory_order_release);
  }
}

}  // namespace datacell
