#ifndef DATACELL_ADAPTERS_CHANNEL_H_
#define DATACELL_ADAPTERS_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "adapters/text_block.h"

namespace datacell {

/// In-process communication channel carrying flat textual tuples — the
/// "simple textual interface for exchanging flat relational tuples" of §2.1.
/// Multiple producers, multiple consumers; FIFO per producer. A socket-backed
/// receptor would feed the same interface, so the ingest code path is
/// identical to a networked deployment.
///
/// The channel is a FIFO of TextBlocks, not of strings. PushBatch and
/// PushBlock fill a block outside the lock and link it under the lock; Push
/// copies its one line into the open tail block. A consumer Take()s a run of
/// lines from the oldest block, reads it outside the lock, and Release()s
/// it; a drained block goes back on a small free list, so a steady stream
/// recycles the same few buffers. All counts (size, capacity, drops) are in
/// lines.
class Channel {
 private:
  struct Node;

 public:
  /// Lines [first(), last()) of a block taken off the channel. The block is
  /// read-only and stays valid until the range goes back through Release().
  class Lines {
   public:
    const TextBlock& block() const;
    size_t first() const { return first_; }
    size_t last() const { return last_; }
    size_t size() const { return last_ - first_; }
    bool empty() const { return first_ == last_; }

   private:
    friend class Channel;
    Node* node_ = nullptr;
    size_t first_ = 0;
    size_t last_ = 0;
  };

  Channel() = default;
  explicit Channel(size_t capacity) : capacity_(capacity) {}
  ~Channel();
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Enqueues one line, whatever bytes it holds (an embedded '\n' stays part
  /// of it). When a capacity is set and reached, the oldest line is dropped
  /// (load shedding at the edge) and the drop counter increases.
  void Push(std::string_view line);
  /// Enqueues each string as one line, in order.
  void PushBatch(std::vector<std::string> lines);
  /// Enqueues newline-framed text: one line per '\n' (a last unterminated
  /// run is a line too).
  void PushBlock(std::string_view text);

  /// Non-blocking pop of the oldest line; false when empty.
  bool TryPop(std::string* out);
  /// Takes up to `max` of the oldest lines, all from one block; an empty
  /// range when the channel holds none. Pair every Take with a Release.
  Lines Take(size_t max);
  void Release(const Lines& lines);

  /// Marks end-of-stream; producers must not push afterwards.
  void Close();
  bool closed() const;

  /// Installs a callback invoked (outside the channel lock) after every push
  /// and on close. The engine wires attached receptors' channels to the
  /// scheduler's wakeup, so a line arriving on an idle stream fires its
  /// receptor immediately instead of on the next poll tick.
  void SetWakeCallback(std::function<void()> cb);

  /// Lines waiting.
  size_t size() const;
  bool empty() const { return size() == 0; }
  int64_t total_pushed() const;
  int64_t total_dropped() const;

 private:
  struct Node {
    TextBlock text;
    size_t head = 0;      // lines before it were taken or dropped
    Node* next = nullptr;
    int pins = 0;         // Take()n ranges not yet released
    bool sealed = false;  // a reader holds lines of it: no more appends
    bool linked = false;
  };

  /// A recycled node, or a new one. Takes the lock.
  Node* AcquireNode();
  /// Appends a filled node to the FIFO. Takes the lock.
  void Link(Node* node);
  // The *Locked helpers require mu_.

  /// Counts `n` new lines, then sheds the oldest beyond capacity.
  void CountPushedLocked(size_t n);
  void UnlinkHeadLocked();
  void RecycleLocked(Node* node);
  /// Copies the wake callback under the lock and invokes it outside.
  void NotifyWake();

  mutable std::mutex mu_;
  // Guarded by mu_, invoked outside it. Held by shared_ptr so a push copies
  // a pointer, not the callable (copying a std::function may allocate).
  std::shared_ptr<const std::function<void()>> wake_cb_;
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  Node* free_ = nullptr;
  size_t free_count_ = 0;
  size_t size_ = 0;  // lines linked and not yet taken
  size_t capacity_ = 0;  // 0 = unbounded
  bool closed_ = false;
  int64_t total_pushed_ = 0;
  int64_t total_dropped_ = 0;
};

}  // namespace datacell

#endif  // DATACELL_ADAPTERS_CHANNEL_H_
