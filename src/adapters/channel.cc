#include "adapters/channel.h"

#include <algorithm>

#include "common/check.h"
#include "common/lock_order.h"

namespace datacell {

namespace {

// Drained blocks kept for reuse: enough for a producer running a few blocks
// ahead of its receptor, small enough that an idle channel holds little.
constexpr size_t kMaxFreeBlocks = 4;
// A block whose buffer grew past this is freed instead of recycled.
constexpr size_t kMaxRecycledBytes = size_t{4} << 20;
// Push stops appending to the open tail block at this size.
constexpr size_t kOpenBlockBytes = size_t{1} << 20;

}  // namespace

const TextBlock& Channel::Lines::block() const {
  DC_CHECK(node_ != nullptr);
  return node_->text;
}

Channel::~Channel() {
  for (Node* list : {head_, free_}) {
    while (list != nullptr) {
      Node* next = list->next;
      delete list;
      list = next;
    }
  }
}

void Channel::SetWakeCallback(std::function<void()> cb) {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "channel", "channel");
  wake_cb_ = cb ? std::make_shared<const std::function<void()>>(std::move(cb))
                : nullptr;
}

void Channel::NotifyWake() {
  std::shared_ptr<const std::function<void()>> cb;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DC_LOCK_ORDER(&mu_, "channel", "channel");
    cb = wake_cb_;
  }
  if (cb) (*cb)();
}

Channel::Node* Channel::AcquireNode() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    DC_LOCK_ORDER(&mu_, "channel", "channel");
    if (free_ != nullptr) {
      Node* node = free_;
      free_ = node->next;
      node->next = nullptr;
      --free_count_;
      return node;
    }
  }
  return new Node();
}

void Channel::Link(Node* node) {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "channel", "channel");
  if (node->text.empty()) {
    RecycleLocked(node);
    return;
  }
  node->linked = true;
  if (tail_ != nullptr) {
    tail_->next = node;
  } else {
    head_ = node;
  }
  tail_ = node;
  CountPushedLocked(node->text.size());
}

void Channel::CountPushedLocked(size_t n) {
  size_ += n;
  total_pushed_ += static_cast<int64_t>(n);
  // Shed the oldest lines beyond capacity, as many of a block at once as
  // the excess covers.
  while (capacity_ > 0 && size_ > capacity_) {
    Node* oldest = head_;
    size_t k = std::min(size_ - capacity_, oldest->text.size() - oldest->head);
    oldest->head += k;
    size_ -= k;
    total_dropped_ += static_cast<int64_t>(k);
    if (oldest->head == oldest->text.size()) UnlinkHeadLocked();
  }
}

void Channel::UnlinkHeadLocked() {
  Node* node = head_;
  head_ = node->next;
  if (head_ == nullptr) tail_ = nullptr;
  node->next = nullptr;
  node->linked = false;
  // A pinned block is recycled by the Release of its last taken range.
  if (node->pins == 0) RecycleLocked(node);
}

void Channel::RecycleLocked(Node* node) {
  if (free_count_ >= kMaxFreeBlocks ||
      node->text.bytes.capacity() > kMaxRecycledBytes) {
    delete node;
    return;
  }
  node->text.Clear();
  node->head = 0;
  node->sealed = false;
  node->next = free_;
  free_ = node;
  ++free_count_;
}

void Channel::Push(std::string_view line) {
  bool appended = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DC_LOCK_ORDER(&mu_, "channel", "channel");
    if (tail_ != nullptr && !tail_->sealed &&
        tail_->text.bytes.size() + line.size() < kOpenBlockBytes) {
      tail_->text.Append(line);
      CountPushedLocked(1);
      appended = true;
    }
  }
  if (!appended) {
    Node* node = AcquireNode();
    node->text.Append(line);
    Link(node);
  }
  NotifyWake();
}

void Channel::PushBatch(std::vector<std::string> lines) {
  Node* node = AcquireNode();
  node->text.AppendLines(lines);
  Link(node);
  NotifyWake();
}

void Channel::PushBlock(std::string_view text) {
  Node* node = AcquireNode();
  node->text.AppendFramed(text);
  Link(node);
  NotifyWake();
}

bool Channel::TryPop(std::string* out) {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "channel", "channel");
  if (head_ == nullptr) return false;
  Node* node = head_;
  out->assign(node->text.line(node->head));
  ++node->head;
  --size_;
  if (node->head == node->text.size()) UnlinkHeadLocked();
  return true;
}

Channel::Lines Channel::Take(size_t max) {
  Lines out;
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "channel", "channel");
  Node* node = head_;
  if (node == nullptr || max == 0) return out;
  out.node_ = node;
  out.first_ = node->head;
  out.last_ = std::min(node->text.size(), node->head + max);
  node->head = out.last_;
  size_ -= out.size();
  node->sealed = true;
  ++node->pins;
  if (node->head == node->text.size()) UnlinkHeadLocked();
  return out;
}

void Channel::Release(const Lines& lines) {
  if (lines.node_ == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "channel", "channel");
  Node* node = lines.node_;
  if (--node->pins == 0 && !node->linked) RecycleLocked(node);
}

void Channel::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    DC_LOCK_ORDER(&mu_, "channel", "channel");
    closed_ = true;
  }
  NotifyWake();
}

bool Channel::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "channel", "channel");
  return closed_;
}

size_t Channel::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "channel", "channel");
  return size_;
}

int64_t Channel::total_pushed() const {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "channel", "channel");
  return total_pushed_;
}

int64_t Channel::total_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  DC_LOCK_ORDER(&mu_, "channel", "channel");
  return total_dropped_;
}

}  // namespace datacell
