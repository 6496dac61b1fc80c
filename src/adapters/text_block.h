#ifndef DATACELL_ADAPTERS_TEXT_BLOCK_H_
#define DATACELL_ADAPTERS_TEXT_BLOCK_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"

namespace datacell {

/// A run of textual tuples stored back to back: the unit a channel carries
/// and the receptor parses. Every line is followed by one '\n' in `bytes`,
/// and `ends[i]` is the offset of line i's terminator, so line i is
/// `bytes[start(i), ends[i])`. A line appended whole (Append, AppendLines)
/// may itself contain '\n'; framed text (AppendFramed) is split on every
/// '\n'.
struct TextBlock {
  std::string bytes;
  std::vector<uint32_t> ends;

  size_t size() const { return ends.size(); }
  bool empty() const { return ends.empty(); }
  size_t start(size_t i) const { return i == 0 ? 0 : ends[i - 1] + 1; }
  std::string_view line(size_t i) const {
    size_t b = start(i);
    return std::string_view(bytes.data() + b, ends[i] - b);
  }

  /// Appends one line, whatever bytes it holds.
  void Append(std::string_view line) {
    bytes.append(line.data(), line.size());
    DC_CHECK_LT(bytes.size(), static_cast<size_t>(UINT32_MAX));
    ends.push_back(static_cast<uint32_t>(bytes.size()));
    bytes.push_back('\n');
  }
  /// Appends each string as one line, sizing both buffers once.
  void AppendLines(const std::vector<std::string>& lines) {
    size_t pos = bytes.size();
    size_t total = pos;
    for (const std::string& line : lines) total += line.size() + 1;
    DC_CHECK_LE(total, static_cast<size_t>(UINT32_MAX));
    bytes.resize(total);
    size_t e = ends.size();
    ends.resize(e + lines.size());
    char* out = bytes.data();
    for (const std::string& line : lines) {
      std::memcpy(out + pos, line.data(), line.size());
      pos += line.size();
      ends[e++] = static_cast<uint32_t>(pos);
      out[pos++] = '\n';
    }
  }
  /// Appends newline-framed text: one line per '\n'-terminated run, plus a
  /// last unterminated one if the text does not end in '\n'. Empty text
  /// appends nothing.
  void AppendFramed(std::string_view text) {
    if (text.empty()) return;
    size_t base = bytes.size();
    bytes.append(text.data(), text.size());
    if (text.back() != '\n') bytes.push_back('\n');
    DC_CHECK_LE(bytes.size(), static_cast<size_t>(UINT32_MAX));
    const char* data = bytes.data();
    const char* p = data + base;
    const char* end = data + bytes.size();
    while (p < end) {
      const char* nl = static_cast<const char*>(std::memchr(p, '\n', end - p));
      ends.push_back(static_cast<uint32_t>(nl - data));
      p = nl + 1;
    }
  }
  /// Drops every line, keeping both buffers' capacity.
  void Clear() {
    bytes.clear();
    ends.clear();
  }
};

}  // namespace datacell

#endif  // DATACELL_ADAPTERS_TEXT_BLOCK_H_
