#include "logsys/day_buffer.h"

#include <algorithm>
#include <cstring>

#include "simd/scan.h"

namespace gpures::logsys {

DayBuffer DayBuffer::from_text(common::TimePoint default_time,
                               std::string&& text) {
  // One kernel table fetch per file; every scan below goes through the
  // active scan backend (scalar or AVX2), both of which return identical
  // slices (see simd/scan.h and tests/test_simd.cpp).
  const auto& k = simd::active_ops();
  DayBuffer buf;
  if (!text.empty() && text.back() != '\n') text.push_back('\n');
  buf.arena_ = std::move(text);
  // One line per newline is exact for written day files; reserve up front so
  // the slice scan never reallocates mid-flight.
  const char* base = buf.arena_.data();
  const std::size_t n = buf.arena_.size();
  buf.slices_.reserve(k.count_byte(base, n, '\n'));
  std::size_t pos = 0;
  while (pos < n) {
    const std::size_t eol = pos + k.find_byte(base + pos, n - pos, '\n');
    if (eol > pos) {  // skip empty lines, matching pipeline line ingestion
      buf.slices_.push_back(LineSlice{default_time, pos,
                                      static_cast<std::uint32_t>(eol - pos)});
    }
    pos = eol + 1;
  }
  return buf;
}

DayBuffer DayBuffer::from_text(common::TimePoint default_time,
                               std::string&& text, const LineScreen& screen,
                               ScreenCounts& counts) {
  const auto& k = simd::active_ops();
  DayBuffer buf;
  // CRLF archives are messy-but-real input, not corruption: a '\r' that
  // immediately precedes '\n' is part of the line terminator, not the line.
  // Normalize to LF in place before classification so CRLF days parse the
  // same as LF days instead of every line being quarantined as binary; the
  // stripped bytes are tallied as terminator bytes (like '\n', excluded
  // from kept/quarantined counts).  LF-only input never enters this branch.
  // The rewrite jumps '\r' to '\r' with the byte-search kernel and moves
  // whole clean spans at once instead of copying byte by byte.
  if (k.find_substr(text.data(), text.size(), "\r\n", 2) != text.size()) {
    const std::size_t size = text.size();
    std::size_t w = 0, r = 0;
    while (r < size) {
      const std::size_t next = r + k.find_byte(text.data() + r, size - r, '\r');
      if (next > r && w != r) std::memmove(&text[w], &text[r], next - r);
      w += next - r;
      if (next == size) break;
      if (next + 1 < size && text[next + 1] == '\n') {
        ++counts.crlf_bytes;  // drop the '\r'; the '\n' is copied next round
      } else {
        text[w++] = '\r';  // lone '\r' is content (classified binary below)
      }
      r = next + 1;
    }
    text.resize(w);
  }
  const bool had_final_newline = text.empty() || text.back() == '\n';
  if (!had_final_newline) text.push_back('\n');
  buf.arena_ = std::move(text);
  const char* base = buf.arena_.data();
  const std::size_t n = buf.arena_.size();
  buf.slices_.reserve(k.count_byte(base, n, '\n'));
  std::size_t pos = 0;
  std::uint64_t line_no = 0;
  const auto offend = [&](const char* category, std::uint64_t len,
                          std::uint64_t& lines, std::uint64_t& bytes) {
    lines += 1;
    bytes += len;
    if (counts.first_category == nullptr) {
      counts.first_category = category;
      counts.first_line = line_no;
      counts.first_offset = pos;
    }
  };
  while (pos < n) {
    // One fused pass finds the newline AND classifies control bytes — the
    // pre-SIMD path paid a memchr scan plus a separate is_binary_line byte
    // loop over every kept line.
    const simd::LineScan scan = k.next_line(base + pos, n - pos);
    const std::size_t eol = pos + scan.eol;  // < n: final '\n' guaranteed
    ++line_no;
    if (eol > pos) {
      const std::size_t len = eol - pos;
      // One category per line, checked most- to least-specific: a torn EOF
      // fragment is torn no matter its content, then length, then bytes.
      if (eol == n - 1 && !had_final_newline) {
        offend("torn", len, counts.torn_lines, counts.torn_bytes);
      } else if (len > screen.max_line_len) {
        offend("overlong", len, counts.overlong_lines, counts.overlong_bytes);
      } else if (scan.binary) {
        offend("binary", len, counts.binary_lines, counts.binary_bytes);
      } else {
        counts.kept_lines += 1;
        counts.kept_bytes += len;
        buf.slices_.push_back(
            LineSlice{default_time, pos, static_cast<std::uint32_t>(len)});
      }
    }
    pos = eol + 1;
  }
  return buf;
}

void DayBuffer::sort_by_time() {
  common::check(!open_, "DayBuffer: sort_by_time with a line open");
  std::stable_sort(slices_.begin(), slices_.end(),
                   [](const LineSlice& a, const LineSlice& b) {
                     return a.time < b.time;
                   });
}

std::string render_day(const DayBuffer& buf) {
  std::string out;
  out.reserve(buf.bytes());
  buf.for_each_run([&out](std::string_view run) { out += run; });
  return out;
}

}  // namespace gpures::logsys
