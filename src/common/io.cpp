#include "common/io.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <vector>

#include "common/strings.h"

namespace gpures::common {

namespace {

// Installed fault plan; read on every read call.  Acquire/release so a plan
// installed before a parallel load is fully visible to pool threads.
std::atomic<const IoFaultPlan*> g_io_fault{nullptr};
// Reads affected by the installed plan so far.  For transient kinds a read
// claims a hit slot with fetch_add and is only affected while slots remain,
// so exactly `times` reads misbehave even under concurrency.
std::atomic<std::uint32_t> g_io_fault_hits{0};

/// The installed plan if it matches `path`, else nullptr.
const IoFaultPlan* match_fault(const std::string& path) {
  const IoFaultPlan* fault = g_io_fault.load(std::memory_order_acquire);
  if (fault != nullptr && path.find(fault->path_substring) == std::string::npos) {
    return nullptr;
  }
  return fault;
}

/// For transient kinds: claim one of the plan's `times` slots.  Returns
/// true when this read should misbehave.
bool claim_transient_hit(const IoFaultPlan& fault) {
  if (fault.times == 0) {
    g_io_fault_hits.fetch_add(1, std::memory_order_relaxed);
    return true;  // unbounded: every matching read is affected
  }
  const std::uint32_t slot =
      g_io_fault_hits.fetch_add(1, std::memory_order_relaxed);
  if (slot < fault.times) return true;
  // Overshot: give the slot back so io_fault_hits() reports affected reads.
  g_io_fault_hits.fetch_sub(1, std::memory_order_relaxed);
  return false;
}

}  // namespace

std::string_view to_string(IoFaultKind kind) {
  switch (kind) {
    case IoFaultKind::kFail:
      return "fail";
    case IoFaultKind::kTransient:
      return "transient";
    case IoFaultKind::kEintr:
      return "eintr";
    case IoFaultKind::kShortRead:
      return "short";
  }
  return "unknown";
}

void set_io_fault_plan(const IoFaultPlan* plan) {
  g_io_fault_hits.store(0, std::memory_order_relaxed);
  g_io_fault.store(plan, std::memory_order_release);
}

std::uint32_t io_fault_hits() {
  return g_io_fault_hits.load(std::memory_order_relaxed);
}

Result<IoFaultPlan> parse_io_fault_spec(std::string_view spec) {
  // SUBSTRING may not contain ':' (day-file names never do); split the rest
  // of the fields left to right.
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = spec.find(':', start);
    if (colon == std::string_view::npos) {
      fields.push_back(spec.substr(start));
      break;
    }
    fields.push_back(spec.substr(start, colon - start));
    start = colon + 1;
  }
  if (fields.size() < 2 || fields.size() > 4 || fields[0].empty()) {
    return Error::make(
        "io fault spec wants SUBSTRING:BYTES[:KIND[:TIMES]], got '" +
        std::string(spec) + "'");
  }
  IoFaultPlan plan;
  plan.path_substring = std::string(fields[0]);
  const long long bytes = parse_ll(fields[1]);
  if (bytes < 0) {
    return Error::make("io fault spec: BYTES wants a non-negative integer, "
                       "got '" + std::string(fields[1]) + "'");
  }
  plan.fail_after_bytes = static_cast<std::uint64_t>(bytes);
  if (fields.size() >= 3) {
    const std::string_view kind = fields[2];
    if (kind == "fail") {
      plan.kind = IoFaultKind::kFail;
    } else if (kind == "transient") {
      plan.kind = IoFaultKind::kTransient;
    } else if (kind == "eintr") {
      plan.kind = IoFaultKind::kEintr;
    } else if (kind == "short") {
      plan.kind = IoFaultKind::kShortRead;
    } else {
      return Error::make("io fault spec: KIND wants fail|transient|eintr|"
                         "short, got '" + std::string(kind) + "'");
    }
  }
  if (plan.kind != IoFaultKind::kFail) plan.times = 1;
  if (fields.size() == 4) {
    const long long times = parse_ll(fields[3]);
    if (times < 0) {
      return Error::make("io fault spec: TIMES wants a non-negative integer, "
                         "got '" + std::string(fields[3]) + "'");
    }
    plan.times = static_cast<std::uint32_t>(times);
  }
  return plan;
}

Result<std::string> read_file(const std::string& path) {
  const IoFaultPlan* fault = match_fault(path);
  bool hit = false;
  if (fault != nullptr) {
    if (fault->kind == IoFaultKind::kFail) {
      hit = true;
    } else {
      hit = claim_transient_hit(*fault);
    }
  }
  if (hit && fault->kind != IoFaultKind::kShortRead &&
      (fault->fail_after_bytes == 0 || fault->kind == IoFaultKind::kTransient)) {
    // kFail/kEintr with fail_after_bytes == 0 fail before any byte is read;
    // kTransient models a whole-open bounce regardless of the byte field.
    return Error::make("injected I/O fault opening file: " + path);
  }
  // stdio instead of ifstream: no locale/sentry machinery, and fread on a
  // FILE* compiles down to large memcpy-from-buffer block reads.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Error::make("cannot open file: " + path);
  }
  std::string out;
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const long size = std::ftell(f);
    if (size > 0) out.reserve(static_cast<std::size_t>(size));
    std::rewind(f);
  }
  // Read by blocks rather than trusting the stat size: the file may grow or
  // shrink between the seek and the read, and pipes/procfs report size 0.
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
    if (hit && fault->kind == IoFaultKind::kShortRead &&
        out.size() >= fault->fail_after_bytes) {
      std::fclose(f);
      out.resize(static_cast<std::size_t>(fault->fail_after_bytes));
      return out;
    }
    if (hit && fault->kind != IoFaultKind::kShortRead &&
        out.size() >= fault->fail_after_bytes) {
      std::fclose(f);
      if (fault->kind == IoFaultKind::kEintr) {
        return Error::make("injected transient I/O interrupt after " +
                           std::to_string(out.size()) + " bytes: " + path);
      }
      return Error::make("injected I/O fault after " +
                         std::to_string(out.size()) + " bytes: " + path);
    }
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    return Error::make("read error on file: " + path);
  }
  return out;
}

Result<std::string> read_file_range(const std::string& path,
                                    std::uint64_t offset,
                                    std::uint64_t max_bytes) {
  const IoFaultPlan* fault = match_fault(path);
  bool hit = false;
  if (fault != nullptr) {
    if (fault->kind == IoFaultKind::kFail) {
      hit = true;
    } else {
      hit = claim_transient_hit(*fault);
    }
  }
  if (hit && (fault->kind == IoFaultKind::kTransient ||
              (fault->kind != IoFaultKind::kShortRead &&
               fault->fail_after_bytes == 0))) {
    return Error::make("injected I/O fault opening file: " + path);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Error::make("cannot open file: " + path);
  }
  if (offset > 0 &&
      std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) {
    std::fclose(f);
    return Error::make("cannot seek to offset " + std::to_string(offset) +
                       " in file: " + path);
  }
  // A short-read fault truncates the delivered bytes (success); the byte
  // budget below already stops the loop at the right size.
  std::uint64_t budget = max_bytes == 0 ? UINT64_MAX : max_bytes;
  if (hit && fault->kind == IoFaultKind::kShortRead &&
      fault->fail_after_bytes < budget) {
    budget = fault->fail_after_bytes;
  }
  std::string out;
  if (budget != UINT64_MAX) out.reserve(static_cast<std::size_t>(budget));
  char buf[1 << 16];
  while (out.size() < budget) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(sizeof(buf), budget - out.size()));
    const std::size_t n = std::fread(buf, 1, want, f);
    if (n == 0) break;
    out.append(buf, n);
    if (hit && fault->kind != IoFaultKind::kShortRead &&
        out.size() >= fault->fail_after_bytes) {
      std::fclose(f);
      if (fault->kind == IoFaultKind::kEintr) {
        return Error::make("injected transient I/O interrupt after " +
                           std::to_string(out.size()) + " bytes: " + path);
      }
      return Error::make("injected I/O fault after " +
                         std::to_string(out.size()) + " bytes: " + path);
    }
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    return Error::make("read error on file: " + path);
  }
  return out;
}

namespace {

/// fopen(path, mode), write every byte, close; any failure is an Error
/// naming the path.
Status write_with_mode(const std::string& path, std::string_view text,
                       const char* mode) {
  std::FILE* f = std::fopen(path.c_str(), mode);
  if (f == nullptr) {
    return Error::make("cannot open file for writing: " + path);
  }
  const std::size_t written =
      text.empty() ? 0 : std::fwrite(text.data(), 1, text.size(), f);
  const bool write_ok = written == text.size() && std::ferror(f) == 0;
  const bool close_ok = std::fclose(f) == 0;
  if (!write_ok || !close_ok) {
    return Error::make("write error on file: " + path);
  }
  return Status{};
}

}  // namespace

Status write_text_file(const std::string& path, std::string_view text) {
  return write_with_mode(path, text, "wb");
}

Status append_file(const std::string& path, std::string_view bytes) {
  return write_with_mode(path, bytes, "ab");
}

Status write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  auto st = write_text_file(tmp, bytes);
  if (!st.ok()) return st;
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return Error::make("cannot rename " + tmp + " into place: " + path);
  }
  return Status{};
}

}  // namespace gpures::common
