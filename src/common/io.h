// Whole-file and ranged I/O helpers.
//
// `std::istreambuf_iterator<char>` pulls one character per iteration through
// the streambuf virtual interface; on multi-megabyte day files that is the
// dominant load cost.  read_file stats the file once, reserves the exact
// size, and issues large block reads instead.  read_file_range is the
// follow-mode variant: it resumes a growing file from a byte offset, so the
// serve daemon can tail a day file in bounded chunks.
//
// For chaos testing, a process-wide fault injection point lets tests and the
// chaos harness make reads fail deterministically — the only way to exercise
// the loader's torn-read handling and the serve daemon's retry/backoff path
// without flaky tmpfs tricks.  Production code never installs a fault.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.h"

namespace gpures::common {

/// How an installed IoFaultPlan misbehaves.  kFail reproduces the original
/// hard-failure semantics; the transient kinds model the faults a retry
/// policy must absorb: NFS servers that bounce, reads interrupted by
/// signals, and reads that return fewer bytes than requested.
enum class IoFaultKind : std::uint8_t {
  kFail = 0,       ///< permanent: open fails (fail_after_bytes == 0) or the
                   ///< read fails once that many bytes have been delivered
  kTransient = 1,  ///< the first `times` matching reads fail on open, then
                   ///< every later read succeeds (fail-N-then-succeed)
  kEintr = 2,      ///< the first `times` matching reads fail mid-read after
                   ///< fail_after_bytes bytes ("interrupted"), then succeed
  kShortRead = 3,  ///< the first `times` matching reads return successfully
                   ///< but truncated to fail_after_bytes bytes
};

std::string_view to_string(IoFaultKind kind);

/// Chaos hook: a planned I/O failure.  While installed, any read of a path
/// containing `path_substring` misbehaves according to `kind`; for the
/// transient kinds only the first `times` matching reads are affected (a
/// process-wide hit counter, reset by set_io_fault_plan, tracks that).
struct IoFaultPlan {
  std::string path_substring;
  std::uint64_t fail_after_bytes = 0;
  IoFaultKind kind = IoFaultKind::kFail;
  std::uint32_t times = 0;  ///< affected reads for transient kinds; 0 = all
};

/// Install a fault plan (nullptr clears) and reset the transient hit
/// counter.  The plan must outlive its installation and must be
/// installed/cleared only while no read call is in flight (reads themselves
/// may run concurrently on worker threads).
void set_io_fault_plan(const IoFaultPlan* plan);

/// Reads affected by the installed plan so far (transient kinds).  Exposed
/// so tests can assert a fault actually fired.
std::uint32_t io_fault_hits();

/// Parse a --chaos-io-fault spec: `SUBSTRING:BYTES[:KIND[:TIMES]]` where
/// KIND is fail|transient|eintr|short (default fail) and TIMES bounds how
/// many reads a transient kind affects (default 1 for transient kinds).
/// The two-field form is exactly the pre-existing syntax.  Errors name the
/// offending field.
Result<IoFaultPlan> parse_io_fault_spec(std::string_view spec);

/// Read an entire file into a string with a single pre-sized pass.
/// Returns the file contents, or an Error naming the path on open/read
/// failure.  Binary-safe: bytes are returned exactly as stored.
Result<std::string> read_file(const std::string& path);

/// Read up to `max_bytes` bytes starting at byte `offset` (0 = no limit:
/// read to EOF).  Reading at or past EOF returns an empty string, not an
/// error — the follow-mode caller polls for growth.  Honors the installed
/// fault plan with byte counts relative to this call.
Result<std::string> read_file_range(const std::string& path,
                                    std::uint64_t offset,
                                    std::uint64_t max_bytes);

/// Write `text` to `path` (truncating).  The parent directory must exist:
/// a mistyped output path fails with an Error naming it instead of
/// silently growing a directory tree; callers that own a directory (a
/// checkpoint dir, a CSV export dir, a dataset) create it themselves.
/// Every tool-facing artifact write goes through here so open, short-write,
/// and close failures all surface as a checked Error naming the path —
/// instead of the silent bad() streams the CLIs used to mix.
Status write_text_file(const std::string& path, std::string_view text);

/// Append `bytes` to `path`, creating the file when absent.  Checkpoint
/// segments grow through here; failures surface as an Error naming the
/// path.
Status append_file(const std::string& path, std::string_view bytes);

/// Atomically replace `path` with `bytes`: write to `path + ".tmp"`, flush,
/// then rename over the target, so a crash at any point leaves either the
/// old file or the new one — never a torn mix.  Like write_text_file, it
/// needs the parent directory to exist; the leftover .tmp is removed on
/// failure.  Checkpoints, the index, and report artifacts all go through
/// here.
Status write_file_atomic(const std::string& path, std::string_view bytes);

}  // namespace gpures::common
