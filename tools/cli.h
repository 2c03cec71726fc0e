// Command-line plumbing shared by the gpures tools: strict numeric flags,
// checked artifact writes, --simd selection, and the one emit path that
// gpures-analyze and gpures-serve render their results through.
//
// Every helper takes the tool's name ("gpures-analyze", ...) so messages
// keep their "gpures-<tool>:" prefix; log records use the name without the
// "gpures-" prefix as their component.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>

#include "analysis/data_quality.h"
#include "analysis/result_set.h"
#include "common/io.h"
#include "obs/log.h"

namespace gpures::cli {

/// The argv walk every tool runs:
///
///   cli::Args args(kTool, argc, argv);
///   while (args.next()) {
///     if (args.flag() == "--data") dir = args.value(); ...
///     else args.unknown(usage);
///   }
class Args {
 public:
  Args(std::string_view tool, int argc, char** argv);
  /// Advance to the next flag; false after the last one.
  bool next();
  const std::string& flag() const { return flag_; }
  /// The current flag's value; a missing one exits 2.
  const char* value();
  /// The value as a strict non-negative integer (see parse_count); one
  /// below `min` exits 2.
  long long count(long long min = 0);
  /// The value as a worker-thread count in [0, 256]; anything else exits 2.
  std::uint32_t threads();
  /// No known flag matched: --help/-h prints usage and exits 0; anything
  /// else is an unknown argument, printed with usage, exit 2.
  [[noreturn]] void unknown(void (*usage)()) const;

 private:
  std::string tool_;
  int argc_ = 0;
  char** argv_ = nullptr;
  int i_ = 0;
  std::string flag_;
};

/// Strict non-negative integer for CLI values.  std::atoll would silently
/// turn a typo like "5oo" into 0 — which for --error-budget means
/// "unlimited", quietly disabling the protection — so anything that is not
/// entirely digits exits 2 with a message.
long long parse_count(std::string_view tool, const char* flag,
                      std::string_view s);

/// One checked write path for every artifact (reports, exports, metrics,
/// trace): the atomic tmp+rename the index and checkpoints use, so a crash
/// mid-emit never leaves a torn file.  An empty path is an artifact nobody
/// asked for: nothing is written.  Failures are logged; the caller exits 1.
bool write_artifact(std::string_view tool, const std::filesystem::path& path,
                    std::string_view text);

/// --log-level value (debug|info|warn|error), or exit 2.
obs::LogLevel parse_log_level(std::string_view tool, const char* value);

/// --ingest-policy value (strict|lenient), or exit 2.
analysis::IngestPolicy parse_ingest_policy(std::string_view tool,
                                           const char* value);

/// The logging flags of the tools that log.
struct LogFlags {
  obs::LogLevel level = obs::LogLevel::kInfo;  ///< --log-level
  std::string json_file;                       ///< --log-json
  /// --quiet keeps the text sink but raises its bar to errors; the JSONL
  /// sink records every level regardless.
  bool quiet = false;
};

/// Build and install the tool's logger.  Returns null after printing a sink
/// failure (the caller exits 1).
std::unique_ptr<obs::Logger> start_logger(std::string_view tool,
                                          const LogFlags& flags);

/// Arm a --chaos-io-fault spec (empty = nothing to arm) into `plan`.  A bad
/// spec is printed and returns false (the caller exits 2).
bool arm_io_fault(std::string_view tool, const std::string& spec,
                  common::IoFaultPlan& plan);

/// Apply an explicit --simd choice (empty = keep GPURES_SIMD / auto).  An
/// unknown name or a backend the host cannot run is a usage error: prints
/// it and returns false (the caller exits 2).
bool select_simd(std::string_view tool, const std::string& choice);

/// --simd-info: the resolved backend and the ones the host can run.
void print_simd_info();

/// What to render from a result view.
struct EmitRequest {
  /// all|table1|table2|table3|fig2|findings|trends|survival|mitigation, or
  /// none; reports go to stdout.
  std::string report = "all";
  std::string index_file;  ///< --write-index; empty = skip
  std::string json_file;   ///< --export-json; empty = skip
};

/// Render `--report`, `--write-index` and `--export-json` from `res`.
/// Returns false after logging a failed write.  `index_bytes`, when
/// non-null, receives the size of the written index.
bool emit_results(std::string_view tool, const analysis::ResultSet& res,
                  const EmitRequest& req,
                  std::uint64_t* index_bytes = nullptr);

}  // namespace gpures::cli
