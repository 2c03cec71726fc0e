// Command-line plumbing shared by the gpures tools: one flag table per tool
// (argv parsing and --help both read it), the flags several tools share,
// the run harness (logger, metrics, tracer, telemetry, run manifest),
// checked artifact writes, and the one emit path that gpures-analyze and
// gpures-serve render their results through.
//
// Messages carry the tool's name ("gpures-analyze: ...") as their prefix;
// log records use the name without "gpures-" as their component.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/data_quality.h"
#include "analysis/stage3_results.h"
#include "common/io.h"
#include "obs/log.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gpures::obs {
class TelemetrySampler;
}  // namespace gpures::obs

namespace gpures::cli {

/// The argv cursor a flag's parser reads its value from.  Every bad value
/// exits 2 with a "<tool>: <flag> ..." message.
class Args {
 public:
  Args(std::string_view tool, int argc, char** argv);
  /// Advance to the next flag; false after the last one.
  bool next();
  const std::string& tool() const { return tool_; }
  const std::string& flag() const { return flag_; }
  /// The current flag's value; a missing one exits 2.
  const char* value();
  /// The value as a strict non-negative integer (see parse_count); one
  /// below `min` exits 2.
  long long count(long long min = 0);
  /// The value as a worker-thread count in [0, 256]; anything else exits 2.
  std::uint32_t threads();
  /// The value as a finite non-negative number; anything else exits 2.
  double number();
  /// Print "<tool>: <what>" and exit 2.
  [[noreturn]] void fail(const std::string& what) const;

 private:
  std::string tool_;
  int argc_ = 0;
  char** argv_ = nullptr;
  int i_ = 0;
  std::string flag_;
};

/// One flag of a tool, declared once: parse() reads argv from a table of
/// these and prints --help from the same table.
struct Flag {
  std::string name;  ///< "--data"
  std::string meta;  ///< value placeholder ("DIR"); empty for a switch
  std::string help;  ///< one sentence; --help wraps it
  /// Stores the flag's value, read through the cursor; a switch reads none.
  std::function<void(Args&)> set;
  /// Set by required(): a text flag that must end up non-empty.
  const std::string* required = nullptr;
};

/// Walk argv through `flags`: each known flag runs its parser; --help/-h
/// prints the usage and exits 0; an unknown argument, or a required flag
/// left empty, prints the usage and exits 2.  The usage goes to stderr.
void parse(std::string_view tool, int argc, char** argv,
           const std::vector<Flag>& flags);

// ---- value kinds --------------------------------------------------------

/// A string value.
Flag text(std::string name, std::string meta, std::string& target,
          std::string help);
/// A string value the tool cannot run without.
Flag required(std::string name, std::string meta, std::string& target,
              std::string help);
/// A file the tool writes.  Artifact writes never create directories, so
/// a missing one exits 2 while parsing, before the tool does any work.
Flag output(std::string name, std::string meta, std::string& target,
            std::string help);
/// A finite non-negative number.
Flag number(std::string name, std::string meta, double& target,
            std::string help);

/// A strict count (see parse_count) of at least `min`.
template <class T>
Flag count(std::string name, std::string meta, T& target, std::string help,
           long long min = 0) {
  return {std::move(name), std::move(meta), std::move(help),
          [&target, min](Args& a) { target = static_cast<T>(a.count(min)); }};
}

/// A switch: its presence stores `value`.
template <class T>
Flag toggle(std::string name, T& target, T value, std::string help) {
  return {std::move(name), "", std::move(help),
          [&target, value](Args&) { target = value; }};
}

/// What to render from a result view.
struct EmitRequest {
  /// One of "all", "none" or an analysis::report_catalog() name; reports go
  /// to stdout.
  std::string report = "all";
  std::string index_file;  ///< --write-index; empty = skip
  std::string json_file;   ///< --export-json; empty = skip
};

/// The logging flags of the tools that log.
struct LogFlags {
  obs::LogLevel level = obs::LogLevel::kInfo;  ///< --log-level
  std::string json_file;                       ///< --log-json
  /// --quiet keeps the text sink but raises its bar to errors; the JSONL
  /// sink records every level regardless.
  bool quiet = false;
};

/// The flags more than one tool takes, each declared once.  A tool lists
/// the ones it accepts in its table, pointed at its own targets.
namespace shared {
Flag threads(std::uint32_t& n);
// Analysis knobs.
Flag coalesce_window(analysis::AnalysisKnobs& k);
Flag window(analysis::AnalysisKnobs& k);
Flag node_level(analysis::AnalysisKnobs& k);
// Result emit.
Flag report(EmitRequest& e);
Flag write_index(EmitRequest& e);
Flag export_json(EmitRequest& e);
// Ingest policy.
Flag ingest_policy(analysis::IngestPolicy& p);
Flag error_budget(std::uint64_t& n);
Flag quality_report(std::string& file);
/// Parsed at once: a bad spec exits 2.
Flag chaos_io_fault(std::optional<common::IoFaultPlan>& plan);
// Observability.
Flag metrics(std::string& file);
Flag trace(std::string& file);
// Logging.
Flag log_json(LogFlags& log);
Flag log_level(LogFlags& log);
Flag quiet(LogFlags& log);
Flag progress(LogFlags& log);
}  // namespace shared

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

/// The run harness of a tool: its logger, metrics registry, tracer,
/// telemetry sampler and run manifest.  Declare it before anything that
/// holds the registry; its destructor uninstalls the tracer on every exit
/// path, and its members stop the sampler and uninstall the logger.
class Run {
 public:
  explicit Run(std::string_view tool);
  ~Run();
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  // Targets of the observability and logging flags.
  LogFlags log;
  std::string metrics_file;
  std::string trace_file;
  std::string telemetry_file;
  long long telemetry_interval_ms = 1000;

  obs::MetricsRegistry registry;
  /// start() fills tool, dataset, started_at and simd_backend; finish()
  /// stamps finished_at.
  obs::RunManifest manifest;

  /// Install the logger, the tracer (--trace) and the sampler of
  /// `registry` (--telemetry), and stamp the manifest.  False after a
  /// reported failure (the caller exits 1).
  bool start(std::string dataset = {});
  /// Uninstall the tracer, stop the sampler (so its file ends with the
  /// "final" sample and the snapshots below see quiescent writers), stamp
  /// finished_at; then write the manifest to `manifest_path` (empty = not
  /// wanted), --metrics and --trace.  False after a logged failed write.
  bool finish(const std::filesystem::path& manifest_path = {});

 private:
  std::string tool_;
  obs::Tracer tracer_;
  std::unique_ptr<obs::Logger> logger_;
  std::unique_ptr<obs::TelemetrySampler> telemetry_;
};

/// Render `--report`, `--write-index` and `--export-json` from `results`,
/// each report under a `report.<name>` trace span and the index under
/// `index.write`.  The caller renders any further artifact from the same
/// `results`, so no Stage-III result is derived twice.
/// Returns false after logging a failed write.  `index_bytes`, when
/// non-null, receives the size of the written index.
bool emit_results(std::string_view tool, analysis::Stage3Results& results,
                  const EmitRequest& req,
                  std::uint64_t* index_bytes = nullptr);

}  // namespace gpures::cli
