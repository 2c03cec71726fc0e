// Data-quality accounting for dataset ingestion.
//
// The reproduced study ran over three years of production syslogs; real
// logs arrive truncated, interleaved with garbage, and partially missing.
// The loader therefore runs under an explicit policy:
//
//  * strict  — any corrupt input fails the run immediately with a
//              structured error naming file, line, and byte offset;
//  * lenient — corrupt lines are quarantined, unreadable days are skipped
//              as coverage gaps, and the run completes with a
//              DataQualityReport that accounts for every dropped line and
//              byte by category.  A per-day error budget bounds how much
//              corruption a lenient run will absorb before aborting.
//
// On clean input the two policies are byte-identical to each other and to
// the unhardened loader — the screen only ever matches corruption, never
// well-formed lines (see DESIGN.md "Quarantine semantics").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "logsys/day_buffer.h"
#include "obs/metrics.h"

namespace gpures::analysis {

enum class IngestPolicy : std::uint8_t {
  kStrict,   ///< fail fast on the first corrupt input
  kLenient,  ///< quarantine, record coverage gaps, enforce the error budget
};

std::string_view to_string(IngestPolicy policy);
std::optional<IngestPolicy> parse_ingest_policy(std::string_view name);

/// Kept and quarantined line tallies, by category (one day or a whole run).
struct LineCounts {
  std::uint64_t lines_kept = 0;
  std::uint64_t bytes_kept = 0;
  std::uint64_t binary_lines = 0;
  std::uint64_t binary_bytes = 0;
  std::uint64_t overlong_lines = 0;
  std::uint64_t overlong_bytes = 0;
  std::uint64_t torn_lines = 0;
  std::uint64_t torn_bytes = 0;
  /// '\r' bytes stripped while normalizing CRLF line terminators.  Lossless
  /// (line content is preserved), so it does not affect clean(); reported so
  /// every byte difference between file and arena stays accounted for.
  std::uint64_t crlf_bytes = 0;

  std::uint64_t quarantined_lines() const {
    return binary_lines + overlong_lines + torn_lines;
  }
  std::uint64_t quarantined_bytes() const {
    return binary_bytes + overlong_bytes + torn_bytes;
  }
  /// Add one file's line-screen tallies.
  void add(const logsys::ScreenCounts& c);
};

/// Per-day ingestion tally.  Only days with something to report (quarantined
/// lines, zero bytes, or CRLF terminators) are kept in the report's `days`
/// list.
struct DayQuality : LineCounts {
  std::string date;  ///< YYYY-MM-DD
  std::uint64_t file_bytes = 0;
};

/// A day the lenient loader could not read at all (mid-read I/O failure).
struct SkippedDay {
  std::string date;
  std::string reason;
};

/// A follow-mode source the serve daemon quarantined after exhausting its
/// retry budget.  Unlike a SkippedDay, a degraded source may have been
/// partially ingested before the fault hit — the bytes already consumed
/// stay in the analysis and are recorded here.
struct DegradedSource {
  std::string name;    ///< file name (day file or slurm_accounting.txt)
  std::string reason;  ///< last I/O error before quarantine
  std::uint64_t bytes_ingested = 0;
};

/// Everything a run dropped or could not see, accounted by category; the
/// LineCounts are the line quarantine totals (the sum over `days`).
/// Serialized as data_quality.json (machine-readable) and as a markdown
/// section of the analysis report (human-readable).
struct DataQualityReport : LineCounts {
  IngestPolicy policy = IngestPolicy::kStrict;
  std::uint64_t error_budget = 0;  ///< per-file quarantine cap; 0 = unlimited

  // ---- coverage ----
  std::uint64_t days_expected = 0;  ///< from the manifest period; 0 = unknown
  std::uint64_t days_present = 0;   ///< day files successfully ingested
  std::uint64_t zero_byte_days = 0;
  std::vector<std::string> missing_days;  ///< expected dates with no file
  std::vector<SkippedDay> skipped_days;   ///< unreadable days (lenient)
  std::vector<std::string> stray_files;   ///< non-day entries in syslog/
  /// Sources quarantined by the serve daemon after retry exhaustion
  /// (follow mode only; always empty for batch loads).
  std::vector<DegradedSource> degraded_sources;

  std::vector<DayQuality> days;  ///< days with quarantines/zero bytes/CRLF

  // ---- accounting dump ----
  bool accounting_present = false;
  std::string accounting_error;  ///< read-failure reason (lenient), if any
  std::uint64_t accounting_rows_kept = 0;
  std::uint64_t accounting_rows_rejected = 0;
  std::uint64_t accounting_bytes_rejected = 0;

  /// True when nothing was dropped, skipped, or missing.
  bool clean() const;

  /// Coverage: count every day in [begin, end) as expected and record those
  /// absent from `present` (ascending day starts) as missing.  An empty
  /// range records nothing.
  void add_coverage(common::TimePoint begin, common::TimePoint end,
                    const std::vector<common::TimePoint>& present);
  /// Fold one ingested day file's screen tallies into the totals; a day with
  /// quarantined lines, zero bytes or CRLF terminators gets a `days` entry.
  void add_day(common::TimePoint date, std::uint64_t file_bytes,
               const logsys::ScreenCounts& counts);
  /// Publish the headline figures as the ingest.* counters.
  void publish(obs::MetricsRegistry& reg) const;

  /// Machine-readable data_quality.json document.
  std::string to_json() const;
  /// Markdown "Data quality" section for the analysis report.
  std::string to_markdown() const;
};

}  // namespace gpures::analysis
