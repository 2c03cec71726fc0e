// The Stage-I ingest core shared by the batch loader (load_dataset feeding
// an AnalysisPipeline) and the follow-mode daemon (serve::ServeSession):
// line classification, the line screen and the accounting-row policy, each
// decided here once (see DESIGN.md "One ingest core").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/coalesce.h"
#include "analysis/data_quality.h"
#include "analysis/extraction.h"
#include "analysis/job_stats.h"
#include "cluster/topology.h"
#include "common/error.h"
#include "logsys/day_buffer.h"
#include "obs/metrics.h"
#include "slurm/job.h"

namespace gpures::analysis {

/// Stage-I tallies of one classified line range.
struct LineTallies {
  std::uint64_t lines = 0;
  std::uint64_t rejected = 0;       ///< noise / non-matching
  std::uint64_t unknown_hosts = 0;  ///< matched but unresolvable
  std::uint64_t xids = 0;
  std::uint64_t lifecycles = 0;
};

/// Stage-I output of a line range, in line order.
struct Stage1Batch {
  std::vector<XidObservation> obs;
  std::vector<LifecycleRecord> lifecycle;
};

/// Classify lines [lo, hi) of the day file `day` starting at `day_start`:
/// XID lines resolve host -> node -> GPU slot into observations, lifecycle
/// lines on known hosts into records.  The hot path: no allocation on the
/// reject path, no per-line callback.
LineTallies classify_lines(const cluster::Topology& topo,
                           const logsys::DayBuffer& day, std::size_t lo,
                           std::size_t hi, common::TimePoint day_start,
                           Stage1Batch& out);

/// The five Stage-I counters of one front end, `<prefix>.log_lines` etc.
struct Stage1Counters {
  Stage1Counters(obs::MetricsRegistry& reg, const std::string& prefix);
  void add(const LineTallies& t) const;

  obs::Counter* log_lines = nullptr;
  obs::Counter* xid_records = nullptr;
  obs::Counter* lifecycle_records = nullptr;
  obs::Counter* rejected_lines = nullptr;
  obs::Counter* unknown_hosts = nullptr;
};

/// The ingest policy as both front ends apply it.
struct IngestRules {
  IngestPolicy policy = IngestPolicy::kStrict;
  /// Max quarantined lines per day file and max rejected accounting rows; a
  /// lenient run exceeding it aborts with an error.  0 = unlimited.
  std::uint64_t error_budget = 0;
  /// Line screen (max line length) applied while slicing day files.
  logsys::LineScreen screen;
};

using WarnFn = std::function<void(const std::string&)>;

/// Day text through the line screen under the ingest policy.
class DayScreen {
 public:
  DayScreen(obs::MetricsRegistry& reg, IngestRules rules);

  /// Slice `text` — a whole day file, or a serve chunk cut at a line
  /// boundary — after `base_line` lines / `base_offset` bytes of `path`.
  /// Strict: a quarantined line is an error located in the whole file.
  /// Lenient: the tallies fold into `file_counts`, whose total the per-file
  /// budget bounds.
  common::Result<logsys::DayBuffer> screen(const std::string& path,
                                           common::TimePoint date,
                                           std::string&& text,
                                           std::uint64_t base_line,
                                           std::uint64_t base_offset,
                                           logsys::ScreenCounts& file_counts);

 private:
  IngestRules rules_;
  obs::Counter* dropped_torn_ = nullptr;
  obs::Counter* dropped_binary_ = nullptr;
  obs::Counter* dropped_overlong_ = nullptr;
};

/// Warn about what the screen quarantined or normalized in one day file.
void warn_screened(const logsys::ScreenCounts& counts, const std::string& path,
                   const WarnFn& warn);

/// Position and tallies of an accounting dump consumed so far.
struct AccountingCursor {
  std::uint64_t offset = 0;   ///< consumed bytes (line boundary)
  std::uint64_t line_no = 0;  ///< physical lines consumed
  std::uint64_t rows_kept = 0;
  std::uint64_t rows_rejected = 0;
  std::uint64_t bytes_rejected = 0;
};

/// Warn about the malformed rows a lenient accounting ingest rejected.
void warn_rejected_rows(const AccountingCursor& cur, const std::string& path,
                        const WarnFn& warn);

/// Slurm accounting rows into a JobTable.
class AccountingIngest {
 public:
  enum class Row : std::uint8_t { kSkipped, kKept, kRejected };

  /// Counts `<prefix>.accounting_lines` / `<prefix>.accounting_errors`.
  AccountingIngest(const cluster::Topology& topo, JobTable& jobs,
                   obs::MetricsRegistry& reg, const std::string& prefix);

  /// One row: blank lines and the header are skipped, a malformed row is
  /// counted and rejected, anything else lands in the job table (through
  /// one reused record, so no allocation after warm-up).
  Row row(std::string_view line);

  /// Consume whole lines (the last possibly unterminated) at `cur`: strict
  /// fails on a malformed row naming path:line:byte, lenient tallies it
  /// under the error budget.  Advances `cur` past `text` on success.
  common::Status consume(std::string_view text, const std::string& path,
                         const IngestRules& rules, AccountingCursor& cur);

 private:
  const cluster::Topology& topo_;
  JobTable& jobs_;
  slurm::JobRecord record_;
  obs::Counter* lines_ = nullptr;
  obs::Counter* errors_ = nullptr;
};

}  // namespace gpures::analysis
