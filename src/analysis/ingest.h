// The Stage I/II ingest core shared by the batch loader (load_dataset
// feeding an AnalysisPipeline) and the follow-mode daemon
// (serve::ServeSession): line classification and coalescing, the line screen
// and the accounting-row policy, each decided here once (see DESIGN.md "One
// ingest core").
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
#include "common/thread_pool.h"
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

/// Stages I and II of the XID logs (paper Fig. 1): raw day lines into
/// observations and lifecycle records, observations into coalesced errors.
///
/// ingest() classifies a day's lines in contiguous line ranges, up to one
/// per pool worker and none under kMinRangeLines, then appends the
/// lifecycle records and feeds the observations to the one coalescer in
/// line order: errors, records and counters come out as one serial walk
/// would produce them, at any worker count and however a day is cut into
/// chunks (DESIGN.md "Parallel pipeline determinism").
class LogIngest {
 public:
  /// Days are not split into ranges shorter than this: handing a range to a
  /// worker costs a wake-up, worth it only for a few hundred microseconds of
  /// classification.
  static constexpr std::size_t kMinRangeLines = 1024;

  /// Coalesced errors append to `errors`, lifecycle records to `lifecycle`.
  /// Counts the Stage1Counters, `<prefix>.errors_coalesced`,
  /// `<prefix>.out_of_order_observations` (at finish()), the per-slot
  /// `<prefix>.worker.N.{days_parsed,lines,parse_time_ns}` and the
  /// `<prefix>.stage1.day_parse_us` histogram.  With a `pool`, ingest()
  /// classifies line ranges on its workers.
  LogIngest(const cluster::Topology& topo, const CoalescerConfig& cfg,
            std::vector<CoalescedError>& errors,
            std::vector<LifecycleRecord>& lifecycle, obs::MetricsRegistry& reg,
            const std::string& prefix, common::ThreadPool* pool = nullptr);

  /// Stages I and II over `day` — a whole day file, or a serve chunk of one
  /// cut at a line boundary — dated `date`.  Returns the newest observation
  /// time, 0 when the lines hold none.
  common::TimePoint ingest(common::TimePoint date, const logsys::DayBuffer& day);

  /// Flush the open coalescer groups and count the out-of-order
  /// observations.  Call once after the last ingest().
  void finish();

  /// The coalescer's in-flight state, for checkpoints.
  CoalescerState state() const { return coalescer_.state(); }
  void restore(const CoalescerState& state) { coalescer_.restore(state); }

 private:
  /// Stage-I totals of one worker slot (slot 0 when inline).
  struct WorkerMetrics {
    obs::Counter* days_parsed = nullptr;
    obs::Counter* lines = nullptr;
    obs::Counter* parse_time_ns = nullptr;
  };

  const cluster::Topology& topo_;
  std::vector<LifecycleRecord>& lifecycle_;
  common::ThreadPool* pool_;
  Stage1Counters stage1_;
  obs::Counter* errors_coalesced_ = nullptr;
  obs::Counter* out_of_order_ = nullptr;
  obs::Histogram* day_parse_us_ = nullptr;
  std::vector<WorkerMetrics> workers_;
  std::vector<Stage1Batch> ranges_;  ///< reused across ingest() calls
  Coalescer coalescer_;
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

/// Byte offsets that cut `text` into `ranges` contiguous pieces, each ending
/// just past a newline (the last at text.size()): cuts.front() is 0,
/// cuts.back() is text.size(), and piece i is [cuts[i], cuts[i + 1]), which
/// may be empty.  Cut i is the first line start at or after i / ranges of
/// the text.
std::vector<std::size_t> line_range_cuts(std::string_view text,
                                         std::size_t ranges);

/// Slurm accounting rows into a JobTable.
///
/// consume() converts rows in contiguous line ranges, one per pool worker,
/// each straight into its own slots of the job table, then merges the
/// ranges in row order: the table, the counters and the cursor come out as
/// if one loop had walked the rows, and the strict and budget decisions are
/// replayed in row order, so an error names the same row and leaves the
/// same state at any worker count (DESIGN.md "One ingest core").
class AccountingIngest {
 public:
  enum class Row : std::uint8_t { kSkipped, kKept, kRejected };

  /// Texts shorter than this per range are not split further.
  static constexpr std::size_t kMinRangeBytes = 32 << 10;

  /// Counts `<prefix>.accounting_lines` / `<prefix>.accounting_errors`.
  /// With a `pool`, consume() converts line ranges on its workers.
  AccountingIngest(const cluster::Topology& topo, JobTable& jobs,
                   obs::MetricsRegistry& reg, const std::string& prefix,
                   common::ThreadPool* pool = nullptr);

  /// One row: blank lines and the header are skipped, a malformed row is
  /// counted and rejected, anything else lands in the job table (through
  /// one reused record, so no allocation after warm-up).
  Row row(std::string_view line);

  /// Consume whole lines (the last possibly unterminated) at `cur`: strict
  /// fails on the first malformed row naming path:line:byte, lenient
  /// tallies it under the error budget.  Advances `cur` past `text` on
  /// success; on failure the table, counters and `cur` stop at the
  /// offending row, as a row-by-row loop would leave them.
  common::Status consume(std::string_view text, const std::string& path,
                         const IngestRules& rules, AccountingCursor& cur);

 private:
  const cluster::Topology& topo_;
  JobTable& jobs_;
  common::ThreadPool* pool_;
  slurm::JobRecord record_;
  obs::Counter* lines_ = nullptr;
  obs::Counter* errors_ = nullptr;
};

}  // namespace gpures::analysis
