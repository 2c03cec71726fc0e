// On-disk dataset format: the bridge between the simulator and the analysis
// CLI, and the format a site would drop its *real* logs into to use this
// pipeline on production data.
//
// A dataset directory contains:
//   manifest.txt               key=value: cluster spec, period boundaries
//   syslog/syslog-YYYY-MM-DD.log   one consolidated day file per day
//   slurm_accounting.txt       sacct-style dump (header + one job per line)
//
// `DatasetWriter` materializes a campaign's raw artifacts; `load_dataset`
// streams a directory through an AnalysisPipeline day by day.
//
// Real logs arrive hostile — truncated, interleaved with garbage, partially
// missing — so ingestion runs under an IngestPolicy: strict fails fast with
// an error naming file/line/byte offset; lenient quarantines corrupt lines,
// skips unreadable days as recorded coverage gaps, enforces a per-file
// error budget, and fills a DataQualityReport accounting for every dropped
// line and byte (see data_quality.h and DESIGN.md "Quarantine semantics").
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/data_quality.h"
#include "analysis/ingest.h"
#include "analysis/periods.h"
#include "analysis/pipeline.h"
#include "cluster/topology.h"
#include "common/error.h"
#include "logsys/day_buffer.h"
#include "logsys/log_store.h"
#include "obs/progress.h"

namespace gpures::analysis {

/// Dataset metadata persisted in manifest.txt.
struct DatasetManifest {
  std::string name = "gpures-dataset";
  cluster::ClusterSpec spec;
  StudyPeriods periods = StudyPeriods::delta();

  std::string serialize() const;
  /// Parse manifest text.  Rejects malformed lines, unknown and duplicate
  /// keys, bad dates, and a `nodes=` count that disagrees with the `node=`
  /// entries; every error names the offending line.
  static common::Result<DatasetManifest> parse(std::string_view text);
};

/// Writes a dataset directory incrementally (day consumer + accounting).
class DatasetWriter {
 public:
  /// Creates `dir` (and syslog/) if needed; truncates existing files.
  DatasetWriter(std::filesystem::path dir, DatasetManifest manifest);
  ~DatasetWriter();

  DatasetWriter(const DatasetWriter&) = delete;
  DatasetWriter& operator=(const DatasetWriter&) = delete;

  /// Write one consolidated day file straight from the arena: the sorted
  /// slices are streamed as maximal contiguous runs, so a fully in-order
  /// day is a single large write with no intermediate copy.
  void write_day(common::TimePoint day_start, const logsys::DayBuffer& day);

  /// Write one consolidated day file (convenience for tests/fixtures).
  void write_day(common::TimePoint day_start,
                 const std::vector<logsys::RawLine>& lines);

  /// Append one accounting line (header is written automatically first).
  void write_accounting_line(std::string_view line);

  /// Flush and write the manifest.  Called by the destructor too (which
  /// discards the status).  Returns the first write failure since
  /// construction (a full disk mid-dump must not produce a silently
  /// truncated dataset); repeat calls return the same status.
  common::Status finalize();

  const std::filesystem::path& dir() const { return dir_; }
  std::uint64_t days_written() const { return days_; }

 private:
  /// Record the first write failure; finalize() reports it.
  void note_write_failure(const std::string& what);

  std::filesystem::path dir_;
  DatasetManifest manifest_;
  std::ofstream accounting_;  ///< kept open: the dump has ~1.5M lines
  std::string write_error_;   ///< first deferred write failure, if any
  common::Status final_status_;
  std::uint64_t days_ = 0;
  bool finalized_ = false;
};

/// Read manifest.txt from a dataset directory.
common::Result<DatasetManifest> read_manifest(const std::filesystem::path& dir);

/// The date encoded in a day-file name, or nullopt when `filename` is not
/// exactly `syslog-YYYY-MM-DD.log` with a valid calendar date.  Anything
/// else in syslog/ (editor backups, .swp droppings, stray directories) is
/// skipped with a warning, never ingested as a day.
std::optional<common::TimePoint> day_file_date(std::string_view filename);

/// Options controlling how load_dataset treats hostile input.
/// The policy, error budget and line screen are the IngestRules base.
struct IngestOptions : IngestRules {
  /// Expected day range [expect_begin, expect_end) for coverage accounting
  /// (pass the manifest periods).  When expect_end <= expect_begin the
  /// range is inferred from the day files actually present.
  common::TimePoint expect_begin = 0;
  common::TimePoint expect_end = 0;
  /// Filled with the run's data-quality accounting when non-null.
  DataQualityReport* quality = nullptr;
  /// Receives human-readable warnings (stray files, quarantines, skipped
  /// days); null = silent (everything is still recorded in `quality`).
  std::function<void(const std::string&)> warn;
};

/// Stream a dataset directory through a pipeline: every syslog day file in
/// date order, then the accounting dump; finishes the pipeline.  Returns the
/// number of day files ingested or an error.  An optional progress reporter
/// receives (days ingested, total day files).
///
/// On clean input the ingested byte sequence — and therefore every
/// downstream artifact — is identical under both policies, any thread
/// count, and the pre-hardening loader.
common::Result<std::uint64_t> load_dataset(const std::filesystem::path& dir,
                                           AnalysisPipeline& pipeline,
                                           const IngestOptions& options,
                                           obs::ProgressReporter* progress =
                                               nullptr);

/// Strict-policy convenience overload (the pre-hardening signature).
common::Result<std::uint64_t> load_dataset(const std::filesystem::path& dir,
                                           AnalysisPipeline& pipeline,
                                           obs::ProgressReporter* progress =
                                               nullptr);

}  // namespace gpures::analysis
