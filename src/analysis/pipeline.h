// The end-to-end analysis pipeline (paper Fig. 1).
//
// Stage I:  ingest per-day raw syslog text and the Slurm accounting dump;
//           resolve hostnames/PCI ids to GPUs (analysis/ingest.h).
// Stage II: coalesce duplicated XID records into errors; compute error
//           counts and MTBE per family/category/period.
// Stage III:correlate errors with job records (Table II), job population
//           statistics (Table III), and node availability (Fig. 2, §V-C);
//           derived by the ResultSet view the pipeline is.
//
// The pipeline consumes raw artifacts only — never simulator ground truth —
// so validating its outputs against ground truth is a genuine end-to-end
// test of the measurement methodology.
//
// Stages I and II run in LogIngest: each day is classified in line ranges
// and coalesced on one coalescer in line order.  Stage III runs by job range
// (the exposure join runs against a read-only per-location error index) and
// by host for availability; every range and shard merges deterministically.
// PipelineConfig::num_threads > 0 runs them on that many workers; 0 runs
// everything on the calling thread.  The output is byte-identical either way
// (see DESIGN.md "Parallel pipeline determinism").
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/ingest.h"
#include "analysis/periods.h"
#include "analysis/result_set.h"
#include "cluster/topology.h"
#include "logsys/day_buffer.h"
#include "logsys/log_store.h"
#include "obs/metrics.h"

namespace gpures::analysis {

struct PipelineConfig : AnalysisKnobs {
  StudyPeriods periods = StudyPeriods::delta();
  /// Worker threads for every stage.  0 (the default) runs fully serial;
  /// N > 0 runs Stage I in line ranges, the accounting dump in row ranges
  /// and Stage III job-/host-sharded on N workers with a deterministic
  /// ordered merge — results are byte-identical to serial for any N.
  std::uint32_t num_threads = 0;
  /// Observability registry for the pipe.* metrics (stage counters,
  /// per-worker parse totals, day-parse latency histogram).  When null the
  /// pipeline owns a private registry, so metrics are always collected;
  /// the flag only controls where they can be read from.  Give each
  /// pipeline its own registry unless aggregate counts are wanted.
  /// Metrics never feed back into analysis results.
  obs::MetricsRegistry* metrics = nullptr;
};

class AnalysisPipeline : public ResultSet {
 public:
  AnalysisPipeline(const cluster::Topology& topo, PipelineConfig cfg);

  // ---- Stage I ingestion ----
  /// Ingest one consolidated day as an arena: the pipeline takes ownership,
  /// Stage-I workers parse string_view slices straight out of the day
  /// buffer — zero per-line copies — and the day is coalesced and released
  /// before the call returns.  This is the hot path; the overloads below
  /// are copying conveniences that funnel into it.
  void ingest_day(common::TimePoint day_start, logsys::DayBuffer&& day);
  /// Ingest one consolidated day of raw log lines (copies into an arena).
  void ingest_log_day(common::TimePoint day_start,
                      std::span<const logsys::RawLine> lines);
  /// Ingest newline-separated day text by taking ownership of the string:
  /// the text becomes the day's arena with no copy (loaders pass the whole
  /// file straight through).
  void ingest_log_text(common::TimePoint day_start, std::string&& text);
  /// Same, from borrowed text (copies once into an arena).
  void ingest_log_text(common::TimePoint day_start, std::string_view text);
  /// Disambiguates string literals (would match both overloads above).
  void ingest_log_text(common::TimePoint day_start, const char* text) {
    ingest_log_text(day_start, std::string_view(text));
  }
  /// Ingest one accounting line.  Returns false when the line is malformed
  /// (counted and skipped here; the loader's ingest policy decides whether
  /// that aborts the run).  Header and blank lines are accepted trivially.
  bool ingest_accounting_line(std::string_view line);
  /// Ingest accounting text (whole lines) at `cur` under the ingest policy:
  /// see AccountingIngest::consume.
  common::Status ingest_accounting(std::string_view text,
                                   const std::string& path,
                                   const IngestRules& rules,
                                   AccountingCursor& cur);

  /// Flush the coalescer and sort results.  Call once after all ingestion;
  /// the ResultSet accessors are valid after it.
  void finish();

  const PipelineConfig& config() const { return cfg_; }

 private:
  PipelineConfig cfg_;
  LogIngest logs_;
  AccountingIngest accounting_;
  bool finished_ = false;
};

}  // namespace gpures::analysis
