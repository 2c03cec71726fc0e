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
// Stage I runs in batches of days, Stage II in GPU shards, and Stage III by
// job range (the exposure join runs against a read-only per-location error
// index) and by host for availability; every batch and shard merges
// deterministically.  PipelineConfig::num_threads > 0 runs them on that
// many workers; 0 runs one shard and one-day batches on the calling thread.
// The output is byte-identical either way (see DESIGN.md "Parallel pipeline
// determinism").
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/coalesce.h"
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
  /// N > 0 runs Stage I day-sharded, Stage II GPU-sharded, and Stage III
  /// job-/host-sharded on N workers with a deterministic ordered merge —
  /// results are byte-identical to serial for any N.
  std::uint32_t num_threads = 0;
  /// Days buffered per parallel Stage-I batch (bounds memory when streaming
  /// a long campaign).  0 picks 4 * num_threads (1 when serial).  Has no
  /// effect on results.
  std::uint32_t stage1_batch_days = 0;
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
  ~AnalysisPipeline();

  // ---- Stage I ingestion ----
  /// Ingest one consolidated day as an arena: the pipeline takes ownership
  /// and Stage-I workers parse string_view slices straight out of the day
  /// buffer — zero per-line copies.  This is the hot path; the overloads
  /// below are copying conveniences that funnel into it.
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

  // ---- diagnostics ----
  /// Snapshot view of the pipe.* metrics, kept as a plain struct for API
  /// compatibility.  The values themselves live on the obs metrics
  /// registry (PipelineConfig::metrics or the pipeline's private one).
  struct Counters {
    std::uint64_t log_lines = 0;
    std::uint64_t xid_records = 0;
    std::uint64_t lifecycle_records = 0;
    std::uint64_t rejected_lines = 0;     ///< noise / non-matching
    std::uint64_t unknown_hosts = 0;      ///< matched but unresolvable
    std::uint64_t accounting_lines = 0;
    std::uint64_t accounting_errors = 0;
    /// Observations violating the coalescer's per-(GPU, code) nondecreasing-
    /// time contract (valid after finish(); see Coalescer::out_of_order()).
    std::uint64_t out_of_order_observations = 0;
  };
  Counters counters() const;
  const PipelineConfig& config() const { return cfg_; }

 private:
  struct PendingDay {
    common::TimePoint day_start = 0;
    logsys::DayBuffer day;
  };
  /// Per-worker-slot Stage-I totals (slot 0 in serial mode).
  struct WorkerMetrics {
    obs::Counter* days_parsed = nullptr;
    obs::Counter* lines = nullptr;
    obs::Counter* parse_time_ns = nullptr;
  };

  /// Stage I of one day on worker slot `worker`: records in line order.
  /// Counter deltas go straight to the metrics registry (sums are
  /// order-independent, so parallel parsing stays deterministic).
  Stage1Batch parse_day(std::size_t worker, common::TimePoint day_start,
                        const logsys::DayBuffer& day) const;
  std::size_t shard_of(xid::GpuId gpu) const;
  /// Run fn(i, worker) for i in [0, n) on the pool, or inline when serial.
  template <typename Fn>
  void for_each(std::size_t n, Fn&& fn);
  /// Stage-I parse all pending days, merge the per-day batches in day
  /// order, and drain each Stage-II shard.
  void flush_pending_days();

  PipelineConfig cfg_;

  std::vector<std::unique_ptr<Coalescer>> shard_coalescers_;
  std::vector<std::vector<CoalescedError>> shard_errors_;
  std::vector<PendingDay> pending_days_;
  std::size_t batch_days_ = 0;

  AccountingIngest accounting_;

  Stage1Counters stage1_;
  obs::Counter* out_of_order_ = nullptr;
  obs::Counter* errors_coalesced_ = nullptr;
  obs::Histogram* day_parse_us_ = nullptr;
  std::vector<WorkerMetrics> worker_metrics_;

  bool finished_ = false;
};

}  // namespace gpures::analysis
