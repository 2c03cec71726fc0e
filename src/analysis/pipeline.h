// The end-to-end analysis pipeline (paper Fig. 1).
//
// Stage I:  ingest per-day raw syslog text (regex or fast matcher) and the
//           Slurm accounting dump; resolve hostnames/PCI ids to GPUs.
// Stage II: coalesce duplicated XID records into errors; compute error
//           counts and MTBE per family/category/period.
// Stage III:correlate errors with job records (Table II), job population
//           statistics (Table III), and node availability (Fig. 2, §V-C).
//
// The pipeline consumes raw artifacts only — never simulator ground truth —
// so validating its outputs against ground truth is a genuine end-to-end
// test of the measurement methodology.
//
// Parallel mode (PipelineConfig::num_threads > 0) shards Stage I by day,
// Stage II by GPU, and Stage III by job range (the exposure join runs
// against a read-only per-location error index) and by host for
// availability, then merges deterministically; the output is byte-identical
// to a serial run (see DESIGN.md "Parallel pipeline determinism").
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "analysis/availability.h"
#include "analysis/coalesce.h"
#include "analysis/error_stats.h"
#include "analysis/extraction.h"
#include "analysis/job_impact.h"
#include "analysis/job_stats.h"
#include "analysis/periods.h"
#include "cluster/topology.h"
#include "common/thread_pool.h"
#include "logsys/day_buffer.h"
#include "logsys/log_store.h"
#include "obs/metrics.h"

namespace gpures::analysis {

struct PipelineConfig {
  StudyPeriods periods = StudyPeriods::delta();
  CoalescerConfig coalescer;
  /// Outlier handling for the aggregate MTBE (see ErrorStatsConfig).
  double outlier_share = 0.5;
  std::uint64_t outlier_min = 1000;
  /// Job-failure attribution window (paper: 20 s).
  common::Duration attribution_window = 20;
  /// Error-to-job attribution granularity (see job_impact.h).
  Attribution attribution = Attribution::kGpuLevel;
  /// Use the std::regex Stage-I matcher instead of the fast scanner.
  bool use_regex_parser = false;
  /// Worker threads for every stage.  0 (the default) runs fully serial;
  /// N > 0 runs Stage I day-sharded, Stage II GPU-sharded, and Stage III
  /// job-/host-sharded on N workers with a deterministic ordered merge —
  /// results are byte-identical to serial for any N.
  std::uint32_t num_threads = 0;
  /// Days buffered per parallel Stage-I batch (bounds memory when streaming
  /// a long campaign).  0 picks 4 * num_threads.  Has no effect on results.
  std::uint32_t stage1_batch_days = 0;
  /// Observability registry for the pipe.* metrics (stage counters,
  /// per-worker parse totals, day-parse latency histogram).  When null the
  /// pipeline owns a private registry, so metrics are always collected;
  /// the flag only controls where they can be read from.  Give each
  /// pipeline its own registry unless aggregate counts are wanted.
  /// Metrics never feed back into analysis results.
  obs::MetricsRegistry* metrics = nullptr;
};

class AnalysisPipeline {
 public:
  AnalysisPipeline(const cluster::Topology& topo, PipelineConfig cfg);
  ~AnalysisPipeline();

  AnalysisPipeline(const AnalysisPipeline&) = delete;
  AnalysisPipeline& operator=(const AnalysisPipeline&) = delete;

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

  /// Flush the coalescer and sort results.  Call once after all ingestion.
  void finish();

  // ---- results (valid after finish()) ----
  const std::vector<CoalescedError>& errors() const { return errors_; }
  const std::vector<LifecycleRecord>& lifecycle() const { return lifecycle_; }
  const JobTable& jobs() const { return jobs_; }

  ErrorStats error_stats() const;
  JobStats job_stats() const;                 ///< full characterization window
  JobStats job_stats(const Period& w) const;  ///< custom window
  JobImpact job_impact() const;               ///< operational period
  AvailabilityStats availability() const;     ///< operational period
  /// Conservative MTTF estimate: the all-error per-node MTBE in op (the
  /// paper assumes every GPU error interrupts the node).
  double mttf_estimate_h() const;

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
  /// The registry collecting this pipeline's metrics (never null).  The
  /// mutable overload lets collaborators that feed the pipeline (the dataset
  /// loader, the query layer) register their own families on the same
  /// registry, so one --metrics artifact covers the whole run.
  const obs::MetricsRegistry& metrics() const { return *metrics_; }
  obs::MetricsRegistry& metrics() { return *metrics_; }
  const PipelineConfig& config() const { return cfg_; }
  /// The worker pool shared by every stage; null in serial mode.  Callers
  /// running Stage-III renders outside the pipeline (trends, survival,
  /// mitigation) pass this through so --threads governs them too.
  common::ThreadPool* pool() const { return pool_.get(); }

 private:
  /// Pure Stage-I output of one day: records in line order.  Counter deltas
  /// go straight to the metrics registry (sharded per-thread cells; sums
  /// are order-independent, so parallel parsing stays deterministic).
  struct DayParse {
    std::vector<XidObservation> obs;
    std::vector<LifecycleRecord> lifecycle;
  };
  struct PendingDay {
    common::TimePoint day_start = 0;
    logsys::DayBuffer day;
  };
  /// Handles into the registry, resolved once at construction.
  struct StageMetrics {
    obs::Counter* log_lines = nullptr;
    obs::Counter* xid_records = nullptr;
    obs::Counter* lifecycle_records = nullptr;
    obs::Counter* rejected_lines = nullptr;
    obs::Counter* unknown_hosts = nullptr;
    obs::Counter* accounting_lines = nullptr;
    obs::Counter* accounting_errors = nullptr;
    obs::Counter* out_of_order = nullptr;
    obs::Counter* errors_coalesced = nullptr;
    obs::Histogram* day_parse_us = nullptr;
    obs::Counter* stage3_exposures = nullptr;   ///< exposed jobs, all joins
    obs::Histogram* stage3_join_us = nullptr;   ///< exposure-join latency
  };
  /// Per-worker-slot Stage-I totals (slot 0 in serial mode).
  struct WorkerMetrics {
    obs::Counter* days_parsed = nullptr;
    obs::Counter* lines = nullptr;
    obs::Counter* parse_time_ns = nullptr;
  };
  /// Per-shard Stage-III exposure-join totals (shard 0 in serial mode).
  struct Stage3ShardMetrics {
    obs::Counter* jobs = nullptr;     ///< jobs scanned by this shard
    obs::Counter* exposed = nullptr;  ///< of those, jobs with >= 1 error
  };

  DayParse parse_day(const LineParser& parser, std::size_t worker,
                     common::TimePoint day_start,
                     const logsys::DayBuffer& day) const;
  std::size_t shard_of(xid::GpuId gpu) const;
  /// Parallel mode: Stage-I parse all pending days on the pool, merge the
  /// per-day batches in day order, and drain each Stage-II shard.
  void flush_pending_days();

  const cluster::Topology& topo_;
  PipelineConfig cfg_;

  // Serial mode.
  std::unique_ptr<LineParser> parser_;
  std::unique_ptr<Coalescer> coalescer_;

  // Parallel mode (num_threads > 0).
  std::unique_ptr<common::ThreadPool> pool_;
  std::vector<std::unique_ptr<LineParser>> worker_parsers_;
  std::vector<std::unique_ptr<Coalescer>> shard_coalescers_;
  std::vector<std::vector<CoalescedError>> shard_errors_;
  std::vector<std::vector<XidObservation>> shard_feed_;
  std::vector<PendingDay> pending_days_;
  std::size_t batch_days_ = 0;

  std::vector<CoalescedError> errors_;
  std::vector<LifecycleRecord> lifecycle_;
  JobTable jobs_;
  /// Reused by every accounting row, so parsing one allocates nothing once
  /// its name and lists have grown.
  slurm::JobRecord acct_record_;

  obs::MetricsRegistry* metrics_ = nullptr;  ///< effective registry
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  StageMetrics m_;
  std::vector<WorkerMetrics> worker_metrics_;
  std::vector<Stage3ShardMetrics> stage3_shard_metrics_;

  bool finished_ = false;
};

}  // namespace gpures::analysis
