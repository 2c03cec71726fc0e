// One result view over a finished ingest: what the batch AnalysisPipeline
// and the follow-mode serve::ServeSession both are.  It holds the coalesced
// errors, lifecycle records and job table with the topology, periods,
// analysis knobs and worker pool, fixes the final result order, and derives
// every Stage-III analysis (paper Fig. 1), so reports render the same from
// either front end.  Each call derives afresh; a run that renders several
// artifacts reads them through one Stage3Results (stage3_results.h).
#pragma once

#include <cstdint>
#include <memory>
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
#include "common/time.h"
#include "obs/metrics.h"

namespace gpures::analysis {

/// The analysis knobs shared by every front end's configuration.
struct AnalysisKnobs {
  CoalescerConfig coalescer;
  /// Outlier handling for the aggregate MTBE (see ErrorStatsConfig).
  double outlier_share = 0.5;
  std::uint64_t outlier_min = 1000;
  /// Job-failure attribution window (paper: 20 s).
  common::Duration attribution_window = 20;
  /// Error-to-job attribution granularity (see job_impact.h).
  Attribution attribution = Attribution::kGpuLevel;
};

class ResultSet {
 public:
  ResultSet(const ResultSet&) = delete;
  ResultSet& operator=(const ResultSet&) = delete;

  // ---- results (valid once the front end has finished ingesting) ----
  const std::vector<CoalescedError>& errors() const { return errors_; }
  const std::vector<LifecycleRecord>& lifecycle() const { return lifecycle_; }
  const JobTable& jobs() const { return jobs_; }

  ErrorStats error_stats() const;
  JobStats job_stats() const;                 ///< full characterization window
  JobStats job_stats(const Period& w) const;  ///< custom window
  /// Table II over the operational period: `pass` (mask_jobs over jobs()
  /// and `index`, the run's build_error_index, at impact_config()'s window
  /// and attribution) folded by fold_job_impact, counted in pipe.stage3.*.
  /// `exposures`, when non-null, receives the fold's exposure list.
  JobImpact job_impact(const ErrorIndexView& index, const ExposurePass& pass,
                       std::vector<JobExposure>* exposures = nullptr) const;
  /// Same, building the index and running the pass first.
  JobImpact job_impact() const;
  AvailabilityStats availability() const;     ///< operational period
  /// Conservative MTTF estimate: the all-error per-node MTBE in op (the
  /// paper assumes every GPU error interrupts the node).
  double mttf_estimate_h() const;
  /// The attribution settings job_impact() uses (also for mitigation).
  JobImpactConfig impact_config() const;

  // ---- context ----
  const cluster::Topology& topo() const { return *topo_; }
  const StudyPeriods& periods() const { return periods_; }
  const AnalysisKnobs& knobs() const { return knobs_; }
  /// The worker pool shared by every stage; null in serial mode.  Callers
  /// running Stage-III renders outside the view (trends, survival,
  /// mitigation) pass this through so --threads governs them too.
  common::ThreadPool* pool() const { return pool_.get(); }
  /// The registry collecting the front end's metrics (never null).  Code that
  /// feeds the front end (the dataset loader) registers its own families here,
  /// so one --metrics artifact covers the whole run.
  const obs::MetricsRegistry& metrics() const { return *metrics_; }
  obs::MetricsRegistry& metrics() { return *metrics_; }

 protected:
  /// `threads` > 0 creates the worker pool; `metrics` null gives the view a
  /// private registry.  `topo` may be bound later (serve reads it at open).
  ResultSet(const cluster::Topology* topo, const StudyPeriods& periods,
            const AnalysisKnobs& knobs, std::uint32_t threads,
            obs::MetricsRegistry* metrics);
  ~ResultSet() = default;

  /// The final result order: errors by (time, GPU, code) — a total order on
  /// the data, so the sequence is identical however they were produced —
  /// and lifecycle records stably by time.
  void sort_results();

  const cluster::Topology* topo_ = nullptr;
  StudyPeriods periods_;
  AnalysisKnobs knobs_;
  std::vector<CoalescedError> errors_;
  std::vector<LifecycleRecord> lifecycle_;
  JobTable jobs_;

 private:
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;  ///< effective registry
  std::unique_ptr<common::ThreadPool> pool_;
  obs::Counter* join_exposures_ = nullptr;  ///< exposed jobs, all folds
  obs::Histogram* join_us_ = nullptr;       ///< Table II fold latency
};

}  // namespace gpures::analysis
