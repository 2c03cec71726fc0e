#include "analysis/result_set.h"

#include <algorithm>
#include <chrono>

#include "obs/trace.h"
#include "xid/xid.h"

namespace gpures::analysis {

namespace {

// Deterministic total order on coalesced errors: two distinct errors can
// never tie (same (gpu, code) errors are > window apart by construction).
bool error_before(const CoalescedError& a, const CoalescedError& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.gpu != b.gpu) return a.gpu < b.gpu;
  return xid::to_number(a.code) < xid::to_number(b.code);
}

}  // namespace

ResultSet::ResultSet(const cluster::Topology* topo,
                     const StudyPeriods& periods, const AnalysisKnobs& knobs,
                     std::uint32_t threads, obs::MetricsRegistry* metrics)
    : topo_(topo), periods_(periods), knobs_(knobs) {
  if (metrics != nullptr) {
    metrics_ = metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  if (threads > 0) pool_ = std::make_unique<common::ThreadPool>(threads);
  join_exposures_ = &metrics_->counter("pipe.stage3.exposures");
  join_us_ = &metrics_->histogram("pipe.stage3.exposure_join_us",
                                  obs::latency_buckets_us());
}

void ResultSet::sort_results() {
  std::sort(errors_.begin(), errors_.end(), error_before);
  // Lifecycle ties (same second) keep ingestion order: every front end feeds
  // day order, then line order, and stable_sort preserves it.
  std::stable_sort(lifecycle_.begin(), lifecycle_.end(),
                   [](const LifecycleRecord& a, const LifecycleRecord& b) {
                     return a.time < b.time;
                   });
}

ErrorStats ResultSet::error_stats() const {
  OBS_SPAN("stage3.error_stats");
  ErrorStatsConfig cfg;
  cfg.node_count = topo_->node_count();
  cfg.outlier_share = knobs_.outlier_share;
  cfg.outlier_min = knobs_.outlier_min;
  return compute_error_stats(errors_, periods_, cfg);
}

JobStats ResultSet::job_stats() const { return job_stats(periods_.whole()); }

JobStats ResultSet::job_stats(const Period& w) const {
  OBS_SPAN("stage3.job_stats");
  return compute_job_stats(jobs_, w);
}

JobImpactConfig ResultSet::impact_config() const {
  JobImpactConfig cfg;
  cfg.window = knobs_.attribution_window;
  cfg.period = periods_.op;
  cfg.attribution = knobs_.attribution;
  return cfg;
}

JobImpact ResultSet::job_impact(const ErrorIndexView& index,
                                const ExposurePass& pass,
                                std::vector<JobExposure>* exposures) const {
  OBS_SPAN("stage3.job_impact");
  const auto t0 = std::chrono::steady_clock::now();
  auto out = fold_job_impact(jobs_, index, pass, impact_config(), exposures);
  join_us_->observe(std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
  join_exposures_->add(out.jobs_exposed);
  return out;
}

JobImpact ResultSet::job_impact() const {
  const auto index = build_error_index(errors_);
  return job_impact(index.view(),
                    mask_jobs(jobs_, index.view(), knobs_.attribution_window,
                              knobs_.attribution));
}

AvailabilityStats ResultSet::availability() const {
  OBS_SPAN("stage3.availability");
  AvailabilityConfig cfg;
  cfg.period = periods_.op;
  cfg.node_count = topo_->node_count();
  return compute_availability(lifecycle_, cfg, pool_.get());
}

double ResultSet::mttf_estimate_h() const {
  return error_stats().total.op.mtbe_per_node_h;
}

}  // namespace gpures::analysis
